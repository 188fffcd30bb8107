"""Adaptive integration of the first-order system with events and escape detection.

The second-order equation is integrated as the system

    phi' = psi / p0(t, phi),
    psi' = -r0(t, phi) * phi - q0(t, phi) / p0(t, phi) * psi,

so ``psi`` is the momentum-like variable p0 * phi' throughout.  The stepper is
an embedded Dormand-Prince 5(4) pair with a fourth-degree continuous extension
and a proportional-integral controller working in error-per-unit-step form:
the accepted local error is proportional to the step length, which makes the
accumulated error (and hence every residual oracle built on trajectories)
scale linearly with the requested tolerance.  Each run is one call of the
whole loop, generated and compiled on the first run of each rhs shape
(:func:`_loop_source`): the step is written out from the tableau, and each
rhs evaluation is written in place from the closed forms of the fields, whose
coefficients are the loop's locals, so equations that differ only in their
constants share one compile.

An attempt that starts above the norm |phi| + |psi| = ``_PER_STEP_NORM``
(1e3) is tested against a per-step target instead: its scaled error itself,
not the error per unit step, must be at most 1.  Near a blow-up at distance
d = T* - t the DP5 local error is about |y| (h/d)**5, so the per-unit-step
target shrinks h like d**(5/4) and the steps per e-fold of d grow like
d**(-1/4); relative to |y| per step, h stays about rel_tol**(1/5) d and the
steps per e-fold stay fixed (Hairer, Norsett & Wanner, Solving ODEs I, II.4).
A run whose norm never passes that level takes the same steps, bit for bit.

Finite escape is only declared once the norm has passed ``escape_threshold``,
and then on one of three signals:

* a stable blow-up rate.  The stepper records the time at which the norm
  first passes each level ``escape_threshold * 2**k``, bisected on the dense
  output of the step that passed it (:func:`_level_crossing`).  Under a
  power-law blow-up, norm ~ C (T* - t)**-p, these times approach T*
  geometrically with ratio 2**(-1/p).  When the last two ratios of
  successive gaps agree and are well below 1, and no zero has been recorded
  since the first of the four crossings used, the run stops at the node that
  passed the level, and Aitken extrapolation of the crossing times brackets
  T* (Stuart & Floater, "On the computation of blow-up", 1990;
  :func:`_blowup_estimate`);
* an escape time within the integration's own error.  A step tested per
  step keeps its relative error at most about rel_tol (abs_tol is negligible
  past the switch, and the propagated fifth-order solution is more accurate
  than the fourth-order estimate the test bounds).  A relative error eps of
  the state at distance d from a power-law pole moves the pole by about
  eps d / p, with p >= 1 for the norm, which holds psi ~ phi'.  So those
  steps move T* by at most about ``drift = rel_tol * sum(T^ - t_i)`` over
  their start times t_i; its first term also covers the error-per-unit-step
  part of the run before them, whose accumulated relative error is about
  rel_tol.  When the crossings give an estimate T^ with T^ - t <= drift, and
  no zero was recorded since the first of their four crossings, no later
  node could be told from T* within the run's own error, and the run stops
  at the node that passed the level;
* a collapse: the step size has fallen below ``min_step``, with the local
  error estimate still saturated or the stages not finite.  This ends
  escapes whose rate never settles, such as those whose zeros accumulate at
  the escape time.

Every bracket adds ``drift`` to the Aitken bracket (see :class:`TerminalStatus`).
A pure threshold would misfire on large-but-global solutions (e**t, e**(t**2)
and polynomials give gap ratios of at least 1, or ratios that keep drifting);
a pure collapse would misfire on singular coefficients.

:func:`integrate` returns one :class:`Trajectory`: the nodes, the zeros, the
terminal status and the dense output, one tuple of coefficients per accepted
step.  At t the dense output is the step that starts at the last node <= t,
the last step at t_end, and the stored initial values at t_start.  The
residual oracles that check trajectories live in :mod:`rcert.riccati`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DomainError, FieldEvaluationError, RcertError
from .fields import EquationSpec, InitialData, _at_point, _compiled_points, system_rhs
from .serialize import canonical_json, format_float

__all__ = [
    "IntegrationOptions",
    "TerminalStatus",
    "Trajectory",
    "integrate",
    "export_trajectory_csv",
    "REACHED_HORIZON",
    "FINITE_ESCAPE",
    "STEP_COLLAPSE",
]

REACHED_HORIZON = "reached_horizon"
FINITE_ESCAPE = "finite_escape"
STEP_COLLAPSE = "step_collapse"

# Dormand-Prince 5(4) (Dormand & Prince, 1980) for _step_lines: the stage times c2..c7, the rows
# a2..a7 (the seventh is also the fifth-order weights: first same as last), the error weights (fifth
# minus fourth order) and the quartic continuous extension (Hairer, Norsett & Wanner, Solving ODEs I, II.6).
_DP5 = (
    (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0),
    (
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    ),
    (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40),
    (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072, 701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423),
)

_SAFETY = 0.9
_KI = 0.175
_KP = 0.08
_EPS = 2.220446049250313e-16
#: The most steps one integration may take before it is abandoned as a runaway.
_MAX_STEPS = 2_000_000
# The blow-up signal: norm levels grow by _LEVEL_FACTOR; the gap ratio must be
# at most _RATE_CAP and the last two ratios agree to _RATE_AGREEMENT relative.
_LEVEL_FACTOR = 2.0
_RATE_CAP = 0.9
_RATE_AGREEMENT = 0.01
#: Past this norm |phi| + |psi| at the start of an attempt, the step is tested against a per-step target.
_PER_STEP_NORM = 1e3


@dataclass(frozen=True)
class IntegrationOptions:
    """Tolerances and guards for :func:`integrate`.

    ``rel_tol``/``abs_tol`` target the accumulated error over the whole run
    (error-per-unit-step control), and the error of each step past the norm
    1e3.  A finite escape is declared only past the norm ``escape_threshold``,
    on a stable blow-up rate, on an escape time within the run's own error or
    on a step below ``min_step`` (see the module docstring); ``zero_tol``
    bounds |phi| at recorded zero crossings.  A value on which the stepper's
    arithmetic would invent a verdict (a NaN or infinite tolerance or horizon,
    ``max_zeros`` < 1) raises ``ValueError`` naming the option.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    horizon: float = 50.0
    escape_threshold: float = 1e8
    min_step: float = 1e-12
    max_zeros: int = 10000
    zero_tol: float = 1e-9

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "min_step"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not 0.0 <= self.zero_tol < math.inf:
            raise ValueError(f"zero_tol must be finite and nonnegative, got {self.zero_tol!r}")
        if not self.escape_threshold > 0:
            raise ValueError(f"escape_threshold must be positive, got {self.escape_threshold!r}")
        if not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite, got {self.horizon!r}")
        if self.max_zeros < 1:
            raise ValueError(f"max_zeros must be at least 1, got {self.max_zeros!r}")


@dataclass(frozen=True)
class TerminalStatus:
    """How an integration ended.

    ``time`` is the last computed node.  ``bracket`` is only set for finite
    escapes whose norm-level crossing times give an Aitken estimate T^ of the
    escape time: the true escape time lies in (time, time + bracket), with
    ``bracket = (T^ - time) + err + drift``, ``err`` the error bound of
    :func:`_blowup_estimate` and ``drift = rel_tol * sum(T^ - t_i)`` over the
    start times t_i of the steps tested per step, the integration's own error
    in T* (see the module docstring).  An escape that collapses before that
    estimate exists has no bracket.
    """

    kind: str
    time: float
    reason: str = ""
    bracket: float | None = None

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "time": self.time}
        if self.reason:
            d["reason"] = self.reason
        if self.bracket is not None:
            d["bracket"] = self.bracket
        return d


def _dense_at(ts: list[float], ys: list[float], dense: list[tuple], j: int, t: float) -> float:
    """One component of the dense output at ``t``: ``ys`` holds its node values, and ``j`` is 1 for phi, 5 for psi.

    ``dense[k]`` holds the step from ``ts[k]`` to ``ts[k] + h`` as
    ``(h, a2, a3, a4, a5, b2, b3, b4, b5)``.  With ``th = (t - ts[k]) / h``,
    phi is ``phis[k] + th * (a2 + (1 - th) * (a3 + th * (a4 + (1 - th) * a5)))``
    and psi is the same in ``psis[k]`` and ``b2``..``b5``.  The module docstring
    gives the rule for which step holds ``t``.
    """
    if not (ts[0] <= t <= ts[-1]):
        raise DomainError(f"t={t!r} outside the computed span [{ts[0]!r}, {ts[-1]!r}]")
    if t == ts[0]:
        return ys[0]
    k = bisect_right(ts, t) - 1
    if k == len(ts) - 1:  # t_end
        k -= 1
    d = dense[k]
    th = (t - ts[k]) / d[0]
    th1 = 1.0 - th
    return ys[k] + th * (d[j] + th1 * (d[j + 1] + th * (d[j + 2] + th1 * d[j + 3])))


@dataclass
class Trajectory:
    """Dense numerical solution of the first-order system.

    ``ts``/``phis``/``psis`` are node values of the accepted mesh; ``dphis``
    holds phi' at the nodes.  ``zeros`` are strictly sign-change-bracketed
    zero crossings of phi.  ``_dense`` holds one tuple of the step length and
    the eight dense coefficients per accepted step (see :func:`_dense_at`); the
    node values are read from ``ts``/``phis``/``psis``.  Immutable by
    convention once returned.
    """

    eq: EquationSpec
    ic: InitialData
    opts: IntegrationOptions
    ts: list[float] = field(repr=False)
    phis: list[float] = field(repr=False)
    psis: list[float] = field(repr=False)
    dphis: list[float] = field(repr=False)
    zeros: list[float]
    terminal: TerminalStatus
    tangential: bool
    zeros_truncated: bool
    _dense: list[tuple] = field(repr=False)

    @property
    def t_start(self) -> float:
        return self.ts[0]

    @property
    def t_end(self) -> float:
        return self.ts[-1]

    def state_at(self, t: float) -> tuple[float, float]:
        return _dense_at(self.ts, self.phis, self._dense, 1, t), _dense_at(self.ts, self.psis, self._dense, 5, t)

    def phi_at(self, t: float) -> float:
        return _dense_at(self.ts, self.phis, self._dense, 1, t)

    def psi_at(self, t: float) -> float:
        return _dense_at(self.ts, self.psis, self._dense, 5, t)


def _dense_lines(psi: bool) -> list[str]:
    """Straight code that sets ``phi`` (and ``psi``) to :meth:`Trajectory.state_at` at ``t``, for a loop over t.

    Inside (t_start, t_end) it is :func:`_dense_at` on the step [lo, hi), whose
    coefficients are unpacked again only when t leaves it (``lo = hi = t_start``
    at first); elsewhere it calls ``state_at`` (``phi_at`` without ``psi``).
    """
    return [
        "if t_start < t < t_end:",
        "    if not lo <= t < hi:",
        "        k = bisect_right(ts, t) - 1",
        "        lo, hi, phik, psik = ts[k], ts[k + 1], phis[k], psis[k]",
        "        sh, a2, a3, a4, a5, b2, b3, b4, b5 = dense[k]",
        "    th = (t - lo) / sh",
        "    th1 = 1.0 - th",
        "    phi = phik + th * (a2 + th1 * (a3 + th * (a4 + th1 * a5)))",
        *["    psi = psik + th * (b2 + th1 * (b3 + th * (b4 + th1 * b5)))"] * psi,
        "else:",
        "    phi, psi = state_at(t)" if psi else "    phi = phi_at(t)",
    ]


class _NonFiniteStage(ArithmeticError):
    """A stage derivative or the propagated solution is not finite; the step is rejected."""


def _rms(ra: float, rb: float) -> float:
    """Root mean square of the two scaled components."""
    return math.sqrt((ra * ra + rb * rb) / 2.0)


def _blowup_estimate(crossings: list[float], last_zero: float | None) -> tuple[float, float, bool] | None:
    """Aitken extrapolation of the escape time from the norm-level crossing times.

    ``crossings`` are the times at which the norm first passed successive
    levels, a factor ``_LEVEL_FACTOR`` apart; ``last_zero`` is the latest
    recorded zero, if any.  From the last four, a < b < c < d, with gap ratios
    rho1 = (c - b)/(b - a) and rho2 = (d - c)/(c - b), the estimate is
    T^ = d + (d - c) rho2/(1 - rho2), and T^' is the same from (a, b, c).

    Returns None when the crossings do not approach a limit geometrically
    (fewer than four, not strictly increasing, or a ratio of at least 1).
    Otherwise returns (T^, err, stable).  ``err`` bounds |T* - T^| by the
    geometric tail |T^ - T^'| rho2/(1 - rho2) of estimates whose differences
    shrink at least at the rate rho2.  ``stable`` holds when
    rho2 <= _RATE_CAP, |rho2 - rho1| <= _RATE_AGREEMENT * rho2 and no zero
    was recorded at or after a.
    """
    if len(crossings) < 4:
        return None
    a, b, c, d = crossings[-4:]
    if not a < b < c < d:
        return None
    rho1 = (c - b) / (b - a)
    rho2 = (d - c) / (c - b)
    if rho1 >= 1.0 or rho2 >= 1.0:
        return None
    t_hat = d + (d - c) * rho2 / (1.0 - rho2)
    t_prev = c + (c - b) * rho1 / (1.0 - rho1)
    err = abs(t_hat - t_prev) * rho2 / (1.0 - rho2)
    stable = rho2 <= _RATE_CAP and abs(rho2 - rho1) <= _RATE_AGREEMENT * rho2 and (last_zero is None or last_zero < a)
    return t_hat, err, stable


def _escape_or_collapse(
    t: float, ya: float, yb: float, opts: IntegrationOptions, reason: str, crossings: list[float], past: int, past_t: float
) -> TerminalStatus:
    if abs(ya) + abs(yb) > opts.escape_threshold:
        estimate = _blowup_estimate(crossings, None)
        bracket = None if estimate is None else (estimate[0] - t) + estimate[1] + opts.rel_tol * (past * estimate[0] - past_t)
        if bracket is not None and bracket <= 0.0:  # the estimate lies behind the collapse
            bracket = None
        return TerminalStatus(FINITE_ESCAPE, t, reason=reason, bracket=bracket)
    return TerminalStatus(STEP_COLLAPSE, t, reason=reason)


#: The integration loop of _loop_source: "@stage K W V T" sets (Ka, Kb) to the rhs at (T, W, V), and "@step" is _step_lines.
_LOOP = """
    horizon = opts.horizon
    if not horizon > t0:
        raise DomainError("horizon must exceed the start time")
    span = horizon - t0
    rtol, atol, min_step, zero_tol = opts.rel_tol, opts.abs_tol, opts.min_step, opts.zero_tol
    tol_rate = 1.0 / span  # accepted scaled error per unit step
    # max(a, b) is written ``b if b > a else a`` and min(a, b) ``b if b < a else a`` in the step loop: the values
    # the builtins return, without the calls.  The error ratio is tested for finiteness as the stages are.
    sqrt, copysign, floor_eps, switch = math.sqrt, math.copysign, 32.0 * _EPS, _PER_STEP_NORM
    t, ya, yb = float(t0), float(ya), float(yb)
    @stage k1 ya yb t
    if not (math.isfinite(k1a) and math.isfinite(k1b)):
        raise FieldEvaluationError("rhs", t, ya, float("nan"))
    ts, ys0, ys1, fs0 = [t], [ya], [yb], [k1a]
    dense, zeros, tangential, zeros_truncated = [], [], False, False  # dense[k]: the step from ts[k], see _dense_at
    # Times at which the norm first passed escape_threshold * _LEVEL_FACTOR**k, and the next level.
    crossings, level = [], opts.escape_threshold
    while abs(ya) + abs(yb) > level:
        crossings.append(t)
        level *= _LEVEL_FACTOR
    # Initial step length, then the controller takes over.
    sa, sb = atol + rtol * abs(ya), atol + rtol * abs(yb)
    d0, d1 = _rms(ya / sa, yb / sb), _rms(k1a / sa, k1b / sb)
    h = min(0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6, span)
    try:
        ua, ub = ya + h * k1a, yb + h * k1b
        @stage f ua ub t + h
        d2 = _rms((fa - k1a) / sa, (fb - k1b) / sb) / h
        if max(d1, d2) > 1e-15:
            h = min(100.0 * h, (0.01 / max(d1, d2)) ** 0.2, span)
    except (FieldEvaluationError, OverflowError, ZeroDivisionError):
        pass  # h is 0 when d1 overflows to inf; the floor below then sets the first step
    floor = floor_eps * (abs(t) if abs(t) > 1.0 else 1.0)
    floor = floor if floor > min_step else min_step
    h = max(h, floor)
    ratio_prev, rejected = 1.0, False
    s_last = 0.0 if ya == 0.0 else math.copysign(1.0, ya)
    t_sign, pending_zero = t, None  # the time of the last node with a definite sign of component 0
    past, past_t = 0, 0.0  # the accepted steps tested per step, and the sum of their start times
    for _ in range(max_steps):
        remaining = horizon - t
        if remaining <= floor:
            terminal = TerminalStatus(REACHED_HORIZON, horizon)
            break
        if remaining < h:
            h = remaining
        if h < floor or t + h == t:
            terminal = _escape_or_collapse(t, ya, yb, opts, "step size collapsed", crossings, past, past_t)
            break
        # One attempt; a stage that raises or is not finite rejects the step outright.
        try:
            @step
        except (FieldEvaluationError, OverflowError, _NonFiniteStage):
            h, rejected = h * 0.25, True
            if h < floor:
                terminal = _escape_or_collapse(t, ya, yb, opts, "non-finite evaluation", crossings, past, past_t)
                break
            continue
        ma, mna, mb, mnb = abs(ya), abs(ua), abs(yb), abs(ub)
        ra = ea / (atol + rtol * (mna if mna > ma else ma))
        rb = eb / (atol + rtol * (mnb if mnb > mb else mb))
        ratio = sqrt((ra * ra + rb * rb) / 2.0)
        per_step = ma + mb > switch  # then the error itself is the ratio, not the error per unit step
        if not per_step:
            ratio = ratio / (tol_rate * h)
        if not 0.0 * ratio == 0.0:
            ratio = math.inf
        if ratio <= 1.0:
            ratio_c = 1e-10 if 1e-10 > ratio else ratio
            fac = _SAFETY * ratio_c ** (-_KI) * ratio_prev ** _KP
            fac = (fac if fac < 5.0 else 5.0) if fac > 0.2 else 0.2
            if rejected:
                fac = fac if fac < 1.0 else 1.0
            if per_step:
                past += 1
                past_t += t
            dense.append(d)
            t = t + h
            ya, yb, k1a, k1b = ua, ub, k7a, k7b  # stage 7 is the next step's stage 1
            ts.append(t)
            ys0.append(ya)
            ys1.append(yb)
            fs0.append(k1a)
            floor = floor_eps * (abs(t) if abs(t) > 1.0 else 1.0)
            floor = floor if floor > min_step else min_step
            ratio_prev, rejected, h = ratio_c, False, h * fac
            # --- event bookkeeping on the accepted node -------------------
            s_new = 0.0 if ya == 0.0 else copysign(1.0, ya)
            if abs(ya) <= zero_tol and abs(k1a) <= zero_tol:
                tangential = True
            if s_new == 0.0:
                pending_zero = t
            elif s_last != 0.0 and s_new != s_last:
                zeros.append(pending_zero if pending_zero is not None else _locate_zero(ts, ys0, dense, t_sign, t, zero_tol))
                pending_zero = None
                s_last, t_sign = s_new, t
                if len(zeros) >= opts.max_zeros:
                    zeros_truncated, terminal = True, TerminalStatus(REACHED_HORIZON, t, reason="zero cap reached")
                    break
            else:
                if s_new == s_last and pending_zero is not None:
                    tangential, pending_zero = True, None
                s_last, t_sign = s_new, t
            # --- blow-up signal, checked only when the norm passes a new level ---
            if mna + mnb > level:
                # Each level crossed in this step gets the time at which the norm of
                # the step's dense output passes it; no earlier node passed it.
                t_cross = ts[-2]
                while mna + mnb > level:
                    t_cross = _level_crossing(ts, ys0, ys1, dense, t_cross, t, level)
                    crossings.append(t_cross)
                    level *= _LEVEL_FACTOR
                estimate = _blowup_estimate(crossings, zeros[-1] if zeros else None)
                if estimate is not None:
                    t_hat, err, stable = estimate
                    drift = rtol * (past * t_hat - past_t)
                    if stable or (t_hat - t <= drift and not (zeros and zeros[-1] >= crossings[-4])):
                        reason = "blow-up rate stable" if stable else "escape time within integration error"
                        terminal = TerminalStatus(FINITE_ESCAPE, t, reason=reason, bracket=(t_hat - t) + err + drift)
                        break
        else:
            rejected, h_new = True, h * max(0.1, min(0.5, _SAFETY * ratio ** -0.25))
            if h_new < floor:
                terminal = _escape_or_collapse(t, ya, yb, opts, "local error saturated", crossings, past, past_t)
                break
            h = h_new
    else:  # no terminal status within the step budget
        raise RcertError(f"step budget of {max_steps} steps exceeded at t={t!r}, with rel_tol={rtol!r} and horizon={horizon!r}")
    return Trajectory(eq, ic, opts, ts, ys0, ys1, fs0, zeros, terminal, tangential, zeros_truncated, dense)
"""


@lru_cache(maxsize=64)
def _loop_source(names: tuple[str, ...], bind: tuple[str, ...], stage: tuple[str, ...]) -> str:
    """The source of ``solve(f, t0, ya, yb, opts, eq, ic, max_steps)``: :data:`_LOOP` without its comments, its directives written out.

    ``names``, ``bind`` and ``stage`` are those of :func:`rcert.fields._compiled_points`; each name is a parameter
    whose default is its value in the env, so the loop reads it as a local.
    """
    lines = [f"def solve(f, t0, ya, yb, opts, eq, ic, max_steps{''.join(f', {n}={n}' for n in names)}):", *(f"    {line}" for line in bind)]
    for line in _LOOP.splitlines():
        line = line.partition("  # ")[0].rstrip()  # no line of _LOOP holds "  # " but before a comment
        code = line.lstrip()
        if code.startswith("@"):
            lines += [line[: len(line) - len(code)] + x for x in (_step_lines(stage) if code == "@step" else _rhs_lines(stage, *code.split(" ", 4)[1:]))]
        elif code:
            lines.append(line)
    return "\n".join(lines) + "\n"


def _rhs_lines(stage: tuple[str, ...], k: str, w: str, v: str, t: str) -> list[str]:
    """The lines that set (``k``a, ``k``b) to the rhs at (t, w, v): the samples of ``stage`` in place, and ``f(t, w, v)`` as its fallback."""
    return _at_point(stage, t, w, f"{k}a, {k}b = {v} / p, -r * {w} - q / p * {v}", f"{k}a, {k}b = f({t}, {w}, {v})")


def _step_lines(stage: tuple[str, ...]) -> list[str]:
    """One explicit Runge-Kutta attempt from (t, ya, yb) and stage 1 (k1a, k1b), written out from the tables of ``_DP5``.

    It leaves the new node in (ua, ub), its stage (the next step's first) in
    the last k, the error pair in (ea, eb) and the dense tuple of
    :func:`_dense_at` in ``d``.  Each sum is ``h * (0.0 + w_1 * k1 + ...)``,
    left to right; a zero weight (DP5's a72, e2 and d2) is left out, since
    with every stage finite its term is a signed zero, which changes no sum
    that starts from ``0.0 +``.  A stage that is not finite raises :class:`_NonFiniteStage`, tested as
    ``0.0 * x * y == 0.0`` (0.0 times inf or NaN is NaN); so does a new node that is not, whose stage,
    with ``psi / p0`` and ``r0 * phi`` in it, is not finite either, or raises.
    """
    c, a, e, d = _DP5

    def total(weights: tuple, s: str) -> str:
        return "h * (0.0 + " + " + ".join(f"{w!r} * k{j}{s}" for j, w in enumerate(weights, 1) if w != 0.0) + ")"

    lines = []
    for i, (ci, row) in enumerate(zip(c, a), 2):  # u is each stage's node, the new node last; then i is the last stage
        lines += [f"u{s} = y{s} + {total(row, s)}" for s in "ab"] + _rhs_lines(stage, f"k{i}", "ua", "ub", f"t + {ci!r} * h")
        lines += [f"if not 0.0 * k{i}a * k{i}b == 0.0:", "    raise _NonFiniteStage"]
    for s in "ab":
        lines += [f"e{s} = {total(e, s)}", f"d{s} = u{s} - y{s}", f"b{s} = h * k1{s} - d{s}", f"q{s} = {total(d, s)}"]
    return lines + [f"d = (h, da, ba, da - h * k{i}a - ba, qa, db, bb, db - h * k{i}b - bb, qb)"]


def _level_crossing(ts: list[float], phis: list[float], psis: list[float], dense: list[tuple], t_lo: float, t_hi: float, level: float) -> float:
    """Bisect the dense output's norm |phi| + |psi|, at most ``level`` at ``t_lo`` and above it at ``t_hi``, for where it passes ``level``."""
    lo, hi = t_lo, t_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if abs(_dense_at(ts, phis, dense, 1, mid)) + abs(_dense_at(ts, psis, dense, 5, mid)) > level:
            hi = mid
        else:
            lo = mid
    return hi


def _locate_zero(ts: list[float], phis: list[float], dense: list[tuple], t_lo: float, t_hi: float, zero_tol: float) -> float:
    """Bisect the dense output of component 0 for the sign change bracketed by [t_lo, t_hi]."""
    f_lo = _dense_at(ts, phis, dense, 1, t_lo)
    lo, hi = t_lo, t_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = _dense_at(ts, phis, dense, 1, mid)
        if abs(fm) <= zero_tol or (hi - lo) <= 8.0 * _EPS * max(1.0, abs(mid)):
            return mid
        if (fm > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def integrate(eq: EquationSpec, ic: InitialData, opts: IntegrationOptions = IntegrationOptions()) -> Trajectory:
    """Integrate the system from ``ic`` until the horizon, escape, or collapse.

    ``ic.phi1`` is the derivative phi'(t1); the momentum variable starts at
    psi(t1) = p0(t1, phi0) * phi1.  Raises :class:`DomainError` if p0 fails to
    stay positive along the computed path.
    """
    if ic.t1 < eq.t0:
        raise DomainError("initial time precedes the equation's start time")
    p_init = eq.p0(ic.t1, ic.phi0)
    if p_init <= 0.0:
        raise DomainError(f"p0 is not positive at the initial point: {p_init!r}")

    solve = _compiled_points(eq, _loop_source, globals(), "<rcert.dynamics loop>")["solve"]
    return solve(system_rhs(eq), ic.t1, ic.phi0, p_init * ic.phi1, opts, eq, ic, _MAX_STEPS)


def export_trajectory_csv(traj: Trajectory, csv_path, sidecar_path=None) -> None:
    """Write node samples as CSV plus a JSON sidecar with the terminal status.

    Columns are t, phi, psi, y with y left empty where |phi| <= zero_tol.
    """
    lines = ["t,phi,psi,y"]
    ztol = traj.opts.zero_tol
    for t, phi, psi in zip(traj.ts, traj.phis, traj.psis):
        y = "" if abs(phi) <= ztol else format_float(psi / phi)
        lines.append(f"{format_float(t)},{format_float(phi)},{format_float(psi)},{y}")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    side = {
        "terminal": traj.terminal.to_dict(),
        "zeros": [float(z) for z in traj.zeros],
        "tangential": traj.tangential,
        "zeros_truncated": traj.zeros_truncated,
    }
    if sidecar_path is None:
        sidecar_path = str(csv_path) + ".meta.json"
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(side) + "\n")

