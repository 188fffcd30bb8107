"""Adaptive integration of the first-order system with events and escape detection.

The second-order equation is integrated as the system

    phi' = psi / p0(t, phi),
    psi' = -r0(t, phi) * phi - q0(t, phi) / p0(t, phi) * psi,

so ``psi`` is the momentum-like variable p0 * phi' throughout.  The stepper is
an embedded Dormand-Prince 5(4) pair with a fourth-degree continuous extension
and a proportional-integral controller working in error-per-unit-step form:
the accepted local error is proportional to the step length, which makes the
accumulated error (and hence every residual oracle built on trajectories)
scale linearly with the requested tolerance.  The stepper is written out for
the two components (phi, psi).

Finite escape is only declared when two independent signals agree: the state
norm |phi| + |psi| has passed ``escape_threshold`` and the step size has
collapsed below ``min_step`` with the local error estimate still saturated.
A pure threshold would misfire on large-but-global solutions; a pure collapse
would misfire on singular coefficients.

:func:`integrate` returns one :class:`Trajectory`: the nodes, the zeros, the
terminal status and the dense output.  At t the dense output is the step that
starts at the last node <= t, the last step at t_end, and the stored initial
values at t_start.  The residual oracles that check trajectories live in
:mod:`rcert.riccati`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, FieldEvaluationError, RcertError
from .fields import EquationSpec, InitialData, system_rhs
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

# Dormand-Prince 5(4) tableau.  The zero entries a72, e2 and d2 are left out of
# the written-out sums below: with every stage value finite, each would add a
# signed zero to a partial sum that is never -0.0, which changes nothing.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
# The seventh row is also the fifth-order solution (first same as last).
_A71, _A73, _A74, _A75, _A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# Fifth-order minus fourth-order weights: the local error estimate.
_E1, _E3, _E4, _E5, _E6, _E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
# Coefficients of the quartic continuous extension.
_D1 = -12715105075 / 11282082432
_D3 = 87487479700 / 32700410799
_D4 = -10690763975 / 1880347072
_D5 = 701980252875 / 199316789632
_D6 = -1453857185 / 822651844
_D7 = 69997945 / 29380423

_SAFETY = 0.9
_KI = 0.175
_KP = 0.08
_EPS = 2.220446049250313e-16
#: The most steps one integration may take before it is abandoned as a runaway.
_MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class IntegrationOptions:
    """Tolerances and guards for :func:`integrate`.

    ``rel_tol``/``abs_tol`` target the accumulated error over the whole run
    (error-per-unit-step control).  ``escape_threshold`` and ``min_step``
    together drive finite-escape detection; ``zero_tol`` bounds |phi| at
    recorded zero crossings.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    horizon: float = 50.0
    escape_threshold: float = 1e8
    min_step: float = 1e-12
    max_zeros: int = 10000
    zero_tol: float = 1e-9

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class TerminalStatus:
    """How an integration ended.

    ``bracket`` is only set for finite escapes: the true escape time lies in
    (time, time + bracket) up to the resolution of the collapsed step.
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


class _DenseSegment:
    """Quartic interpolant of both components on the accepted step from ``t`` to ``t + h``.

    With ``th = (s - t) / h``, the first component at ``s`` is
    ``a1 + th * (a2 + (1 - th) * (a3 + th * (a4 + (1 - th) * a5)))`` and the
    second is the same expression in ``b1``..``b5``.
    """

    __slots__ = ("t", "h", "a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3", "b4", "b5")

    def __init__(self, t, h, a1, a2, a3, a4, a5, b1, b2, b3, b4, b5):
        self.t = t
        self.h = h
        self.a1, self.a2, self.a3, self.a4, self.a5 = a1, a2, a3, a4, a5
        self.b1, self.b2, self.b3, self.b4, self.b5 = b1, b2, b3, b4, b5

    def first(self, t: float) -> float:
        th = (t - self.t) / self.h
        th1 = 1.0 - th
        return self.a1 + th * (self.a2 + th1 * (self.a3 + th * (self.a4 + th1 * self.a5)))

    def second(self, t: float) -> float:
        th = (t - self.t) / self.h
        th1 = 1.0 - th
        return self.b1 + th * (self.b2 + th1 * (self.b3 + th * (self.b4 + th1 * self.b5)))


def _segment_at(ts: list[float], segments: list[_DenseSegment], t: float) -> _DenseSegment:
    """The dense output that holds ``t``: both components via ``first``/``second``.

    ``segments[0]`` holds the start values and ``segments[i]`` the step from
    ``ts[i - 1]`` to ``ts[i]``; the module docstring gives the rule.
    """
    if not (ts[0] <= t <= ts[-1]):
        raise DomainError(f"t={t!r} outside the computed span [{ts[0]!r}, {ts[-1]!r}]")
    if t == ts[0]:
        return segments[0]
    return segments[min(bisect_right(ts, t), len(ts) - 1)]


@dataclass
class Trajectory:
    """Dense numerical solution of the first-order system.

    ``ts``/``phis``/``psis`` are node values of the accepted mesh; ``dphis``
    holds phi' at the nodes.  ``zeros`` are strictly sign-change-bracketed
    zero crossings of phi.  Immutable by convention once returned.
    """

    eq: EquationSpec
    ic: InitialData
    opts: IntegrationOptions
    ts: np.ndarray = field(repr=False)
    phis: np.ndarray = field(repr=False)
    psis: np.ndarray = field(repr=False)
    dphis: np.ndarray = field(repr=False)
    zeros: list[float]
    terminal: TerminalStatus
    tangential: bool
    zeros_truncated: bool
    _nodes: list[float] = field(repr=False)
    _segments: list[_DenseSegment] = field(repr=False)

    @property
    def t_start(self) -> float:
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def state_at(self, t: float) -> tuple[float, float]:
        seg = _segment_at(self._nodes, self._segments, t)
        return seg.first(t), seg.second(t)

    def phi_at(self, t: float) -> float:
        return _segment_at(self._nodes, self._segments, t).first(t)

    def psi_at(self, t: float) -> float:
        return _segment_at(self._nodes, self._segments, t).second(t)


class _NonFiniteStage(ArithmeticError):
    """A stage derivative or the propagated solution is not finite; the step is rejected."""


def _rms(ra: float, rb: float) -> float:
    """Root mean square of the two scaled components."""
    return math.sqrt((ra * ra + rb * rb) / 2.0)


def _floor_at(t: float, min_step: float) -> float:
    """The smallest step length allowed at ``t``."""
    return max(min_step, 32.0 * _EPS * max(1.0, abs(t)))


def _escape_or_collapse(t: float, ya: float, yb: float, opts: IntegrationOptions, reason: str, h_attempt: float) -> TerminalStatus:
    if abs(ya) + abs(yb) > opts.escape_threshold:
        return TerminalStatus(FINITE_ESCAPE, t, reason=reason, bracket=max(h_attempt, _floor_at(t, opts.min_step)))
    return TerminalStatus(STEP_COLLAPSE, t, reason=reason)


def _solve(
    f: Callable[[float, float, float], tuple[float, float]],
    t0: float,
    ya: float,
    yb: float,
    opts: IntegrationOptions,
    eq: EquationSpec,
    ic: InitialData,
) -> Trajectory:
    """Dormand-Prince 5(4) on the two components (ya, yb) with rhs ``f(t, ya, yb)``,
    recording the zeros of ``ya``.

    Every sum is written out in the tableau's left-to-right order, starting
    from ``0.0 +``, so the trajectory does not depend on how the sums are grouped.
    """
    horizon = opts.horizon
    if horizon <= t0:
        raise DomainError("horizon must exceed the start time")
    span = horizon - t0
    rtol, atol = opts.rel_tol, opts.abs_tol
    min_step = opts.min_step
    zero_tol = opts.zero_tol
    tol_rate = 1.0 / span  # accepted scaled error per unit step
    # The step loop inlines _rms and _floor_at, and writes max(a, b) as ``b if b > a else a``
    # and min(a, b) as ``b if b < a else a``: the values the builtins return, without the calls.
    isfinite, sqrt, copysign, floor_eps = math.isfinite, math.sqrt, math.copysign, 32.0 * _EPS

    t = t0
    ya, yb = float(ya), float(yb)
    k1a, k1b = f(t, ya, yb)
    if not (isfinite(k1a) and isfinite(k1b)):
        raise FieldEvaluationError("rhs", t, ya, float("nan"))

    ts, ys0, ys1, fs0 = [t], [ya], [yb], [k1a]
    # All-(-0.0) coefficients give (ya, yb) exactly at t0, -0.0 included: x + (-0.0) == x.
    segments = [_DenseSegment(t, 1.0, ya, -0.0, -0.0, -0.0, -0.0, yb, -0.0, -0.0, -0.0, -0.0)]
    zeros: list[float] = []
    tangential = zeros_truncated = False

    # Initial step length, then the controller takes over.
    sa, sb = atol + rtol * abs(ya), atol + rtol * abs(yb)
    d0 = _rms(ya / sa, yb / sb)
    d1 = _rms(k1a / sa, k1b / sb)
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h = min(h, span)
    try:
        fa, fb = f(t + h, ya + h * k1a, yb + h * k1b)
        d2 = _rms((fa - k1a) / sa, (fb - k1b) / sb) / h
        if max(d1, d2) > 1e-15:
            h = min(100.0 * h, (0.01 / max(d1, d2)) ** 0.2, span)
    except (FieldEvaluationError, OverflowError, ZeroDivisionError):
        # h is 0 when d1 overflows to inf; the floor below then sets the first step.
        pass
    floor = _floor_at(t, min_step)
    h = max(h, floor)

    ratio_prev = 1.0
    rejected = False
    s_last = 0.0 if ya == 0.0 else math.copysign(1.0, ya)
    t_sign = t  # time of the last node with a definite sign of component 0
    pending_zero: float | None = None

    for _ in range(_MAX_STEPS):
        remaining = horizon - t
        if remaining <= floor:
            terminal = TerminalStatus(REACHED_HORIZON, horizon)
            break
        if remaining < h:
            h = remaining
        if h < floor or t + h == t:
            terminal = _escape_or_collapse(t, ya, yb, opts, "step size collapsed", h)
            break

        # Stage sweep; a non-finite stage rejects the step outright.
        try:
            k2a, k2b = f(t + _C2 * h, ya + h * (0.0 + _A21 * k1a), yb + h * (0.0 + _A21 * k1b))
            if not (isfinite(k2a) and isfinite(k2b)):
                raise _NonFiniteStage
            k3a, k3b = f(
                t + _C3 * h,
                ya + h * (0.0 + _A31 * k1a + _A32 * k2a),
                yb + h * (0.0 + _A31 * k1b + _A32 * k2b),
            )
            if not (isfinite(k3a) and isfinite(k3b)):
                raise _NonFiniteStage
            k4a, k4b = f(
                t + _C4 * h,
                ya + h * (0.0 + _A41 * k1a + _A42 * k2a + _A43 * k3a),
                yb + h * (0.0 + _A41 * k1b + _A42 * k2b + _A43 * k3b),
            )
            if not (isfinite(k4a) and isfinite(k4b)):
                raise _NonFiniteStage
            k5a, k5b = f(
                t + _C5 * h,
                ya + h * (0.0 + _A51 * k1a + _A52 * k2a + _A53 * k3a + _A54 * k4a),
                yb + h * (0.0 + _A51 * k1b + _A52 * k2b + _A53 * k3b + _A54 * k4b),
            )
            if not (isfinite(k5a) and isfinite(k5b)):
                raise _NonFiniteStage
            k6a, k6b = f(
                t + h,
                ya + h * (0.0 + _A61 * k1a + _A62 * k2a + _A63 * k3a + _A64 * k4a + _A65 * k5a),
                yb + h * (0.0 + _A61 * k1b + _A62 * k2b + _A63 * k3b + _A64 * k4b + _A65 * k5b),
            )
            if not (isfinite(k6a) and isfinite(k6b)):
                raise _NonFiniteStage
            yna = ya + h * (0.0 + _A71 * k1a + _A73 * k3a + _A74 * k4a + _A75 * k5a + _A76 * k6a)
            ynb = yb + h * (0.0 + _A71 * k1b + _A73 * k3b + _A74 * k4b + _A75 * k5b + _A76 * k6b)
            k7a, k7b = f(t + h, yna, ynb)
            if not (isfinite(k7a) and isfinite(k7b) and isfinite(yna) and isfinite(ynb)):
                raise _NonFiniteStage
        except (FieldEvaluationError, OverflowError, _NonFiniteStage):
            h *= 0.25
            rejected = True
            if h < floor:
                terminal = _escape_or_collapse(t, ya, yb, opts, "non-finite evaluation", h)
                break
            continue

        ea = h * (0.0 + _E1 * k1a + _E3 * k3a + _E4 * k4a + _E5 * k5a + _E6 * k6a + _E7 * k7a)
        eb = h * (0.0 + _E1 * k1b + _E3 * k3b + _E4 * k4b + _E5 * k5b + _E6 * k6b + _E7 * k7b)
        ma, mna, mb, mnb = abs(ya), abs(yna), abs(yb), abs(ynb)
        ra = ea / (atol + rtol * (mna if mna > ma else ma))
        rb = eb / (atol + rtol * (mnb if mnb > mb else mb))
        ratio = sqrt((ra * ra + rb * rb) / 2.0) / (tol_rate * h)
        if not isfinite(ratio):
            ratio = math.inf

        if ratio <= 1.0:
            ratio_c = 1e-10 if 1e-10 > ratio else ratio
            fac = _SAFETY * ratio_c ** (-_KI) * ratio_prev ** _KP
            fac = (fac if fac < 5.0 else 5.0) if fac > 0.2 else 0.2
            if rejected:
                fac = fac if fac < 1.0 else 1.0
            # Dense coefficients: the node value, the increment, the two
            # Hermite corrections and the quartic term.
            da = yna - ya
            db = ynb - yb
            ba = h * k1a - da
            bb = h * k1b - db
            segments.append(
                _DenseSegment(
                    t,
                    h,
                    ya,
                    da,
                    ba,
                    da - h * k7a - ba,
                    h * (0.0 + _D1 * k1a + _D3 * k3a + _D4 * k4a + _D5 * k5a + _D6 * k6a + _D7 * k7a),
                    yb,
                    db,
                    bb,
                    db - h * k7b - bb,
                    h * (0.0 + _D1 * k1b + _D3 * k3b + _D4 * k4b + _D5 * k5b + _D6 * k6b + _D7 * k7b),
                )
            )
            t = t + h
            ya, yb, k1a, k1b = yna, ynb, k7a, k7b  # stage 7 is the next step's stage 1
            ts.append(t)
            ys0.append(ya)
            ys1.append(yb)
            fs0.append(k1a)
            floor = floor_eps * (abs(t) if abs(t) > 1.0 else 1.0)
            floor = floor if floor > min_step else min_step
            ratio_prev = ratio_c
            rejected = False
            h = h * fac

            # --- event bookkeeping on the accepted node -------------------
            s_new = 0.0 if ya == 0.0 else copysign(1.0, ya)
            if abs(ya) <= zero_tol and abs(k1a) <= zero_tol:
                tangential = True
            if s_new == 0.0:
                pending_zero = t
            elif s_last != 0.0 and s_new != s_last:
                if pending_zero is not None:
                    zeros.append(pending_zero)
                else:
                    zeros.append(_locate_zero(ts, segments, t_sign, t, zero_tol))
                pending_zero = None
                s_last, t_sign = s_new, t
                if len(zeros) >= opts.max_zeros:
                    zeros_truncated = True
                    terminal = TerminalStatus(REACHED_HORIZON, t, reason="zero cap reached")
                    break
            else:
                if s_new == s_last and pending_zero is not None:
                    tangential = True
                    pending_zero = None
                s_last, t_sign = s_new, t
        else:
            rejected = True
            fac = max(0.1, min(0.5, _SAFETY * ratio ** -0.25))
            h_new = h * fac
            if h_new < floor:
                terminal = _escape_or_collapse(t, ya, yb, opts, "local error saturated", h_new)
                break
            h = h_new
    else:  # no terminal status within the step budget
        raise RcertError(f"step budget of {_MAX_STEPS} exceeded at t={t!r}")

    arrays = (np.array(ts), np.array(ys0), np.array(ys1), np.array(fs0))
    return Trajectory(eq, ic, opts, *arrays, zeros, terminal, tangential, zeros_truncated, ts, segments)


def _locate_zero(ts: list[float], segments: list[_DenseSegment], t_lo: float, t_hi: float, zero_tol: float) -> float:
    """Bisect the dense output of component 0 for the sign change bracketed by [t_lo, t_hi]."""
    f_lo = _segment_at(ts, segments, t_lo).first(t_lo)
    lo, hi = t_lo, t_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = _segment_at(ts, segments, mid).first(mid)
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

    return _solve(system_rhs(eq), ic.t1, ic.phi0, p_init * ic.phi1, opts, eq, ic)


def export_trajectory_csv(traj: Trajectory, csv_path, sidecar_path=None) -> None:
    """Write node samples as CSV plus a JSON sidecar with the terminal status.

    Columns are t, phi, psi, y with y left empty where |phi| <= zero_tol.
    """
    lines = ["t,phi,psi,y"]
    ztol = traj.opts.zero_tol
    for t, phi, psi in zip(traj.ts, traj.phis, traj.psis):
        y = "" if abs(phi) <= ztol else format_float(psi / phi)
        lines.append(f"{format_float(float(t))},{format_float(float(phi))},{format_float(float(psi))},{y}")
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

