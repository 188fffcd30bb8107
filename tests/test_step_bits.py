"""The generated integration loop against the loop and stage sweep written out by hand.

``integrate`` runs one function generated per rhs shape: the controller, the
events and the escape signals of ``dynamics._LOOP``, with the DP5 step written
out from the tableau ``dynamics._DP5`` and each rhs evaluation written in place
from ``fields._compiled_points``.  ``_reference_solve`` below is that loop as it
was written by hand, calling the rhs of the wrapped fields and
``_reference_step``, the stage sweep, error pair and dense tuple written out
term by term.  They are the reference these tests compare against, not a
second path in the package.  Every output of a run is compared as
``float.hex``: the nodes, phi', the dense tuples, the zeros and the terminal
with its bracket; an exception must be of the same type and message, and a
run on scripted fields must make the same field calls.

The tableau itself is checked in exact rational arithmetic
(``fractions.Fraction`` of each float): the row sums, the order conditions
of the fifth-order weights and of the embedded fourth-order ones, and the
zero sums of the error and dense weights.
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcert import DomainError, EquationSpec, FieldEvaluationError, InitialData, IntegrationOptions, RcertError, ScalarField, equation_from_json, integrate
from rcert import dynamics, fields
from rcert.applications import EFParams, VdPParams, ef_equation, vdp_equation
from rcert.dynamics import (
    _EPS,
    _KI,
    _KP,
    _LEVEL_FACTOR,
    _PER_STEP_NORM,
    _SAFETY,
    FINITE_ESCAPE,
    REACHED_HORIZON,
    TerminalStatus,
    Trajectory,
    _blowup_estimate,
    _escape_or_collapse,
    _level_crossing,
    _locate_zero,
    _rms,
)
from rcert.fields import _closed_form_field, _Product, system_rhs
from test_fields import ODD_SAMPLES

_NonFiniteStage = dynamics._NonFiniteStage

# The written-out DP5 tableau, as the stepper held it.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A73, _A74, _A75, _A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
_D1 = -12715105075 / 11282082432
_D3 = 87487479700 / 32700410799
_D4 = -10690763975 / 1880347072
_D5 = 701980252875 / 199316789632
_D6 = -1453857185 / 822651844
_D7 = 69997945 / 29380423


def _reference_step(f, t, h, ya, yb, k1a, k1b):
    """The stage sweep, error pair and dense tuple, each sum written out term by term."""
    k2a, k2b = f(t + _C2 * h, ya + h * (0.0 + _A21 * k1a), yb + h * (0.0 + _A21 * k1b))
    if not 0.0 * k2a * k2b == 0.0:
        raise _NonFiniteStage
    k3a, k3b = f(
        t + _C3 * h,
        ya + h * (0.0 + _A31 * k1a + _A32 * k2a),
        yb + h * (0.0 + _A31 * k1b + _A32 * k2b),
    )
    if not 0.0 * k3a * k3b == 0.0:
        raise _NonFiniteStage
    k4a, k4b = f(
        t + _C4 * h,
        ya + h * (0.0 + _A41 * k1a + _A42 * k2a + _A43 * k3a),
        yb + h * (0.0 + _A41 * k1b + _A42 * k2b + _A43 * k3b),
    )
    if not 0.0 * k4a * k4b == 0.0:
        raise _NonFiniteStage
    k5a, k5b = f(
        t + _C5 * h,
        ya + h * (0.0 + _A51 * k1a + _A52 * k2a + _A53 * k3a + _A54 * k4a),
        yb + h * (0.0 + _A51 * k1b + _A52 * k2b + _A53 * k3b + _A54 * k4b),
    )
    if not 0.0 * k5a * k5b == 0.0:
        raise _NonFiniteStage
    k6a, k6b = f(
        t + h,
        ya + h * (0.0 + _A61 * k1a + _A62 * k2a + _A63 * k3a + _A64 * k4a + _A65 * k5a),
        yb + h * (0.0 + _A61 * k1b + _A62 * k2b + _A63 * k3b + _A64 * k4b + _A65 * k5b),
    )
    if not 0.0 * k6a * k6b == 0.0:
        raise _NonFiniteStage
    yna = ya + h * (0.0 + _A71 * k1a + _A73 * k3a + _A74 * k4a + _A75 * k5a + _A76 * k6a)
    ynb = yb + h * (0.0 + _A71 * k1b + _A73 * k3b + _A74 * k4b + _A75 * k5b + _A76 * k6b)
    k7a, k7b = f(t + h, yna, ynb)
    if not 0.0 * k7a * k7b * yna * ynb == 0.0:
        raise _NonFiniteStage

    ea = h * (0.0 + _E1 * k1a + _E3 * k3a + _E4 * k4a + _E5 * k5a + _E6 * k6a + _E7 * k7a)
    eb = h * (0.0 + _E1 * k1b + _E3 * k3b + _E4 * k4b + _E5 * k5b + _E6 * k6b + _E7 * k7b)
    da = yna - ya
    db = ynb - yb
    ba = h * k1a - da
    bb = h * k1b - db
    dense = (
        h,
        da,
        ba,
        da - h * k7a - ba,
        h * (0.0 + _D1 * k1a + _D3 * k3a + _D4 * k4a + _D5 * k5a + _D6 * k6a + _D7 * k7a),
        db,
        bb,
        db - h * k7b - bb,
        h * (0.0 + _D1 * k1b + _D3 * k3b + _D4 * k4b + _D5 * k5b + _D6 * k6b + _D7 * k7b),
    )
    return yna, ynb, k7a, k7b, ea, eb, dense




def _reference_solve(f, t0, ya, yb, opts, eq, ic):
    """Dormand-Prince 5(4) on (ya, yb) with rhs ``f(t, ya, yb)``, recording the zeros of ``ya``: the loop as written by hand."""
    horizon = opts.horizon
    if not horizon > t0:
        raise DomainError("horizon must exceed the start time")
    span = horizon - t0
    rtol, atol = opts.rel_tol, opts.abs_tol
    min_step = opts.min_step
    zero_tol = opts.zero_tol
    tol_rate = 1.0 / span  # accepted scaled error per unit step
    step, sqrt, copysign, floor_eps, switch = _reference_step, math.sqrt, math.copysign, 32.0 * _EPS, _PER_STEP_NORM

    t, ya, yb = float(t0), float(ya), float(yb)
    k1a, k1b = f(t, ya, yb)
    if not (math.isfinite(k1a) and math.isfinite(k1b)):
        raise FieldEvaluationError("rhs", t, ya, float("nan"))

    ts, ys0, ys1, fs0 = [t], [ya], [yb], [k1a]
    dense = []
    zeros = []
    tangential = zeros_truncated = False
    crossings = []
    level = opts.escape_threshold
    while abs(ya) + abs(yb) > level:
        crossings.append(t)
        level *= _LEVEL_FACTOR

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
        pass
    floor = max(min_step, 32.0 * _EPS * max(1.0, abs(t)))
    h = max(h, floor)

    ratio_prev = 1.0
    rejected = False
    s_last = 0.0 if ya == 0.0 else math.copysign(1.0, ya)
    t_sign = t
    pending_zero = None

    past, past_t = 0, 0.0
    for _ in range(dynamics._MAX_STEPS):
        remaining = horizon - t
        if remaining <= floor:
            terminal = TerminalStatus(REACHED_HORIZON, horizon)
            break
        if remaining < h:
            h = remaining
        if h < floor or t + h == t:
            terminal = _escape_or_collapse(t, ya, yb, opts, "step size collapsed", crossings, past, past_t)
            break

        try:
            yna, ynb, k7a, k7b, ea, eb, d = step(f, t, h, ya, yb, k1a, k1b)
        except (FieldEvaluationError, OverflowError, _NonFiniteStage):
            h *= 0.25
            rejected = True
            if h < floor:
                terminal = _escape_or_collapse(t, ya, yb, opts, "non-finite evaluation", crossings, past, past_t)
                break
            continue

        ma, mna, mb, mnb = abs(ya), abs(yna), abs(yb), abs(ynb)
        ra = ea / (atol + rtol * (mna if mna > ma else ma))
        rb = eb / (atol + rtol * (mnb if mnb > mb else mb))
        ratio = sqrt((ra * ra + rb * rb) / 2.0)
        per_step = ma + mb > switch
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
            ya, yb, k1a, k1b = yna, ynb, k7a, k7b
            ts.append(t)
            ys0.append(ya)
            ys1.append(yb)
            fs0.append(k1a)
            floor = floor_eps * (abs(t) if abs(t) > 1.0 else 1.0)
            floor = floor if floor > min_step else min_step
            ratio_prev = ratio_c
            rejected = False
            h = h * fac

            s_new = 0.0 if ya == 0.0 else copysign(1.0, ya)
            if abs(ya) <= zero_tol and abs(k1a) <= zero_tol:
                tangential = True
            if s_new == 0.0:
                pending_zero = t
            elif s_last != 0.0 and s_new != s_last:
                if pending_zero is not None:
                    zeros.append(pending_zero)
                else:
                    zeros.append(_locate_zero(ts, ys0, dense, t_sign, t, zero_tol))
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

            if mna + mnb > level:
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
            rejected = True
            fac = max(0.1, min(0.5, _SAFETY * ratio ** -0.25))
            h_new = h * fac
            if h_new < floor:
                terminal = _escape_or_collapse(t, ya, yb, opts, "local error saturated", crossings, past, past_t)
                break
            h = h_new
    else:
        raise RcertError(f"step budget of {dynamics._MAX_STEPS} exceeded at t={t!r}")

    return Trajectory(eq, ic, opts, ts, ys0, ys1, fs0, zeros, terminal, tangential, zeros_truncated, dense)


def _opaque(eq):
    """The same equation with every field opaque: called only through the wrapped fields."""
    return EquationSpec(t0=eq.t0, **{part: dataclasses.replace(getattr(eq, part), products=None) for part in ("p0", "q0", "r0")})


def _reference_integrate(eq, ic, opts):
    """``integrate`` through ``_reference_solve``, with the rhs of the wrapped fields."""
    if ic.t1 < eq.t0:
        raise DomainError("initial time precedes the equation's start time")
    p_init = eq.p0(ic.t1, ic.phi0)
    if p_init <= 0.0:
        raise DomainError(f"p0 is not positive at the initial point: {p_init!r}")
    return _reference_solve(system_rhs(_opaque(eq)), ic.t1, ic.phi0, p_init * ic.phi1, opts, eq, ic)


def _hexes(values):
    return [(type(v), float(v).hex()) for v in values]


def _digest(run):
    """What a run gives, floats as hex: the nodes, phi', the dense tuples, the zeros and the terminal, or the exception."""
    try:
        traj = run()
    except Exception as exc:  # the type and the message are what must agree
        return ("raised", type(exc), str(exc))
    term = traj.terminal
    terminal = (term.kind, _hexes([term.time]), term.reason, None if term.bracket is None else _hexes([term.bracket]))
    return (_hexes(traj.ts), _hexes(traj.phis), _hexes(traj.psis), _hexes(traj.dphis), [_hexes(d) for d in traj._dense], _hexes(traj.zeros), terminal, traj.tangential, traj.zeros_truncated)


def _same_run(eq, ic, opts):
    """The digest of ``integrate``, after checking that it is the reference loop's."""
    expected = _digest(lambda: _reference_integrate(eq, ic, opts))
    assert _digest(lambda: integrate(eq, ic, opts)) == expected
    return expected


HARMONIC_EQ = {
    "kind": "custom",
    "t0": 0.0,
    "p0": {"kind": "constant", "value": 1.0, "tags": ["positive"]},
    "q0": {"kind": "constant", "value": 0.0},
    "r0": {"kind": "constant", "value": 1.0},
}
CUBIC_EQ = {**HARMONIC_EQ, "r0": {"kind": "polynomial", "terms": [{"c": 1.0}, {"c": -1.0, "w": 2}]}}
VDP_EQ = {
    "kind": "van_der_pol",
    "lambda": {"kind": "constant", "value": 1.0},
    "mu": {"kind": "constant", "value": 1.0},
    "nu": {"kind": "constant", "value": 1.0},
    "t0": 0.0,
}
VDP_POLYNOMIAL_EQ = {**VDP_EQ, "lambda": {"kind": "polynomial", "coeffs": [1.0, 0.01]}, "nu": {"kind": "power", "coeff": 1.0, "power": 0.5}}
POWER_LAW_EQ = {"kind": "emden_fowler", "rho": 4.0, "sigma": 0.0, "n": 3.0, "variant": "absolute", "t0": 1.0}
SIGNED_EQ = {"kind": "emden_fowler", "rho": 1.0, "sigma": 0.5, "n": 2.5, "variant": "signed", "t0": 1.0}
#: Each equation and the starts (t1, phi0, phi1) and horizon of its runs.  The harmonic, cubic and Van
#: der Pol fields are constants (taken once), and the polynomial Van der Pol and power laws read the
#: time; the signed power law gives a complex sample at w < 0, where the rhs falls back to the wrapped fields.
EQUATIONS = {
    "harmonic": (HARMONIC_EQ, [(0.0, 1.0, 0.0), (0.0, -0.0, -0.0), (2.5, 1e-300, -1e-300)], 20.0),
    "cubic": (CUBIC_EQ, [(0.0, -0.5, 0.2), (0.0, 0.6, 1.0), (0.0, 2.0, 1.0)], 20.0),
    "van_der_pol": (VDP_EQ, [(0.0, 1.0, 0.5), (0.0, 0.0, 1e-3)], 20.0),
    "van_der_pol_polynomial": (VDP_POLYNOMIAL_EQ, [(0.0, 1.0, 0.5), (1.0, -2.0, 0.0)], 20.0),
    "power_law": (POWER_LAW_EQ, [(1.0, 0.5, 0.2), (1.0, 0.5, 2000.0)], 20.0),
    "signed_power_law": (SIGNED_EQ, [(1.0, 0.5, -1.0), (1.0, 0.5, 0.2)], 20.0),
}
RUNS = [(name, k) for name, (_, starts, _) in EQUATIONS.items() for k in range(len(starts))]


@pytest.mark.parametrize("opaque", [False, True], ids=["closed_form", "opaque"])
@pytest.mark.parametrize("name, k", RUNS, ids=[f"{name}-{k}" for name, k in RUNS])
def test_integrate_has_the_reference_bits(name, k, opaque):
    doc, starts, horizon = EQUATIONS[name]
    eq = equation_from_json(doc)
    _same_run(_opaque(eq) if opaque else eq, InitialData(*starts[k]), IntegrationOptions(horizon=horizon))


#: sweep_mixed's raster of phi'' + (1 - phi^2) phi = 0: two oscillations and two finite escapes.
SWEEP_CELLS = [(phi0, dphi0) for phi0 in (-0.5, -0.5 + (0.6 - -0.5)) for dphi0 in (0.2, 1.0)]


@pytest.mark.parametrize("phi0, dphi0", SWEEP_CELLS)
def test_sweep_cells_have_the_reference_bits(phi0, dphi0):
    _same_run(equation_from_json(CUBIC_EQ), InitialData(0.0, phi0, dphi0), IntegrationOptions(horizon=100.0))


@pytest.mark.parametrize("rel_tol", [1e-9, 1e-7])
@pytest.mark.parametrize("stop", ["rate", "collapse"])
@pytest.mark.parametrize("start", [(0.0, 1.0, 1.0), (0.0, 2.0, 1.0), (0.0, -0.5, 1.0)], ids=["cube", "escape", "sweep_escape"])
def test_escapes_have_the_reference_bits(start, stop, rel_tol, monkeypatch):
    # phi'' = phi^3 (opaque) and phi'' = (phi^2 - 1) phi (closed form), on both stop paths of the blow-up signal.
    if stop == "collapse":
        monkeypatch.setattr(dynamics, "_RATE_CAP", 0.0)
    eq = EquationSpec(ScalarField(lambda t, w: 1.0), ScalarField(lambda t, w: 0.0), ScalarField(lambda t, w: -abs(w) ** 2), 0.0)
    terminal = _same_run(eq if start[1] == 1.0 else equation_from_json(CUBIC_EQ), InitialData(*start), IntegrationOptions(rel_tol=rel_tol, horizon=10.0))[6]
    assert terminal[0] == FINITE_ESCAPE


def _magnitude(rng, lo=-300, hi=300):
    """A float of random sign and a magnitude 10**U(lo, hi); one in eight is +-0.0."""
    if rng.random() < 0.125:
        return rng.choice((0.0, -0.0))
    return rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(lo, hi)


@pytest.mark.parametrize("name", sorted(EQUATIONS))
def test_random_starts_have_the_reference_bits(name):
    # Starts from 1e-300 to 1e300 in size, and signed zeros: many runs end at once, in every way.
    doc, starts, _ = EQUATIONS[name]
    eq = equation_from_json(doc)
    rng = random.Random(f"loop-bits-{name}")
    ran = 0
    for _ in range(40):
        t1 = starts[0][0] + abs(_magnitude(rng, -3, 1))
        ic = InitialData(t1, _magnitude(rng, -300, 300) if rng.random() < 0.3 else _magnitude(rng, -3, 1), _magnitude(rng))
        ran += _same_run(eq, ic, IntegrationOptions(horizon=t1 + 10.0 ** rng.uniform(-6, 0)))[0] != "raised"
    assert ran >= 10


# --- scripted fields: the rhs at each call --------------------------------------


def _scripted(script, start=(0.0, 2.0, 0.5), horizon=1.0):
    """phi'' = 0 through opaque fields p0 = 1, q0 = 0, r0 = 0, and a logged run of it in each loop.

    ``script`` maps (field, n) to the value, or the exception, that field gives
    on the n-th rhs evaluation, in place of its own; a callable value is called
    with (t, w).  Each run returns its digest and the (field, t, w) of every
    field call.  Evaluation 1 is p0(t1, phi0), which sets psi; the first rhs is
    evaluation 2, the initial-step probe 3, and stages 2 to 7 of the first
    attempt are evaluations 4 to 9.
    """

    def run(integrator):
        calls, count = [], [0]

        def fld(name, value):
            def fn(t, w):
                count[0] += name == "p0"  # p0 is sampled first at each point
                calls.append((name, t.hex(), w.hex()))
                got = script.get((name, count[0]), value)
                if isinstance(got, Exception):
                    raise got
                return got(t, w) if callable(got) else got

            return ScalarField(fn, name)

        eq = EquationSpec(fld("p0", 1.0), fld("q0", 0.0), fld("r0", 0.0), 0.0)
        return _digest(lambda: integrator(eq, InitialData(*start), IntegrationOptions(horizon=horizon))), calls

    return run(integrate), run(_reference_integrate)


#: What one rhs evaluation of the scripted fields gives instead of (v, -0.0) at (w, v) = (2, 0.5):
#: inf, -inf or NaN, a field that raises, p0 <= 0, and an exception the fields do not catch.
BAD_RESULTS = [
    {"r0": 1.7e308},  # -r * w is -inf
    {"p0": 5e-324},  # v / p is inf
    {"p0": 1e-10, "q0": -1.7e308, "r0": 1.7e308},  # -inf - -inf is NaN
    {"q0": math.nan},  # FieldEvaluationError: a non-finite sample
    {"r0": OverflowError("math range error")},  # FieldEvaluationError from the wrapped field
    {"p0": -1.0},  # DomainError
    {"r0": KeyError("not a field error")},  # passes through the fields and the loop
]
BAD_STAGES = [(stage, i) for stage in range(2, 8) for i in range(len(BAD_RESULTS))]


@pytest.mark.parametrize("stage, i", BAD_STAGES, ids=[f"stage{s}-{i}" for s, i in BAD_STAGES])
def test_a_bad_stage_raises_the_same_after_the_same_calls(stage, i):
    n = stage + 2  # the rhs evaluation of this stage in the first attempt
    (got, calls), expected = _scripted({(name, n): value for name, value in BAD_RESULTS[i].items()})
    assert (got, calls) == expected
    stage_calls = [(t, w) for name, t, w in calls if name == "p0"]
    if i >= 5:  # the run raises at that stage
        assert got[:2] == ("raised", (DomainError, KeyError)[i - 5]) and len(stage_calls) == n
    else:  # the attempt is rejected at that stage: the retry's stage 2 comes next, at a quarter of the step
        assert got[6][0] == REACHED_HORIZON and float.fromhex(stage_calls[n][0]) < float.fromhex(stage_calls[n - 1][0])


def _signed_zeros(weights):
    """Stage values k1..k7 of +-0.0 that make every term of the sum with these weights -0.0."""
    return [-0.0 if w > 0 else 0.0 for w in weights] + [0.0] * (7 - len(weights))


# Each sum of the step: the rows a2..a7, the error weights and the dense weights.
SUMS = {f"a{i + 2}": row for i, row in enumerate(dynamics._DP5[1])} | {"e": dynamics._DP5[2], "d": dynamics._DP5[3]}


@pytest.mark.parametrize("name", sorted(SUMS))
def test_a_sum_of_negative_zeros_keeps_its_zero_start(name):
    # From (phi, psi) = (-0.0, -0.0) every stage of the first attempt is a signed zero, and the sign of
    # each psi-stage is scripted through r0: with q0 = -1 at the first rhs, whose (w, v) are -0.0, and
    # q0 = 0 at the stages, whose (w, v) are +0.0, k_b = -r0 * w - q0 * v is -0.0 where r0 = -1 or 1.
    # Every term of the sum in psi is then -0.0: it is +0.0 only through its leading 0.0, and the node,
    # the error and the dense term all show the sign.
    ks = _signed_zeros(SUMS[name])
    script = {("q0", 2): -1.0, ("r0", 2): -1.0 if math.copysign(1.0, ks[0]) < 0 else 1.0}
    script |= {("r0", j + 2): 1.0 if math.copysign(1.0, k) < 0 else -1.0 for j, k in enumerate(ks[1:], 2)}
    (got, calls), expected = _scripted(script, start=(0.0, -0.0, -0.0), horizon=1e-3)
    assert (got, calls) == expected
    assert got[6][0] == REACHED_HORIZON


def test_a_new_node_that_overflows_is_rejected_at_the_last_stage():
    # psi starts at the largest float and stays there, as q0 = r0 = 0, and phi' = psi / p0 = 1.8e8.
    # Stage 6 of the first attempt gives psi' = 1e308, which only the new node adds: its psi overflows,
    # so the attempt is rejected after its last stage, and retried.
    big = 1.7976931348623157e308
    script = {("r0", 8): lambda t, w: -1e308 / w}
    (got, calls), expected = _scripted(script | {("p0", n): 1e300 for n in range(1, 200)}, start=(0.0, 1.0, big / 1e300), horizon=1e-6)
    assert (got, calls) == expected
    stage_calls = [(t, w) for name, t, w in calls if name == "p0"]
    assert stage_calls[8][0] == stage_calls[7][0]  # stage 7, at the new node, was evaluated
    assert float.fromhex(stage_calls[9][0]) < float.fromhex(stage_calls[8][0])


@pytest.mark.parametrize("seed", range(12))
def test_scripted_fields_run_as_the_reference(seed):
    # Each field call gives a value drawn from its pool: signed zeros, tiny and huge values, inf and
    # NaN, p0 <= 0 and raising fields, so runs reject, collapse and raise along every path.
    rng = random.Random(f"scripted-{seed}")
    pools = {
        "p0": [1.0, 0.5, 2.0, 1e-300, 1e300, 5e-324, -0.0, OverflowError()],
        "q0": [0.0, -0.0, 1.0, -1.0, 1e300, -1e300, math.inf],
        "r0": [0.0, -0.0, 1.0, -1.0, 1e-300, 1e308, -1e308, math.nan, ValueError()],
    }
    script = {(name, n): rng.choice(pool) if rng.random() < 0.2 else pool[n % 4] for name, pool in pools.items() for n in range(1, 400)}
    start = (0.0, rng.choice((0.0, -0.0, 1.0, -1e-300)), rng.choice((0.0, -0.0, 0.5, 1e300)))
    (got, calls), expected = _scripted(script, start=start, horizon=rng.choice((1e-3, 1.0)))
    assert (got, calls) == expected


# --- the rhs written in place against system_rhs of the wrapped fields -----------
# The loop writes the only compiled rhs: the closed forms' samples in place, and system_rhs(eq) of the
# wrapped fields where a sample fails its rule.  At every point it must give the wrapped rhs's floats,
# or its exception with the same message and cause.


def _in_place(eq):
    """``(t, h, w, v) -> rhs at (t + 0.2 * h, w, v)``, written in place as the loop writes its second stage."""

    def write(names, bind, stage):
        lines = [*bind, *dynamics._rhs_lines(stage, "k2", "ua", "ub", "t + 0.2 * h"), "return k2a, k2b"]
        return f"def point(f, t, h, ua, ub{''.join(f', {n}={n}' for n in names)}):\n" + "".join(f"    {line}\n" for line in lines)

    point = fields._compiled_points(eq, write, {}, "<rcert.dynamics loop>")["point"]
    f = system_rhs(_opaque(eq))
    return lambda t, h, w, v: point(f, t, h, w, v)


def _point_outcome(f, *args):
    try:
        a, b = f(*args)
    except Exception as exc:
        return type(exc), str(exc), type(exc.__cause__)
    return type(a), type(b), float(a).hex(), float(b).hex()


def _fields(p, q, r):
    return EquationSpec(_closed_form_field(p, "p"), _closed_form_field(q, "q"), _closed_form_field(r, "r"), 0.0)


#: Closed forms whose in-place rhs takes every path: constant samples taken once (the sweep's, a p0
#: near the largest float, a p0 <= 0, a NaN), samples that read t (a power of t, a Van der Pol
#: polynomial, opaque time factors) and samples that raise or are complex (a fractional power of w);
#: and, as ``odd_...``, every point sample of ``test_fields.ODD_SAMPLES``, one product per field.
DIFFERENTIAL = {
    "sweep": lambda: equation_from_json(CUBIC_EQ),
    "van_der_pol_polynomial": lambda: equation_from_json(VDP_POLYNOMIAL_EQ),
    "power_law": lambda: equation_from_json(POWER_LAW_EQ),
    "fractional": lambda: ef_equation(EFParams(rho=1.0, sigma=0.5, n=2.5, variant="signed")),
    "sum_overflows": lambda: _fields([_Product(1.7e308)], [_Product(0.0)], [_Product(1.0, g="w^b", b=1.0)]),
    "sum_overflows_with_q": lambda: _fields([_Product(1e308)], [_Product(1.0, g="w^b", b=1.0)], [_Product(-1.0, g="w^b", b=1.0)]),
    "p0_not_positive": lambda: _fields([_Product(1.0, g="w^b", b=1.0)], [_Product(1.0)], [_Product(2.0)]),
    "p0_constant_zero": lambda: _fields([_Product(0.0)], [_Product(1.0)], [_Product(1.0, g="w^b", b=1.0)]),
    "r0_constant_nan": lambda: _fields([_Product(1.0)], [_Product(0.0)], [_Product(math.nan)]),
    "opaque_time_factor": lambda: _fields([_Product(1.0, tau=lambda t: 1.0 + t * t)], [_Product(1.0, tau=math.sin)], [_Product(1.0, g="w^2-1", tau=math.cos)]),
    **{f"odd_{name}": lambda p=p, q=q, r=r: _fields([p], [q], [r]) for name, (p, q, r) in ODD_SAMPLES.items()},
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_the_rhs_in_place_is_system_rhs(name):
    eq = DIFFERENTIAL[name]()
    in_place, wrapped = _in_place(eq), system_rhs(_opaque(eq))
    rng = random.Random(f"in-place-{name}")
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.8e308, -1.8e308, 1.7e308, -1.7e308, -1.0, -0.5]
    points = [(1.0, 0.0, w, 0.25) for w in (0.0, 0.5, -0.5)]  # where ODD_SAMPLES fail
    for i in range(3000):
        t, h = rng.uniform(-2.0, 3.0), rng.choice((0.0, 1.0, 10.0 ** rng.uniform(-10, 1)))
        w = rng.choice(specials) if i % 3 == 0 else _magnitude(rng, -5, 5) if i % 3 == 1 else _magnitude(rng)
        points.append((t, h, w, rng.choice(specials) if i % 5 == 0 else _magnitude(rng)))
    outcomes = set()
    for t, h, w, v in points:
        expected = _point_outcome(wrapped, t + 0.2 * h, w, v)
        assert _point_outcome(in_place, t, h, w, v) == expected, (t, h, w, v)
        outcomes.add(expected[0] if issubclass(expected[0], Exception) else "finite" if "n" not in expected[2] + expected[3] else "non-finite")
    assert "finite" in outcomes or name in ("p0_constant_zero", "r0_constant_nan") or name.startswith("odd_")


def test_row_fields_are_not_wrapped_on_plain_points(monkeypatch):
    in_place, wrapped = _in_place(ROW_EQUATIONS["sweep"]), system_rhs(_opaque(ROW_EQUATIONS["sweep"]))
    expected = wrapped(0.0, 0.5, 0.25)

    def wrapper(self, t, w):
        raise AssertionError("ScalarField.__call__ reached")

    monkeypatch.setattr(ScalarField, "__call__", wrapper)
    assert in_place(0.0, -0.0, 0.5, 0.25) == expected


def test_closed_forms_in_place_are_called_once_per_point():
    calls = []

    def closed(name, value):
        return _closed_form_field([_Product(1.0, tau=lambda t: calls.append(name) or value)], name)

    in_place = _in_place(EquationSpec(p0=closed("p0", 1.0), q0=closed("q0", 1.0), r0=closed("r0", 2.0), t0=0.0))
    for k in range(1, 4):
        assert in_place(0.0, -0.0, 1.0, 1.0) == (1.0, -3.0)
        assert calls == ["p0", "r0", "q0"] * k


ROW_EQUATIONS = {
    "sweep": equation_from_json(CUBIC_EQ),
    "power_fields": equation_from_json(
        {
            "kind": "custom",
            "t0": 0.0,
            "p0": {"kind": "power", "coeff": 2.0, "t_power": 1.5, "tags": ["positive"]},
            "q0": {"kind": "power", "coeff": -0.5, "w_power": 2.5, "w_abs": False},
            "r0": {"kind": "polynomial", "terms": [{"c": 1e300, "t": 2.0, "w": 4.0}, {"c": -1.0, "w": 1.0}]},
        }
    ),
    "power_law": ef_equation(EFParams(rho=4.0, sigma=0.0, n=3.0)),
    "power_law_signed_fractional": ef_equation(EFParams(rho=1.0, sigma=0.5, n=2.5, variant="signed")),
    "van_der_pol": vdp_equation(VdPParams(lam=lambda t: 1.0 + t * t, mu=lambda t: 2.0, nu=lambda t: 0.5)),
}


@pytest.mark.parametrize("name", sorted(ROW_EQUATIONS))
@settings(max_examples=150, deadline=None)
@given(t=st.floats(-1e3, 1e3), u=st.floats(allow_nan=False), v=st.floats(allow_nan=False))
@example(t=1.0, u=-0.0, v=-0.0)
@example(t=-0.0, u=0.5, v=1.0)
@example(t=2.0, u=-0.5, v=-0.0)
@example(t=0.0, u=1e200, v=1e300)
def test_row_path_agrees_bit_for_bit(name, t, u, v):
    # h = -0.0 leaves every t as it is: t + 0.2 * -0.0 == t, for t = -0.0 too.
    eq = ROW_EQUATIONS[name]
    assert all(f.products is not None for f in (eq.p0, eq.q0, eq.r0))
    assert _point_outcome(_in_place(eq), t, -0.0, u, v) == _point_outcome(system_rhs(_opaque(eq)), t, u, v)


# --- the tableau in exact arithmetic ---------------------------------------------

C_TABLE, A_TABLE, E_TABLE, D_TABLE = dynamics._DP5
ULP = Fraction(2) ** -52


def _exact(values):
    return [Fraction(v) for v in values]


C = [Fraction(0)] + _exact(C_TABLE)  # c1 = 0
A = [[]] + [_exact(row) for row in A_TABLE]  # A[i - 1] is row i
B = A[6] + [Fraction(0)]  # the seventh row, and b7 = 0
E = _exact(E_TABLE)
B_HAT = [b - e for b, e in zip(B, E)]  # the embedded fourth-order weights


def _order_defects(b):
    """|sum b_i c_i^(k-1) - 1/k| for k = 1..5, and |sum b_i a_ij c_j - 1/6|."""
    defects = [abs(sum(bi * ci ** (k - 1) for bi, ci in zip(b, C)) - Fraction(1, k)) for k in range(1, 6)]
    third = sum(b[i] * sum(aij * C[j] for j, aij in enumerate(A[i])) for i in range(7))
    return defects, abs(third - Fraction(1, 6))


def test_the_tableau_has_seven_stages_and_first_same_as_last():
    assert len(C_TABLE) == len(A_TABLE) == 6
    assert [len(row) for row in A_TABLE] == [1, 2, 3, 4, 5, 6]
    assert len(E_TABLE) == len(D_TABLE) == 7
    assert C_TABLE[-1] == 1.0  # the last stage is at the new node


def test_each_row_sums_to_its_stage_time():
    for i in range(1, 7):
        assert abs(sum(A[i]) - C[i]) <= 4 * ULP, i + 1


def test_the_fifth_order_weights_meet_the_order_conditions():
    defects, third = _order_defects(B)
    assert max(defects) <= ULP and third <= ULP, (defects, third)


def test_the_embedded_weights_are_of_order_four_exactly():
    defects, third = _order_defects(B_HAT)
    assert max(defects[:4]) <= ULP and third <= ULP, (defects, third)
    assert defects[4] > Fraction(1, 10**4)  # the fourth-order pair misses k = 5


def test_the_error_and_dense_weights_each_sum_to_zero():
    assert abs(sum(E)) <= ULP
    assert abs(sum(_exact(D_TABLE))) <= 2 * ULP
