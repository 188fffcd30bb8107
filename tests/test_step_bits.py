"""The generated Dormand-Prince step against the stage sweep written out by hand.

``dynamics._step`` is compiled from the tableau ``dynamics._DP5``.
``_reference_step`` below is the stepper's stage sweep, error pair and dense
tuple as they were written out term by term before the step was generated.
It is the reference these tests compare against, not a second path in the
package.  Every output is compared as ``float.hex``, and so is every argument
of every rhs call; an exception must be of the same type after the same
number of rhs calls.

The tableau itself is checked in exact rational arithmetic
(``fractions.Fraction`` of each float): the row sums, the order conditions
of the fifth-order weights and of the embedded fourth-order ones, and the
zero sums of the error and dense weights.
"""

import math
import random
from fractions import Fraction

import pytest

from rcert import FieldEvaluationError, equation_from_json
from rcert import dynamics
from rcert.fields import system_rhs

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


def _outcome(step, f, t, h, ya, yb, k1a, k1b):
    """What one step gives: its outputs or its exception type, with every rhs call's arguments, all as hex."""
    calls = []

    def recording(t, w, v):
        calls.append((t.hex(), w.hex(), v.hex()))
        return f(t, w, v)

    try:
        yna, ynb, k7a, k7b, ea, eb, dense = step(recording, t, h, ya, yb, k1a, k1b)
    except Exception as exc:  # the type and the call count are what must agree
        return ("raised", type(exc), calls)
    return ("stepped", [v.hex() for v in (yna, ynb, k7a, k7b, ea, eb, *dense)], calls)


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
#: phi'' + phi = 0, phi'' + (1 - phi^2) phi = 0 and Van der Pol, each with its compiled rhs.
EQUATIONS = {
    "harmonic": HARMONIC_EQ,
    "cubic": CUBIC_EQ,
    "van_der_pol": VDP_EQ,
}


def _magnitude(rng, lo=-300, hi=300):
    """A float of random sign and a magnitude 10**U(lo, hi); one in eight is +-0.0."""
    if rng.random() < 0.125:
        return rng.choice((0.0, -0.0))
    return rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(lo, hi)


def _cases(rng, f, n):
    """``n`` random (t, h, ya, yb, k1a, k1b): magnitudes from 1e-300 to 1e300, and -0.0 starts.

    Half of the cases are ordinary (values near 1 and steps up to 1), so that
    most of them take the whole step; k1 is the rhs at the start where it is
    finite, as in the stepper, and random otherwise.
    """
    for i in range(n):
        if i % 2:
            t, h = _magnitude(rng), abs(_magnitude(rng, -300, 2))
            ya, yb = _magnitude(rng), _magnitude(rng)
        else:
            t, h = rng.uniform(-5.0, 50.0), 10.0 ** rng.uniform(-12, 0)
            ya, yb = _magnitude(rng, -3, 1), _magnitude(rng, -3, 1)
        if i % 7 == 0:
            ya, yb = -0.0, rng.choice((-0.0, 0.0, yb))
        try:
            k1a, k1b = f(t, ya, yb)
        except (FieldEvaluationError, OverflowError):
            k1a = k1b = math.nan
        if not (math.isfinite(k1a) and math.isfinite(k1b)) or i % 5 == 0:
            k1a, k1b = _magnitude(rng), _magnitude(rng)
        yield t, h, ya, yb, k1a, k1b


@pytest.mark.parametrize("name", sorted(EQUATIONS))
def test_generated_step_has_the_written_out_bits(name):
    f = system_rhs(equation_from_json(EQUATIONS[name]))
    assert f.__name__ == "rhs"  # the compiled rhs, not the wrapped fields
    rng = random.Random(f"step-bits-{name}")
    stepped = 0
    for case in _cases(rng, f, 2000):
        expected = _outcome(_reference_step, f, *case)
        assert _outcome(dynamics._step, f, *case) == expected, case
        stepped += expected[0] == "stepped"
    assert stepped >= 1000  # most cases take the whole step, so their outputs are compared


def _signed_zeros(weights):
    """Stage values k1..k7 of +-0.0 that make every term of the sum with these weights -0.0."""
    return [-0.0 if w > 0 else 0.0 for w in weights] + [0.0] * (7 - len(weights))


# Each sum of the step: the rows a2..a7, the error weights and the dense weights.
SUMS = {f"a{i + 2}": row for i, row in enumerate(dynamics._DP5[1])} | {"e": dynamics._DP5[2], "d": dynamics._DP5[3]}


@pytest.mark.parametrize("name", sorted(SUMS))
def test_a_sum_of_negative_zeros_keeps_its_zero_start(name):
    # From a -0.0 start, a sum whose terms are all -0.0 is +0.0 only through its
    # leading 0.0: the node, the error and the dense term all show the sign.
    ks = _signed_zeros(SUMS[name])
    outcomes = []
    for step in (_reference_step, dynamics._step):
        stages = iter(ks[1:])
        outcomes.append(_outcome(step, lambda t, w, v: (k := next(stages), k), 1.0, 0.5, -0.0, -0.0, ks[0], ks[0]))
    assert outcomes[0][0] == "stepped"
    assert outcomes[1] == outcomes[0]


def _scripted(stage, result):
    """An rhs that returns ``result`` (or raises it) on the call for ``stage``, and finite values otherwise.

    The step's first rhs call is stage 2 (stage 1 is passed in).
    """
    calls = []

    def f(t, w, v):
        calls.append(t)
        if len(calls) == stage - 1:
            if isinstance(result, Exception):
                raise result
            return result
        return 0.5 * w - v + 1.0, w + 0.25 * v

    return f, calls


BAD_STAGES = [
    (stage, result)
    for stage in range(2, 8)
    for result in (
        (math.inf, 1.0),
        (1.0, -math.inf),
        (math.nan, 0.0),
        (-0.0, math.nan),
        FieldEvaluationError("r0", 0.0, 0.0, math.nan),
        OverflowError("math range error"),
    )
]


@pytest.mark.parametrize("stage, result", BAD_STAGES, ids=[f"stage{s}-{i % 6}" for i, (s, _) in enumerate(BAD_STAGES)])
def test_a_bad_stage_raises_the_same_after_the_same_calls(stage, result):
    outcomes = []
    for step in (_reference_step, dynamics._step):
        f, calls = _scripted(stage, result)
        with pytest.raises(Exception) as info:
            step(f, 0.25, 0.125, 1.0, -2.0, 0.5, 0.75)
        outcomes.append((type(info.value), len(calls)))
    expected_type = _NonFiniteStage if isinstance(result, tuple) else type(result)
    assert outcomes == [(expected_type, stage - 1)] * 2


def test_a_new_node_that_overflows_is_rejected_at_the_last_stage():
    # Every stage value is finite, while the node sums overflow: only the last
    # stage tests the new node, so both steps make all six calls.
    outcomes = []
    for step in (_reference_step, dynamics._step):
        calls = []

        def f(t, w, v):
            calls.append((w, v))
            return 1e308, 1.0

        with pytest.raises(_NonFiniteStage):
            step(f, 0.0, 1.0, 1.7e308, 1.0, 1e308, 1.0)
        outcomes.append([(w.hex(), v.hex()) for w, v in calls])
    assert len(outcomes[0]) == 6
    assert outcomes[0][-1][0] == "inf"
    assert outcomes[0] == outcomes[1]


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
