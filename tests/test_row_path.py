"""The row path of ``ScalarField.sample_row`` against the scalar loop, and row ranges against the samples.

Every builtin and JSON field kind has a row evaluator.  On any row it must
give the scalar loop's samples bit for bit, and on a row the scalar loop
cannot sample it must raise the same :class:`FieldEvaluationError`: the same
first (t, w), the same value and the same cause.  Every kind also has a range
over a row (``fields._enclose``): where it is finite, every sample of the row,
and of any w between its ends, is a finite float inside it, and a scan that
clears rows by their ranges decides as one that samples them all.
"""

import contextlib
import dataclasses
import math
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcert import FieldEvaluationError, ScalarField, equation_from_json
from rcert.applications import EFParams, VdPParams, ef_equation, vdp_equation
from rcert.certificates import _Check, _points, _ratio
from rcert.config import _scalar_field_from_json
from rcert.fields import _axis_ends, _enclose, _first_where, _linspace, _scan

JSON_FIELDS = {
    "constant": {"kind": "constant", "value": 2.5},
    "constant_negative_zero": {"kind": "constant", "value": -0.0},
    "power": {"kind": "power", "coeff": -1.5, "t_power": 2.0, "w_power": 3.0},
    "power_fractional": {"kind": "power", "coeff": 0.5, "t_power": -1.5, "w_power": 2.5},
    "power_signed_fractional": {"kind": "power", "w_power": 2.5, "w_abs": False},
    "power_signed_odd": {"kind": "power", "coeff": 3.0, "w_power": 3.0, "w_abs": False},
    "power_time_only": {"kind": "power", "coeff": 2.0, "t_power": 0.5},
    "power_reciprocal": {"kind": "power", "w_power": -1.0},
    "polynomial": {"kind": "polynomial", "terms": [{"c": 1.0}, {"c": -1.0, "w": 2.0}, {"c": 0.25, "t": 1.0, "w": 3.0}]},
    "polynomial_empty": {"kind": "polynomial", "terms": []},
    "polynomial_huge": {"kind": "polynomial", "terms": [{"c": 1e300, "t": 2.0, "w": 4.0}, {"c": -1e300, "w": 1.0}]},
    "polynomial_fractional": {"kind": "polynomial", "terms": [{"c": 1.0, "t": 0.5, "w": 1.5}, {"c": 2.0, "t": -1.0}]},
}


def _fields():
    found = {name: _scalar_field_from_json(doc, "f", name) for name, doc in JSON_FIELDS.items()}
    equations = {
        "ef_absolute": ef_equation(EFParams(rho=4.0, sigma=0.0, n=3.0)),
        "ef_absolute_fractional": ef_equation(EFParams(rho=2.5, sigma=-1.5, n=2.5)),
        "ef_signed": ef_equation(EFParams(rho=4.0, sigma=1.0, n=3.0, variant="signed")),
        "ef_signed_fractional": ef_equation(EFParams(rho=1.0, sigma=0.5, n=2.5, variant="signed")),
        "vdp": vdp_equation(VdPParams(lam=lambda t: 1.0, mu=lambda t: 2.0, nu=lambda t: 0.5)),
        "vdp_json": equation_from_json(
            {
                "kind": "van_der_pol",
                "lambda": {"kind": "polynomial", "coeffs": [1.0, 0.5, 0.25]},
                "mu": {"kind": "power", "coeff": 2.0, "power": 0.5},
                "nu": {"kind": "constant", "value": 1.5},
                "t0": 1.0,
            }
        ),
    }
    for eq_name, eq in equations.items():
        for part in ("p0", "q0", "r0"):
            found[f"{eq_name}.{part}"] = getattr(eq, part)
    return found


FIELDS = _fields()

#: The fields with no w-factor: one value per row, which is also their range.
W_FREE = {
    "constant",
    "constant_negative_zero",
    "polynomial_empty",
    "power_time_only",
    *(f"{eq}.{part}" for eq in ("ef_absolute", "ef_absolute_fractional", "ef_signed", "ef_signed_fractional") for part in ("p0", "q0")),
    *(f"{eq}.{part}" for eq in ("vdp", "vdp_json") for part in ("p0", "r0")),
}


@contextlib.contextmanager
def counted_calls():
    """Record every ``ScalarField.__call__`` while the block runs."""
    original = ScalarField.__call__
    calls = []

    def counted(fld, t, w):
        calls.append((t, w))
        return original(fld, t, w)

    ScalarField.__call__ = counted
    try:
        yield calls
    finally:
        ScalarField.__call__ = original


def outcome(sample):
    """The samples as exact hex strings, or the error as its exact fields."""
    try:
        values = sample()
    except FieldEvaluationError as exc:
        return ("error", exc.name, repr(exc.t), repr(exc.w), repr(exc.value), type(exc.__cause__))
    assert all(type(v) is float for v in values)
    return ("ok", [v.hex() for v in values])


SPECIAL_W = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-320, 1e154, -1e154, 1e200, -1e200, 1.7e308])
WS = st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), SPECIAL_W), max_size=12)
TS = st.one_of(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), st.sampled_from([0.0, -0.0, 1.0, 50.0, 1e-300, -2.0]))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_every_kind_has_a_row_evaluator(name):
    assert FIELDS[name].row_fn is not None


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(t=TS, ws=WS)
@example(t=1.0, ws=[0.5, -0.0, 0.0, -2.0])
@example(t=2.0, ws=[0.5, 1.0, 1e200, 1e300, -1e300])
@example(t=0.0, ws=[1.0, 0.0, -1.0])
@example(t=-2.0, ws=[1.0, -1.0])
def test_row_path_matches_scalar_loop(name, t, ws):
    fld = FIELDS[name]
    scalar = outcome(lambda: [fld(t, w) for w in ws])
    with counted_calls() as calls:
        row = outcome(lambda: fld.sample_row(t, ws))
    assert row == scalar
    if scalar[0] == "ok" and math.isfinite(sum(fld(t, w) for w in ws)):
        assert calls == []  # the row came from the row evaluator


#: Row ends: signed zeros, subnormals, the smallest normal, and ends whose powers overflow.
ENDS = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 0.5, -1.0, 1.0, 3.0, 1e154, -1e160]),
)


@st.composite
def rows(draw):
    """(lo, hi, n): a row of n points, sometimes with lo == hi."""
    a = draw(ENDS)
    b = a if draw(st.booleans()) and draw(st.booleans()) else draw(ENDS)
    return (*sorted((a, b)), draw(st.integers(min_value=2, max_value=9)))


@st.composite
def spans(draw):
    """One or two rows, the second above the first, as a band with a gap has them."""
    first = draw(rows())
    if draw(st.booleans()):
        return [first]
    second = draw(rows())
    return [first, second] if second[0] >= first[1] else [second, first] if first[0] >= second[1] else [first]


def near(values):
    """The row's extremes and their neighbours one ulp away."""
    out = []
    for v in (min(values), max(values)):
        out += [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]
    return out


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(t=TS, row=spans(), between=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4))
@example(t=1.0, row=[(-1.0, 1.0, 9)], between=[0.5])
@example(t=1.0, row=[(-0.0, 0.0, 3)], between=[])
@example(t=2.0, row=[(-1e-310, 5e-324, 5)], between=[0.25])
@example(t=1.0, row=[(-3.0, -1.0, 5)], between=[0.5])
@example(t=1.0, row=[(-3.0, -0.5, 5), (0.5, 3.0, 5)], between=[0.5])
def test_enclosure_holds_every_sample(name, t, row, between):
    fld = FIELDS[name]
    rng = _enclose(fld, t, [(lo, hi) for lo, hi, _ in row])
    if rng is None or not (math.isfinite(rng[0]) and math.isfinite(rng[1])):
        return  # no claim: the scan samples such a row
    ws = [w for lo, hi, n in row for w in _linspace(lo, hi, n) + [min(hi, lo + f * (hi - lo)) for f in between]]
    values = fld.sample_row(t, ws)  # a finite range means no sample raises
    assert all(type(v) is float and rng[0] <= v <= rng[1] for v in values)
    if name in W_FREE:
        assert rng == (values[0], values[0])
    for op in (operator.lt, operator.le, operator.gt):
        for bound in near(values):
            if _first_where(rng, op, bound) is None:
                assert _first_where(values, op, bound) is None


def scan_outcome(fields, stage, t, lo, hi, n):
    """What ``_scan`` gives on one row: its outcome, w range and flag, or the error it raises."""
    seen = [math.inf, -math.inf]
    try:
        first, last, size = _axis_ends(lo, hi, n)
        outcome, covered = _scan([(t, ((first, last),), size)], fields, [stage], seen)
    except Exception as exc:
        return ("raised", type(exc), str(exc)), None
    return (outcome, [x.hex() for x in seen]), covered


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=40, deadline=None)
@given(t=TS, row=rows(), den_name=st.sampled_from(sorted(FIELDS)), pick=st.integers(min_value=0, max_value=35))
@example(t=1.0, row=(-1.0, 1.0, 9), den_name="constant", pick=4)
@example(t=1.0, row=(-0.5, 2.0, 5), den_name="constant_negative_zero", pick=1)
@example(t=2.0, row=(-3.0, 3.0, 9), den_name="vdp.q0", pick=7)
def test_flat_rows_agree_with_the_plain_path(name, t, row, den_name, pick):
    # Rows cleared by their ranges (a w-free form's one value among them) against the plain path, which samples every row.
    lo, hi, n = row
    fld, den = FIELDS[name], FIELDS[den_name]
    ws = _linspace(lo, hi, n)
    samples = outcome(lambda: fld.sample_row(t, ws) + den.sample_row(t, ws))
    candidates = near([float.fromhex(v) for v in samples[1]]) + [0.0] if samples[0] == "ok" else [0.0]
    bound = candidates[pick % len(candidates)]
    op = "<>"[pick % 2]
    checks = _Check("f", "f", op, lambda t: bound, "B"), _Check("f/d", "f/d", "<>"[pick // 2 % 2], bound, "0")
    fields = {"f": fld, "d": den, "f/d": _ratio("f", "d")}
    plain = {k: dataclasses.replace(v, products=None) if isinstance(v, ScalarField) else v for k, v in fields.items()}
    fast, covered = scan_outcome(fields, _points(*checks), t, lo, hi, n)
    slow, _ = scan_outcome(plain, _points(*checks), t, lo, hi, n)
    assert fast == slow
    if covered:  # a cleared row: every check held at every sample
        assert fast[0] is None


@pytest.mark.parametrize(
    "name, ws, bad",
    [
        ("ef_absolute.r0", [0.5, 1.0, 1e200, 1e300], 2),  # |w|**2 overflows: OverflowError
        ("vdp.q0", [0.5, -3.0, 1e200, 1.0], 2),  # w*w is inf: a non-finite value
        ("power_reciprocal", [2.0, 1.0, 0.0, -0.0], 2),  # 0.0 ** -1.0: ZeroDivisionError
        ("power_signed_fractional", [4.0, 1.0, -1.0], 2),  # a complex sample: TypeError
        ("polynomial_huge", [1.0, 1e77, 1e80], 1),  # 1e300 * w**4 is inf
    ],
)
def test_failing_row_raises_at_the_first_bad_w(name, ws, bad):
    fld = FIELDS[name]
    with pytest.raises(FieldEvaluationError) as err:
        fld.sample_row(2.0, ws)
    assert (err.value.t, err.value.w) == (2.0, ws[bad])
    assert outcome(lambda: fld.sample_row(2.0, ws)) == outcome(lambda: [fld(2.0, w) for w in ws])


def test_finite_row_with_overflowing_sum_takes_the_scalar_loop():
    big = ScalarField(lambda t, w: 1e308, row_fn=lambda t, ws: [1e308] * len(ws))
    with counted_calls() as calls:
        assert big.sample_row(0.0, [0.0, 1.0]) == [1e308, 1e308]
    assert len(calls) == 2


def test_empty_row():
    assert FIELDS["polynomial"].sample_row(1.0, []) == []


def test_opaque_callable_goes_through_call():
    fld = ScalarField(lambda t, w: t + w, name="opaque")
    assert fld.row_fn is None
    with counted_calls() as calls:
        values = fld.sample_row(1.0, [0.0, 0.5, -1.0])
    assert values == [1.0, 1.5, 0.0]
    assert calls == [(1.0, 0.0), (1.0, 0.5), (1.0, -1.0)]
