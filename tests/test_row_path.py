"""The row path of ``ScalarField.sample_row`` against the scalar loop.

Every builtin and JSON field kind has a row evaluator.  On any row it must
give the scalar loop's samples bit for bit, and on a row the scalar loop
cannot sample it must raise the same :class:`FieldEvaluationError`: the same
first (t, w), the same value and the same cause.
"""

import contextlib
import math
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcert import FieldEvaluationError, ScalarField, equation_from_json
from rcert.applications import EFParams, VdPParams, ef_equation, vdp_equation
from rcert.config import _scalar_field_from_json
from rcert.fields import _even_monotone_break, _first_where, _Flat, _quotient

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

#: The fields with no w-factor: their row evaluator returns a flat row.
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


BOUNDS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf]))


def hexes(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=40, deadline=None)
@given(t=TS, ws=WS, bound=BOUNDS, den_name=st.sampled_from(sorted(FIELDS)))
@example(t=1.0, ws=[], bound=0.0, den_name="constant")
@example(t=1.0, ws=[0.5, -1.0], bound=-0.0, den_name="constant_negative_zero")
@example(t=2.0, ws=[0.5, -1.0, 3.0], bound=math.inf, den_name="vdp.q0")
def test_flat_rows_agree_with_the_plain_path(name, t, ws, bound, den_name):
    fld, den_fld = FIELDS[name], FIELDS[den_name]
    scalar = outcome(lambda: [fld(t, w) for w in ws])
    den_scalar = outcome(lambda: [den_fld(t, w) for w in ws])
    if scalar[0] != "ok" or den_scalar[0] != "ok":
        return  # failing rows: test_row_path_matches_scalar_loop
    row, den = fld.sample_row(t, ws), den_fld.sample_row(t, ws)
    if ws:  # an empty row may come from the scalar loop: a time part of t can fail
        assert (type(row) is _Flat) == (name in W_FREE)
    assert hexes(row) == scalar[1]
    plain = list(row)
    # the first index where a comparison holds, with the row's own value among the bounds
    for b in (bound, *row[:1]):
        for op in (operator.lt, operator.le, operator.gt):
            assert _first_where(row, op, b) == _first_where(plain, op, b)
    assert _even_monotone_break(ws, row) == _even_monotone_break(ws, plain)
    # the quotient and its stop index, flat or plain on either side
    stop = next((j for j, d in enumerate(den) if d <= 0.0), None)
    expected = hexes(n / d for n, d in zip(plain[:stop], den[:stop]))
    for num_row, den_row in ((row, den), (plain, den), (row, list(den)), (plain, list(den))):
        values, j = _quotient(num_row, den_row)
        assert (hexes(values), j) == (expected, stop)
        flat = type(num_row) is type(den_row) is _Flat and stop is None and len(ws) > 0
        assert (type(values) is _Flat) == flat


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
