"""Bit-exact pins of every closed-form field and time function.

Each JSON field kind, each JSON time-function kind and each field and
envelope of the power-law and Van der Pol applications is sampled on fixed
points that include +-0.0, 1e154 (whose square is near the float range),
1e200 (whose square overflows), negative w for the fractional powers and each
way a sample fails.  A field sample is its ``float.hex``, or the exact fields
of the :class:`FieldEvaluationError` it raises; a time-function value is its
``float.hex``, the type of a non-float, or the exception it raises.

``tests/field_golden.json`` holds ``samples()`` as the code computed it when
the file was written.  The row path is pinned through the point samples: on
every t the row must give the same hex strings, or raise the error of its
first failing point.
"""

import json
from pathlib import Path

import pytest

from rcert import FieldEvaluationError, equation_from_json, time_function_from_json
from rcert.applications import EFParams, VdPParams, ef_bound_triple, ef_equation, vdp_bound_triple, vdp_equation, vdp_family
from rcert.config import _scalar_field_from_json

GOLDEN = Path(__file__).with_name("field_golden.json")

TS = [2.5, 1.0, 0.0, -0.0, -2.0, 1e154, 1e200]
WS = [0.0, -0.0, 0.5, 1.0, -2.5, 3.0, 1e154, -1e154, 1e200, -1e200]

JSON_FIELDS = {
    "constant": {"kind": "constant", "value": 2.5},
    "constant_negative_zero": {"kind": "constant", "value": -0.0},
    "power": {"kind": "power", "coeff": -1.5, "t_power": 2.0, "w_power": 3.0},
    "power_defaults": {"kind": "power"},
    "power_minus_one": {"kind": "power", "coeff": -1.0, "t_power": 0.5, "w_power": 2.0},
    "power_negative_zero": {"kind": "power", "coeff": -0.0, "w_power": 2.0},
    "power_fractional": {"kind": "power", "coeff": 0.5, "t_power": -1.5, "w_power": 2.5},
    "power_signed_fractional": {"kind": "power", "w_power": 2.5, "w_abs": False},
    "power_signed_odd": {"kind": "power", "coeff": 3.0, "w_power": 3.0, "w_abs": False},
    "power_signed_square": {"kind": "power", "w_power": 2.0, "w_abs": False},
    "power_time_only": {"kind": "power", "coeff": 2.0, "t_power": 0.5},
    "power_reciprocal": {"kind": "power", "w_power": -1.0},
    "polynomial": {"kind": "polynomial", "terms": [{"c": 1.0}, {"c": -1.0, "w": 2.0}, {"c": 0.25, "t": 1.0, "w": 3.0}]},
    "polynomial_empty": {"kind": "polynomial", "terms": []},
    "polynomial_negative_zero": {"kind": "polynomial", "terms": [{"c": -0.0, "w": 1.0}]},
    "polynomial_time_only": {"kind": "polynomial", "terms": [{"c": 0.1}, {"c": 0.2, "t": 1.0}, {"c": 0.3, "t": 2.0}]},
    "polynomial_huge": {"kind": "polynomial", "terms": [{"c": 1e300, "t": 2.0, "w": 4.0}, {"c": -1e300, "w": 1.0}]},
    "polynomial_fractional": {"kind": "polynomial", "terms": [{"c": 1.0, "t": 0.5, "w": 1.5}, {"c": 2.0, "t": -1.0}]},
    "polynomial_zero_exponents": {"kind": "polynomial", "terms": [{"c": -1.0, "t": 0.0, "w": 0.0}, {"c": 3.0, "t": -0.0, "w": 1.0}]},
}

TIME_FUNCTIONS = {
    "constant": {"kind": "constant", "value": 2.5},
    "constant_negative_zero": {"kind": "constant", "value": -0.0},
    "power": {"kind": "power", "power": 0.5},
    "power_zero": {"kind": "power", "coeff": -1.0, "power": 0.0},
    "power_reciprocal": {"kind": "power", "coeff": 2.0, "power": -1.0},
    "power_square": {"kind": "power", "coeff": -0.5, "power": 2.0},
    "polynomial": {"kind": "polynomial", "coeffs": [1.0, 0.5, 0.25]},
    "polynomial_empty": {"kind": "polynomial", "coeffs": []},
    "polynomial_negative_zero": {"kind": "polynomial", "coeffs": [-0.0]},
    "polynomial_rounding": {"kind": "polynomial", "coeffs": [0.1, 0.2, 0.3, 1e-17, -1.0]},
}


def unit(t):
    return 1.0


VDP_JSON = {
    "kind": "van_der_pol",
    "lambda": {"kind": "polynomial", "coeffs": [1.0, 0.5, 0.25]},
    "mu": {"kind": "power", "coeff": 2.0, "power": 0.5},
    "nu": {"kind": "constant", "value": 1.5},
    "t0": 1.0,
}
VDP_UNIT = VdPParams(lam=unit, mu=unit, nu=unit)
VDP_TIME = VdPParams(
    lam=time_function_from_json(VDP_JSON["lambda"], "lam"),
    mu=time_function_from_json(VDP_JSON["mu"], "mu"),
    nu=time_function_from_json(VDP_JSON["nu"], "nu"),
)
EF = {
    "ef_absolute": EFParams(rho=4.0, sigma=0.0, n=3.0),
    "ef_absolute_fractional": EFParams(rho=2.5, sigma=-1.5, n=2.5),
    "ef_kneser": EFParams(rho=0.0, sigma=-5.0, n=3.0),
    "ef_signed": EFParams(rho=4.0, sigma=1.0, n=3.0, variant="signed"),
    "ef_signed_fractional": EFParams(rho=1.0, sigma=0.5, n=2.5, variant="signed"),
}


def fields():
    found = {f"json.{name}": _scalar_field_from_json(doc, "f", name) for name, doc in JSON_FIELDS.items()}
    equations = {name: ef_equation(p) for name, p in EF.items()}
    equations["vdp_unit"] = vdp_equation(VDP_UNIT)
    equations["vdp_json"] = equation_from_json(VDP_JSON)
    for eq_name, eq in equations.items():
        for part in ("p0", "q0", "r0"):
            found[f"{eq_name}.{part}"] = getattr(eq, part)
    return found


def time_functions():
    found = {f"json.{name}": time_function_from_json(doc, "f") for name, doc in TIME_FUNCTIONS.items()}
    for name, p in EF.items():
        b = ef_bound_triple(p)
        found.update({f"{name}.P": b.P, f"{name}.Q": b.Q, f"{name}.R": b.R})
    for name, v in (("vdp_unit", VDP_UNIT), ("vdp_json", VDP_TIME)):
        b, family = vdp_bound_triple(v), vdp_family(v)
        found.update({f"{name}.P": b.P, f"{name}.Q": b.Q, f"{name}.R": b.R})
        for eps in (0.0, 0.5, 1.0, 2.0):
            for part, f in zip(("p", "q", "r"), family(eps)):
                found[f"{name}.{part}_eps={eps!r}"] = f
    return found


def error(exc: FieldEvaluationError) -> str:
    return f"error {exc.name} {exc.t!r} {exc.w!r} {exc.value!r} {type(exc.__cause__).__name__}"


def point(fld, t, w):
    try:
        return fld(t, w).hex()
    except FieldEvaluationError as exc:
        return error(exc)


def time_value(f, t):
    try:
        value = f(t)
    except Exception as exc:
        return f"raises {type(exc).__name__}"
    return value.hex() if type(value) is float else f"{type(value).__name__} {value!r}" if type(value) is int else type(value).__name__


def samples() -> dict:
    """``{"fields": {name: {repr(t): [sample per w]}}, "time_functions": {name: [value per t]}}``."""
    return {
        "fields": {name: {repr(t): [point(fld, t, w) for w in WS] for t in TS} for name, fld in fields().items()},
        "time_functions": {name: [time_value(f, t) for t in TS] for name, f in time_functions().items()},
    }


GOLDEN_SAMPLES = json.loads(GOLDEN.read_text(encoding="utf-8"))
FIELDS = fields()
TIME_FUNCS = time_functions()


def test_every_case_is_pinned():
    assert sorted(FIELDS) == sorted(GOLDEN_SAMPLES["fields"])
    assert sorted(TIME_FUNCS) == sorted(GOLDEN_SAMPLES["time_functions"])


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_field_points(name):
    fld = FIELDS[name]
    assert {repr(t): [point(fld, t, w) for w in WS] for t in TS} == GOLDEN_SAMPLES["fields"][name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_field_rows(name):
    fld = FIELDS[name]
    for t in TS:
        expected = GOLDEN_SAMPLES["fields"][name][repr(t)]
        try:
            row = [v.hex() for v in fld.sample_row(t, WS)]
        except FieldEvaluationError as exc:
            row = error(exc)
        assert row == next((s for s in expected if s.startswith("error")), expected)


@pytest.mark.parametrize("name", sorted(TIME_FUNCS))
def test_time_function_values(name):
    assert [time_value(TIME_FUNCS[name], t) for t in TS] == GOLDEN_SAMPLES["time_functions"][name]
