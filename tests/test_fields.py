import math
from types import CodeType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcert import (
    ConfigError,
    DomainError,
    EquationSpec,
    FieldEvaluationError,
    GridSpec,
    InitialData,
    ScalarField,
    equation_from_json,
    system_rhs,
)
from rcert.applications import VdPParams, vdp_equation
from rcert.fields import _axis_ends, _closed_form_field, _closed_form_time, _compiled, _Product
from conftest import make_eq


class TestScalarField:
    def test_non_finite_raises(self):
        f = ScalarField(lambda t, w: float("inf"), name="bad")
        with pytest.raises(FieldEvaluationError):
            f(0.0, 0.0)

    def test_complex_result_raises(self):
        f = ScalarField(lambda t, w: w ** 0.5)
        with pytest.raises(FieldEvaluationError):
            f(0.0, -1.0)

    def test_initial_data_finite(self):
        with pytest.raises(ValueError):
            InitialData(0.0, float("nan"), 0.0)


class TestClosedFormCompileCache:
    @pytest.fixture
    def compiles(self, monkeypatch):
        _compiled.cache_clear()
        sources = []
        monkeypatch.setattr("rcert.fields.compile", lambda source, *args: sources.append(source) or compile(source, *args), raising=False)
        return sources

    def test_same_source_keeps_each_forms_coefficients(self, compiles):
        f = _closed_form_field([_Product(2.0, a=1.0, g="|w|^b", b=2.0)], start=0.5)
        g = _closed_form_field([_Product(3.0, a=2.0, g="|w|^b", b=1.0)], start=-1.0)
        assert len(compiles) == 1
        # Equal code, but each form's own object, so no two share the interpreter's caches.
        assert f.fn.__code__ == g.fn.__code__ and f.fn.__code__ is not g.fn.__code__
        assert (f(2.0, -3.0), g(2.0, -3.0)) == (36.5, 35.0)
        assert (f.sample_row(2.0, [1.0, -3.0]), g.sample_row(2.0, [1.0, -3.0])) == ([4.5, 36.5], [11.0, 35.0])

    def test_each_closed_form_compiles_one_function(self, compiles):
        fld = _closed_form_field([_Product(2.0, a=1.0, g="|w|^b", b=2.0)], "f")
        time = _closed_form_time([_Product(3.0, a=0.5)])
        functions = [[c.co_name for c in compile(source, "", "exec").co_consts if isinstance(c, CodeType)] for source in compiles]
        assert functions == [["fn"], ["fn"]]
        assert (fld.fn(2.0, 3.0), time(4.0)) == (36.0, 6.0)
        with pytest.raises(ValueError, match="no w-factor"):
            _closed_form_time([_Product(1.0, g="w^2-1")])

    def test_same_source_keeps_each_forms_time_factor(self, compiles):
        f = _closed_form_time([_Product(2.0, tau=math.cos)])
        g = _closed_form_time([_Product(0.5, tau=math.exp)])
        assert len(compiles) == 1
        assert (f(0.0), g(0.0), f(1.0), g(1.0)) == (2.0, 0.5, 2.0 * math.cos(1.0), 0.5 * math.e)


def range_linspace(lo, hi, n):
    """The axis as built from ``range(n)``: ``lo + i * step``, the last point ``hi``."""
    if lo == hi:
        return [lo]
    step = (hi - lo) / (n - 1)
    pts = [lo + i * step for i in range(n)]
    pts[-1] = hi
    return pts


class TestGridAxes:
    @settings(max_examples=300, deadline=None)
    @given(ends=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2), n=st.integers(2, 4097))
    @example(ends=[0.0, 1.0], n=4097)
    @example(ends=[-0.0, 1e-300], n=3)
    @example(ends=[-1e300, 1e300], n=1025)
    @example(ends=[50.5, 50.5], n=129)
    def test_axes_keep_the_range_construction_bits(self, ends, n):
        lo, hi = sorted(ends)
        if not math.isfinite(hi - lo):
            return  # test_an_axis_whose_span_overflows_raises
        expected = [v.hex() for v in range_linspace(lo, hi, n)]
        for axis in (GridSpec(nt=n, nw=2).t_axis(lo, hi), GridSpec(nt=2, nw=n).w_axis(lo, hi)):
            assert [v.hex() for v in axis] == expected
            # by value: lo + 0.0 is 0.0 for lo = -0.0, and an axis with lo == hi is [lo]
            assert axis[0] == lo and axis[-1] == hi
            # the ends and size a scan takes without building the axis
            assert [v.hex() for v in _axis_ends(lo, hi, n)[:2]] == [axis[0].hex(), axis[-1].hex()]
            assert _axis_ends(lo, hi, n)[2] == len(axis)

    @pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-math.inf, 0.0), (0.0, math.inf)])
    def test_an_axis_whose_span_overflows_raises(self, lo, hi):
        # hi - lo = inf made the step inf: [nan, inf, inf, inf, 1e308], blamed on the field sampled there
        for build in (GridSpec(5, 5).w_axis, GridSpec(5, 5).t_axis, lambda lo, hi: _axis_ends(lo, hi, 5)):
            with pytest.raises(DomainError, match=r"grid axis over \[.*\] spans inf: the region is too wide to grid"):
                build(lo, hi)


class TestEquationFromJson:
    def test_emden_fowler_kind(self):
        eq = equation_from_json({"kind": "emden_fowler", "rho": 4.0, "sigma": 0.0, "n": 3.0, "t0": 1.0})
        assert eq.p0(3.0, 7.0) == pytest.approx(81.0)
        assert eq.q0(2.0, 5.0) == 0.0
        assert eq.r0(1.0, 2.0) == pytest.approx(-4.0)

    def test_van_der_pol_kind(self):
        eq = equation_from_json(
            {
                "kind": "van_der_pol",
                "lambda": {"kind": "constant", "value": 1.0},
                "mu": {"kind": "constant", "value": 1.0},
                "nu": {"kind": "constant", "value": 1.0},
                "t0": 0.0,
            }
        )
        assert eq.q0(0.0, 2.0) == pytest.approx(3.0)
        assert eq.r0(5.0, 1.0) == pytest.approx(1.0)

    def test_custom_polynomial_fields(self):
        eq = equation_from_json(
            {
                "kind": "custom",
                "t0": 0.0,
                "p0": {"kind": "polynomial", "terms": [{"c": 1.0}, {"c": 1.0, "t": 2}, {"c": 1.0, "w": 4}]},
                "q0": {"kind": "polynomial", "terms": [{"c": 1.0, "t": 1}, {"c": 1.0, "w": 3}]},
                "r0": {"kind": "polynomial", "terms": [{"c": 1.0, "t": 3}, {"c": -1.0, "w": 1}]},
            }
        )
        assert eq.p0(2.0, 1.0) == pytest.approx(6.0)
        assert eq.q0(2.0, 2.0) == pytest.approx(10.0)
        assert eq.r0(2.0, 3.0) == pytest.approx(5.0)

    def test_unknown_kind_has_path(self):
        with pytest.raises(ConfigError) as err:
            equation_from_json({"kind": "mystery"})
        assert "equation.kind" in str(err.value)
        # the message lists the equation kinds, not the field kinds
        for kind in ("custom", "emden_fowler", "van_der_pol"):
            assert repr(kind) in str(err.value)
        assert "polynomial" not in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            equation_from_json({"kind": "emden_fowler", "rho": 2.0, "sigma": 0.0, "n": 3.0, "extra": 1})
        assert "equation.extra" in str(err.value)

    def test_signed_variant_flag(self):
        eq = equation_from_json(
            {"kind": "emden_fowler", "rho": 0.0, "sigma": 0.0, "n": 2.0, "variant": "signed", "t0": 1.0}
        )
        # signed: r0 = -t^sigma * w; absolute would give -t^sigma * |w|
        assert eq.r0(1.0, -2.0) == pytest.approx(2.0)

    def test_power_field_kind(self):
        eq = equation_from_json(
            {
                "kind": "custom",
                "t0": 1.0,
                "p0": {"kind": "power", "coeff": 2.0, "t_power": 3.0, "tags": ["positive"]},
                "q0": {"kind": "constant", "value": 0.0},
                "r0": {"kind": "power", "coeff": -1.0, "w_power": 2.0, "w_abs": True},
            }
        )
        assert eq.p0(2.0, 9.0) == pytest.approx(16.0)
        assert eq.r0(7.0, -3.0) == pytest.approx(-9.0)


def at(value):
    """The product whose sample is ``value`` everywhere: its source is ``tau0(t)``, so ``value`` passes through as it is."""
    return _Product(1.0, tau=lambda t: value)


W_INVERSE = _Product(1.0, g="w^b", b=-1.0)  # ZeroDivisionError at w = 0
W_ROOT = _Product(1.0, g="w^b", b=0.5)  # complex at w < 0

#: The (p0, q0, r0) products, at w in (0.0, 0.5, -0.5) and t = 1.0, of the
#: points that the evaluators compiled from closed forms must hand back to
#: the wrapped fields.
ODD_SAMPLES = {
    "zero_division": (at(2.0), at(1.0), W_INVERSE),
    "overflow": (at(2.0), _Product(1.0, tau=lambda t: math.exp(1e3 * t)), at(1.0)),
    "nan": (at(2.0), at(math.nan), at(1.0)),
    "inf": (at(2.0), at(1.0), at(math.inf)),
    "minus_inf": (at(2.0), at(-math.inf), at(1.0)),
    "ints": (at(3), at(2 ** 53 + 1), at(1.0)),  # converted as float() does
    "huge_int": (at(2.0), at(10 ** 400), at(1.0)),  # an int past the float range
    "bool": (at(True), at(1.0), at(1.0)),
    "complex": (at(2.0), at(1.0), W_ROOT),  # complex at w < 0
    "p0_zero": (at(0.0), at(1.0), at(1.0)),
    "p0_minus_zero": (at(-0.0), at(1.0), at(1.0)),
    "p0_negative_first": (at(-1.0), W_INVERSE, at(1.0)),  # p0 <= 0 is found before q0 raises
    "p0_negative_before_key_error": (at(-1.0), at(1.0), _Product(1.0, tau=lambda t: {}[t])),  # ... and before r0 raises a KeyError
    "p0_inf": (at(math.inf), at(1.0), at(1.0)),  # v / p would be 0.0
    "sum_overflows": (at(1e308), at(1e308), at(1e308)),  # the sum overflows, each sample is finite
}


class TestSystemRhs:
    def test_components_match_hand_values(self):
        eq = make_eq(p=2.0, q=1.0, r=3.0)
        f = system_rhs(eq)
        f1, f2 = f(0.0, 1.0, 4.0)
        assert f1 == pytest.approx(2.0)  # v / p0
        assert f2 == pytest.approx(-3.0 * 1.0 - 0.5 * 4.0)

    def test_p0_zero_raises(self):
        eq = make_eq(p_fn=lambda t, w: w)
        f = system_rhs(eq)
        with pytest.raises(DomainError):
            f(0.0, -1.0, 0.0)

    def test_fields_are_called_once_per_point(self):
        calls = []

        def counting(name, value):
            def fn(t, w=None):
                calls.append(name)
                return value

            return fn

        q0 = _closed_form_field([_Product(1.0, tau=counting("q0", 1.0))], "q0")
        f = system_rhs(EquationSpec(p0=ScalarField(counting("p0", 1.0)), q0=q0, r0=ScalarField(counting("r0", 2.0)), t0=0.0))
        for k in range(1, 4):
            assert f(0.0, 1.0, 1.0) == (1.0, -3.0)
            assert calls == ["p0", "r0", "q0"] * k

    def test_closed_forms_compile_no_rhs(self, monkeypatch):
        # The loop writes the only compiled rhs: system_rhs of closed forms compiles and runs no generated source.
        eq = vdp_equation(VdPParams(lam=lambda t: 1.0, mu=lambda t: 1.0, nu=lambda t: 1.0))
        assert all(f.products is not None for f in (eq.p0, eq.q0, eq.r0))
        sources = []
        monkeypatch.setattr("rcert.fields.compile", lambda source, *args: sources.append(source) or compile(source, *args), raising=False)
        info = _compiled.cache_info()
        f = system_rhs(eq)
        assert sources == [] and _compiled.cache_info()[:2] == info[:2]
        assert f.__code__.co_filename.endswith("fields.py")
        assert f(0.0, 2.0, 1.0) == (1.0, -5.0)
