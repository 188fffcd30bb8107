import dataclasses
import math

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
    Rectangle,
    ScalarField,
    equation_from_json,
    system_rhs,
    verify_structural_tags,
)
from rcert.applications import EFParams, VdPParams, ef_equation, vdp_equation
from rcert.fields import _axis_ends, _closed_form_field, _closed_form_time, _compiled, _Product
from conftest import const_field, make_eq


class TestScalarField:
    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            ScalarField(lambda t, w: 1.0, tags={"bogus"})

    def test_non_finite_raises(self):
        f = ScalarField(lambda t, w: float("inf"), name="bad")
        with pytest.raises(FieldEvaluationError):
            f(0.0, 0.0)

    def test_complex_result_raises(self):
        f = ScalarField(lambda t, w: w ** 0.5)
        with pytest.raises(FieldEvaluationError):
            f(0.0, -1.0)

    def test_p0_must_be_tagged_positive(self):
        with pytest.raises(ValueError):
            EquationSpec(p0=const_field(1.0), q0=const_field(0.0), r0=const_field(0.0), t0=0.0)

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

    def test_same_source_keeps_each_forms_time_factor(self, compiles):
        f = _closed_form_time([_Product(2.0, tau=math.cos)])
        g = _closed_form_time([_Product(0.5, tau=math.exp)])
        assert len(compiles) == 1
        assert (f(0.0), g(0.0), f(1.0), g(1.0)) == (2.0, 0.5, 2.0 * math.cos(1.0), 0.5 * math.e)


class TestVerifyStructuralTags:
    def test_even_square_holds(self):
        f = ScalarField(lambda t, w: w * w, tags={"monotone_in_w_even"})
        report = verify_structural_tags(f, Rectangle(0.0, 1.0, -2.0, 2.0))
        assert report["monotone_in_w_even"].holds

    def test_negative_absolute_power_nonpositive(self):
        f = ScalarField(lambda t, w: -abs(w) ** 2, tags={"nonpositive"})
        report = verify_structural_tags(f, Rectangle(0.0, 1.0, -3.0, 3.0))
        assert report["nonpositive"].holds

    def test_cubic_minus_w_falsified_with_witness(self):
        # t^3 - w dips negative at w = 1 already; a {-1, 0, 1, 2} grid pins
        # the first counterexample at (0, 1).
        f = ScalarField(lambda t, w: t ** 3 - w, tags={"nonnegative"})
        report = verify_structural_tags(f, Rectangle(0.0, 1.0, -1.0, 2.0), GridSpec(nt=2, nw=4))
        check = report["nonnegative"]
        assert not check.holds
        assert check.witness == (0.0, 1.0)

    def test_falsification_survives_refinement(self):
        f = ScalarField(lambda t, w: t ** 3 - w, tags={"nonnegative"})
        coarse = GridSpec(nt=2, nw=4)
        for factor in (2, 4):
            refined = coarse.refined(factor)
            report = verify_structural_tags(f, Rectangle(0.0, 1.0, -1.0, 2.0), refined)
            assert not report["nonnegative"].holds

    def test_positive_tag_falsified_at_zero(self):
        f = ScalarField(lambda t, w: w, tags={"positive"})
        report = verify_structural_tags(f, Rectangle(0.0, 1.0, 0.0, 1.0), GridSpec(nt=2, nw=3))
        assert not report["positive"].holds
        assert report["positive"].witness == (0.0, 0.0)


    def test_tagless_field_is_not_sampled(self):
        calls = []
        f = ScalarField(lambda t, w: calls.append((t, w)) or 1.0)
        report = verify_structural_tags(f, Rectangle(0.0, 1.0, -2.0, 2.0), GridSpec(nt=33, nw=33))
        assert report.checks == ()
        assert report.all_hold
        assert calls == []


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

    # --- the row-path rhs against the wrapped rhs ---------------------------
    # Fields with a row evaluator get an rhs that calls their raw fns; an odd
    # sample sends the point back through the wrapped fields, so every point
    # must give the wrapped rhs's floats or its exception, message and cause.

    @staticmethod
    def row_and_wrapped(eq):
        """The rhs of ``eq`` and of the same fields without row evaluators."""
        opaque = {part: dataclasses.replace(getattr(eq, part), row_fn=None) for part in ("p0", "q0", "r0")}
        return system_rhs(eq), system_rhs(EquationSpec(t0=eq.t0, **opaque))

    @staticmethod
    def outcome(f, t, u, v):
        try:
            a, b = f(t, u, v)
        except Exception as exc:
            return type(exc), str(exc), type(exc.__cause__)
        return type(a), type(b), a.hex(), b.hex()

    @staticmethod
    def point_eq(p, q, r):
        """Fields that give the samples p, q, r everywhere, each with a row evaluator."""

        def field(fn, **kw):
            return ScalarField(fn, row_fn=lambda t, ws: [fn(t, w) for w in ws], **kw)

        return EquationSpec(p0=field(p, tags={"positive"}, name="p"), q0=field(q, name="q"), r0=field(r, name="r"), t0=0.0)

    @pytest.mark.parametrize(
        "p, q, r",
        [
            (lambda t, w: 2.0, lambda t, w: 1.0, lambda t, w: 1.0 / w),  # ZeroDivisionError at w = 0
            (lambda t, w: 2.0, lambda t, w: math.exp(1e3 * t), lambda t, w: 1.0),  # OverflowError
            (lambda t, w: 2.0, lambda t, w: math.nan, lambda t, w: 1.0),
            (lambda t, w: 2.0, lambda t, w: 1.0, lambda t, w: math.inf),
            (lambda t, w: 2.0, lambda t, w: -math.inf, lambda t, w: 1.0),
            (lambda t, w: 3, lambda t, w: 2 ** 53 + 1, lambda t, w: 1.0),  # ints, converted as float() does
            (lambda t, w: 2.0, lambda t, w: 10 ** 400, lambda t, w: 1.0),  # an int past the float range
            (lambda t, w: True, lambda t, w: 1.0, lambda t, w: 1.0),
            (lambda t, w: 2.0, lambda t, w: 1.0, lambda t, w: (w - 1.0) ** 0.5),  # complex
            (lambda t, w: 0.0, lambda t, w: 1.0, lambda t, w: 1.0),
            (lambda t, w: -0.0, lambda t, w: 1.0, lambda t, w: 1.0),
            (lambda t, w: -1.0, lambda t, w: 1.0 / w, lambda t, w: 1.0),  # p0 <= 0 is found before q0 raises
            (lambda t, w: -1.0, lambda t, w: 1.0, lambda t, w: {}[w]),  # ... and before r0 raises a KeyError
            (lambda t, w: math.inf, lambda t, w: 1.0, lambda t, w: 1.0),  # v / p would be 0.0
            (lambda t, w: 1e308, lambda t, w: 1e308, lambda t, w: 1e308),  # the sum overflows, each sample is finite
        ],
        ids=[
            "zero_division",
            "overflow",
            "nan",
            "inf",
            "minus_inf",
            "ints",
            "huge_int",
            "bool",
            "complex",
            "p0_zero",
            "p0_minus_zero",
            "p0_negative_first",
            "p0_negative_before_key_error",
            "p0_inf",
            "sum_overflows",
        ],
    )
    def test_odd_samples_match_the_wrapped_rhs(self, p, q, r):
        row, wrapped = self.row_and_wrapped(self.point_eq(p, q, r))
        assert row is not wrapped
        for u in (0.0, 0.5):
            assert self.outcome(row, 1.0, u, 0.25) == self.outcome(wrapped, 1.0, u, 0.25)

    def test_fields_are_called_once_per_point(self):
        calls = []

        def counting(name, value):
            def fn(t, w):
                calls.append(name)
                return value

            return fn

        def row(value):
            return lambda t, ws: [value] * len(ws)

        p0 = ScalarField(counting("p0", 1.0), tags={"positive"})
        q0 = ScalarField(counting("q0", 1.0), row_fn=row(1.0))
        r0 = ScalarField(counting("r0", 2.0))
        # one opaque field sends every point through the wrapped fields
        f = system_rhs(EquationSpec(p0=p0, q0=q0, r0=r0, t0=0.0))
        for k in range(1, 4):
            assert f(0.0, 1.0, 1.0) == (1.0, -3.0)
            assert calls == ["p0", "r0", "q0"] * k
        calls.clear()
        f = system_rhs(EquationSpec(p0=dataclasses.replace(p0, row_fn=row(1.0)), q0=q0, r0=dataclasses.replace(r0, row_fn=row(2.0)), t0=0.0))
        assert f(0.0, 1.0, 1.0) == (1.0, -3.0)
        assert calls == ["p0", "r0", "q0"]

    def test_row_fields_are_not_wrapped_on_plain_points(self, monkeypatch):
        row, wrapped = self.row_and_wrapped(self.ROW_EQUATIONS["sweep"])
        expected = wrapped(0.0, 0.5, 0.25)

        def wrapper(self, t, w):
            raise AssertionError("ScalarField.__call__ reached")

        monkeypatch.setattr(ScalarField, "__call__", wrapper)
        assert row(0.0, 0.5, 0.25) == expected

    ROW_EQUATIONS = {
        "sweep": equation_from_json(
            {
                "kind": "custom",
                "t0": 0.0,
                "p0": {"kind": "constant", "value": 1.0, "tags": ["positive"]},
                "q0": {"kind": "constant", "value": 0.0},
                "r0": {"kind": "polynomial", "terms": [{"c": 1.0}, {"c": -1.0, "w": 2}]},
            }
        ),
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
    def test_row_path_agrees_bit_for_bit(self, name, t, u, v):
        eq = self.ROW_EQUATIONS[name]
        assert all(f.row_fn is not None for f in (eq.p0, eq.q0, eq.r0))
        row, wrapped = self.row_and_wrapped(eq)
        assert self.outcome(row, t, u, v) == self.outcome(wrapped, t, u, v)
