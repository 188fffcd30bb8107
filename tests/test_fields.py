import pytest

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
