import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcert import (
    DomainError,
    FALSIFIED,
    FBound,
    FieldEvaluationError,
    InitialData,
    IntegrationOptions,
    VERIFIED,
    integrate,
)
from rcert.applications import (
    EFBounds,
    EFParams,
    VdPParams,
    check_t4_2,
    conditional_stability_delta,
    conditional_stability_experiment,
    ef_bound_triple,
    ef_bounds_A_B,
    ef_equation,
    ef_transform,
    kneser_solution,
    vdp_equation,
)


class TestEfEquation:
    def test_unit_power_fields(self):
        eq = ef_equation(EFParams(rho=0.0, sigma=0.0, n=3.0), t0=1.0)
        assert eq.p0(5.0, 2.0) == 1.0
        assert eq.r0(3.0, -2.0) == pytest.approx(-4.0)  # -|w|^2

    def test_principal_power(self):
        eq = ef_equation(EFParams(rho=2.0, sigma=0.0, n=3.0), t0=1.0)
        assert eq.p0(3.0, 123.0) == pytest.approx(9.0)

    def test_variants_differ_on_negative_values(self):
        absolute = ef_equation(EFParams(rho=0.0, sigma=0.0, n=2.0, variant="absolute"), t0=1.0)
        signed = ef_equation(EFParams(rho=0.0, sigma=0.0, n=2.0, variant="signed"), t0=1.0)
        w = -1.5
        # r0 * w gives -|w| * w vs -w^2 in the full equation term
        assert absolute.r0(1.0, w) * w != signed.r0(1.0, w) * w
        assert absolute.r0(1.0, w) == pytest.approx(-1.5)
        assert signed.r0(1.0, w) == pytest.approx(1.5)

    def test_signed_fractional_power_rejects_negative_w(self):
        signed = ef_equation(EFParams(rho=0.0, sigma=0.0, n=2.5, variant="signed"), t0=1.0)
        with pytest.raises(FieldEvaluationError):
            signed.r0(1.0, -1.0)

    def test_exponent_bound(self):
        with pytest.raises(DomainError):
            EFParams(rho=0.0, sigma=0.0, n=1.0)

    def test_t0_must_be_positive(self):
        with pytest.raises(DomainError):
            ef_equation(EFParams(rho=2.0, sigma=0.0, n=3.0), t0=0.0)


class TestClosedFormCaps:
    def test_cap_A_value_and_case(self):
        out = ef_bounds_A_B(EFParams(rho=4.0, sigma=0.0, n=3.0), t0=1.0, c1=0.5, c2=0.0)
        assert out.A == pytest.approx(0.5 * math.exp(0.5), rel=1e-12)
        assert out.A == pytest.approx(0.82436, abs=1e-5)
        assert out.B is None
        assert out.case == "A<1"

    def test_cap_B_value_and_case(self):
        out = ef_bounds_A_B(EFParams(rho=2.0, sigma=-2.0, n=3.0), t0=1.0, c1=0.3, c2=0.0)
        assert out.B == pytest.approx(0.3 * math.e, rel=1e-12)
        assert out.B == pytest.approx(0.81548, abs=1e-5)
        assert out.A is None
        assert out.case == "B<1"

    def test_boundary_exponent_excluded(self):
        # sigma = rho - 2 exactly: the A branch is excluded
        out = ef_bounds_A_B(EFParams(rho=3.0, sigma=1.0, n=3.0), t0=1.0, c1=0.5, c2=0.0)
        assert out.A is None
        assert out.case == "neither"

    def test_needs_rho_above_one(self):
        with pytest.raises(DomainError):
            ef_bounds_A_B(EFParams(rho=1.0, sigma=0.0, n=3.0), t0=1.0, c1=1.0, c2=0.0)

    @pytest.mark.parametrize("sigma", [0.0, -3.0], ids=["A", "B"])
    @pytest.mark.parametrize("c2", [4000.0, math.inf])
    def test_a_cap_that_is_not_a_finite_float_is_none(self, sigma, c2):
        # exp(c2 / 3 - ...) overflows at c2 = 4000 (an OverflowError), and is inf at c2 = inf
        out = ef_bounds_A_B(EFParams(rho=4.0, sigma=sigma, n=3.0), t0=1.0, c1=0.5, c2=c2)
        assert out == EFBounds(A=None, B=None, case="neither")

    def test_caps_dominate_envelope(self):
        # A and B are t-uniform caps of the growth envelope on their branches
        for params, c1 in ((EFParams(rho=4.0, sigma=0.0, n=3.0), 0.5), (EFParams(rho=2.0, sigma=-2.0, n=3.0), 0.3)):
            out = ef_bounds_A_B(params, 1.0, c1, 0.0)
            cap = out.A if out.A is not None else out.B
            b = ef_bound_triple(params)
            for t in (1.0, 2.0, 5.0, 20.0, 80.0):
                assert FBound(b, 1.0, c1, 0.0)(t) <= cap * (1.0 + 1e-9)


class TestExplicitPowerSolution:
    def test_closed_form_coefficients(self):
        phi_B, dphi_B = kneser_solution(EFParams(rho=0.0, sigma=-6.0, n=3.0))
        assert phi_B(1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        for t in (1.0, 2.0, 5.0):
            assert phi_B(t) == pytest.approx(math.sqrt(2.0) * t * t, rel=1e-14)
            assert dphi_B(t) == pytest.approx(2.0 * math.sqrt(2.0) * t, rel=1e-14)

    def test_satisfies_equation(self):
        # direct substitution: phi'' = 2 sqrt(2) and t^-6 |phi|^2 phi = 2 sqrt(2)
        phi_B, _ = kneser_solution(EFParams(rho=0.0, sigma=-6.0, n=3.0))
        for t in (1.0, 2.0, 5.0):
            residual = 2.0 * math.sqrt(2.0) - t ** -6.0 * abs(phi_B(t)) ** 2 * phi_B(t)
            assert abs(residual) <= 1e-12

    def test_boundary_parameters_rejected(self):
        with pytest.raises(DomainError):
            kneser_solution(EFParams(rho=0.0, sigma=-4.0, n=3.0))
        with pytest.raises(DomainError):
            kneser_solution(EFParams(rho=1.0, sigma=-6.0, n=3.0))


class TestNormalFormTransform:
    def test_shifted_exponent(self):
        tr = ef_transform(EFParams(rho=2.0, sigma=0.0, n=3.0))
        assert tr.sigma1 == -4.0
        assert tr.branch == "rho>1"

    def test_identity_branch(self):
        tr = ef_transform(EFParams(rho=0.0, sigma=-6.0, n=3.0))
        assert tr.sigma1 == -6.0
        assert tr.s_of_t(2.5) == 2.5
        assert tr.map_state(2.5, 1.25, 0.0)[1] == 1.25

    def test_rho_one_rejected(self):
        with pytest.raises(DomainError):
            ef_transform(EFParams(rho=1.0, sigma=0.0, n=3.0))

    @pytest.mark.parametrize("rho", [-3.0, 0.0, 0.1, 0.5, 1.0 - 2.0**-40, 1.0 + 2.0**-40, 1.7, 2.0, 4.0, 7.25])
    def test_change_of_variables_is_each_branch_formula(self, rho):
        # to the bit: rho - 1 on the rho > 1 branch and 1 - rho on the other
        tr = ef_transform(EFParams(rho=rho, sigma=-5.0, n=3.0))
        k = rho - 1.0 if rho > 1.0 else 1.0 - rho
        for t in (0.3, 1.0, 2.5, 9.0, 1e5):
            assert tr.s_of_t(t) == t**k / k
            assert tr.t_of_s(t) == (k * t) ** (1.0 / k)

    def test_mapped_solutions_agree(self):
        p = EFParams(rho=2.0, sigma=0.0, n=3.0)
        tr = ef_transform(p)
        eq = ef_equation(p, t0=1.0)
        direct = integrate(eq, InitialData(1.0, 0.5, 0.0), IntegrationOptions(horizon=9.0))
        s0, psi0, dpsi0 = tr.map_state(1.0, 0.5, 0.0)
        eq_n = ef_equation(tr.transformed_params(), t0=s0)
        mapped = integrate(eq_n, InitialData(s0, psi0, dpsi0), IntegrationOptions(horizon=tr.s_of_t(9.0)))
        worst = 0.0
        for t in np.linspace(1.0, 9.0, 100):
            s = tr.s_of_t(t)
            worst = max(worst, abs(tr.unmap_state(s, mapped.phi_at(s), 0.0)[1] - direct.phi_at(t)))
        assert worst <= 1e-5

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        rho=st.sampled_from([2.0, 3.0, 0.5, -1.0, 0.0]),
        t=st.floats(0.5, 10.0),
        phi=st.floats(-3.0, 3.0),
        dphi=st.floats(-3.0, 3.0),
    )
    def test_round_trip(self, rho, t, phi, dphi):
        tr = ef_transform(EFParams(rho=rho, sigma=0.25, n=3.0))
        s, psi, dpsi = tr.map_state(t, phi, dphi)
        t2, phi2, dphi2 = tr.unmap_state(s, psi, dpsi)
        assert t2 == pytest.approx(t, rel=1e-10, abs=1e-10)
        assert phi2 == pytest.approx(phi, rel=1e-10, abs=1e-10)
        assert dphi2 == pytest.approx(dphi, rel=1e-10, abs=1e-10)


class TestConditionalStability:
    def test_delta_closed_form(self):
        delta = conditional_stability_delta(EFParams(rho=2.0, sigma=-2.0, n=3.0), t0=1.0, eps=1.0)
        assert delta == pytest.approx(math.exp(-1.0) / 4.0, abs=1e-15)

    def test_delta_linear_in_eps(self):
        p = EFParams(rho=2.0, sigma=-2.0, n=3.0)
        d1 = conditional_stability_delta(p, 1.0, 1.0)
        d2 = conditional_stability_delta(p, 1.0, 2.0)
        assert d2 == pytest.approx(2.0 * d1, rel=1e-14)

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            conditional_stability_delta(EFParams(rho=0.5, sigma=-2.0, n=3.0), 1.0, 1.0)
        with pytest.raises(DomainError):
            conditional_stability_delta(EFParams(rho=2.0, sigma=0.0, n=3.0), 1.0, 1.0)

    def test_manifold_ics_stay_inside_eps(self):
        p = EFParams(rho=2.0, sigma=-2.0, n=3.0)
        outcomes = conditional_stability_experiment(p, 1.0, 1.0, n_ics=20, horizon=50.0)
        assert len(outcomes) == 20
        assert all(o.within_eps for o in outcomes)
        assert all(o.terminal == "reached_horizon" for o in outcomes)


class TestVdP:
    def test_classic_fields(self):
        eq = vdp_equation(VdPParams(lam=lambda t: 1.0, mu=lambda t: 1.0, nu=lambda t: 1.0))
        assert eq.p0(0.0, 5.0) == 1.0
        assert eq.q0(0.0, 2.0) == pytest.approx(3.0)
        assert eq.r0(0.0, -1.0) == 1.0

    def test_zero_friction_is_linear(self):
        eq = vdp_equation(VdPParams(lam=lambda t: 1.0, mu=lambda t: 0.0, nu=lambda t: 1.0))
        assert eq.q0(0.0, 10.0) == 0.0

    def test_time_varying_coefficients_accepted(self):
        eq = vdp_equation(VdPParams(lam=lambda t: 1.0 + t * t, mu=lambda t: t, nu=lambda t: 1.0))
        assert eq.p0(2.0, 0.0) == pytest.approx(5.0)

    def test_negative_friction_rejected(self):
        with pytest.raises(DomainError):
            vdp_equation(VdPParams(lam=lambda t: 1.0, mu=lambda t: -1.0, nu=lambda t: 1.0))


class TestAggregateCertificate:
    def test_unit_coefficients_verified(self):
        v = VdPParams(lam=lambda t: 1.0, mu=lambda t: 1.0, nu=lambda t: 1.0)
        cert = check_t4_2(vdp_equation(v), v, eps0=1.0)
        assert cert.status == VERIFIED
        assert cert.conclusion == "GLOBAL_AND_OSCILLATORY"
        assert cert.heuristic_flags
        assert [p.status for p in cert.parts] == [VERIFIED, VERIFIED]
        # certified oscillation shows up on sampled trajectories
        eq = vdp_equation(v, t0=0.0)
        for phi0, phi1 in ((0.1, 0.0), (2.0, -1.0), (-3.0, 2.0)):
            traj = integrate(eq, InitialData(0.0, phi0, phi1), IntegrationOptions(rel_tol=1e-7, abs_tol=1e-10, horizon=100.0))
            assert traj.terminal.kind == "reached_horizon"
            assert len(traj.zeros) >= 10

    def test_zero_restoring_splits_parts(self):
        v = VdPParams(lam=lambda t: 1.0, mu=lambda t: 1.0, nu=lambda t: 0.0)
        cert = check_t4_2(vdp_equation(v), v, eps0=1.0)
        assert cert.status == FALSIFIED
        existence, oscillation = cert.parts
        assert existence.status == VERIFIED
        assert oscillation.status == FALSIFIED
