import math
from dataclasses import replace

import numpy as np
import pytest

from rcert import (
    BoundTriple,
    DomainError,
    FALSIFIED,
    FieldEvaluationError,
    GLOBAL_FOR_ALL_IC,
    GLOBAL_MONOTONE,
    GridSpec,
    INCONCLUSIVE,
    InitialData,
    IntegrationOptions,
    OSC_OR_SINGULAR_FIRST_KIND,
    REACHED_HORIZON,
    Rectangle,
    SINGULAR_SECOND_KIND_IF_NONEXTENDABLE,
    VERIFIED,
    check_t3_1,
    check_t3_2,
    check_t3_3,
    check_t3_4,
    check_t3_5,
    check_t3_6,
    classify,
    equation_from_json,
    integrate,
    time_function_from_json,
)
from rcert.applications import (
    EFParams,
    VdPParams,
    check_t4_2,
    ef_bound_triple,
    ef_equation,
    kneser_majorant,
    vdp_bound_triple,
    vdp_equation,
    vdp_family,
)
from rcert.classify import SINGULAR_SECOND_KIND
from conftest import make_eq, validate_certificate_dict

INF_REGION = Rectangle(1.0, 50.0, -math.inf, math.inf)


@pytest.fixture(scope="module")
def ef_case():
    p = EFParams(rho=4.0, sigma=0.0, n=3.0)
    return p, ef_equation(p, t0=1.0), ef_bound_triple(p)


class TestMonotoneEnvelope:
    def test_power_law_certified_below_unit_cap(self, ef_case):
        p, eq, b = ef_case
        cert = check_t3_1(eq, InitialData(1.0, 0.5, 0.0), b, region=INF_REGION, grid=GridSpec(65, 65))
        assert cert.status == VERIFIED
        assert cert.conclusion == GLOBAL_MONOTONE
        assert cert.epsilon == pytest.approx(1e-3 * 0.5)  # default scales with |phi0|
        # the envelope stays below the closed-form cap 0.5 * exp(1/2)
        cap = 0.5 * math.exp(0.5)
        assert max(v for _, v in cert.bound_samples) <= cap + 1e-9
        assert cert.region["w_sampled"][1] <= cap + cert.epsilon + 1e-9

    def test_trivial_equation_bound_is_abs_c1(self):
        eq = make_eq()
        b = BoundTriple(P=lambda t: 1.0, Q=lambda t: 0.0, R=lambda t: 0.0)
        cert = check_t3_1(eq, InitialData(0.0, 1.0, 0.0), b, region=Rectangle(0.0, 10.0, -math.inf, math.inf))
        assert cert.status == VERIFIED
        assert all(v == pytest.approx(1.0, abs=1e-12) for _, v in cert.bound_samples)

    def test_wide_start_breaks_lower_envelope(self, ef_case):
        # With phi0 = 1.2 the envelope reaches past |w| = 1 where
        # r0 = -|w|^2 < -1 = R: the sandwich hypothesis fails with a witness.
        p, eq, b = ef_case
        cert = check_t3_1(eq, InitialData(1.0, 1.2, 0.0), b, region=INF_REGION, grid=GridSpec(65, 65))
        assert cert.status == FALSIFIED
        assert cert.witness.hypothesis == "R <= r0 <= 0"
        assert abs(cert.witness.w) > 1.0

    def test_opposite_signs_inconclusive(self, ef_case):
        p, eq, b = ef_case
        cert = check_t3_1(eq, InitialData(1.0, 0.5, -0.1), b, region=INF_REGION)
        assert cert.status == INCONCLUSIVE
        assert "precondition" in cert.reason
        assert cert.region["nw"] == 0

    def test_envelope_overflow_is_inconclusive(self):
        eq = make_eq(r_fn=lambda t, w: 0.0)
        b = BoundTriple(P=lambda t: 1.0, Q=lambda t: 0.0, R=lambda t: -1e6)
        cert = check_t3_1(eq, InitialData(0.0, 1.0, 0.0), b, region=Rectangle(0.0, 100.0, -math.inf, math.inf))
        assert cert.status == INCONCLUSIVE
        assert "range" in cert.reason
        assert cert.region["nw"] == 0

    @pytest.mark.parametrize(
        "region, epsilon",
        [(INF_REGION, -1.0), (Rectangle(1.0, 50.0, 2.0, 3.0), None)],
        ids=["negative_epsilon", "region_above_the_envelope"],
    )
    def test_empty_band_is_inconclusive(self, ef_case, region, epsilon):
        # the envelope stays below 0.83: both leave no grid point in the band |w| <= F(t) + epsilon
        p, eq, b = ef_case
        cert = check_t3_1(eq, InitialData(1.0, 0.5, 0.0), b, region=region, grid=GridSpec(33, 33), epsilon=epsilon)
        assert cert.status == INCONCLUSIVE
        assert cert.reason.startswith("no grid point sampled")
        assert "w_sampled" not in cert.region
        assert cert.region["nw"] == 0

    @pytest.mark.parametrize("t_min", [5.0, 0.5])
    def test_region_must_start_at_t1(self, ef_case, t_min):
        # the scan runs from ic.t1; a region starting elsewhere used to be Verified over [t1, t_max]
        p, eq, b = ef_case
        with pytest.raises(DomainError, match=f"T3_1 scans its envelope from ic.t1 = 1.0, so region.t_min must equal it, got {t_min!r}"):
            check_t3_1(eq, InitialData(1.0, 0.5, 0.0), b, region=Rectangle(t_min, 10.0, -1.0, 1.0), grid=GridSpec(9, 9))

    def test_default_region_starts_at_t1(self, ef_case):
        p, eq, b = ef_case
        cert = check_t3_1(eq, InitialData(2.0, 0.5, 0.0), b, grid=GridSpec(9, 9))
        assert cert.status == VERIFIED
        assert cert.region["t"] == [2.0, 51.0]

    def test_envelope_enforced_on_trajectory(self, ef_case):
        p, eq, b = ef_case
        ic = InitialData(1.0, 0.5, 0.0)
        cert = check_t3_1(eq, ic, b, region=INF_REGION, grid=GridSpec(65, 65))
        traj = integrate(eq, ic, IntegrationOptions(horizon=50.0))
        for t in np.linspace(1.0, 50.0, 200):
            assert abs(traj.phi_at(t)) <= cert.bound(t) * (1.0 + 1e-6)
        assert np.all(np.diff(np.abs(traj.phis)) >= -1e-6)


class TestRunningMaxEnvelope:
    def test_zero_cross_term_bound_is_one(self):
        eq = make_eq(q=1.0, r=0.0)
        b = BoundTriple(P=lambda t: 1.0, Q=lambda t: 1.0)
        cert = check_t3_2(eq, InitialData(0.0, 1.0, 0.0), b, lambda t: 0.0, region=Rectangle(0.0, 20.0, -math.inf, math.inf))
        assert cert.status == VERIFIED
        assert all(v == pytest.approx(1.0, abs=1e-9) for _, v in cert.bound_samples)

    def test_decaying_cross_term(self):
        # q0 = 1 + t dominates Qtilde = e^{-t} * (1 + t) ratio; running max is
        # taken at the left end, so the envelope is exp(t).
        eq = make_eq(
            q_fn=lambda t, w: 1.0 + t,
            r_fn=lambda t, w: -math.exp(-t),
        )
        b = BoundTriple(P=lambda t: 1.0, Q=lambda t: 1.0 + t)
        cert = check_t3_2(
            eq,
            InitialData(0.0, 1.0, 0.0),
            b,
            lambda t: math.exp(-t),
            region=Rectangle(0.0, 10.0, -math.inf, math.inf),
            grid=GridSpec(33, 33),
        )
        assert cert.status == VERIFIED
        for t, v in cert.bound_samples:
            assert v == pytest.approx(math.exp(t), rel=1e-6)

    def test_positive_restoring_term_falsified(self):
        eq = make_eq(q=1.0, r=1.0)
        b = BoundTriple(P=lambda t: 1.0, Q=lambda t: 1.0)
        cert = check_t3_2(eq, InitialData(0.0, 1.0, 0.0), b, lambda t: 0.0, region=Rectangle(0.0, 10.0, -math.inf, math.inf))
        assert cert.status == FALSIFIED
        assert cert.witness.hypothesis == "r0 <= 0"

    def test_vanishing_q_with_nonzero_r_inconclusive(self):
        eq = make_eq(q=0.0, r_fn=lambda t, w: -1.0)
        b = BoundTriple(P=lambda t: 1.0, Q=lambda t: 0.0)
        cert = check_t3_2(eq, InitialData(0.0, 1.0, 0.0), b, lambda t: 1.0, region=Rectangle(0.0, 10.0, -math.inf, math.inf))
        assert cert.status == INCONCLUSIVE
        assert "ratio undefined" in cert.reason

    def test_region_must_start_at_t1(self):
        eq = make_eq(q=1.0, r=0.0)
        b = BoundTriple(P=lambda t: 1.0, Q=lambda t: 1.0)
        with pytest.raises(DomainError, match="T3_2 scans its envelope from ic.t1 = 0.0, so region.t_min must equal it, got 5.0"):
            check_t3_2(eq, InitialData(0.0, 1.0, 0.0), b, lambda t: 0.0, region=Rectangle(5.0, 10.0, -1.0, 1.0))


@pytest.fixture(scope="module")
def kneser_setup():
    p = EFParams(rho=0.0, sigma=-6.0, n=3.0)
    eq = ef_equation(p, t0=1.0)
    maj = kneser_majorant(p, 1.0, IntegrationOptions(horizon=50.0))
    return eq, maj


class TestComparisonMajorant:
    def test_power_majorant_certifies(self, kneser_setup):
        eq, maj = kneser_setup
        cert = check_t3_3(
            eq, eq, maj, InitialData(1.0, 1.0, 0.0), region=Rectangle(1.0, 50.0, -4000.0, 4000.0), grid=GridSpec(33, 33)
        )
        assert cert.status == VERIFIED
        assert cert.conclusion == GLOBAL_MONOTONE
        assert cert.details["y1"] == pytest.approx(2.0, rel=1e-9)

    def test_positive_r_falsified(self, kneser_setup):
        _, maj = kneser_setup
        eq_bad = ef_equation(EFParams(rho=0.0, sigma=-6.0, n=3.0), t0=1.0)
        eq_pos = make_eq(r=1.0, t0=1.0)
        cert = check_t3_3(
            eq_pos, eq_bad, maj, InitialData(1.0, 1.0, 0.0), region=Rectangle(1.0, 10.0, -5.0, 5.0), grid=GridSpec(9, 9)
        )
        assert cert.status == FALSIFIED
        assert "r1(w1) <= r0(w) <= 0" in cert.witness.hypothesis

    def test_mismatched_principal_parts_falsified(self, kneser_setup):
        eq, maj = kneser_setup
        eq_other = make_eq(p=2.0, r_fn=lambda t, w: -(t ** -6.0) * abs(w) ** 2, t0=1.0)
        cert = check_t3_3(
            eq_other, eq, maj, InitialData(1.0, 1.0, 0.0), region=Rectangle(1.0, 10.0, -5.0, 5.0), grid=GridSpec(9, 9)
        )
        assert cert.status == FALSIFIED
        assert "p0 == p1" in cert.witness.hypothesis

    def test_vanishing_majorant_inconclusive(self, harmonic_eq):
        osc = integrate(harmonic_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=10.0))
        eq = make_eq(r_fn=lambda t, w: -abs(w) ** 2)
        cert = check_t3_3(eq, harmonic_eq, osc, InitialData(0.0, 0.5, 0.0))
        assert cert.status == INCONCLUSIVE
        assert cert.reason == "majorant has a zero on its span"
        assert cert.region["nw"] == 0  # nothing was sampled

    @pytest.mark.parametrize(
        "ic, reason",
        [
            (InitialData(1.0, 2.0, 0.0), "precondition: initial ordering of values/derivatives fails"),
            (InitialData(1.0, 0.4, 0.9), "precondition: initial ratio ordering fails (y0=2.25 >= y1=2.0)"),
        ],
        ids=["values", "ratios"],
    )
    def test_failed_ordering_samples_nothing(self, kneser_setup, ic, reason):
        # the majorant starts at (sqrt(2), 2 sqrt(2)), so y1 = 2
        eq, maj = kneser_setup
        cert = check_t3_3(eq, eq, maj, ic, region=Rectangle(1.0, 10.0, -5.0, 5.0), grid=GridSpec(9, 9))
        assert cert.status == INCONCLUSIVE
        assert cert.reason == reason
        assert cert.region == {"t": [1.0, 10.0], "w": None, "nt": 9, "nw": 0}


class TestNonnegativeRestoring:
    def test_constant_hypotheses_verified(self, harmonic_eq):
        b = BoundTriple(P=lambda t: 1.0, Q=lambda t: 0.0)
        cert = check_t3_4(harmonic_eq, b, region=Rectangle(0.0, 10.0, -5.0, 5.0), grid=GridSpec(17, 17))
        assert cert.status == VERIFIED
        assert cert.conclusion == SINGULAR_SECOND_KIND_IF_NONEXTENDABLE

    def test_square_field_verified(self):
        eq = make_eq(r_fn=lambda t, w: w * w)
        b = BoundTriple(P=lambda t: 1.0, Q=lambda t: 0.0)
        cert = check_t3_4(eq, b, region=Rectangle(0.0, 10.0, -5.0, 5.0), grid=GridSpec(17, 17))
        assert cert.status == VERIFIED

    def test_negative_field_falsified(self):
        eq = make_eq(r=-1.0)
        b = BoundTriple(P=lambda t: 1.0, Q=lambda t: 0.0)
        cert = check_t3_4(eq, b, region=Rectangle(0.0, 10.0, -5.0, 5.0), grid=GridSpec(17, 17))
        assert cert.status == FALSIFIED
        assert cert.witness is not None

    def test_conclusion_is_conditional(self, harmonic_eq):
        # Verified certificate + globally existing trajectories: the
        # conditional conclusion never applies, and the classifier never
        # reports the singular label without an actual escape.
        b = BoundTriple(P=lambda t: 1.0, Q=lambda t: 0.0)
        cert = check_t3_4(harmonic_eq, b, region=Rectangle(0.0, 10.0, -5.0, 5.0), grid=GridSpec(17, 17))
        assert cert.status == VERIFIED
        for phi1 in (-1.0, -0.3, 0.4, 1.0, 2.0):
            traj = integrate(harmonic_eq, InitialData(0.0, 1.0, phi1), IntegrationOptions(horizon=30.0))
            assert traj.terminal.kind == "reached_horizon"
            assert classify(traj).kind != SINGULAR_SECOND_KIND


@pytest.fixture(scope="module")
def vdp_setup():
    v = VdPParams(lam=lambda t: 1.0, mu=lambda t: 1.0, nu=lambda t: 1.0)
    return v, vdp_equation(v, t0=0.0)


class TestOscillationBand:
    def test_unit_coefficients_verified(self, vdp_setup):
        v, eq = vdp_setup
        cert = check_t3_5(eq, vdp_bound_triple(v), vdp_family(v), N=1.0, eps0=1.0, grid=GridSpec(33, 33))
        assert cert.status == VERIFIED
        assert cert.conclusion == OSC_OR_SINGULAR_FIRST_KIND
        assert "comparison_oscillation_zero_count" in cert.heuristic_flags
        assert "tail_divergence_probe" in cert.heuristic_flags
        assert cert.details["reciprocal_tail_status"] == "Diverging"

    def test_negative_field_falsified_on_sign(self, vdp_setup):
        v, _ = vdp_setup
        eq = make_eq(r=-1.0)
        cert = check_t3_5(eq, vdp_bound_triple(v), vdp_family(v), N=1.0, eps0=1.0, grid=GridSpec(9, 9))
        assert cert.status == FALSIFIED
        assert cert.witness.hypothesis == "r0 >= 0"

    def test_zero_family_restoring_term_falsified_on_double_tail(self, vdp_setup):
        # r_eps == 0 makes the double-integral tail converge trivially.
        v, _ = vdp_setup
        nu0 = VdPParams(lam=lambda t: 1.0, mu=lambda t: 1.0, nu=lambda t: 0.0)
        eq = vdp_equation(nu0, t0=0.0)
        cert = check_t3_5(eq, vdp_bound_triple(nu0), vdp_family(nu0), N=1.0, eps0=1.0, grid=GridSpec(9, 9))
        assert cert.status == FALSIFIED
        assert "double tail" in cert.witness.hypothesis
        assert "converged" in cert.witness.detail

    @pytest.mark.parametrize(
        "w_range, band",
        [
            ((-0.5, 0.5), "band ordering vs family on N <= |w| <= eps with diverging double tail"),
            ((2.0, 8.0), "p0 <= P, q0/p0 <= Q for |w| <= N with diverging reciprocal tail"),
        ],
        ids=["annulus", "capped_band"],
    )
    def test_empty_band_is_inconclusive(self, vdp_setup, w_range, band):
        # with N = 1, |w| <= 0.5 misses the annulus N <= |w| <= eps and 2 <= w <= 8 misses |w| <= N
        v, eq = vdp_setup
        region = Rectangle(0.0, 10.0, *w_range)
        cert = check_t3_5(eq, vdp_bound_triple(v), vdp_family(v), N=1.0, eps0=1.0, region=region, grid=GridSpec(9, 9))
        assert cert.status == INCONCLUSIVE
        assert cert.reason == f"no grid point sampled for '{band}'"


BASE_DETAILS = ["eps_samples", "eps_tail_samples", "N", "eps0"]
CAPPED = "p0 <= P, q0/p0 <= Q for |w| <= N with diverging reciprocal tail"
ANNULUS = "band ordering vs family on N <= |w| <= eps with diverging double tail"


@pytest.fixture(scope="module")
def vdp_from_one():
    # the unit Van der Pol equation from t0 = 1, where P = t**k bounds p0 = 1 on the whole region
    v = VdPParams(lam=lambda t: 1.0, mu=lambda t: 1.0, nu=lambda t: 1.0)
    return v, vdp_equation(v, t0=1.0)


class TestOscillationExits:
    def test_too_few_comparison_zeros_falsified(self, vdp_from_one):
        v, eq = vdp_from_one
        cert = check_t3_5(eq, vdp_bound_triple(v), vdp_family(v), N=1.0, eps0=1.0, grid=GridSpec(9, 9), osc_min_zeros=100)
        assert cert.status == FALSIFIED
        assert (cert.witness.hypothesis, cert.witness.t, cert.witness.w) == ("comparison equations oscillate (zero count)", 1.0, None)
        assert cert.witness.detail == "comparison equation at eps=1.0 produced 16 zero(s) < 100 on horizon 50.0"
        assert list(cert.details) == BASE_DETAILS + ["reciprocal_tail_status", "double_tail_status", "comparison_zero_counts"]
        assert cert.details["comparison_zero_counts"] == {"1.0": 16}

    def test_collapsed_comparison_run_is_inconclusive(self):
        # phi'' + sqrt(t) phi = 0 oscillates, but its run from t0 = 0 ends step_collapse at t = 0 after one
        # node (tests/test_dynamics.py::TestFractionalPowerStart): no zero count, so no witness.
        root = time_function_from_json({"kind": "power", "coeff": 1.0, "power": 0.5}, "nu")
        v = VdPParams(lam=lambda t: 1.0, mu=lambda t: 1.0, nu=root)
        cert = check_t3_5(vdp_equation(v, t0=0.0), vdp_bound_triple(v), vdp_family(v), N=1.0, eps0=1.0, grid=GridSpec(9, 9))
        assert cert.status == INCONCLUSIVE
        assert cert.witness is None
        assert cert.reason == (
            "comparison equation at eps=1.0 produced 0 zero(s) < 5 on horizon 50.0: "
            "the run ended step_collapse (local error saturated) at t=0.0"
        )
        assert cert.details["comparison_zero_counts"] == {"1.0": 0}

    def test_converging_reciprocal_tail_falsified(self, vdp_from_one):
        v, eq = vdp_from_one
        b = BoundTriple(P=lambda t: t ** 3, Q=lambda t: 0.0)
        cert = check_t3_5(eq, b, vdp_family(v), N=1.0, eps0=1.0, grid=GridSpec(9, 9))
        assert cert.status == FALSIFIED
        assert (cert.witness.hypothesis, cert.witness.t, cert.witness.w) == (CAPPED, 1.0, None)
        assert cert.witness.detail == "reciprocal-weight tail probe converged"
        assert list(cert.details) == BASE_DETAILS + ["reciprocal_tail_status"]
        assert cert.details["reciprocal_tail_status"] == "Converging"

    def test_inconclusive_reciprocal_tail(self, vdp_from_one):
        v, eq = vdp_from_one
        b = BoundTriple(P=lambda t: t ** 1.5, Q=lambda t: 0.0)
        cert = check_t3_5(eq, b, vdp_family(v), N=1.0, eps0=1.0, grid=GridSpec(9, 9))
        assert cert.status == INCONCLUSIVE
        assert cert.witness is None
        assert cert.reason == "reciprocal tail probe inconclusive"
        assert list(cert.details) == BASE_DETAILS + ["reciprocal_tail_status"]
        assert cert.details["reciprocal_tail_status"] == "Inconclusive"

    def test_nonpositive_P_in_reciprocal_tail_raises(self, vdp_from_one):
        # P bounds p0 on the sampled region [1, 21] but is negative far out in the probed tail
        v, eq = vdp_from_one
        b = BoundTriple(P=lambda t: 1.0 if t < 100.0 else -1.0, Q=lambda t: 0.0)
        with pytest.raises(DomainError, match=r"^P\(102\.64911856025273\) = -1\.0 <= 0$"):
            check_t3_5(eq, b, vdp_family(v), N=1.0, eps0=1.0, grid=GridSpec(9, 9))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(N=0.0, eps0=1.0), "check_t3_5 needs eps0 > 0 and N > 0"),
            (dict(N=1.0, eps0=0.0), "check_t3_5 needs eps0 > 0 and N > 0"),
            (dict(N=1.0, eps0=1.0, eps_samples=[1.0, 1.5]), "eps sample 1.5 outside (0, eps0]"),
            (dict(N=1.0, eps0=1.0, eps_samples=[0.0]), "eps sample 0.0 outside (0, eps0]"),
            (dict(N=1.0, eps0=1.0, eps_tail_samples=[1.0, 0.5]), "tail eps sample 0.5 below N"),
        ],
        ids=["N", "eps0", "eps_above_eps0", "eps_zero", "tail_eps_below_N"],
    )
    def test_bad_band_parameters_raise(self, vdp_from_one, kwargs, message):
        v, eq = vdp_from_one
        with pytest.raises(DomainError) as info:
            check_t3_5(eq, vdp_bound_triple(v), vdp_family(v), grid=GridSpec(9, 9), **kwargs)
        assert str(info.value) == message


OSCILLATE = "comparison equations oscillate (zero count)"


def recording_integrate(monkeypatch):
    """Route check_t3_5's comparison integrations through integrate, keeping each call and its trajectory."""
    runs = []

    def recording(*args):
        runs.append((args, integrate(*args)))
        return runs[-1][1]

    monkeypatch.setattr("rcert.certificates.integrate", recording)
    return runs


@pytest.fixture(scope="module")
def uncapped_comparison_runs(vdp_setup):
    """The five comparison integrations of the unit Van der Pol family, each rerun to its horizon without a zero cap."""
    v, eq = vdp_setup
    with pytest.MonkeyPatch.context() as mp:
        runs = recording_integrate(mp)
        check_t3_5(eq, vdp_bound_triple(v), vdp_family(v), N=1.0, eps0=1.0, grid=GridSpec(9, 9), osc_min_zeros=1)
    uncapped = IntegrationOptions().max_zeros
    return [integrate(ceq, ic, replace(opts, max_zeros=uncapped)) for (ceq, ic, opts), _ in runs]


class TestComparisonZeroCap:
    """Each comparison integration stops at its osc_min_zeros-th zero; the verdict is that of the full count."""

    EPS = [1.0, 0.5, 0.25, 0.125, 0.0625]

    @pytest.mark.parametrize("m", [1, 5, 14, 15, 16, 100])
    def test_verdict_is_the_uncapped_counts(self, vdp_setup, uncapped_comparison_runs, m):
        v, eq = vdp_setup
        full = [len(traj.zeros) for traj in uncapped_comparison_runs]
        assert full == [16, 15, 14, 14, 14]
        # The reference verdict: the first eps whose full count is below m falsifies.
        counts, witness = {}, None
        for eps, n in zip(self.EPS, full):
            counts[repr(eps)] = min(n, m)
            if n < m:
                witness = (OSCILLATE, 0.0, None, f"comparison equation at eps={eps!r} produced {n} zero(s) < {m} on horizon 50.0")
                break
        cert = check_t3_5(eq, vdp_bound_triple(v), vdp_family(v), N=1.0, eps0=1.0, grid=GridSpec(9, 9), osc_min_zeros=m)
        assert cert.status == (VERIFIED if witness is None else FALSIFIED)
        got = None if cert.witness is None else (cert.witness.hypothesis, cert.witness.t, cert.witness.w, cert.witness.detail)
        assert got == witness
        assert cert.heuristic_flags == ("comparison_oscillation_zero_count", "tail_divergence_probe")
        assert cert.details["comparison_zero_counts"] == counts

    def test_capped_run_is_the_uncapped_runs_prefix(self, vdp_setup, uncapped_comparison_runs, monkeypatch):
        v, eq = vdp_setup
        runs = recording_integrate(monkeypatch)
        check_t3_5(eq, vdp_bound_triple(v), vdp_family(v), N=1.0, eps0=1.0, grid=GridSpec(9, 9), osc_min_zeros=5)
        capped, full = runs[0][1], uncapped_comparison_runs[0]  # eps = 1
        assert capped.zeros == full.zeros[:5]
        assert capped.ts == full.ts[: len(capped.ts)]
        assert (capped.terminal.kind, capped.terminal.reason) == (REACHED_HORIZON, "zero cap reached")
        assert capped.t_end < eq.t0 + 50.0 and full.t_end == eq.t0 + 50.0

    def test_count_below_the_cap_reads_in_full(self, vdp_setup):
        v, eq = vdp_setup
        cert = check_t3_5(eq, vdp_bound_triple(v), vdp_family(v), N=1.0, eps0=1.0, grid=GridSpec(9, 9), osc_min_zeros=15)
        assert cert.witness.detail == "comparison equation at eps=0.25 produced 14 zero(s) < 15 on horizon 50.0"
        assert cert.details["comparison_zero_counts"] == {"1.0": 15, "0.5": 15, "0.25": 14}


class TestOscillationOptions:
    """Out-of-range oscillation options raise before any grid scan, in check_t3_5 and in check_t4_2 before its T3_6 part."""

    NEEDS = "check_t3_5 needs 0 < osc_horizon < inf and osc_min_zeros >= 1, got "
    BAD = [
        (dict(osc_horizon=-5.0), NEEDS + "-5.0 and 5"),
        (dict(osc_horizon=0.0), NEEDS + "0.0 and 5"),
        (dict(osc_horizon=math.inf), NEEDS + "inf and 5"),
        (dict(osc_horizon=math.nan), NEEDS + "nan and 5"),
        (dict(osc_min_zeros=0), NEEDS + "50.0 and 0"),
        (dict(osc_min_zeros=-1), NEEDS + "50.0 and -1"),
    ]
    IDS = ["horizon_negative", "horizon_zero", "horizon_inf", "horizon_nan", "min_zeros_zero", "min_zeros_negative"]

    @pytest.fixture
    def no_scan(self, monkeypatch):
        def scan(*args, **kwargs):
            raise AssertionError("a grid scan ran")

        monkeypatch.setattr("rcert.certificates._scan", scan)

    @pytest.mark.parametrize("kwargs, message", BAD, ids=IDS)
    def test_check_t3_5(self, vdp_from_one, no_scan, kwargs, message):
        v, eq = vdp_from_one
        with pytest.raises(DomainError) as info:
            check_t3_5(eq, vdp_bound_triple(v), vdp_family(v), N=1.0, eps0=1.0, grid=GridSpec(17, 17), **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "kwargs, message",
        BAD + [(dict(eps0=0.0), "check_t3_5 needs eps0 > 0 and N > 0"), (dict(eps0=math.nan), "check_t3_5 needs eps0 > 0 and N > 0")],
        ids=IDS + ["eps0_zero", "eps0_nan"],
    )
    def test_check_t4_2(self, vdp_from_one, no_scan, kwargs, message):
        v, eq = vdp_from_one
        with pytest.raises(DomainError) as info:
            check_t4_2(eq, v, **{"eps0": 1.0, "grid": GridSpec(17, 17), **kwargs})
        assert str(info.value) == message


class TestGridDecidesFirst:
    """Every band scan of T3_5 runs before any probe or zero count."""

    @pytest.mark.parametrize(
        "w_range, samples, band",
        [
            ((-0.5, 0.5), {}, ANNULUS),
            ((2.0, 8.0), {}, CAPPED),
            # A band with no eps sample scans nothing, so it is never Verified.
            ((-8.0, 8.0), {"eps_samples": []}, "band ordering vs family for |w| >= eps"),
            ((-8.0, 8.0), {"eps_tail_samples": []}, ANNULUS),
        ],
        ids=["annulus", "capped_band", "no_outer_eps", "no_tail_eps"],
    )
    def test_empty_band_runs_no_heuristic(self, vdp_setup, monkeypatch, w_range, samples, band):
        def never(*args, **kwargs):
            raise AssertionError("a heuristic ran on an empty band")

        monkeypatch.setattr("rcert.certificates.divergence_probe", never)
        monkeypatch.setattr("rcert.certificates._comparison_zero_count", never)
        v, eq = vdp_setup
        region = Rectangle(0.0, 10.0, *w_range)
        cert = check_t3_5(eq, vdp_bound_triple(v), vdp_family(v), N=1.0, eps0=1.0, region=region, grid=GridSpec(9, 9), **samples)
        assert cert.status == INCONCLUSIVE
        assert cert.reason == f"no grid point sampled for '{band}'"
        assert list(cert.details) == BASE_DETAILS

    def test_annulus_witness_beats_converging_reciprocal_tail(self):
        # P = 1 + t**3 makes the reciprocal tail converge; the annulus witness on the grid decides first
        eq = make_eq(q_fn=lambda t, w: 0.01 * t * max(0.0, abs(w) - 2.0) - 0.5 * max(0.0, 1.0 - abs(w)), r=1.0)

        def family(eps):
            q = -1.0 if eps <= 1.0 else 0.0
            return (lambda t: 1.0, lambda t: q, lambda t: 1.0)

        cert = check_t3_5(
            eq,
            BoundTriple(P=lambda t: 1.0 + t ** 3, Q=lambda t: 0.0),
            family,
            N=2.0,
            eps0=1.0,
            region=Rectangle(0.0, 4.0, -8.0, 8.0),
            grid=GridSpec(9, 9),
            eps_samples=[1.0, 0.5],
            eps_tail_samples=[2.0, 4.0],
            osc_horizon=20.0,
            osc_min_zeros=3,
        )
        assert cert.status == FALSIFIED
        w = cert.witness
        assert (w.hypothesis, w.t, w.w) == (ANNULUS, 0.5, -4.0)
        assert w.detail == "q0/p0=0.01 > q_eps=0.0 (eps=4.0)"
        assert list(cert.details) == BASE_DETAILS


class TestEvenMonotoneStructure:
    def test_van_der_pol_structure_verified(self, vdp_setup):
        _, eq = vdp_setup
        cert = check_t3_6(eq, region=Rectangle(0.0, 20.0, -8.0, 8.0), grid=GridSpec(33, 33))
        assert cert.status == VERIFIED
        assert cert.conclusion == GLOBAL_FOR_ALL_IC

    def test_time_only_fields_trivially_monotone(self):
        eq = make_eq(r_fn=lambda t, w: t)
        cert = check_t3_6(eq, region=Rectangle(0.0, 10.0, -5.0, 5.0), grid=GridSpec(17, 17))
        assert cert.status == VERIFIED

    def test_odd_damping_falsified(self):
        eq = make_eq(q_fn=lambda t, w: -w * w, r=1.0)
        cert = check_t3_6(eq, region=Rectangle(0.0, 10.0, -5.0, 5.0), grid=GridSpec(17, 17))
        assert cert.status == FALSIFIED
        assert "even-monotone" in cert.witness.hypothesis

    def test_verified_instance_never_escapes(self, vdp_setup):
        # 25 sampled initial pairs integrate to the horizon without escape.
        _, eq = vdp_setup
        opts = IntegrationOptions(rel_tol=1e-6, abs_tol=1e-9, horizon=100.0)
        for phi0 in (-4.0, -2.0, 0.0, 2.0, 4.0):
            for phi1 in (-4.0, -2.0, 0.0, 2.0, 4.0):
                traj = integrate(eq, InitialData(0.0, phi0, phi1), opts)
                assert traj.terminal.kind == "reached_horizon"


class TestCertificateContracts:
    def test_refinement_keeps_verified_decisive(self, vdp_setup):
        _, eq = vdp_setup
        base = GridSpec(17, 17)
        cert = check_t3_6(eq, region=Rectangle(0.0, 20.0, -8.0, 8.0), grid=base)
        assert cert.status == VERIFIED
        for factor in (2, 4):
            refined = check_t3_6(eq, region=Rectangle(0.0, 20.0, -8.0, 8.0), grid=base.refined(factor))
            assert refined.status in (VERIFIED, FALSIFIED)
            assert refined.status == VERIFIED  # this instance truly satisfies the hypotheses

    def test_refinement_keeps_falsified_witnessed(self):
        eq = make_eq(q_fn=lambda t, w: -w * w, r=1.0)
        base = GridSpec(9, 9)
        for factor in (1, 2, 4):
            cert = check_t3_6(eq, region=Rectangle(0.0, 10.0, -5.0, 5.0), grid=base.refined(factor) if factor > 1 else base)
            assert cert.status == FALSIFIED
            assert cert.witness is not None

    def test_serialized_certificates_validate(self, ef_case, vdp_setup):
        p, eq, b = ef_case
        _, vdp_eq = vdp_setup
        certs = [
            check_t3_1(eq, InitialData(1.0, 0.5, 0.0), b, region=INF_REGION, grid=GridSpec(17, 17)),
            check_t3_1(eq, InitialData(1.0, 1.2, 0.0), b, region=INF_REGION, grid=GridSpec(17, 17)),
            check_t3_1(eq, InitialData(1.0, 0.5, -1.0), b, region=INF_REGION, grid=GridSpec(17, 17)),
            check_t3_6(vdp_eq, region=Rectangle(0.0, 10.0, -5.0, 5.0), grid=GridSpec(9, 9)),
        ]
        for cert in certs:
            validate_certificate_dict(cert.to_dict())

    def test_region_records_the_sampled_axis_sizes(self):
        # An axis with equal bounds is sampled at one point, whatever the grid asks for.
        eq = ef_equation(EFParams(4.0, 0.0, 3.0))
        b = BoundTriple(P=lambda t: 0.5, Q=lambda t: -1.0)
        one_t = check_t3_4(eq, b, region=Rectangle(1.0, 1.0, -1.0, 1.0), grid=GridSpec(9, 9))
        one_w = check_t3_4(eq, b, region=Rectangle(1.0, 2.0, 0.5, 0.5), grid=GridSpec(9, 9))
        both = check_t3_4(eq, b, region=Rectangle(1.0, 2.0, -1.0, 1.0), grid=GridSpec(9, 5))
        assert [(c.region["nt"], c.region["nw"]) for c in (one_t, one_w, both)] == [(1, 9), (9, 1), (9, 5)]


class TestScanOrder:
    """Row-at-a-time sampling and the scan order of the checkers."""

    BOX = Rectangle(0.0, 4.0, -2.0, 2.0)

    def test_non_finite_sample_on_witness_row_raises(self):
        # r0 < 0 fails at the first grid point, but q0 is not finite at w = 2
        # on the same row: the whole row is sampled before any check runs.
        eq = make_eq(q_fn=lambda t, w: 1.0 / (2.0 - w), r=-1.0)
        b = BoundTriple(P=lambda t: 1.0, Q=lambda t: -10.0)
        with pytest.raises(FieldEvaluationError) as err:
            check_t3_4(eq, b, region=self.BOX, grid=GridSpec(17, 17))
        assert (err.value.t, err.value.w) == (0.0, 2.0)

    @pytest.mark.parametrize(
        "eq, cause",
        [
            # |w|**2 overflows (OverflowError) from w = 2.5e199 on
            (ef_equation(EFParams(rho=4.0, sigma=0.0, n=3.0)), OverflowError),
            # w*w - 1 is inf from w = 2.5e199 on: a non-finite value, no exception
            (vdp_equation(VdPParams(lam=lambda t: 1.0, mu=lambda t: 1.0, nu=lambda t: 1.0), t0=1.0), type(None)),
        ],
        ids=["power_law", "van_der_pol"],
    )
    def test_row_path_field_raises_at_first_non_finite_w(self, eq, cause):
        # p0 >= P fails at w = -1, the first point of the row.  The row path
        # cannot give the row, so it is sampled point by point and raises at
        # the first non-finite w, as the scalar loop does.
        assert eq.r0.products is not None and eq.q0.products is not None
        b = BoundTriple(P=lambda t: 2.0, Q=lambda t: -10.0)
        with pytest.raises(FieldEvaluationError) as err:
            check_t3_4(eq, b, region=Rectangle(1.0, 4.0, -1.0, 1e200), grid=GridSpec(5, 5))
        assert (err.value.t, err.value.w) == (1.0, 2.5e199)
        assert type(err.value.__cause__) is cause

    def test_non_finite_sample_after_witness_row_is_never_sampled(self):
        eq = make_eq(q_fn=lambda t, w: 1.0 / (4.0 - t), r=-1.0)
        b = BoundTriple(P=lambda t: 1.0, Q=lambda t: -10.0)
        cert = check_t3_4(eq, b, region=self.BOX, grid=GridSpec(17, 17))
        assert cert.status == FALSIFIED
        assert (cert.witness.hypothesis, cert.witness.t, cert.witness.w) == ("r0 >= 0", 0.0, -2.0)

    def test_sampled_range_ends_at_the_witness(self):
        # The witness row is sampled whole, but the recorded w range ends at
        # the witness, the last point checked.
        eq = make_eq(r_fn=lambda t, w: 0.1 * w - 0.01)
        b = BoundTriple(P=lambda t: 1.0, Q=lambda t: 0.0, R=lambda t: -1.0)
        cert = check_t3_1(eq, InitialData(0.0, 1.0, 0.0), b, region=Rectangle(0.0, 4.0, -math.inf, math.inf), grid=GridSpec(17, 17))
        assert (cert.witness.t, cert.witness.w) == (0.0, pytest.approx(1.001 / 8))
        assert cert.region["w_sampled"] == [-1.001, cert.witness.w]

    def test_comparison_monotonicity_checked_in_w_order(self, kneser_setup):
        # p0 breaks even monotonicity on both sides of w = 0; the first break
        # in w order, on the nonpositive side, is the witness.
        _, maj = kneser_setup
        p = lambda t, w: 2.0 + 0.01 * min(w + 1.0, 0.0) - 0.01 * max(w - 1.0, 0.0)
        eq = make_eq(p_fn=p, r_fn=lambda t, w: -(t ** -6.0) * abs(w) ** 2, t0=1.0)
        cert = check_t3_3(eq, eq, maj, InitialData(1.0, 1.0, 0.0), region=Rectangle(1.0, 10.0, -5.0, 5.0), grid=GridSpec(9, 9))
        assert cert.status == FALSIFIED
        assert (cert.witness.t, cert.witness.w) == (1.0, -3.75)
        assert cert.witness.detail == "p0 increases on the nonpositive side"


class TestNonFiniteBound:
    """A bound of t that is not finite raises instead of holding vacuously."""

    BOX = Rectangle(0.0, 4.0, -2.0, 2.0)

    @pytest.mark.parametrize(
        "bounds, label, t, value",
        [
            (dict(P=lambda t: math.nan, Q=lambda t: 0.0), "P", 0.0, math.nan),
            (dict(P=lambda t: 1.0, Q=lambda t: -math.inf), "Q", 0.0, -math.inf),
            (dict(P=lambda t: 1.0 if t < 2.0 else math.inf, Q=lambda t: 0.0), "P", 2.0, math.inf),
        ],
        ids=["P_nan", "Q_minus_inf", "P_inf_from_t2"],
    )
    def test_t3_4_raises_named_by_the_bound(self, harmonic_eq, bounds, label, t, value):
        with pytest.raises(FieldEvaluationError) as err:
            check_t3_4(harmonic_eq, BoundTriple(**bounds), region=self.BOX, grid=GridSpec(9, 9))
        assert (err.value.name, err.value.t, err.value.w) == (label, t, None)
        assert repr(err.value.value) == repr(value)

    def test_finite_bounds_still_verify(self, harmonic_eq):
        cert = check_t3_4(harmonic_eq, BoundTriple(P=lambda t: 1.0, Q=lambda t: -1e308), region=self.BOX, grid=GridSpec(9, 9))
        assert cert.status == VERIFIED


class TestTableOrder:
    """At one grid point the checks fail in table order."""

    BOX = Rectangle(0.0, 4.0, -2.0, 2.0)

    def test_sandwich_lower_bound_before_sign(self):
        eq = make_eq(p=0.5, r=1.0)
        b = BoundTriple(P=lambda t: 1.0, Q=lambda t: 0.0, R=lambda t: -1.0)
        cert = check_t3_1(eq, InitialData(0.0, 1.0, 0.0), b, region=Rectangle(0.0, 4.0, -math.inf, math.inf), grid=GridSpec(9, 9))
        assert (cert.witness.hypothesis, cert.witness.detail) == ("p0 >= P", "p0=0.5 < P=1.0")

    def test_ratio_before_restoring_sign(self):
        cert = check_t3_4(make_eq(q=-1.0, r=-1.0), BoundTriple(P=lambda t: 1.0, Q=lambda t: 0.0), region=self.BOX, grid=GridSpec(9, 9))
        assert (cert.witness.hypothesis, cert.witness.t, cert.witness.w) == ("q0/p0 >= Q", 0.0, -2.0)

    def test_comparison_match_before_monotonicity(self, kneser_setup):
        _, maj = kneser_setup
        r = lambda t, w: -(t ** -6.0) * abs(w) ** 2
        eq0 = make_eq(p_fn=lambda t, w: 2.0 - 0.01 * w, r_fn=r, t0=1.0)
        eq1 = make_eq(p=2.0, r_fn=r, t0=1.0)
        cert = check_t3_3(eq0, eq1, maj, InitialData(1.0, 1.0, 0.0), region=Rectangle(1.0, 10.0, -5.0, 5.0), grid=GridSpec(9, 9))
        assert (cert.witness.t, cert.witness.w, cert.witness.detail) == (1.0, -5.0, "p0=2.05 != p1=2.0")


class TestNonpositiveP0:
    BOX = Rectangle(0.0, 4.0, -2.0, 2.0)
    SQUARE_P = dict(p_fn=lambda t, w: w * w, r=1.0)

    def test_t3_4_ratio_at_zero_p0_is_domain_error(self):
        b = BoundTriple(P=lambda t: 0.0, Q=lambda t: -1.0)
        with pytest.raises(DomainError, match=r"p0 is not positive at \(t=0\.0, w=0\.0\): 0\.0"):
            check_t3_4(make_eq(**self.SQUARE_P), b, region=self.BOX, grid=GridSpec(17, 17))

    def test_t3_6_ratio_at_zero_p0_is_domain_error(self):
        with pytest.raises(DomainError, match=r"p0 is not positive at \(t=0\.0, w=0\.0\)"):
            check_t3_6(make_eq(**self.SQUARE_P), region=self.BOX, grid=GridSpec(17, 17))

    def test_negative_p0_is_domain_error(self):
        b = BoundTriple(P=lambda t: -5.0, Q=lambda t: -1.0)
        with pytest.raises(DomainError, match=r"p0 is not positive at \(t=0\.0, w=-2\.0\): -2\.5"):
            check_t3_4(make_eq(p_fn=lambda t, w: w - 0.5, r=1.0), b, region=self.BOX, grid=GridSpec(17, 17))

    def test_earlier_witness_wins(self):
        # p0 >= P fails at w = -0.5, before the scan reaches p0 = 0 at w = 0.
        b = BoundTriple(P=lambda t: 0.5, Q=lambda t: -1.0)
        cert = check_t3_4(make_eq(**self.SQUARE_P), b, region=self.BOX, grid=GridSpec(17, 17))
        assert cert.status == FALSIFIED
        assert (cert.witness.hypothesis, cert.witness.t, cert.witness.w) == ("p0 >= P", 0.0, -0.5)


class TestCoverage:
    """A Verified certificate records whether its rows were cleared by their ranges or checked at grid points."""

    BOX = Rectangle(0.0, 4.0, -2.0, 2.0)
    BOUNDS = BoundTriple(P=lambda t: 1.0, Q=lambda t: 0.0)

    @staticmethod
    def closed_form_eq(r0_doc):
        one, zero = {"kind": "constant", "value": 1.0}, {"kind": "constant", "value": 0.0}
        return equation_from_json({"kind": "custom", "t0": 0.0, "p0": one, "q0": zero, "r0": r0_doc})

    def test_power_law_rows_are_cleared(self, ef_case):
        p, eq, b = ef_case
        cert = check_t3_1(eq, InitialData(1.0, 0.5, 0.0), b, region=INF_REGION, grid=GridSpec(65, 65))
        assert (cert.status, cert.region["coverage"]) == (VERIFIED, "rows")
        validate_certificate_dict(cert.to_dict())

    def test_a_dip_between_grid_points_records_grid_and_falsifies_on_a_finer_grid(self):
        # r0 = (w - 0.3)**2 - 0.001 is negative only for |w - 0.3| < 0.032; the 9-point grid steps by 0.5
        eq = self.closed_form_eq({"kind": "polynomial", "terms": [{"c": 1.0, "w": 2.0}, {"c": -0.6, "w": 1.0}, {"c": 0.089}]})
        coarse = check_t3_4(eq, self.BOUNDS, region=self.BOX, grid=GridSpec(9, 9))
        assert (coarse.status, coarse.region["coverage"]) == (VERIFIED, "grid")
        fine = check_t3_4(eq, self.BOUNDS, region=self.BOX, grid=GridSpec(9, 9).refined(8))
        assert fine.status == FALSIFIED and fine.witness.hypothesis == "r0 >= 0"
        assert abs(fine.witness.w - 0.3) < 0.032
        assert "coverage" not in fine.region

    def test_without_the_dip_every_row_clears(self):
        eq = self.closed_form_eq({"kind": "polynomial", "terms": [{"c": 1.0, "w": 2.0}, {"c": 0.089}]})
        cert = check_t3_4(eq, self.BOUNDS, region=self.BOX, grid=GridSpec(9, 9))
        assert (cert.status, cert.region["coverage"]) == (VERIFIED, "rows")

    def test_opaque_fields_and_row_rules_record_grid(self, harmonic_eq):
        assert check_t3_4(harmonic_eq, self.BOUNDS, region=self.BOX, grid=GridSpec(9, 9)).region["coverage"] == "grid"
        eq = self.closed_form_eq({"kind": "constant", "value": 1.0})
        assert check_t3_6(eq, region=self.BOX, grid=GridSpec(9, 9)).region["coverage"] == "grid"  # even-monotone rule

    def test_falsified_and_inconclusive_carry_no_coverage(self, ef_case):
        eq = self.closed_form_eq({"kind": "constant", "value": -1.0})
        assert "coverage" not in check_t3_4(eq, self.BOUNDS, region=self.BOX, grid=GridSpec(9, 9)).region
        p, ef, b = ef_case
        assert "coverage" not in check_t3_1(ef, InitialData(1.0, 0.0, 0.0), b, region=INF_REGION).region

    def test_a_cleared_row_still_raises_on_a_nan_bound(self):
        eq = self.closed_form_eq({"kind": "constant", "value": 1.0})
        with pytest.raises(FieldEvaluationError) as err:
            check_t3_4(eq, BoundTriple(P=lambda t: 1.0 if t < 2.0 else math.nan, Q=lambda t: 0.0), region=self.BOX, grid=GridSpec(9, 9))
        assert (err.value.name, err.value.t, err.value.w) == ("P", 2.0, None)

    def test_an_envelope_band_too_wide_to_grid_raises_though_its_rows_clear(self):
        # constant fields clear every row, so no axis is built; the parent sampled them at NaN and was Verified
        eq = self.closed_form_eq({"kind": "constant", "value": 0.0})
        b = BoundTriple(P=lambda t: 1.0, Q=lambda t: 0.0, R=lambda t: -1.0)
        with pytest.raises(DomainError, match="spans inf: the region is too wide to grid"):
            check_t3_1(eq, InitialData(0.0, 1.0, 0.0), b, region=Rectangle(0.0, 1.0, -math.inf, math.inf), epsilon=1e308)
