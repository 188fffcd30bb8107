import math
from dataclasses import replace

import pytest

from rcert import (
    DomainError,
    InitialData,
    IntegrationOptions,
    auto_segments,
    cauchy_residual,
    difference_residual,
    integrate,
    representation_residual,
    transform,
)
from rcert.applications import EFParams, ef_equation, kneser_majorant

SEG = (0.0, math.pi / 4)


@pytest.fixture(scope="module")
def harmonic_path(harmonic_eq):
    traj = integrate(harmonic_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=2.0))
    return transform(traj, SEG)


@pytest.fixture(scope="module")
def kneser_path():
    p = EFParams(rho=0.0, sigma=-6.0, n=3.0)
    maj = kneser_majorant(p, 1.0, IntegrationOptions(horizon=5.0))
    return transform(maj, (1.0, 4.0))


class TestTransform:
    def test_constant_solution_gives_zero_ratio(self, constant_eq):
        traj = integrate(constant_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=5.0))
        path = transform(traj, (0.0, 4.0))
        assert max(abs(path.y(t)) for t in path.mesh) <= 1e-12

    def test_harmonic_ratio_is_minus_tan(self, harmonic_path):
        for t in (0.1, 0.3, 0.6, math.pi / 4):
            assert harmonic_path.y(t) == pytest.approx(-math.tan(t), abs=1e-6)

    def test_kneser_ratio_closed_form(self, kneser_path):
        # phi = sqrt(2) t^2 gives y = p phi'/phi = 2/t
        for t in (1.0, 2.0, 3.0, 4.0):
            assert kneser_path.y(t) == pytest.approx(2.0 / t, rel=1e-7)

    def test_zero_crossing_inside_segment_rejected(self, harmonic_eq):
        traj = integrate(harmonic_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=4.0))
        with pytest.raises(DomainError):
            transform(traj, (0.0, 2.0))  # pi/2 zero inside

    def test_auto_segments_avoid_zeros(self, harmonic_traj):
        segs = auto_segments(harmonic_traj)
        assert len(segs) == 4
        for (a, b) in segs:
            for z in harmonic_traj.zeros:
                assert not (a <= z <= b)


class TestRepresentationResidual:
    def test_constant_path_zero(self, constant_eq):
        traj = integrate(constant_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=5.0))
        assert representation_residual(transform(traj, (0.0, 4.0))) <= 1e-12

    def test_harmonic_exact_identity(self, harmonic_path):
        assert representation_residual(harmonic_path) <= 1e-6

    def test_corruption_detected(self, harmonic_path):
        corrupted = replace(harmonic_path, y=lambda t: harmonic_path.y(t) + 0.1)
        assert representation_residual(corrupted) > 0.01


class TestCauchyResidual:
    def test_drift_free_path_zero(self, constant_eq):
        traj = integrate(constant_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=5.0))
        assert cauchy_residual(transform(traj, (0.0, 4.0))) <= 1e-12

    def test_harmonic_exact_identity(self, harmonic_path):
        assert cauchy_residual(harmonic_path) <= 1e-6

    def test_certified_power_law_run(self):
        # A globally certified power-law trajectory satisfies the identity too.
        p = EFParams(rho=4.0, sigma=0.0, n=3.0)
        eq = ef_equation(p, t0=1.0)
        traj = integrate(eq, InitialData(1.0, 0.5, 0.0), IntegrationOptions(horizon=10.0))
        path = transform(traj, (1.0, 9.0))
        assert cauchy_residual(path) <= 1e-6


class TestDifferenceResidual:
    def test_identical_paths_zero(self, harmonic_path):
        assert difference_residual(harmonic_path, harmonic_path, 0) <= 1e-12

    def test_two_harmonic_starts_j0(self, harmonic_eq):
        seg = (0.0, math.pi / 8)
        t0 = integrate(harmonic_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=1.0))
        t1 = integrate(harmonic_eq, InitialData(0.0, 1.0, -0.5), IntegrationOptions(horizon=1.0))
        assert difference_residual(transform(t0, seg), transform(t1, seg), 0) <= 1e-6

    def test_cross_coefficient_bracket_j1(self, harmonic_eq, damped_eq):
        seg = (0.0, math.pi / 8)
        t0 = integrate(harmonic_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=1.0))
        t1 = integrate(damped_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=1.0))
        assert difference_residual(transform(t0, seg), transform(t1, seg), 1) <= 1e-6

    def test_j_choices_agree(self, harmonic_eq, damped_eq):
        seg = (0.0, math.pi / 8)
        t0 = integrate(harmonic_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=1.0))
        t1 = integrate(damped_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=1.0))
        p0, p1 = transform(t0, seg), transform(t1, seg)
        r0 = difference_residual(p0, p1, 0)
        r1 = difference_residual(p0, p1, 1)
        assert r0 <= 1e-6 and r1 <= 1e-6

    def test_bad_j_rejected(self, harmonic_path):
        with pytest.raises(DomainError):
            difference_residual(harmonic_path, harmonic_path, 2)


class TestTrajectoryAssertions:
    def test_ratio_stays_nonnegative_under_sign_hypotheses(self):
        # nonnegative starting ratio with r0 <= 0 along the path
        p = EFParams(rho=0.0, sigma=-6.0, n=3.0)
        eq = ef_equation(p, t0=1.0)
        traj = integrate(eq, InitialData(1.0, 1.0, 1.0), IntegrationOptions(horizon=20.0))
        path = transform(traj, (1.0, 19.0))
        assert min(path.y(t) for t in path.mesh) >= -1e-9

    def test_majorant_ratio_dominates(self):
        # comparison-order margin: the majorant's ratio stays above, given
        # sign hypotheses that the structural probes confirm on the region
        from rcert import Rectangle, verify_structural_tags

        p = EFParams(rho=0.0, sigma=-6.0, n=3.0)
        eq = ef_equation(p, t0=1.0)
        report = verify_structural_tags(eq.r0, Rectangle(1.0, 20.0, -600.0, 600.0))
        assert report["nonpositive"].holds
        opts = IntegrationOptions(horizon=20.0)
        lower = transform(integrate(eq, InitialData(1.0, 1.0, 1.0), opts), (1.0, 19.0))
        upper = transform(kneser_majorant(p, 1.0, opts), (1.0, 19.0))
        mesh = [1.0 + 18.0 * k / 128 for k in range(129)]
        assert min(upper.y(t) - lower.y(t) for t in mesh) >= -1e-9


class TestResidualConvergence:
    def test_residuals_shrink_with_tolerance(self, harmonic_eq):
        ic = InitialData(0.0, 1.0, 0.0)
        res = []
        for rel in (1e-5, 1e-7):
            traj = integrate(harmonic_eq, ic, IntegrationOptions(rel_tol=rel, abs_tol=rel * 1e-3, horizon=2.0))
            res.append(representation_residual(transform(traj, SEG)))
        assert res[1] < res[0] / 10.0

    def test_kneser_solution_satisfies_cauchy_identity(self, kneser_path):
        assert cauchy_residual(kneser_path) <= 1e-6
