import json
import math

import numpy as np
import pytest

from rcert import (
    DomainError,
    FINITE_ESCAPE,
    REACHED_HORIZON,
    STEP_COLLAPSE,
    InitialData,
    IntegrationOptions,
    export_trajectory_csv,
    flux_residual,
    integrate,
    refine_check,
    volterra_residual,
)
from rcert.applications import EFParams, ef_equation, kneser_solution
from conftest import make_eq, rk4_system


class TestConstantSolution:
    def test_flat_trajectory(self, constant_eq):
        traj = integrate(constant_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=10.0))
        assert traj.terminal.kind == REACHED_HORIZON
        assert traj.zeros == []
        assert np.max(np.abs(traj.phis - 1.0)) <= 1e-12
        assert np.max(np.abs(traj.psis)) <= 1e-12


class TestHarmonic:
    def test_solution_value(self, harmonic_traj):
        assert traj_err(harmonic_traj, math.pi) <= 1e-6

    def test_node_momentum_matches_derivative(self, harmonic_traj):
        # psi = p0 * phi' = -sin t along the cosine solution
        for t in (0.5, 1.5, 2.5, 7.0):
            assert harmonic_traj.psi_at(t) == pytest.approx(-math.sin(t), abs=1e-8)

    def test_momentum_identity_at_nodes(self, harmonic_traj):
        eq = harmonic_traj.eq
        for t, phi, psi, dphi in zip(
            harmonic_traj.ts, harmonic_traj.phis, harmonic_traj.psis, harmonic_traj.dphis
        ):
            assert psi == pytest.approx(eq.p0(float(t), float(phi)) * float(dphi), rel=1e-12, abs=1e-12)

    def test_zeros_against_closed_form(self, harmonic_traj):
        expected = [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2]
        assert len(harmonic_traj.zeros) == 3
        for z, e in zip(harmonic_traj.zeros, expected):
            assert abs(z - e) <= 1e-6

    def test_sign_soundness_between_zeros(self, harmonic_traj):
        cuts = [harmonic_traj.t_start] + harmonic_traj.zeros + [harmonic_traj.t_end]
        pad = 1e-4
        for lo, hi in zip(cuts, cuts[1:]):
            a, b = lo + pad, hi - pad
            signs = {math.copysign(1.0, harmonic_traj.phi_at(a + (b - a) * k / 63)) for k in range(64)}
            assert len(signs) == 1

    def test_zero_values_small(self, harmonic_traj):
        for z in harmonic_traj.zeros:
            assert abs(harmonic_traj.phi_at(z)) <= harmonic_traj.opts.zero_tol


def traj_err(traj, t):
    return abs(traj.phi_at(t) - math.cos(t))


class TestFiniteEscape:
    def test_blowup_detected_and_confirmed_by_oracle(self, cube_blowup_eq):
        traj = integrate(cube_blowup_eq, InitialData(0.0, 1.0, 1.0), IntegrationOptions(horizon=10.0))
        assert traj.terminal.kind == FINITE_ESCAPE
        assert traj.terminal.time < 10.0
        assert traj.terminal.bracket is not None
        assert np.all(np.diff(traj.phis) >= 0.0)

        # Independent fixed-step oracle: values pass 1e6 in finite time and
        # the passage time brackets the reported escape time.
        def f(t, y):
            phi, psi = y
            return psi, abs(phi) ** 2 * phi

        ts, ys = rk4_system(f, 0.0, (1.0, 1.0), 1e-4, 5.0, stop_norm=1e6)
        t_oracle = ts[-1]
        assert t_oracle < 5.0
        assert t_oracle <= traj.terminal.time <= t_oracle + 0.05

    def test_large_but_global_solution_not_flagged(self):
        # phi'' = phi grows like cosh t past the escape threshold by t = 30,
        # yet is global: the threshold alone must not trigger an escape.
        eq = make_eq(r=-1.0)
        traj = integrate(eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=30.0))
        assert traj.terminal.kind == REACHED_HORIZON
        assert float(np.max(np.abs(traj.phis))) > 1e8

    def test_p0_vanishing_is_domain_error(self):
        eq = make_eq(p_fn=lambda t, w: 1.0 - t)
        with pytest.raises(DomainError):
            integrate(eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=2.0))

    def test_overflowing_first_derivative_ends_in_terminal_status(self):
        # |phi''| ~ 1e300 at the start: the scaled first-derivative norm
        # overflows to inf, which made the initial step 0 and divided by it.
        eq = make_eq(r_fn=lambda t, w: -1e300 * w * w)
        traj = integrate(eq, InitialData(0.0, 1.0, 1.0), IntegrationOptions(horizon=5.0))
        assert traj.terminal.kind in (FINITE_ESCAPE, STEP_COLLAPSE)


class TestZeroBookkeeping:
    def test_max_zeros_truncates_with_flag(self, harmonic_eq):
        traj = integrate(harmonic_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=50.0, max_zeros=3))
        assert traj.zeros_truncated
        assert len(traj.zeros) == 3
        assert traj.terminal.time < 50.0

    def test_sine_start_at_zero_not_counted(self, harmonic_eq):
        traj = integrate(harmonic_eq, InitialData(0.0, 0.0, 1.0), IntegrationOptions(horizon=7.0))
        expected = [math.pi, 2 * math.pi]
        assert len(traj.zeros) == 2
        for z, e in zip(traj.zeros, expected):
            assert abs(z - e) <= 1e-6


class TestRefineCheck:
    def test_harmonic_contracts_per_decade(self, harmonic_eq):
        ic = InitialData(0.0, 1.0, 0.0)
        coarse = refine_check(harmonic_eq, ic, IntegrationOptions(rel_tol=1e-5, abs_tol=1e-8, horizon=10.0))
        fine = refine_check(harmonic_eq, ic, IntegrationOptions(rel_tol=1e-6, abs_tol=1e-9, horizon=10.0))
        assert fine.max_discrepancy <= coarse.max_discrepancy / 5.0

    def test_constant_discrepancy_zero(self, constant_eq):
        report = refine_check(constant_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=10.0))
        assert report.max_discrepancy <= 1e-13

    def test_kneser_case_within_tolerance_scale(self):
        p = EFParams(rho=0.0, sigma=-6.0, n=3.0)
        eq = ef_equation(p, t0=1.0)
        phi_B, dphi_B = kneser_solution(p)
        ic = InitialData(1.0, phi_B(1.0), dphi_B(1.0))
        opts = IntegrationOptions(rel_tol=1e-8, abs_tol=1e-11, horizon=10.0)
        report = refine_check(eq, ic, opts)
        scale = phi_B(10.0)
        assert report.max_discrepancy <= 10.0 * opts.rel_tol * scale


class TestIntegralIdentities:
    def test_momentum_identity_harmonic(self, harmonic_traj):
        assert flux_residual(harmonic_traj) <= 1e-8

    def test_state_identity_harmonic(self, harmonic_traj):
        assert volterra_residual(harmonic_traj) <= 1e-8

    def test_identities_with_damping(self, damped_eq):
        traj = integrate(damped_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=5.0))
        assert flux_residual(traj) <= 1e-8
        assert volterra_residual(traj) <= 1e-8


class TestCsvExport:
    def test_columns_and_sidecar(self, tmp_path, harmonic_traj):
        csv_path = tmp_path / "traj.csv"
        export_trajectory_csv(harmonic_traj, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,phi,psi,y"
        assert len(lines) == len(harmonic_traj.ts) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == pytest.approx(0.0)  # y = psi/phi = 0 at the start

        side = json.loads((tmp_path / "traj.csv.meta.json").read_text())
        assert side["terminal"]["kind"] == REACHED_HORIZON
        assert len(side["zeros"]) == 3

    def test_y_blank_near_zero_crossings(self, tmp_path, harmonic_eq):
        # force a node essentially on the zero: integrate just past pi/2
        traj = integrate(harmonic_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=10.0, zero_tol=1e-3))
        csv_path = tmp_path / "t.csv"
        export_trajectory_csv(traj, csv_path)
        rows = [line.split(",") for line in csv_path.read_text().strip().splitlines()[1:]]
        blanks = [r for r in rows if r[3] == ""]
        kept = [r for r in rows if r[3] != ""]
        assert all(abs(float(r[1])) <= 1e-3 for r in blanks)
        assert all(abs(float(r[1])) > 1e-3 for r in kept)

    def test_export_deterministic(self, tmp_path, harmonic_traj):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_trajectory_csv(harmonic_traj, a)
        export_trajectory_csv(harmonic_traj, b)
        assert a.read_bytes() == b.read_bytes()
