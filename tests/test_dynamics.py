import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rcert import (
    DomainError,
    FieldEvaluationError,
    RcertError,
    FINITE_ESCAPE,
    REACHED_HORIZON,
    STEP_COLLAPSE,
    InitialData,
    IntegrationOptions,
    export_trajectory_csv,
    flux_residual,
    equation_from_json,
    integrate,
    volterra_residual,
)
from rcert import dynamics, fields
from rcert.classify import SINGULAR_SECOND_KIND, classify
from rcert.dynamics import _blowup_estimate
from conftest import make_eq, rk4_system
from test_rhs_golden import SWEEP_EQ

SRC = Path(__file__).resolve().parent.parent / "src"


def gauss(f, a, b, pieces=4):
    """Composite 40-point Gauss-Legendre rule, independent of rcert's quadrature."""
    x, w = np.polynomial.legendre.leggauss(40)
    edges = np.linspace(a, b, pieces + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        total += half * float(np.dot(w, f(half * x + 0.5 * (hi + lo))))
    return total


def escape_time(potential, phi0, dphi0):
    """Blow-up time of phi'' = -V'(phi) from (0, phi0, dphi0), dphi0 > 0, with energy above every barrier.

    The energy integral of dx / sqrt(dphi0^2 + 2 V(phi0) - 2 V(x)) from phi0 to
    infinity, with the tail taken in s = 1/x.
    """
    e2 = dphi0 * dphi0 + 2.0 * potential(phi0)

    def speed(x):
        return np.sqrt(e2 - 2.0 * potential(x))

    split = max(2.0, phi0 + 1.0)
    return gauss(lambda x: 1.0 / speed(x), phi0, split) + gauss(lambda s: 1.0 / (s * s * speed(1.0 / s)), 0.0, 1.0 / split)


#: The escaping golden runs: phi'' = phi^3 from (0, 1, 1) to horizon 10 and the
#: two escaping cells of the sweep of phi'' + (1 - phi^2) phi = 0 to horizon 100,
#: with their potentials V.
ESCAPES = {
    "cube": (lambda x: -0.25 * x**4, (1.0, 1.0), 10.0),
    "sweep_escape_lower": (lambda x: 0.5 * x * x - 0.25 * x**4, (-0.5, 1.0), 100.0),
    "sweep_escape_upper": (lambda x: 0.5 * x * x - 0.25 * x**4, (-0.5 + (0.6 - -0.5), 1.0), 100.0),
}


class TestConstantSolution:
    def test_flat_trajectory(self, constant_eq):
        traj = integrate(constant_eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=10.0))
        assert traj.terminal.kind == REACHED_HORIZON
        assert traj.zeros == []
        assert np.max(np.abs(np.asarray(traj.phis) - 1.0)) <= 1e-12
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

    def test_state_at_is_phi_at_and_psi_at(self, harmonic_traj):
        # state_at evaluates both components of one step inline; it must give the single-component values bit for bit
        ts = harmonic_traj.ts
        points = ts + [a + (b - a) * k / 3 for a, b in zip(ts, ts[1:]) for k in (1, 2)] + [math.nextafter(ts[0], math.inf), math.nextafter(ts[-1], 0.0)]
        for t in points:
            state = harmonic_traj.state_at(t)
            assert (state[0].hex(), state[1].hex()) == (harmonic_traj.phi_at(t).hex(), harmonic_traj.psi_at(t).hex())


def traj_err(traj, t):
    return abs(traj.phi_at(t) - math.cos(t))


class TestFractionalPowerStart:
    """phi'' + t^a phi = 0 from (t1, 1, 0), with the options of T3_5's comparison runs.

    At t1 = 0 the DP5 error estimate of the t^a coefficient scales like h^(1 + a)
    while the per-unit-step target scales like h, so for small a no step above
    min_step passes (ROADMAP item 2(d)).
    """

    OPTS = IntegrationOptions(rel_tol=1e-6, abs_tol=1e-9, horizon=50.0)

    @pytest.mark.parametrize("a, t1", [(0.75, 0.0), (1.0, 0.0), (0.25, 1e-3), (0.5, 1e-3), (0.75, 1e-3)])
    def test_reaches_horizon(self, a, t1):
        traj = integrate(make_eq(r_fn=lambda t, w: t ** a), InitialData(t1, 1.0, 0.0), self.OPTS)
        assert traj.terminal.kind == REACHED_HORIZON

    @pytest.mark.xfail(strict=True, reason="the error estimate at t0 outruns the per-unit-step target (ROADMAP item 2(d))")
    @pytest.mark.parametrize("a", [0.25, 0.5])
    def test_small_power_from_zero_reaches_horizon(self, a):
        # Today the run ends step_collapse ("local error saturated") at t = 0 after one node.
        traj = integrate(make_eq(r_fn=lambda t, w: t ** a), InitialData(0.0, 1.0, 0.0), self.OPTS)
        assert traj.terminal.kind == REACHED_HORIZON


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

    def test_fast_linear_solution_reaches_horizon(self, constant_eq):
        # phi = 1 + 1e8 t starts near escape_threshold and is global
        traj = integrate(constant_eq, InitialData(0.0, 1.0, 1e8), IntegrationOptions(horizon=10.0))
        assert traj.terminal.kind == REACHED_HORIZON

    def test_faster_linear_solution_reaches_horizon(self, constant_eq):
        # phi = 1 + 1e9 t is global.  Against the per-unit-step target its first step's
        # error ratio never fell below 1, and the run ended finite_escape at t = 0 after
        # one node (ROADMAP item 2(a)); above norm 1e3 each step is tested per step.
        traj = integrate(constant_eq, InitialData(0.0, 1.0, 1e9), IntegrationOptions(horizon=10.0))
        assert traj.terminal.kind == REACHED_HORIZON

    def test_pole_at_one_is_a_finite_escape(self):
        # phi = 1/(1 - t) - k solves phi'' = 2 phi'/(1 - t) from (0, 1 - k, 1) and escapes at T* = 1.
        # Against the per-unit-step target each run ended step_collapse at 1 - t ~ 1.06e-4, its norm
        # 8.7-9.0e7 below escape_threshold 1e8 (ROADMAP item 2(b)); above norm 1e3 each step is tested per step.
        eq = make_eq(q_fn=lambda t, w: -2.0 / (1.0 - t))
        outcomes = []
        for k in (0.0, 12000.0, 15000.0, 25000.0):
            term = integrate(eq, InitialData(0.0, 1.0 - k, 1.0), IntegrationOptions(horizon=2.0)).terminal
            outcomes.append((term.kind, term.bracket is not None and term.time < 1.0 < term.time + term.bracket))
        assert outcomes == [(FINITE_ESCAPE, True)] * 4

    def test_gaussian_growth_not_flagged(self):
        # phi = e^{t^2} solves phi'' = (4t^2 + 2) phi: its crossing times of the
        # doubling norm levels approach no limit, so it is never an escape.
        eq = make_eq(r_fn=lambda t, w: -(4.0 * t * t + 2.0))
        traj = integrate(eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=6.5))
        assert traj.terminal.kind == REACHED_HORIZON
        assert abs(traj.phis[-1]) + abs(traj.psis[-1]) > 1e19

    @pytest.mark.parametrize("stop", ["rate", "collapse"])
    @pytest.mark.parametrize("name", sorted(ESCAPES))
    def test_bracket_holds_escape_time(self, name, stop, cube_blowup_eq, monkeypatch):
        potential, (phi0, dphi0), horizon = ESCAPES[name]
        eq = cube_blowup_eq if name == "cube" else equation_from_json(SWEEP_EQ)
        if stop == "collapse":
            monkeypatch.setattr(dynamics, "_RATE_CAP", 0.0)  # no rate is stable: the step collapses
        traj = integrate(eq, InitialData(0.0, phi0, dphi0), IntegrationOptions(horizon=horizon))
        t_star = escape_time(potential, phi0, dphi0)
        term = traj.terminal
        assert term.kind == FINITE_ESCAPE
        assert (term.reason == "blow-up rate stable") == (stop == "rate")
        assert term.time == traj.t_end
        assert term.time < t_star < term.time + term.bracket
        if name == "cube":
            assert t_star == pytest.approx(1.3110287771460599, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("stop", ["rate", "collapse"])
    @pytest.mark.parametrize("horizon", [4.0, 10.0, 100.0])
    @pytest.mark.parametrize("rel_tol", [1e-7, 1e-9])
    @pytest.mark.parametrize("name", sorted(ESCAPES))
    def test_bracket_holds_escape_time_across_settings(self, name, rel_tol, horizon, stop, cube_blowup_eq, monkeypatch):
        # Past norm 1e3 each step is tested per step, and the bracket admits the error that this puts
        # into T*.  With no stable rate the run stops once T^ - t is within that error, before T*.
        potential, (phi0, dphi0), _ = ESCAPES[name]
        eq = cube_blowup_eq if name == "cube" else equation_from_json(SWEEP_EQ)
        if stop == "collapse":
            monkeypatch.setattr(dynamics, "_RATE_CAP", 0.0)
        term = integrate(eq, InitialData(0.0, phi0, dphi0), IntegrationOptions(rel_tol=rel_tol, horizon=horizon)).terminal
        assert term.kind == FINITE_ESCAPE
        assert term.reason == ("blow-up rate stable" if stop == "rate" else "escape time within integration error")
        assert term.time < escape_time(potential, phi0, dphi0) < term.time + term.bracket

    @pytest.mark.parametrize("name", ["sweep_escape_lower", "sweep_escape_upper"])
    def test_escaping_sweep_cells_take_few_steps(self, name):
        # Against the per-unit-step target past norm 1e3 these cells took about 14,000 nodes.
        _, (phi0, dphi0), horizon = ESCAPES[name]
        traj = integrate(equation_from_json(SWEEP_EQ), InitialData(0.0, phi0, dphi0), IntegrationOptions(horizon=horizon))
        assert traj.terminal.reason == "blow-up rate stable"
        assert len(traj.ts) < 3000

    @pytest.mark.parametrize("k", [0.0, 1200.0])
    def test_zero_after_first_crossing_delays_the_stop(self, k):
        # phi = 1/(1 - t) - k solves phi'' = 2 phi' / (1 - t) and escapes at
        # T* = 1 with psi = 1/(1 - t)^2.  The norm passes 1e6 * 2^j near
        # 1 - t = 1e-3 * 2^(-j/2); for k = 1200 phi vanishes at 1 - t = 1/1200,
        # after the first crossing, so the stop waits for one more level.
        eq = make_eq(q_fn=lambda t, w: -2.0 / (1.0 - t))
        traj = integrate(eq, InitialData(0.0, 1.0 - k, 1.0), IntegrationOptions(horizon=2.0, escape_threshold=1e6))
        term = traj.terminal
        assert term.reason == "blow-up rate stable"
        assert term.time < 1.0 < term.time + term.bracket
        norm = (abs(traj.phis[-1]) + abs(traj.psis[-1])) / 1e6
        if k:
            assert traj.zeros == [pytest.approx(1.0 - 1.0 / k, abs=1e-9)]
            assert 16.0 < norm < 32.0
        else:
            assert traj.zeros == []
            assert 8.0 < norm < 16.0

    def test_accumulating_zeros_keep_the_collapse_rule(self):
        # (1 - t)^2 phi'' - 5 (1 - t) phi' + 29 phi = 0 has the solutions
        # (1 - t)^-2 cos(5 log(1 - t) + c): the norm blows up at t = 1 while
        # zero gaps shrink by e^{-pi/5}.  Zeros keep arriving after every
        # crossing, so the run ends on the collapse rule with its tail of zeros.
        eq = make_eq(q_fn=lambda t, w: -5.0 / (1.0 - t), r_fn=lambda t, w: 29.0 / (1.0 - t) ** 2)
        traj = integrate(eq, InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=2.0, rel_tol=1e-6))
        assert traj.terminal.kind == FINITE_ESCAPE
        assert traj.terminal.reason == "local error saturated"
        first = next(t for t, a, b in zip(traj.ts, traj.phis, traj.psis) if abs(a) + abs(b) > 1e8)
        assert sum(z > first for z in traj.zeros) >= 4
        assert classify(traj).kind == SINGULAR_SECOND_KIND

    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan")])
    def test_escape_threshold_must_be_positive(self, threshold):
        # the norm levels double from the threshold, which must grow past any finite norm
        with pytest.raises(ValueError, match="escape_threshold"):
            IntegrationOptions(escape_threshold=threshold)

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


class TestNonFiniteEvaluation:
    # r0 is 0 (phi'' = 0 from phi = 2) but on one call, where 1.7e308 * w overflows the rhs to -inf.
    # Call 1 is the first rhs, call 2 the initial-step probe, calls 3 to 8 the six stages of the first step (h = 1e-6).
    @pytest.mark.parametrize("poisoned", [None, 3, 4, 5, 6, 7, 8])
    def test_a_non_finite_stage_rejects_the_step(self, poisoned):
        calls = []

        def r(t, w):
            calls.append(t)
            return 1.7e308 if len(calls) == poisoned else 0.0

        traj = integrate(make_eq(r_fn=r), InitialData(0.0, 2.0, 0.0), IntegrationOptions(horizon=1.0))
        stages = [2e-07, 3e-07, 8e-07, 8.888888888888888e-07, 1e-06, 1e-06]
        if poisoned is None:
            assert (calls[2:8], traj.ts[1]) == (stages, 1e-06)
        else:  # the step stops at the poisoned stage and is retried at h / 4, from its k2 at 0.2 * h / 4
            assert (calls[2 : poisoned + 1], traj.ts[1]) == (stages[: poisoned - 2] + [5e-08], 2.5e-07)
        assert (len(traj.ts), traj.terminal.to_dict(), set(traj.phis)) == (11 if poisoned is None else 13, {"kind": REACHED_HORIZON, "time": 1.0}, {2.0})

    def test_a_step_that_never_clears_its_stages_collapses(self):
        traj = integrate(make_eq(r=-1e300), InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=1.0))
        assert len(traj.ts) == 1
        assert traj.terminal.to_dict() == {"kind": STEP_COLLAPSE, "time": 0.0, "reason": "non-finite evaluation"}

    def test_a_non_finite_first_rhs_raises(self):
        with pytest.raises(FieldEvaluationError) as err:
            integrate(make_eq(r=-1e300), InitialData(0.0, 1e10, 0.0), IntegrationOptions(horizon=1.0))
        assert (err.value.name, err.value.t, err.value.w, math.isnan(err.value.value)) == ("rhs", 0.0, 1e10, True)

    def test_an_escape_writes_its_reason_and_bracket(self, cube_blowup_eq):
        traj = integrate(cube_blowup_eq, InitialData(0.0, 1.0, 1.0), IntegrationOptions(horizon=10.0))
        doc = traj.terminal.to_dict()
        assert doc == {"kind": FINITE_ESCAPE, "time": doc["time"], "reason": "blow-up rate stable", "bracket": doc["bracket"]}
        assert (doc["time"].hex(), doc["bracket"].hex()) == ("0x1.4f9cdc0d0cfc7p+0", "0x1.5c7f14ae2ce1ap-15")


class TestOptionRanges:
    # On these values integrate's arithmetic would invent a verdict: on the unit
    # Van der Pol from (0, 1, 0), rel_tol or horizon NaN end step_collapse at
    # t = 0, abs_tol inf ends finite_escape at t ~ 12.2, horizon inf divides by
    # zero, and max_zeros 0 stops only after the first zero.
    @pytest.mark.parametrize(
        "name, value",
        [
            ("rel_tol", math.nan),
            ("rel_tol", 0.0),
            ("abs_tol", math.inf),
            ("abs_tol", -1e-12),
            ("min_step", math.nan),
            ("min_step", math.inf),
            ("min_step", 0.0),
            ("zero_tol", math.nan),
            ("zero_tol", math.inf),
            ("zero_tol", -1e-9),
            ("horizon", math.nan),
            ("horizon", math.inf),
            ("horizon", -math.inf),
            ("max_zeros", 0),
        ],
    )
    def test_out_of_range_option_raises_naming_it(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            IntegrationOptions(**{name: value})

    def test_edge_values_are_accepted(self):
        IntegrationOptions(zero_tol=0.0, max_zeros=1, escape_threshold=math.inf, horizon=-1.0)

    def test_nan_horizon_is_a_domain_error(self):
        # a horizon that does not exceed the start time, NaN included, never starts the stepper
        eq = make_eq(r=1.0)
        opts = IntegrationOptions()
        object.__setattr__(opts, "horizon", math.nan)
        with pytest.raises(DomainError, match="horizon must exceed the start time"):
            integrate(eq, InitialData(0.0, 1.0, 0.0), opts)


FINITENESS_EXAMPLES = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, sys.float_info.max, -sys.float_info.max, 1.0]


def finite_pair_examples(test):
    for a in FINITENESS_EXAMPLES:
        for b in FINITENESS_EXAMPLES:
            test = example(a=a, b=b)(test)
    return test


@finite_pair_examples
@given(a=st.floats(), b=st.floats())
def test_call_free_finiteness_test(a, b):
    # The stepper tests its stage values for finiteness as 0.0 * a * b == 0.0.
    assert (0.0 * a * b == 0.0) == (math.isfinite(a) and math.isfinite(b))
    # ... and the last stage, with the new node, as a product of four.
    assert (0.0 * a * b * b * a == 0.0) == (math.isfinite(a) and math.isfinite(b))


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


def power_law_crossings(p, correction=0.0, levels=4, t_star=1.5, s0=1e-2):
    """Times at which (T* - t)^-p (1 + correction (T* - t)) first passes s0^-p 2^k, k < levels."""
    times = []
    for k in range(levels):
        level = s0**-p * 2.0**k
        lo, hi = 0.0, t_star  # s = T* - t; the norm decreases in s
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid**-p * (1.0 + correction * mid) > level:
                lo = mid
            else:
                hi = mid
        times.append(t_star - lo)
    return times


def never_stable(times):
    return all(
        (est := _blowup_estimate(times[:j], None)) is None or not est[2] for j in range(4, len(times) + 1)
    )


class TestBlowupRule:
    @pytest.mark.parametrize("correction", [0.0, 1.0, -1.0])
    @pytest.mark.parametrize("p", [1.0, 2.0, 6.0])
    def test_fires_on_power_laws_and_brackets_t_star(self, p, correction):
        times = power_law_crossings(p, correction=correction)
        t_hat, err, stable = _blowup_estimate(times, None)
        assert stable
        t = times[-1]
        if correction:
            assert t < 1.5 < t + ((t_hat - t) + err)
        else:
            assert t_hat == pytest.approx(1.5, abs=1e-13)

    def test_uses_the_last_four_crossings(self):
        # a drifting start, then a power law: the rule waits for four power-law crossings
        times = [1.0, 1.2, 1.35] + power_law_crossings(2.0)
        assert never_stable(times[:6])
        assert _blowup_estimate(times, None)[2]

    @pytest.mark.parametrize(
        "inverse",
        [
            math.log,  # e^t
            lambda v: math.sqrt(math.log(v)),  # e^{t^2}
            lambda v: math.log(math.log(v)),  # e^{e^t}
            lambda v: v,  # t
            lambda v: v ** 0.5,  # t^2
            lambda v: v ** 0.2,  # t^5
            lambda v: v ** 0.05,  # t^20
        ],
        ids=["exp", "exp_square", "exp_exp", "t", "t2", "t5", "t20"],
    )
    def test_never_fires_on_global_growth(self, inverse):
        times = [inverse(1e8 * 2.0**k) for k in range(200)]
        assert never_stable(times)

    def test_zero_at_or_after_first_crossing_blocks(self):
        times = power_law_crossings(2.0)
        a = times[0]
        assert _blowup_estimate(times, a)[2] is False
        assert _blowup_estimate(times, times[2])[2] is False
        assert _blowup_estimate(times, math.nextafter(a, 0.0))[2] is True

    @pytest.mark.parametrize(
        "times", [[1.0, 2.0, 3.0], [1.0, 1.0, 1.5, 1.75], [1.0, 1.5, 1.5, 1.75], [1.0, 1.5, 2.0, 2.5], [1.0, 1.5, 1.6, 1.8]]
    )
    def test_no_estimate_without_geometric_approach(self, times):
        # too few, repeated, evenly spaced or widening crossing times
        assert _blowup_estimate(times, None) is None

    def test_rate_cap(self):
        # gap ratio 0.95 is stable but too close to 1 to call a blow-up
        times = [1.0, 2.0, 2.95, 2.95 + 0.95**2]
        t_hat, err, stable = _blowup_estimate(times, None)
        assert t_hat == pytest.approx(21.0)
        assert not stable


class TestCompiledLoop:
    # integrate runs one loop generated and compiled per rhs shape, with the coefficients' values
    # bound as locals: only the first run of a shape compiles, and nothing is compiled at import.

    @staticmethod
    def cubic(c):
        r0 = {"kind": "polynomial", "terms": [{"c": c}, {"c": -1.0, "w": 2}]}
        return equation_from_json({**SWEEP_EQ, "r0": r0})

    def test_equations_differing_in_constants_compile_one_loop(self):
        fields._compiled.cache_clear()
        eqs = [self.cubic(c) for c in (1.0, 2.0)]  # r0 = c - w^2
        misses = fields._compiled.cache_info().misses
        one, two = (integrate(eq, InitialData(0.0, 0.5, 0.0), IntegrationOptions(horizon=5.0)) for eq in eqs)
        assert fields._compiled.cache_info().misses == misses + 1
        assert one.phis[-1] != two.phis[-1]  # each ran with its own c

    def test_import_compiles_no_step(self):
        # Record every generated source that exec or compile sees while the package is imported
        # (dataclasses compile their methods from source too, so a step is found by its rejection).
        script = (
            "import builtins\n"
            "seen = []\n"
            "for name in ('exec', 'compile'):\n"
            "    def spy(source, *args, _real=getattr(builtins, name), **kwargs):\n"
            "        if isinstance(source, str) and '_NonFiniteStage' in source:\n"
            "            seen.append(source)\n"
            "        return _real(source, *args, **kwargs)\n"
            "    setattr(builtins, name, spy)\n"
            "import rcert.dynamics\n"
            "print(len(seen), rcert.fields._compiled.cache_info().misses)\n"
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert done.stdout.split() == ["0", "0"]

    def test_a_run_past_the_step_budget_names_its_tolerance_and_horizon(self, monkeypatch):
        eq, ic = self.cubic(1.0), InitialData(0.0, 0.5, 0.0)
        assert len(integrate(eq, ic, IntegrationOptions(horizon=50.0)).ts) > 200  # compiles this shape first
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 100)  # read at each call
        with pytest.raises(RcertError, match=r"^step budget of 100 steps exceeded at t=.*, with rel_tol=1e-09 and horizon=50\.0$"):
            integrate(eq, ic, IntegrationOptions(horizon=50.0))
