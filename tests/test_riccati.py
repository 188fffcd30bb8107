import math
from dataclasses import replace
from functools import partial

import pytest

from rcert import (
    DomainError,
    EquationSpec,
    FieldEvaluationError,
    GridSpec,
    InitialData,
    IntegrationOptions,
    Rectangle,
    ScalarField,
    Trajectory,
    auto_segments,
    cauchy_residual,
    difference_residual,
    equation_from_json,
    flux_residual,
    integrate,
    representation_residual,
    transform,
    volterra_residual,
)
from rcert import riccati
from rcert.applications import EFParams, VdPParams, ef_equation, kneser_majorant, vdp_equation
from rcert.fields import _closed_form_field
from test_fields import ODD_SAMPLES, at

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

    def test_segment_ends_clear_a_zero_between_close_nodes(self):
        # The unit Van der Pol start that validate_oracles draws at seed 139 has a zero at
        # t = 1.889666028194242, 3e-4 of its step after the node 1.889665238534103.  A segment
        # that ended at that node, 7.9e-7 short of the zero, left both segment oracles over
        # their quadrature budget.
        def one(t):
            return 1.0

        eq = vdp_equation(VdPParams(lam=one, mu=one, nu=one))
        traj = integrate(eq, InitialData(0.0, 0.9800604069112069, 0.5077994911718943), IntegrationOptions(horizon=10.0))
        assert traj.zeros[0] == pytest.approx(1.889666028194242, abs=1e-12)
        segs = auto_segments(traj)
        assert len(segs) == len(traj.zeros) + 1
        for seg in segs:
            path = transform(traj, seg)
            assert representation_residual(path) <= 1e-6
            assert cauchy_residual(path) <= 1e-6
        ts = traj.ts
        for z in traj.zeros:
            k = next(i for i, t in enumerate(ts) if t >= z)
            step = ts[k] - ts[k - 1]
            assert all(abs(end - z) >= riccati._ZERO_CLEARANCE * step for seg in segs for end in seg)


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
        # r0 <= 0, confirmed at every sample of the default grid on the region
        p = EFParams(rho=0.0, sigma=-6.0, n=3.0)
        eq = ef_equation(p, t0=1.0)
        grid, region = GridSpec(), Rectangle(1.0, 20.0, -600.0, 600.0)
        ws = grid.w_axis(region.w_min, region.w_max)
        assert all(eq.r0(t, w) <= 0.0 for t in grid.t_axis(region.t_min, region.t_max) for w in ws)
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


class _Captured(Exception):
    pass


class _Still:
    """A trajectory stub held at one state: (phi, psi) = (w, 0.25) at every t in [0, 2]."""

    t_start, t_end = 0.0, 2.0

    def __init__(self, eq, w):
        self.eq, self.w = eq, w

    def state_at(self, t):
        return self.w, 0.25

    def phi_at(self, t):
        return self.w


class TestOnePassSampler:
    """Each oracle samples a Kronrod node with one dense-output lookup and, when
    p0, q0 and r0 are closed forms, one compiled call for the three."""

    @staticmethod
    def node_functions(monkeypatch, path, other):
        """The node function of every oracle on ``path`` (paired with ``other`` in both difference orders)."""
        captured = []

        def capture(fn, *args, **kwargs):
            captured.append(fn)
            raise _Captured

        monkeypatch.setattr(riccati, "weighted_chain", capture)
        monkeypatch.setattr(riccati, "CumulativeIntegral", capture)
        oracles = (
            representation_residual,
            cauchy_residual,
            lambda p: flux_residual(p.traj),
            lambda p: volterra_residual(p.traj),
            lambda p: difference_residual(p, other, 0),
            lambda p: difference_residual(other, p, 1),
        )
        for oracle in oracles:
            with pytest.raises(_Captured):
                oracle(path)
        return captured

    @staticmethod
    def outcome(fn):
        try:
            values = fn(1.0)
        except Exception as exc:
            return type(exc), str(exc), type(exc.__cause__)
        return [v.hex() for v in (values if isinstance(values, tuple) else (values,))]

    @pytest.mark.parametrize("p, q, r", ODD_SAMPLES.values(), ids=ODD_SAMPLES)
    def test_odd_samples_match_the_wrapped_fields(self, monkeypatch, p, q, r):
        closed = EquationSpec(p0=_closed_form_field([p], "p"), q0=_closed_form_field([q], "q"), r0=_closed_form_field([r], "r"), t0=0.0)
        wrapped = EquationSpec(**{k: replace(getattr(closed, k), products=None) for k in ("p0", "q0", "r0")}, t0=0.0)
        plain = _Still(EquationSpec(*(_closed_form_field([at(1.0)]) for _ in range(3)), t0=0.0), 0.75)
        other = riccati.RiccatiPath(plain, 0.0, 2.0, partial(riccati._ratio, plain))
        for w in (0.0, 0.5, -0.5):
            outcomes = []
            for eq in (closed, wrapped):
                traj = _Still(eq, w)
                # The ratio transform builds, read from the node's own lookup, and a replaced one.
                for y in (partial(riccati._ratio, traj), lambda t: 0.75):
                    path = riccati.RiccatiPath(traj, 0.0, 2.0, y)
                    outcomes.append([self.outcome(fn) for fn in self.node_functions(monkeypatch, path, other)])
            assert outcomes[:2] == outcomes[2:], w

    def test_r0_is_sampled_before_q0(self, monkeypatch):
        # q0 and r0 both raise: every oracle that samples them raises r0's error, as the rhs does.
        closed = EquationSpec(p0=_closed_form_field([at(2.0)], "p"), q0=_closed_form_field([at(math.inf)], "q"), r0=_closed_form_field([at(math.nan)], "r"), t0=0.0)
        wrapped = EquationSpec(**{k: replace(getattr(closed, k), products=None) for k in ("p0", "q0", "r0")}, t0=0.0)
        r0_error = self.outcome(lambda s: closed.r0(s, 0.5))
        assert r0_error[0] is FieldEvaluationError and r0_error != self.outcome(lambda s: closed.q0(s, 0.5))
        for eq in (closed, wrapped):
            traj = _Still(eq, 0.5)
            path = riccati.RiccatiPath(traj, 0.0, 2.0, partial(riccati._ratio, traj))
            # Every node function but the representation's, which samples p0 alone.
            assert [self.outcome(fn) for fn in self.node_functions(monkeypatch, path, path)[1:]] == [r0_error] * 5

    @staticmethod
    def count_calls(monkeypatch, oracle, path):
        """The oracle's value, and the dense-output lookups and field calls of each node it samples."""
        lookups, field_calls, per_node = [], [], []
        for name in ("phi_at", "psi_at", "state_at"):
            method = getattr(Trajectory, name)
            monkeypatch.setattr(Trajectory, name, lambda self, t, method=method: lookups.append(t) or method(self, t))
        call = ScalarField.__call__
        monkeypatch.setattr(ScalarField, "__call__", lambda self, t, w: field_calls.append(t) or call(self, t, w))
        chain = riccati.weighted_chain

        def counted(coefficients, base, **kwargs):
            def node(s):
                before = len(lookups), len(field_calls)
                values = coefficients(s)
                per_node.append((len(lookups) - before[0], len(field_calls) - before[1]))
                return values

            return chain(node, base, **kwargs)

        monkeypatch.setattr(riccati, "weighted_chain", counted)
        return oracle(path), set(per_node)

    def test_cauchy_looks_up_each_node_once(self, monkeypatch, harmonic_path):
        expected = cauchy_residual(harmonic_path)
        # Opaque fields: one lookup and the three wrapped field calls per node.
        assert self.count_calls(monkeypatch, cauchy_residual, harmonic_path) == (expected, {(1, 3)})

    def test_closed_forms_are_sampled_in_one_compiled_call(self, monkeypatch):
        doc = {"kind": "custom", "t0": 0.0}
        doc.update((k, {"kind": "constant", "value": v}) for k, v in (("p0", 1.0), ("q0", 0.0), ("r0", 1.0)))
        path = transform(integrate(equation_from_json(doc), InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=2.0)), SEG)
        expected = cauchy_residual(path)
        assert self.count_calls(monkeypatch, cauchy_residual, path) == (expected, {(1, 0)})

    def test_a_replaced_ratio_is_sampled_through_itself(self, monkeypatch, harmonic_path):
        shifted = replace(harmonic_path, y=lambda t: harmonic_path.y(t) + 0.1)
        expected = cauchy_residual(shifted)
        assert expected > 0.01
        # The node's own lookup, then the replaced y's.
        assert self.count_calls(monkeypatch, cauchy_residual, shifted) == (expected, {(2, 3)})
