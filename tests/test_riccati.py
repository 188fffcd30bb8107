import cProfile
import math
import pstats
import random
import re
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
    REACHED_HORIZON,
    Rectangle,
    ScalarField,
    TerminalStatus,
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
from rcert.fields import _closed_form_field, _coefficient_sampler
from rcert.quadrature import _NODES
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


def _still(eq, w):
    """A trajectory held at one state: (phi, psi) = (w, 0.25) at every t in [0, 2], by one step whose dense coefficients are 0."""
    ic, opts = InitialData(0.0, w, 0.0), IntegrationOptions(horizon=2.0)
    return Trajectory(eq, ic, opts, [0.0, 2.0], [w, w], [0.25, 0.25], [0.0, 0.0], [], TerminalStatus(REACHED_HORIZON, 2.0), False, False, [(2.0,) + (0.0,) * 8])


# Reference node functions of the oracles, one Python call per node: each panel sampler must give their bits or
# their exception, with the same wrapped field and y calls in order.


def _reference_representation(path):
    traj = path.traj
    p0, state_at, y, ratio = traj.eq.p0, traj.state_at, path.y, riccati._own_ratio(path)

    def integrand(tau):
        phi, psi = state_at(tau)
        return (psi / phi if ratio else y(tau)) / p0(tau, phi)

    return integrand


def _reference_cauchy(path):
    traj = path.traj
    state_at, y, ratio, pqr = traj.state_at, path.y, riccati._own_ratio(path), _coefficient_sampler(traj.eq)

    def coefficients(s):
        phi, psi = state_at(s)
        ys = psi / phi if ratio else y(s)
        p, q, r = pqr(s, phi)
        return (ys + q) / p, r

    return coefficients


def _reference_weighted(traj, lead):
    phi_at, pqr = traj.phi_at, _coefficient_sampler(traj.eq)

    def coefficients(s):
        phi = phi_at(s)
        p, q, r = pqr(s, phi)
        return (q / p, r * phi, p) if lead else (q / p, r * phi)

    return coefficients


def _references(path):
    """The reference node function of the representation, Cauchy, flux and Volterra oracles on ``path``."""
    return [_reference_representation(path), _reference_cauchy(path), _reference_weighted(path.traj, False), _reference_weighted(path.traj, True)]


def _logged(monkeypatch, path):
    """``path`` with its y, if replaced, and every wrapped field call recorded in the returned list, in order."""
    log = []
    call = ScalarField.__call__
    monkeypatch.setattr(ScalarField, "__call__", lambda self, t, w: log.append((self.name, t.hex(), w.hex())) or call(self, t, w))
    if not riccati._own_ratio(path):
        y = path.y
        path = replace(path, y=lambda t: log.append(("y", t.hex())) or y(t))
    return path, log


def _panel_outcome(run):
    """The hex of each value ``run()`` gives, or its exception's type, message and cause."""
    try:
        values = run()
    except Exception as exc:
        return type(exc), str(exc), type(exc.__cause__)
    return [v.hex() for v in (values if isinstance(values, (tuple, list)) else (values,))]


def _reference_panel(fn, c, h):
    """The panel's columns from a node function called at its 15 nodes in turn."""
    columns = []
    for x in _NODES:
        values = fn(c + h * x)
        columns += values if isinstance(values, tuple) else (values,)
    return columns


class TestOnePassSampler:
    """Each oracle but the difference oracle samples a GK15 panel in one compiled call: the dense output
    written in, and, when p0, q0 and r0 are closed forms, their samples too (p0 alone for the representation)."""

    @staticmethod
    def node_functions(monkeypatch, path, other):
        """The sampler of every oracle on ``path``, and the difference oracle's node function (paired with ``other`` in both orders)."""
        captured = []

        def capture(fn, *args, **kwargs):
            captured.append(fn)
            raise _Captured

        with monkeypatch.context() as m:
            m.setattr(riccati, "weighted_chain", capture)
            m.setattr(riccati, "CumulativeIntegral", capture)
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
        """What a node function gives at t = 1.0, or a sampler on the panel whose 15 nodes are all 1.0."""
        return _panel_outcome(lambda: fn(1.0, 0.0) if getattr(fn, "panel", False) else fn(1.0))

    @pytest.mark.parametrize("p, q, r", ODD_SAMPLES.values(), ids=ODD_SAMPLES)
    def test_odd_samples_match_the_wrapped_fields(self, monkeypatch, p, q, r):
        closed = EquationSpec(p0=_closed_form_field([p], "p"), q0=_closed_form_field([q], "q"), r0=_closed_form_field([r], "r"), t0=0.0)
        wrapped = EquationSpec(**{k: replace(getattr(closed, k), products=None) for k in ("p0", "q0", "r0")}, t0=0.0)
        plain = _still(EquationSpec(*(_closed_form_field([at(1.0)]) for _ in range(3)), t0=0.0), 0.75)
        other = riccati.RiccatiPath(plain, 0.0, 2.0, partial(riccati._ratio, plain))
        for w in (0.0, 0.5, -0.5):
            outcomes = []
            for eq in (closed, wrapped):
                traj = _still(eq, w)
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
            traj = _still(eq, 0.5)
            path = riccati.RiccatiPath(traj, 0.0, 2.0, partial(riccati._ratio, traj))
            # Every node function but the representation's, which samples p0 alone.
            assert [self.outcome(fn) for fn in self.node_functions(monkeypatch, path, path)[1:]] == [r0_error] * 5

    @staticmethod
    def count_calls(monkeypatch, oracle, path):
        """The oracle's value, and the dense-output lookups and field calls of each panel its chain samples."""
        lookups, field_calls, per_panel = [], [], []
        for name in ("phi_at", "psi_at", "state_at"):
            method = getattr(Trajectory, name)
            monkeypatch.setattr(Trajectory, name, lambda self, t, method=method: lookups.append(t) or method(self, t))
        call = ScalarField.__call__
        monkeypatch.setattr(ScalarField, "__call__", lambda self, t, w: field_calls.append(t) or call(self, t, w))

        def counted(sample):
            def panel(c, h):
                before = len(lookups), len(field_calls)
                values = sample(c, h)
                per_panel.append((len(lookups) - before[0], len(field_calls) - before[1]))
                return values

            panel.panel = sample.panel
            return panel

        chain, integral = riccati.weighted_chain, riccati.CumulativeIntegral
        monkeypatch.setattr(riccati, "weighted_chain", lambda sample, base, **kwargs: chain(counted(sample), base, **kwargs))
        monkeypatch.setattr(riccati, "CumulativeIntegral", lambda sample, *args: integral(counted(sample), *args))
        return oracle(path), set(per_panel)

    def test_cauchy_looks_up_no_interior_node(self, monkeypatch, harmonic_path):
        expected = cauchy_residual(harmonic_path)
        # Opaque fields: no lookup, and the three wrapped field calls at each of the 15 nodes.
        assert self.count_calls(monkeypatch, cauchy_residual, harmonic_path) == (expected, {(0, 45)})

    def test_closed_forms_are_sampled_in_one_compiled_call(self, monkeypatch):
        doc = {"kind": "custom", "t0": 0.0}
        doc.update((k, {"kind": "constant", "value": v}) for k, v in (("p0", 1.0), ("q0", 0.0), ("r0", 1.0)))
        path = transform(integrate(equation_from_json(doc), InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=2.0)), SEG)
        expected = cauchy_residual(path)
        assert self.count_calls(monkeypatch, cauchy_residual, path) == (expected, {(0, 0)})

    def test_a_replaced_ratio_is_sampled_through_itself(self, monkeypatch, harmonic_path):
        shifted = replace(harmonic_path, y=lambda t: harmonic_path.y(t) + 0.1)
        expected = cauchy_residual(shifted)
        assert expected > 0.01
        # The replaced y's own lookup at each node, and no other.
        assert self.count_calls(monkeypatch, cauchy_residual, shifted) == (expected, {(15, 45)})

    def test_closed_form_chains_call_nothing_per_node(self, monkeypatch):
        # Van der Pol from JSON: every oracle's chain samples each panel with no lookup and no field call.
        traj = integrate(_vdp_json(), InitialData(0.0, 1.0, 0.5), IntegrationOptions(horizon=10.0))
        path = transform(traj, auto_segments(traj)[0])
        oracles = (representation_residual, cauchy_residual, lambda p: flux_residual(p.traj), lambda p: volterra_residual(p.traj))
        expected = [oracle(path) for oracle in oracles]
        for oracle, value in zip(oracles, expected):
            with monkeypatch.context() as m:
                assert self.count_calls(m, oracle, path) == (value, {(0, 0)})


def _vdp_json():
    one = {"kind": "constant", "value": 1.0}
    return equation_from_json({"kind": "van_der_pol", "lambda": one, "mu": one, "nu": one, "t0": 0.0})


def _opaque(eq):
    return EquationSpec(**{k: replace(getattr(eq, k), products=None) for k in ("p0", "q0", "r0")}, t0=eq.t0)


def _panels(traj, rng):
    """(c, h) panels on ``traj``: inside one step, across several, of floor width at a node time, every node at
    t_start, t_end or a node time, and reaching past t_end."""
    ts = traj.ts
    panels = [(ts[0], 0.0), (ts[-1], 0.0), (ts[len(ts) // 2], 0.0), (ts[-1], 0.25 * (ts[-1] - ts[-2])), (ts[0], 0.5 * (ts[1] - ts[0]))]
    for _ in range(12):
        k = rng.randrange(len(ts) - 1)
        lo, hi = ts[k], ts[k + 1]
        share = rng.uniform(0.01, 0.5)
        panels.append((lo + (hi - lo) * rng.uniform(share, 1.0 - share), (hi - lo) * share * rng.uniform(0.5, 1.0)))
        panels.append((rng.uniform(ts[0], ts[-1]), rng.uniform(0.0, 0.2) * (ts[-1] - ts[0])))
        panels.append((ts[k + 1], 4e-16 * max(1.0, abs(ts[k + 1]))))
    return panels


def _same_panels(monkeypatch, path, panels):
    """Assert each oracle's sampler gives the reference's bits, or its exception, with the same wrapped calls in order."""
    path, log = _logged(monkeypatch, path)
    closed = path.traj.eq.p0.products is not None
    samplers = TestOnePassSampler.node_functions(monkeypatch, path, path)[:4]
    for kind, (sampler, reference) in enumerate(zip(samplers, _references(path))):
        for c, h in panels:
            del log[:]
            got = _panel_outcome(lambda: sampler(c, h)), list(log)
            del log[:]
            want = _panel_outcome(lambda: _reference_panel(reference, c, h)), list(log)
            if kind == 0 and closed:  # the reference calls the wrapped p0 at every node, the sampler only where its rule fails
                got, want = got[0], want[0]
            assert got == want, (kind, c.hex(), h.hex())


TRAJECTORIES = {
    "harmonic": lambda: integrate(EquationSpec(*(_closed_form_field([at(v)], n) for v, n in ((1.0, "p"), (0.0, "q"), (1.0, "r"))), t0=0.0), InitialData(0.0, 1.0, 0.0), IntegrationOptions(horizon=2.0)),
    "vdp": lambda: integrate(_vdp_json(), InitialData(0.0, 1.0, 0.5), IntegrationOptions(horizon=10.0)),
    "power_law": lambda: integrate(ef_equation(EFParams(rho=4.0, sigma=0.0, n=3.0), t0=1.0), InitialData(1.0, 0.5, 0.2), IntegrationOptions(horizon=20.0)),
}


@pytest.mark.parametrize("opaque", [False, True], ids=["closed", "opaque"])
@pytest.mark.parametrize("name", TRAJECTORIES)
def test_samplers_match_the_node_functions(monkeypatch, name, opaque):
    rng = random.Random(name)
    traj = TRAJECTORIES[name]()
    traj = replace(traj, eq=_opaque(traj.eq)) if opaque else traj
    a, b = auto_segments(traj)[0]
    own = transform(traj, (a, b))
    panels = _panels(traj, rng)
    for path in (own, replace(own, y=lambda t: own.y(t) + 0.1), replace(own, y=lambda t: math.nan if t > b else own.y(t))):
        with monkeypatch.context() as m:
            _same_panels(m, path, panels)


@pytest.mark.parametrize("p, q, r", ODD_SAMPLES.values(), ids=ODD_SAMPLES)
def test_samplers_match_the_node_functions_on_odd_samples(monkeypatch, p, q, r):
    closed = EquationSpec(p0=_closed_form_field([p], "p"), q0=_closed_form_field([q], "q"), r0=_closed_form_field([r], "r"), t0=0.0)
    panels = [(1.0, 0.5), (0.0, 0.0), (2.0, 0.0), (0.5, 0.5), (1.5, 0.5), (2.0, 0.25)]
    for eq in (closed, _opaque(closed)):
        for w in (0.0, 0.5, -0.5):
            traj = _still(eq, w)
            for y in (partial(riccati._ratio, traj), lambda t: 0.75, lambda t: 1.0 / (t - 1.0)):
                with monkeypatch.context() as m:
                    _same_panels(m, riccati.RiccatiPath(traj, 0.0, 2.0, y), panels)


class TestDeviation:
    def test_a_non_finite_sample_raises(self):
        with pytest.raises(DomainError, match=r"^a sample at t=0\.0 is not finite: x\(t\) = nan, model\(t\) = 0\.0$"):
            riccati._deviation(lambda t: math.nan, lambda t: 0.0, [0.0, 1.0])
        with pytest.raises(DomainError, match=r"^a sample at t=1\.0 is not finite: x\(t\) = 0\.0, model\(t\) = inf$"):
            riccati._deviation(lambda t: 0.0, lambda t: math.inf if t else 0.0, [0.0, 1.0])

    def test_a_ratio_that_is_nan_at_the_segment_end_raises(self):
        traj = integrate(_vdp_json(), InitialData(0.0, 1.0, 0.5), IntegrationOptions(horizon=10.0))
        path = transform(traj, auto_segments(traj)[0])
        assert f"{cauchy_residual(path):.4e}" == "6.1266e-13"
        broken = replace(path, y=lambda t: math.nan if t == path.b else path.y(t))
        with pytest.raises(DomainError, match=rf"^a sample at t={re.escape(repr(path.b))} is not finite: x\(t\) = nan, "):
            cauchy_residual(broken)


def test_a_profile_names_each_generated_code_object():
    # Every code object the package generates is compiled under a name of its module and kind.
    profiler = cProfile.Profile()
    profiler.enable()
    traj = integrate(_vdp_json(), InitialData(0.0, 1.0, 0.5), IntegrationOptions(horizon=10.0))
    path = transform(traj, auto_segments(traj)[0])
    residuals = [representation_residual(path), cauchy_residual(path), flux_residual(traj), volterra_residual(traj)]
    profiler.disable()
    assert all(0.0 <= r < 1e-9 for r in residuals)
    files = {filename for filename, _, _ in pstats.Stats(profiler).stats}
    kinds = {"<rcert.dynamics loop>", "<rcert.fields closed form>", "<rcert.quadrature node integrals>", "<rcert.quadrature walk>", "<rcert.riccati panel sampler>"}
    assert kinds <= files
    assert "<closed form>" not in files
