"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance below is pinned, nothing is deferred to calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from rcert import (
    BoundTriple,
    FBound,
    GBound,
    GridSpec,
    InitialData,
    IntegrationOptions,
    Rectangle,
    VERIFIED,
    cauchy_residual,
    check_t3_1,
    check_t3_3,
    check_t3_6,
    classify,
    difference_residual,
    i_minus,
    i_plus,
    integrate,
    representation_residual,
    transform,
)
from rcert.applications import (
    EFParams,
    VdPParams,
    check_t4_2,
    conditional_stability_delta,
    conditional_stability_experiment,
    ef_bound_triple,
    ef_equation,
    ef_transform,
    kneser_majorant,
    kneser_solution,
    vdp_equation,
)
from rcert.classify import SINGULAR_SECOND_KIND
from rcert.cli import main as cli_main
from conftest import make_eq

ONE = lambda t: 1.0
ZERO = lambda t: 0.0


def report(n, text):
    print(f"[acceptance] criterion {n}: {text} PASS")


def test_criterion_01_quadrature_closed_forms():
    start = time.perf_counter()
    b0 = BoundTriple(P=ONE, Q=ZERO, R=ZERO)
    bR = BoundTriple(P=ONE, Q=ZERO, R=lambda t: -1.0)
    cases = [
        (i_plus(ONE, ZERO, 0.0, 2.0), 2.0),
        (i_plus(lambda t: t * t, ZERO, 1.0, 4.0), 0.75),
        (i_plus(ONE, ONE, 0.0, 1.0), 1.0 - math.exp(-1.0)),
        (i_minus(ONE, ZERO, 0.0, 2.0), 0.0),
        (i_minus(ZERO, ONE, 0.0, 3.0), 3.0),
        (i_minus(ONE, ONE, 0.0, 1.0), 1.0 - math.exp(-1.0)),
        (FBound(b0, 0.0, -3.0, 0.0)(2.0), 3.0),
        (FBound(b0, 0.0, 2.0, 1.0)(1.0), 2.0 * math.e),
        (FBound(bR, 0.0, 1.0, 0.0)(1.0), math.exp(0.5)),
        (GBound(BoundTriple(P=ONE, Q=ZERO), ZERO, 0.0, -7.0, 0.0)(2.0), 7.0),
        (GBound(BoundTriple(P=ONE, Q=ZERO), ONE, 0.0, 1.0, 0.0)(2.0), math.exp(2.0)),
        (GBound(BoundTriple(P=lambda t: 2.0, Q=ZERO), ONE, 0.0, 3.0, 2.0)(2.0), 3.0 * math.exp(3.0)),
    ]
    for got, expect in cases:
        assert got == pytest.approx(expect, rel=1e-8, abs=1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"12 closed forms within 1e-8 relative in {elapsed:.2f}s")


@pytest.fixture(scope="module")
def residual_fixtures():
    pK = EFParams(rho=0.0, sigma=-6.0, n=3.0)
    pE = EFParams(rho=4.0, sigma=0.0, n=3.0)
    harmonic = make_eq(r=1.0)
    damped = make_eq(q=1.0, r=1.0)
    ef_eq = ef_equation(pE, t0=1.0)

    def build(rel):
        opts2 = IntegrationOptions(rel_tol=rel, abs_tol=rel * 1e-3, horizon=2.0)
        opts1 = IntegrationOptions(rel_tol=rel, abs_tol=rel * 1e-3, horizon=1.0)
        opts5 = IntegrationOptions(rel_tol=rel, abs_tol=rel * 1e-3, horizon=5.0)
        opts10 = IntegrationOptions(rel_tol=rel, abs_tol=rel * 1e-3, horizon=10.0)
        return {
            "harmonic": transform(integrate(harmonic, InitialData(0.0, 1.0, 0.0), opts2), (0.0, math.pi / 4)),
            "damped": transform(integrate(damped, InitialData(0.0, 1.0, 0.0), opts2), (0.0, math.pi / 8)),
            "kneser": transform(kneser_majorant(pK, 1.0, opts5), (1.0, 4.0)),
            "ef": transform(integrate(ef_eq, InitialData(1.0, 0.5, 0.0), opts10), (1.0, 9.0)),
            "harmonic_short": transform(integrate(harmonic, InitialData(0.0, 1.0, 0.0), opts1), (0.0, math.pi / 8)),
            "damped_short": transform(integrate(damped, InitialData(0.0, 1.0, 0.0), opts1), (0.0, math.pi / 8)),
        }

    return build


def test_criterion_02_riccati_identity_suite(residual_fixtures):
    tight = residual_fixtures(1e-9)
    for name in ("harmonic", "damped", "kneser", "ef"):
        path = tight[name]
        assert representation_residual(path) <= 1e-6, name
        assert cauchy_residual(path) <= 1e-6, name
    for j in (0, 1):
        assert difference_residual(tight["harmonic_short"], tight["damped_short"], j) <= 1e-6
        assert difference_residual(tight["kneser"], tight["ef"], j) <= 1e-6

    # Contraction under a tenfold tolerance tightening, measured per fixture
    # on a decade where the solver is in its asymptotic regime.
    pairs = {"harmonic": 1e-6, "damped": 1e-5, "kneser": 1e-8, "ef": 1e-7}
    for name, rel in pairs.items():
        coarse = residual_fixtures(rel)[name]
        fine = residual_fixtures(rel / 10.0)[name]
        assert representation_residual(fine) <= representation_residual(coarse) / 10.0, name
        assert cauchy_residual(fine) <= cauchy_residual(coarse) / 10.0, name
    coarse = residual_fixtures(1e-7)
    fine = residual_fixtures(1e-8)
    for j in (0, 1):
        a = difference_residual(coarse["harmonic_short"], coarse["damped_short"], j)
        b = difference_residual(fine["harmonic_short"], fine["damped_short"], j)
        assert b <= a / 10.0
    report(2, "residuals <= 1e-6 on all fixtures and contract >= 10x per tolerance decade")


def test_criterion_03_monotone_envelope_certificate():
    start = time.perf_counter()
    p = EFParams(rho=4.0, sigma=0.0, n=3.0)
    eq = ef_equation(p, t0=1.0)
    ic = InitialData(1.0, 0.5, 0.0)
    cert = check_t3_1(eq, ic, ef_bound_triple(p), region=Rectangle(1.0, 50.0, -math.inf, math.inf), grid=GridSpec(129, 129))
    assert cert.status == VERIFIED

    from rcert.applications import ef_bounds_A_B

    bound = ef_bounds_A_B(p, 1.0, ic.phi0, 0.0).A
    assert abs(bound - 0.82436) <= 1e-4

    traj = integrate(eq, ic, IntegrationOptions(horizon=50.0))
    for t in np.linspace(1.0, 50.0, 400):
        assert abs(traj.phi_at(t)) <= bound * (1.0 + 1e-6)
        assert abs(traj.phi_at(t)) <= cert.bound(t) * (1.0 + 1e-6)
    abs_phi = np.abs(traj.phis)
    assert np.all(np.diff(abs_phi) >= -1e-6 * float(abs_phi.max()))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, f"Verified with bound {bound:.5f} (0.82436 +- 1e-4), trajectory enveloped, in {elapsed:.2f}s")


def test_criterion_04_comparison_majorant_certificate():
    p = EFParams(rho=0.0, sigma=-6.0, n=3.0)
    eq = ef_equation(p, t0=1.0)
    majorant = kneser_majorant(p, 1.0, IntegrationOptions(horizon=50.0))
    ic = InitialData(1.0, 1.0, 1.0)  # ratio y0(1) = 1 below the majorant's 2
    cert = check_t3_3(eq, eq, majorant, ic, region=Rectangle(1.0, 50.0, -4000.0, 4000.0), grid=GridSpec(33, 33))
    assert cert.status == VERIFIED
    assert cert.details["y0"] == pytest.approx(1.0)
    assert cert.details["y1"] == pytest.approx(2.0, rel=1e-9)

    traj = integrate(eq, ic, IntegrationOptions(horizon=50.0))
    assert traj.terminal.kind == "reached_horizon"
    abs_phi = np.abs(traj.phis)
    assert np.all(np.diff(abs_phi) >= -1e-6 * float(abs_phi.max()))
    report(4, "Verified against the explicit power majorant; trajectory global and nondecreasing")


def test_criterion_05_sharpness_monotone_blowup():
    # sigma1 = 0 >= -n - 1: initial data with phi * phi' > 0 cannot extend
    eq = make_eq(r_fn=lambda t, w: -abs(w) ** 2)
    traj = integrate(eq, InitialData(0.0, 1.0, 1.0), IntegrationOptions(horizon=10.0))
    assert traj.terminal.kind == "finite_escape"
    assert traj.terminal.time < 10.0
    assert len(traj.zeros) == 0
    assert np.all(np.diff(traj.phis) >= 0.0)
    c = classify(traj)
    assert c.kind != SINGULAR_SECOND_KIND
    report(5, f"monotone escape at t={traj.terminal.time:.4f} classified {c.kind}, not second-kind")


def test_criterion_06_transform_equivalence():
    p = EFParams(rho=2.0, sigma=0.0, n=3.0)
    tr = ef_transform(p)
    assert tr.sigma1 == -4.0
    eq = ef_equation(p, t0=1.0)
    direct = integrate(eq, InitialData(1.0, 0.5, 0.0), IntegrationOptions(horizon=9.0))
    s0, psi0, dpsi0 = tr.map_state(1.0, 0.5, 0.0)
    normal = ef_equation(tr.transformed_params(), t0=s0)
    mapped = integrate(normal, InitialData(s0, psi0, dpsi0), IntegrationOptions(horizon=tr.s_of_t(9.0)))
    worst = 0.0
    for t in np.linspace(1.0, 9.0, 200):
        s = tr.s_of_t(t)
        worst = max(worst, abs(tr.unmap_state(s, mapped.phi_at(s), 0.0)[1] - direct.phi_at(t)))
    assert worst <= 1e-5
    report(6, f"normal-form and direct solutions agree to {worst:.2e} (<= 1e-5); sigma1 = -4 exactly")


def test_criterion_07_explicit_solution_residual():
    p = EFParams(rho=0.0, sigma=-6.0, n=3.0)
    phi_B, dphi_B = kneser_solution(p)
    assert phi_B(1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    second_derivative = 2.0 * math.sqrt(2.0)  # phi_B = sqrt(2) t^2
    worst = 0.0
    for k in range(100):
        t = 1.0 + 9.0 * k / 99.0
        assert phi_B(t) == pytest.approx(math.sqrt(2.0) * t * t, rel=1e-13)
        residual = second_derivative - t ** -6.0 * abs(phi_B(t)) ** 2 * phi_B(t)
        worst = max(worst, abs(residual))
    assert worst <= 1e-12
    report(7, f"explicit power solution residual {worst:.2e} (<= 1e-12) at 100 points")


def test_criterion_08_conditional_stability():
    p = EFParams(rho=2.0, sigma=-2.0, n=3.0)
    delta = conditional_stability_delta(p, 1.0, 1.0)
    assert abs(delta - math.exp(-1.0) / 4.0) <= 1e-12
    outcomes = conditional_stability_experiment(p, 1.0, 1.0, n_ics=20, horizon=50.0)
    assert len(outcomes) == 20
    assert all(o.phi0 < delta for o in outcomes)
    assert all(o.sup_norm < 1.0 for o in outcomes)
    report(8, f"delta = {delta:.12f} = e^-1/4; 20 manifold starts keep |phi| + |psi| < 1")


def test_criterion_09_van_der_pol():
    start = time.perf_counter()
    v = VdPParams(lam=ONE, mu=ONE, nu=ONE)
    eq = vdp_equation(v, t0=0.0)
    existence = check_t3_6(eq, region=Rectangle(0.0, 20.0, -8.0, 8.0), grid=GridSpec(65, 65))
    assert existence.status == VERIFIED
    aggregate = check_t4_2(eq, v, eps0=1.0)
    assert aggregate.status == VERIFIED
    assert aggregate.heuristic_flags  # heuristic components are flagged

    rng = np.random.default_rng(20240817)
    for _ in range(10):
        ic = InitialData(0.0, float(rng.uniform(-5.0, 5.0)), float(rng.uniform(-5.0, 5.0)))
        traj = integrate(eq, ic, IntegrationOptions(horizon=100.0))
        assert traj.terminal.kind == "reached_horizon"
        assert len(traj.zeros) >= 10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(9, f"existence and oscillation certificates Verified; 10 random starts oscillate, in {elapsed:.1f}s")


def test_criterion_10_deterministic_reports(tmp_path):
    config = {
        "version": 1,
        "equation": {"kind": "emden_fowler", "rho": 4.0, "sigma": 0.0, "n": 3.0, "variant": "absolute", "t0": 1.0},
        "initial": {"t1": 1.0, "phi0": 0.5, "phi1": 0.0},
        "region": {"t": [1.0, 50.0]},
        "grid": {"nt": 33, "nw": 33},
        "options": {"horizon": 50.0},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert cli_main(["certify", "t3_1", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["certify", "t3_1", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b
    report(10, f"two runs produced byte-identical {len(a)}-byte reports")
