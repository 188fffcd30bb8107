"""Chain values are the same bits on every interpreter.

A node integral of a chain level is one left-to-right sum of the node
integration matrix's products, written here as ``acc += s * f``.  Python
3.12 made ``sum()`` of floats compensated, so a node integral taken with
``sum()`` rounds differently there.  This module needs only the standard
library and pytest, so it runs on every interpreter rcert supports.

The residual pins below were taken before the oracles sampled each node in
one pass (one dense-output lookup, one compiled call for p0, q0 and r0), so
they show that pass changed no bit: on the closed-form ``validate_oracles``
equations, on opaque and closed-form harmonic pairs, and on paths whose ratio
``y`` was replaced and must still be sampled through itself.
"""

import math
import random
from dataclasses import replace

import pytest

import rcert
from rcert.quadrature import _NODES, _S, _WGK, weighted_chain

PANELS = 10_000
SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, -1.5e-310)


def _k15(fv, h):
    """The K15 increment of one level from its 15 node values, in the chain's summation order."""
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    f0, f1, f2, f3, f4, f5, f6, fc, g6, g5, g4, g3, g2, g1, g0 = fv
    s1 = f1 + g1
    s3 = f3 + g3
    s5 = f5 + g5
    return (k7 * fc + k0 * (f0 + g0) + k1 * s1 + k2 * (f2 + g2) + k3 * s3 + k4 * (f4 + g4) + k5 * s5 + k6 * (f6 + g6)) * h


def _node_integrals(y, h, fv):
    out = []
    for row in _S:
        acc = 0.0
        for s, f in zip(row, fv):
            acc += s * f
        out.append(y + h * acc)
    return out


def _panel_case(rng):
    """(k node values, h, start) of one panel: specials, subnormals and magnitudes 1e-5..1e5 of either sign."""
    ks = []
    for _ in _NODES:
        if rng.random() < 0.15:
            ks.append(rng.choice(SPECIALS))
        else:
            ks.append(rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-5.0, 5.0))
    # |h| keeps the inner level's exponents within a few hundred, so e^Y
    # carries every bit of Y's rounding into the outer level.
    scale = max(map(abs, ks))
    h = rng.choice((1.0, -1.0)) * min(10.0 ** rng.uniform(-1.0, 2.3) / max(scale, 1e-300), 1e300)
    start = rng.choice((0.0, rng.uniform(-1.0, 1.0)))
    return ks, h, start


def test_two_level_panel_sums_node_integrals_left_to_right():
    rng = random.Random(20240)
    wrong = []
    for n in range(PANELS):
        ks, h, start = _panel_case(rng)
        samples = iter([(k, 1.0) for k in ks])
        chain = weighted_chain(lambda t: next(samples), 0.0)
        # lo = -h and hi = h put the centre at 0 and the half-width at h exactly.
        incs, _ = chain._panel(-h, h, (start, 0.0), None)
        ys = _node_integrals(start, h, ks)
        expect = [_k15(ks, h), _k15([math.exp(y) * 1.0 for y in ys], h)]
        if incs != expect:
            wrong.append((n, [v.hex() for v in incs], [v.hex() for v in expect]))
    assert not wrong, f"{len(wrong)} of {PANELS} panels differ, first {wrong[0]}"


def _oracle_trajectories():
    """The two validate_oracles trajectories at seed 7, drawn in the benchmark's order."""
    rng = random.Random(7)
    phi0 = 1.0 + rng.uniform(-0.02, 0.02)
    phi1 = 0.5 + rng.uniform(-0.02, 0.02)
    pl_phi1 = 0.2 + rng.uniform(-0.02, 0.02)
    one = rcert.time_function_from_json({"kind": "constant", "value": 1.0}, "test")
    vdp = rcert.vdp_equation(rcert.VdPParams(lam=one, mu=one, nu=one), t0=0.0)
    power_law = rcert.ef_equation(rcert.EFParams(rho=4.0, sigma=0.0, n=3.0), t0=1.0)
    return {
        "van_der_pol": rcert.integrate(vdp, rcert.InitialData(0.0, phi0, phi1), rcert.IntegrationOptions(horizon=10.0)),
        "power_law": rcert.integrate(power_law, rcert.InitialData(1.0, 0.5, pl_phi1), rcert.IntegrationOptions(horizon=20.0)),
    }


def test_van_der_pol_residuals_are_pinned():
    # The validate_oracles start at seed 7: lambda = mu = nu = 1 from t0 = 0, horizon 10.
    traj = _oracle_trajectories()["van_der_pol"]
    assert rcert.volterra_residual(traj).hex() == "0x1.9ae76f2e968aep-42"
    assert rcert.flux_residual(traj).hex() == "0x1.c8edde76ca1fcp-43"


#: Per trajectory: (representation, cauchy) per segment of ``auto_segments``,
#: the same two with y replaced by y + 0.1, then flux and volterra.
ORACLE_PINS = {
    "van_der_pol": (
        [
            ("0x1.07411392eeb26p-43", "0x1.fc9f7021f0ec0p-41", "0x1.7e073fb9cb2a8p-4", "0x1.34bba6343ebfcp-3"),
            ("0x1.01d6a8e17273dp-43", "0x1.037a4321c0408p-41", "0x1.7bf4d197815bep-3", "0x1.6febff970691bp-4"),
            ("0x1.80b333f2f7ac4p-45", "0x1.9647cde737b56p-37", "0x1.74cce3464c60dp-3", "0x1.82510d09a4362p-4"),
            ("0x1.38af722f8d6ecp-43", "0x1.e2d8497cb94ecp-44", "0x1.46eb5b13749f2p-3", "0x1.13ac1bc24e631p-12"),
        ],
        "0x1.c8edde76ca1fcp-43",
        "0x1.9ae76f2e968aep-42",
    ),
    "power_law": (
        [("0x1.0dded80066e39p-39", "0x1.3dd649097c0ffp-41", "0x1.15a22bb9523f4p-5", "0x1.4363553044858p-8")],
        "0x1.f10d79f2516bcp-42",
        "0x1.3ee8000000000p-40",
    ),
}


@pytest.mark.parametrize("name", ORACLE_PINS)
def test_validate_oracles_residuals_are_pinned(name):
    traj = _oracle_trajectories()[name]
    segments, flux, volterra = ORACLE_PINS[name]
    got = []
    for seg in rcert.auto_segments(traj):
        path = rcert.transform(traj, seg)
        shifted = replace(path, y=lambda t, path=path: path.y(t) + 0.1)
        oracles = (rcert.representation_residual, rcert.cauchy_residual)
        got.append(tuple(oracle(p).hex() for p in (path, shifted) for oracle in oracles))
    assert got == segments
    assert (rcert.flux_residual(traj).hex(), rcert.volterra_residual(traj).hex()) == (flux, volterra)


def _constants(p, q, r, closed):
    """The equation with constant p0, q0 and r0, as closed forms or as opaque callables."""
    if closed:
        doc = {"kind": "custom", "t0": 0.0}
        doc.update((k, {"kind": "constant", "value": v}) for k, v in (("p0", p), ("q0", q), ("r0", r)))
        return rcert.equation_from_json(doc)
    return rcert.EquationSpec(*(rcert.ScalarField(lambda t, w, v=v: v) for v in (p, q, r)), t0=0.0)


@pytest.mark.parametrize("closed", [False, True], ids=["opaque", "closed_form"])
def test_harmonic_oracle_residuals_are_pinned(closed):
    # The pairs of tests/test_riccati.py::TestDifferenceResidual, both j, and
    # the harmonic path of TestRepresentationResidual with its ratio replaced.
    harmonic, damped = _constants(1.0, 0.0, 1.0, closed), _constants(1.0, 1.0, 1.0, closed)

    def path(eq, phi1, horizon, seg):
        return rcert.transform(rcert.integrate(eq, rcert.InitialData(0.0, 1.0, phi1), rcert.IntegrationOptions(horizon=horizon)), seg)

    seg = (0.0, math.pi / 8)
    quarter = path(harmonic, 0.0, 2.0, (0.0, math.pi / 4))
    pairs = [(quarter, quarter), (path(harmonic, 0.0, 1.0, seg), path(harmonic, -0.5, 1.0, seg)), (path(harmonic, 0.0, 1.0, seg), path(damped, 0.0, 1.0, seg))]
    assert [rcert.difference_residual(a, b, j).hex() for a, b in pairs for j in (0, 1)] == [
        "0x0.0p+0",
        "0x0.0p+0",
        "0x1.a898000000000p-38",
        "0x1.a898000000000p-38",
        "0x1.9235000000000p-40",
        "0x1.c267000000000p-40",
    ]
    shifted = replace(quarter, y=lambda t: quarter.y(t) + 0.1)
    assert [oracle(p).hex() for p in (quarter, shifted) for oracle in (rcert.representation_residual, rcert.cauchy_residual)] == [
        "0x1.2d60000000000p-42",
        "0x1.793fffffff099p-42",
        "0x1.d94b4e471e2e0p-5",
        "0x1.231f6f898a188p-4",
    ]
