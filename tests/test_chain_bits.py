"""Chain values are the same bits on every interpreter.

A node integral of a chain level is one left-to-right sum of the node
integration matrix's products, written here as ``acc += s * f``.  Python
3.12 made ``sum()`` of floats compensated, so a node integral taken with
``sum()`` rounds differently there.  This module needs only the standard
library and pytest, so it runs on every interpreter rcert supports.
"""

import math
import random

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


def test_van_der_pol_residuals_are_pinned():
    # The validate_oracles start at seed 7: lambda = mu = nu = 1 from t0 = 0, horizon 10.
    rng = random.Random(7)
    phi0 = 1.0 + rng.uniform(-0.02, 0.02)
    phi1 = 0.5 + rng.uniform(-0.02, 0.02)
    one = rcert.time_function_from_json({"kind": "constant", "value": 1.0}, "test")
    eq = rcert.vdp_equation(rcert.VdPParams(lam=one, mu=one, nu=one), t0=0.0)
    traj = rcert.integrate(eq, rcert.InitialData(0.0, phi0, phi1), rcert.IntegrationOptions(horizon=10.0))
    assert rcert.volterra_residual(traj).hex() == "0x1.9ae76f2e968aep-42"
    assert rcert.flux_residual(traj).hex() == "0x1.c8edde76ca1fcp-43"
