"""Bit-exact pins of the chain's GK15 panel, its walk and the memo.

The panel sums its nodes in a fixed order, a walk takes its panels from one
end of the gap to the other and a chain inserts knots in the order it is
queried, so every value below is compared exactly (``float.hex``).
``adaptive_quad`` is one memo-free walk of the same panels.  A change to the
quadrature arithmetic, to the node call order or to the knots a functional
queries that moves any of them has to say why.
"""

import math
import struct

import pytest

import rcert
from rcert import BoundTriple, CumulativeIntegral, FBound, GBound, adaptive_quad, i_minus, i_plus
from rcert.quadrature import weighted_chain, weighted_tail_integrand


def bumpy(x):
    # Rejected on the first panel over [-1, 1]: a narrow peak at 0.3.
    return 1.0 / (1e-3 + (x - 0.3) ** 2)


class _SecondPanel(Exception):
    pass


def _first_panel(f, a, b, tol):
    """The one-level walk of f over [a, b] from 0 with tolerance ``tol``, or None where it rejects its first panel."""
    calls = 0

    def sample(x):
        nonlocal calls
        calls += 1
        if calls > 15:
            raise _SecondPanel
        return f(x)

    try:
        return adaptive_quad(sample, a, b, tol, 0.0)
    except _SecondPanel:
        return None


def panel(f, a, b):
    """(value, error) of one GK15 panel over [a, b], as the walk computes it.

    With no relative tolerance the walk accepts its first panel exactly when
    the panel's error is at most the tolerance, so the error is the least
    float tolerance that is accepted: a bisection of the bit patterns.
    """
    lo, hi = 0, 0x7FF0000000000000  # 0.0 and inf as bit patterns: order-preserving on non-negative floats
    tol = lambda bits: struct.unpack("<d", struct.pack("<q", bits))[0]
    if _first_panel(f, a, b, 0.0) is not None:
        hi = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _first_panel(f, a, b, tol(mid)) is None:
            lo = mid
        else:
            hi = mid
    return [_first_panel(f, a, b, math.inf), tol(hi)]


def calls_in_order(a, b):
    seen = []

    def f(x):
        seen.append(x)
        return math.exp(x)

    adaptive_quad(f, a, b)
    return seen


def queries(memo, ts):
    return [memo(t) for t in ts]


def oracle_residuals(name):
    """The validate_oracles residuals of one unperturbed start: representation and Cauchy per segment, then flux and Volterra."""
    one = rcert.time_function_from_json({"kind": "constant", "value": 1.0}, "test")
    eq, start, horizon = {
        "van_der_pol": (rcert.vdp_equation(rcert.VdPParams(lam=one, mu=one, nu=one), t0=0.0), (0.0, 1.0, 0.5), 10.0),
        "power_law": (rcert.ef_equation(rcert.EFParams(rho=4.0, sigma=0.0, n=3.0), t0=1.0), (1.0, 0.5, 0.2), 20.0),
    }[name]
    traj = rcert.integrate(eq, rcert.InitialData(*start), rcert.IntegrationOptions(horizon=horizon))
    got = []
    for seg in rcert.auto_segments(traj):
        path = rcert.transform(traj, seg)
        got += [rcert.representation_residual(path), rcert.cauchy_residual(path)]
    return got + [rcert.flux_residual(traj), rcert.volterra_residual(traj)]


# (k, s, p) of the oracle chains: a sign-changing kernel, so e^K both grows and decays.
COEFFICIENTS = (math.cos, lambda t: 1.0 / (1.0 + t * t), lambda t: 2.0 + math.sin(3.0 * t))
# Forward and backward gaps, a repeated knot, and gaps from 1 to 3 and from 3 to 7 whose first panels are rejected.
CHAIN_TS = (0.5, 1.0, 1.0, 3.0, 2.0, -0.5, 7.0, 0.25)

# The certify_grid envelope (rho=4, sigma=0) and one with every level nonzero.
POWER_LAW = BoundTriple(P=lambda t: t ** 4, Q=lambda t: 0.0, R=lambda t: -1.0)
DECAYING = BoundTriple(P=lambda t: 1.0 + t * t, Q=lambda t: 0.5 / (1.0 + t), R=lambda t: -math.exp(-t))

CASES = {
    "panel": lambda: [*panel(math.exp, 0.0, 1.0), *panel(bumpy, -1.0, 1.0), *panel(math.cos, 2.0, -1.0), *panel(math.sqrt, 0.0, 1.0)],
    "no_seeds": lambda: [adaptive_quad(math.exp, 0.0, 1.0), adaptive_quad(math.cos, 0.25, 3.0, 1e-12, 1e-12)],
    "rejected_first_panel": lambda: [adaptive_quad(bumpy, -1.0, 1.0), adaptive_quad(math.sqrt, 0.0, 1.0)],
    "backward": lambda: [adaptive_quad(math.exp, 1.0, 0.0), adaptive_quad(bumpy, 1.0, -1.0), adaptive_quad(lambda x: -0.0, 1.0, 0.0)],
    "empty": lambda: [adaptive_quad(math.exp, 2.0, 2.0), adaptive_quad(lambda x: -0.0, 0.0, 1.0)],
    "node_order": lambda: calls_in_order(0.0, 1.0),
    "cumulative": lambda: queries(CumulativeIntegral(math.cos, 0.0), (0.5, 1.0, 1.0, 2.0, 0.25, 1.5, -0.5, 0.5)),
    "fbound": lambda: queries(FBound(POWER_LAW, 1.0, 0.5, 0.0), (1.0, 1.5, 2.0, 4.0, 3.0, 50.0))
    + queries(FBound(DECAYING, 1.0, -2.0, 0.75), (1.25, 2.0, 6.0)),
    "gbound": lambda: queries(GBound(BoundTriple(P=lambda t: 1.0 + t, Q=lambda t: 0.25), math.sin, 0.0, 1.5, -0.5), (0.5, 1.0, 3.0, 2.0)),
    "i_plus": lambda: [i_plus(lambda t: t * t, lambda t: 1.0 / t, 1.0, 4.0), i_plus(lambda t: 1.0, math.cos, 0.0, 10.0)],
    "i_minus": lambda: [i_minus(lambda t: 2.0, lambda t: t, 0.0, 5.0), i_minus(math.exp, math.cos, 0.0, 3.0)],
    "weighted_tail": lambda: [weighted_tail_integrand(lambda t: 1.0 + t, lambda t: 4.0, math.cos, 0.0)(30.0)],
    "weighted_chain": lambda: [v for ys in queries(weighted_chain(lambda t: tuple(c(t) for c in COEFFICIENTS[:2]), 0.0), CHAIN_TS) for v in ys],
    "weighted_chain_lead": lambda: [
        v for ys in queries(weighted_chain(lambda t: tuple(c(t) for c in COEFFICIENTS), 0.0, lead=True), CHAIN_TS) for v in ys
    ],
    "oracles_van_der_pol": lambda: oracle_residuals("van_der_pol"),
    "oracles_power_law": lambda: oracle_residuals("power_law"),
}

GOLDEN = {
    "panel": [
        "0x1.b7e151628aebbp+0",
        "0x1.b000000000000p-48",
        "0x1.62ba177e5986cp+5",
        "0x1.679ff1ece6f28p+2",
        "-0x1.c0325bced6083p+0",
        "0x1.bf60000000000p-41",
        "0x1.555718f03f4aep-1",
        "0x1.e88d336c67000p-13",
    ],
    "no_seeds": ["0x1.b7e151628aebbp+0", "-0x1.b356cce788023p-4"],
    "rejected_first_panel": ["0x1.8498c89b8e34bp+6", "0x1.5555555555543p-1"],
    "backward": [
        "-0x1.b7e151628aebbp+0",
        "-0x1.8498c89b8e34bp+6",
        "0x0.0p+0",
    ],
    "empty": ["0x0.0p+0", "0x0.0p+0"],
    "node_order": [
        "0x1.17fd8acbd9300p-8",
        "0x1.a0e871839dd20p-6",
        "0x1.14c1f6119130cp-4",
        "0x1.08ac0c838bc5cp-3",
        "0x1.a7d8bf6c40bbap-3",
        "0x1.3035107730150p-2",
        "0x1.959d35db47ce6p-2",
        "0x1.0000000000000p-1",
        "0x1.353165125c18dp-1",
        "0x1.67e577c467f58p-1",
        "0x1.9609d024efd12p-1",
        "0x1.bdd4fcdf1d0e9p-1",
        "0x1.dd67c13dcdd9ep-1",
        "0x1.f2f8bc73e3117p-1",
        "0x1.fdd004ea684dap-1",
    ],
    "cumulative": [
        "0x1.eaee8744b05d6p-2",
        "0x1.aed548f090cd7p-1",
        "0x1.aed548f090cd7p-1",
        "0x1.d18f6ead1b42dp-1",
        "0x1.faaeed4f3155bp-3",
        "0x1.feb7a9b2c6d70p-1",
        "-0x1.eaee8744b05d6p-2",
        "0x1.eaee8744b05d6p-2",
    ],
    "fbound": [
        "0x1.0000000000000p-1",
        "0x1.0b4ddfcb44b0bp-1",
        "0x1.163f580295698p-1",
        "0x1.26a7793f60161p-1",
        "0x1.21a380e6f27e5p-1",
        "0x1.2e5e5c125fdfdp-1",
        "0x1.16bac4d0cfad2p+1",
        "0x1.4a99b24139104p+1",
        "0x1.9fac5b03261e5p+1",
    ],
    "gbound": [
        "0x1.5be95963a044ap+0",
        "0x1.75d530e0fde0ap+0",
        "0x1.063bf2a894a5fp+1",
        "0x1.de006449369c0p+0",
    ],
    "i_plus": ["0x1.dffffffffffeep-2", "0x1.4f169c8522684p+3"],
    "i_minus": ["0x1.20005f35e6d52p+1", "-0x1.a5733303d8cc9p-5"],
    "weighted_tail": ["-0x1.711dd1f2e8eabp-11"],
    "weighted_chain": [
        "0x1.eaee8744b05d6p-2", "0x1.2f677ccae0e6bp-1", "0x1.aed548f090cd7p-1", "0x1.37fe32d98c486p+0",
        "0x1.aed548f090cd7p-1", "0x1.37fe32d98c486p+0", "0x1.210386db6d54cp-3", "0x1.2912da55444b8p+1",
        "0x1.d18f6ead1b42dp-1", "0x1.069248fe79a05p+1", "-0x1.eaee8744b05d6p-2", "-0x1.7a99a2fe60726p-2",
        "0x1.50608c26d09f7p-1", "0x1.38dbaadae9de2p+1", "0x1.faaeed4f3155bp-3", "0x1.1c713942ffc52p-2",
    ],
    "weighted_chain_lead": [
        "0x1.eaee8744b05d6p-2", "0x1.2f677ccae0e6bp-1", "0x1.3ed628bddad40p-3", "0x1.3194ae3d65e73p-5",
        "0x1.aed548f090cd7p-1", "0x1.37fe32d98c486p+0", "0x1.004c90c3c7d8cp-2", "0x1.f963f58c102ccp-4",
        "0x1.aed548f090cd7p-1", "0x1.37fe32d98c486p+0", "0x1.004c90c3c7d8cp-2", "0x1.f963f58c102ccp-4",
        "0x1.210386db6d548p-3", "0x1.2912da55444b8p+1", "0x1.891e095337f53p-1", "0x1.1f797b318eb74p+0",
        "0x1.d18f6ead1b42cp-1", "0x1.069248fe79a05p+1", "0x1.180ca729f0f22p-1", "0x1.433b0eb525482p-1",
        "-0x1.eaee8744b05d6p-2", "-0x1.7a99a2fe60729p-2", "-0x1.01d841b76b5d5p-1", "0x1.f3583f79e2c3fp-4",
        "0x1.50608c26d09f4p-1", "0x1.38dbaadae9de2p+1", "0x1.2fcdeb98a150bp+2", "0x1.547d1856e8b39p+3",
        "0x1.faaeed4f3155bp-3", "0x1.1c713942ffc52p-2", "0x1.85ab9696d054dp-4", "0x1.7c7aa1483a494p-7",
    ],
    "oracles_van_der_pol": [
        "0x1.00e66f49a2270p-43", "0x1.58e5230268be1p-41", "0x1.c7cf7cec0a4eap-43", "0x1.54104c4b1a977p-41",
        "0x1.3676faa0807f5p-41", "0x1.dd7ad575eae7bp-41", "0x1.a4bac0ec9088fp-43", "0x1.2725d4b97fa5bp-44",
        "0x1.d3613c8e5374fp-43", "0x1.027a1cbc2de0cp-41",
    ],
    "oracles_power_law": [
        "0x1.196c005619c91p-39", "0x1.549220d78b414p-41", "0x1.09a1e30c64799p-41", "0x1.4b88000000000p-40",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned(name):
    assert [float(v).hex() for v in CASES[name]()] == GOLDEN[name]
