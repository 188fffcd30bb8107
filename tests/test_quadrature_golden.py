"""Bit-exact pins of the chain's GK15 panel, its walk and the memo.

The panel sums its nodes in a fixed order, a walk takes its panels from one
end of the gap to the other and a chain inserts knots in the order it is
queried, so every value below is compared exactly (``float.hex``).
``adaptive_quad`` is one memo-free walk of the same panels.  A change to the
quadrature arithmetic, to the node call order or to the knots a functional
queries that moves any of them has to say why.
"""

import math

import pytest

from rcert import BoundTriple, CumulativeIntegral, FBound, GBound, adaptive_quad, i_minus, i_plus
from rcert.quadrature import weighted_tail_integrand


def bumpy(x):
    # Rejected on the first panel over [-1, 1]: a narrow peak at 0.3.
    return 1.0 / (1e-3 + (x - 0.3) ** 2)


def panel(f, a, b):
    """(value, error) of one GK15 panel over [a, b], as the chain computes it."""
    incs, errs = CumulativeIntegral(f, a)._panel(a, b, (0.0,), None)
    return [*incs, *errs]


def calls_in_order(a, b):
    seen = []

    def f(x):
        seen.append(x)
        return math.exp(x)

    adaptive_quad(f, a, b)
    return seen


def queries(memo, ts):
    return [memo(t) for t in ts]


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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned(name):
    assert [float(v).hex() for v in CASES[name]()] == GOLDEN[name]
