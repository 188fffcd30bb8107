"""Bit-exact pins of the DP5 stepper.

The stepper evaluates every stage sum, error norm and dense coefficient in a
fixed left-to-right order, so its floats are compared exactly (``float.hex``).
A change to the stepper's arithmetic that moves any of them has to say why.
"""

import pytest

from rcert import (
    FINITE_ESCAPE,
    REACHED_HORIZON,
    BoundTriple,
    DomainError,
    InitialData,
    IntegrationOptions,
    comparison_riccati_exists,
    integrate,
)
from conftest import make_eq


def node(traj, i):
    return (float(traj.ts[i]).hex(), float(traj.phis[i]).hex(), float(traj.psis[i]).hex())


def dense(traj, t):
    return (traj.phi_at(t).hex(), traj.psi_at(t).hex(), *(v.hex() for v in traj.state_at(t)))


def test_harmonic_run(harmonic_traj):
    traj = harmonic_traj
    n = len(traj.ts)
    assert n == 916
    assert traj.terminal.kind == REACHED_HORIZON
    assert traj.terminal.time.hex() == "0x1.4000000000000p+3"
    assert [z.hex() for z in traj.zeros] == ["0x1.921fb54201b94p+0", "0x1.2d97c7f31dea8p+2", "0x1.f6a7a294579e2p+2"]
    assert node(traj, 0) == ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0")
    assert node(traj, n // 2) == ("0x1.3b96e03e4fc91p+2", "0x1.bc533ef7c900bp-3", "0x1.f3ce0e7118f85p-1")
    assert node(traj, n - 1) == ("0x1.4000000000000p+3", "-0x1.ad9ac890c528cp-1", "0x1.1689ef5f34076p-1")
    # dense output between nodes
    assert traj.phi_at(5.0).hex() == "0x1.22785706b472fp-2"
    assert traj.psi_at(5.0).hex() == "0x1.eaf81f5e08b22p-1"
    assert [v.hex() for v in traj.state_at(7.25)] == ["0x1.22c6f50dc2e69p-1", "-0x1.a56adb62a19b6p-1"]
    # dense output at the start, at an interior node and at the end
    assert dense(traj, traj.t_start) == ("0x1.0000000000000p+0", "0x0.0p+0") * 2
    assert dense(traj, float(traj.ts[n // 2])) == ("0x1.bc533ef7c900bp-3", "0x1.f3ce0e7118f85p-1") * 2
    assert dense(traj, traj.t_end) == ("-0x1.ad9ac890c528cp-1", "0x1.1689ef5f34076p-1") * 2


def test_cube_blowup_run(cube_blowup_eq):
    traj = integrate(cube_blowup_eq, InitialData(0.0, 1.0, 1.0), IntegrationOptions(horizon=10.0))
    n = len(traj.ts)
    assert n == 27272
    assert traj.terminal.kind == FINITE_ESCAPE
    assert traj.terminal.reason == "local error saturated"
    assert traj.terminal.time.hex() == "0x1.4f9f8d0905a7ap+0"
    assert traj.terminal.bracket.hex() == "0x1.19799812dea11p-40"
    assert traj.zeros == []
    assert node(traj, 0) == ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0")
    assert node(traj, n // 2) == ("0x1.4f9f411704adap+0", "0x1.1436577cdbda3p+18", "0x1.a576e7da1555ep+35")
    assert node(traj, n - 1) == ("0x1.4f9f8d0905a7ap+0", "0x1.6cb8b8ffb02e5p+21", "0x1.6f6ca28f99316p+42")
    # at t_end the dense output is the last segment's end, which rounds differently from the node
    assert dense(traj, traj.t_start) == ("0x1.0000000000000p+0", "0x1.0000000000000p+0") * 2
    assert dense(traj, float(traj.ts[n // 2])) == ("0x1.1436577cdbda3p+18", "0x1.a576e7da1555ep+35") * 2
    assert dense(traj, traj.t_end) == ("0x1.6cb8b8ffcf63bp+21", "0x1.6f6ca28fd8128p+42") * 2


def test_one_node_run(harmonic_eq):
    # a horizon below the step floor stops at the start; the dense output there is the stored -0.0
    traj = integrate(harmonic_eq, InitialData(0.0, -0.0, 0.5), IntegrationOptions(horizon=1e-13))
    assert len(traj.ts) == 1
    assert traj.terminal.kind == REACHED_HORIZON
    assert dense(traj, 0.0) == ("-0x0.0p+0", "0x1.0000000000000p-1") * 2
    with pytest.raises(DomainError):
        traj.phi_at(1e-14)


def test_scalar_comparison_escape_time():
    # y' = -y^2 - 1 from 0 is -tan(t), which escapes downward at pi/2
    b = BoundTriple(P=lambda t: 1.0, Q=lambda t: 0.0, R=lambda t: 1.0)
    result = comparison_riccati_exists(b, 0.0, (0.0, 3.0))
    assert not result.exists_on_span
    assert result.terminal_kind == FINITE_ESCAPE
    assert result.escape_time.hex() == "0x1.921fb3d0284a0p+0"
