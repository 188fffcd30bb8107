"""Bit-exact pins of trajectories whose three fields are all closed forms.

``tests/test_stepper_golden.py`` builds its equations from opaque callables,
so its runs never reach the rhs compiled from the products of the builtin
and JSON field kinds.  These runs do: the four cells of the
``sweep_mixed`` benchmark raster of phi'' + (1 - phi^2) phi = 0 (JSON
``constant`` and ``polynomial`` fields), a Van der Pol run, a power-law run,
and a fractional signed power law whose trajectory reaches w < 0, where the
field gives a complex sample and the rhs must raise as the wrapped fields do.
Each pin is the node count, the terminal (kind, reason, time), the last node
(t, phi, psi) and the zeros, all as ``float.hex``.
"""

from typing import NamedTuple

import pytest

from rcert import InitialData, IntegrationOptions, ScalarField, equation_from_json, integrate
from rcert.applications import EFParams, VdPParams, ef_equation, vdp_equation

SWEEP_EQ = {
    "kind": "custom",
    "t0": 0.0,
    "p0": {"kind": "constant", "value": 1.0, "tags": ["positive"]},
    "q0": {"kind": "constant", "value": 0.0},
    "r0": {"kind": "polynomial", "terms": [{"c": 1.0}, {"c": -1.0, "w": 2}]},
}


def unit(t):
    return 1.0


#: The equation, the initial data (t1, phi0, phi1) and the horizon of each run.
#: The sweep's upper row starts at -0.5 + (0.6 - -0.5), as its raster computes it.
RUNS = {
    "sweep_oscillating_lower": (lambda: equation_from_json(SWEEP_EQ), (0.0, -0.5, 0.2), 100.0),
    "sweep_escape_lower": (lambda: equation_from_json(SWEEP_EQ), (0.0, -0.5, 1.0), 100.0),
    "sweep_oscillating_upper": (lambda: equation_from_json(SWEEP_EQ), (0.0, -0.5 + (0.6 - -0.5), 0.2), 100.0),
    "sweep_escape_upper": (lambda: equation_from_json(SWEEP_EQ), (0.0, -0.5 + (0.6 - -0.5), 1.0), 100.0),
    "van_der_pol": (lambda: vdp_equation(VdPParams(lam=unit, mu=unit, nu=unit)), (0.0, 1.0, 0.5), 10.0),
    "power_law": (lambda: ef_equation(EFParams(rho=4.0, sigma=0.0, n=3.0)), (1.0, 0.5, 0.2), 20.0),
    "power_law_complex_fallback": (
        lambda: ef_equation(EFParams(rho=1.0, sigma=0.5, n=2.5, variant="signed")),
        (1.0, 0.5, -1.0),
        20.0,
    ),
}


class Pin(NamedTuple):
    nodes: int
    terminal: tuple[str, str, str]
    last: tuple[str, str, str]
    zeros: list[str]


PINS = {
    "sweep_oscillating_lower": Pin(
        10986,
        ("reached_horizon", "", "0x1.9000000000000p+6"),
        ("0x1.9000000000000p+6", "-0x1.1883d88a15b4ep-1", "0x1.ed7786c12454fp-5"),
        [
            "0x1.449bf49fe4b20p+0", "0x1.36903007e863dp+2", "0x1.0dfcb1761259dp+3", "0x1.80b14ae5861e6p+3",
            "0x1.f365e45743cd1p+3", "0x1.330d3ee3dcd4bp+4", "0x1.6c678b9c4d09ep+4", "0x1.a5c1d8547b56cp+4",
            "0x1.df1c250d3095cp+4", "0x1.0c3b38e2f8437p+5", "0x1.28e85f3eef218p+5", "0x1.4595859b2faaap+5",
            "0x1.6242abf7765aap+5", "0x1.7eefd253cc696p+5", "0x1.9b9cf8afbe246p+5", "0x1.b84a1f0bf123dp+5",
            "0x1.d4f745683384dp+5", "0x1.f1a46bc47c03fp+5", "0x1.0728c9105b6cbp+6", "0x1.157f5c3e848e6p+6",
            "0x1.23d5ef6c7d590p+6", "0x1.322c829a82a15p+6", "0x1.408315c8d3574p+6", "0x1.4ed9a8f6bd700p+6",
            "0x1.5d303c24fcfdcp+6", "0x1.6b86cf52e2857p+6", "0x1.79dd628121d00p+6", "0x1.8833f5af227c8p+6",
        ],
    ),
    "sweep_escape_lower": Pin(
        2157,
        ("finite_escape", "blow-up rate stable", "0x1.8a0855358aa73p+1"),
        ("0x1.8a0855358aa73p+1", "0x1.0a53ebf62a26bp+15", "0x1.87d6e2a2fa0e3p+29"),
        ["0x1.dfd00c2394257p-2"],
    ),
    "sweep_oscillating_upper": Pin(
        11556,
        ("reached_horizon", "", "0x1.9000000000000p+6"),
        ("0x1.9000000000000p+6", "0x1.4e221cee63f53p-1", "-0x1.7dd8a41f40c00p-17"),
        [
            "0x1.387ea5d538f69p+1", "0x1.9119af11facbap+2", "0x1.42fa059b1c666p+3", "0x1.bd6733ac7a346p+3",
            "0x1.1bea30dfb1abcp+4", "0x1.5920c7e9604b0p+4", "0x1.96575ef25034ap+4", "0x1.d38df5fb8d82ap+4",
            "0x1.08624682a69f2p+5", "0x1.26fd92070081fp+5", "0x1.4598dd8ba0696p+5", "0x1.643429103cc2dp+5",
            "0x1.82cf7494c4448p+5", "0x1.a16ac01996ae6p+5", "0x1.c0060b9e53f83p+5", "0x1.dea157229c89fp+5",
            "0x1.fd3ca2a769cb6p+5", "0x1.0debf715fce94p+6", "0x1.1d399cd8481fep+6", "0x1.2c87429ab33fdp+6",
            "0x1.3bd4e85cf21efp+6", "0x1.4b228e1f4894bp+6", "0x1.5a7033e18be0cp+6", "0x1.69bdd9a3d8128p+6",
            "0x1.790b7f6626327p+6", "0x1.885925289a212p+6",
        ],
    ),
    "sweep_escape_upper": Pin(
        1955,
        ("finite_escape", "blow-up rate stable", "0x1.fe03b516d5e8bp+0"),
        ("0x1.fe03b516d5e8bp+0", "0x1.0a3af91b11eaep+15", "0x1.878d7c8815d5bp+29"),
        [],
    ),
    "van_der_pol": Pin(
        1602,
        ("reached_horizon", "", "0x1.4000000000000p+3"),
        ("0x1.4000000000000p+3", "-0x1.e648282409aa3p+0", "0x1.df444efec2595p-2"),
        ["0x1.e0d9f89d01b97p+0", "0x1.47be127987af1p+2", "0x1.0e54f7dde711dp+3"],
    ),
    "power_law": Pin(
        172,
        ("reached_horizon", "", "0x1.4000000000000p+4"),
        ("0x1.4000000000000p+4", "0x1.301ce16784188p-1", "0x1.0623007aa8f81p+2"),
        [],
    ),
    "power_law_complex_fallback": Pin(
        74,
        ("step_collapse", "non-finite evaluation", "0x1.ab16c096bd406p+0"),
        ("0x1.ab16c096bd406p+0", "0x1.0c792c329acf8p-42", "-0x1.f04e323cef88ep-1"),
        [],
    ),
}


def pin(traj) -> Pin:
    return Pin(
        len(traj.ts),
        (traj.terminal.kind, traj.terminal.reason, traj.terminal.time.hex()),
        (float(traj.ts[-1]).hex(), float(traj.phis[-1]).hex(), float(traj.psis[-1]).hex()),
        [z.hex() for z in traj.zeros],
    )


@pytest.mark.parametrize("name", sorted(RUNS))
def test_row_path_run(name):
    build, ic, horizon = RUNS[name]
    eq = build()
    assert all(f.products is not None for f in (eq.p0, eq.q0, eq.r0))
    assert pin(integrate(eq, InitialData(*ic), IntegrationOptions(horizon=horizon))) == PINS[name]


@pytest.mark.parametrize("name", sorted(set(RUNS) - {"power_law_complex_fallback"}))
def test_compiled_rhs_never_reaches_the_wrapped_fields(name, monkeypatch):
    # The one ScalarField.__call__ is integrate's start momentum psi(t1) = p0(t1, phi0) * phi1;
    # the compiled rhs takes every stage, so the fallback through the wrapped fields never runs.
    build, ic, horizon = RUNS[name]
    eq = build()
    calls, call = [], ScalarField.__call__

    def start_momentum_only(fld, t, w):
        calls.append((fld, t, w))
        if calls != [(eq.p0, ic[0], ic[1])]:
            raise AssertionError(f"ScalarField.__call__ reached: {fld.name} at ({t!r}, {w!r})")
        return call(fld, t, w)

    monkeypatch.setattr(ScalarField, "__call__", start_momentum_only)
    assert pin(integrate(eq, InitialData(*ic), IntegrationOptions(horizon=horizon))) == PINS[name]
    assert len(calls) == 1
