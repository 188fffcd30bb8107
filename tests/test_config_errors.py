"""Malformed configs: each one exits 1 with one ``config error:`` line and writes nothing.

Every case starts from a valid base config, applies its edits (a dotted path
mapped to a new value, or to ``DROP`` to delete the key) and runs the CLI.
The stderr line is pinned exactly, so a refactor of the schema code cannot
move a path or reword a message unnoticed.
"""

import copy
import json

import pytest

from rcert.cli import main

DROP = object()

EF = {
    "version": 1,
    "equation": {"kind": "emden_fowler", "rho": 4.0, "sigma": 0.0, "n": 3.0, "variant": "absolute", "t0": 1.0},
    "initial": {"t1": 1.0, "phi0": 0.5, "phi1": 0.0},
    "region": {"t": [1.0, 50.0]},
    "grid": {"nt": 9, "nw": 9},
}

VDP = {
    "version": 1,
    "equation": {
        "kind": "van_der_pol",
        "lambda": {"kind": "constant", "value": 1.0},
        "mu": {"kind": "constant", "value": 1.0},
        "nu": {"kind": "constant", "value": 1.0},
        "t0": 0.0,
    },
    "grid": {"nt": 9, "nw": 9},
    "options": {"horizon": 10.0, "n_random_ics": 1},
}

CUSTOM = {
    "version": 1,
    "equation": {
        "kind": "custom",
        "t0": 0.0,
        "p0": {"kind": "constant", "value": 1.0, "tags": ["positive"]},
        "q0": {"kind": "polynomial", "terms": [{"c": 1.0, "t": 1.0}]},
        "r0": {"kind": "power", "coeff": 1.0, "w_power": 2.0},
    },
    "initial": {"t1": 0.0, "phi0": 1.0, "phi1": 0.0},
    "bounds": {"P": {"kind": "constant", "value": 1.0}, "Q": {"kind": "polynomial", "coeffs": [0.0, 1.0]}},
    "sweep": {"phi": [-1.0, 1.0], "dphi": [-1.0, 1.0], "resolution": [2, 2]},
    "options": {"horizon": 5.0},
}


def edited(base: dict, edits: dict) -> dict:
    doc = copy.deepcopy(base)
    for path, value in edits.items():
        *parents, key = path.split(".")
        node = doc
        for p in parents:
            node = node[p]
        if value is DROP:
            del node[key]
        else:
            node[key] = value
    return doc


# (id, command, base, edits, the stderr line after "config error: config.")
CASES = [
    ("top_unknown", ["classify"], EF, {"bogus": 1}, "bogus: unknown key"),
    ("options_unknown", ["classify"], EF, {"options": {"horizon": 5.0, "hoizon": 5.0}}, "options.hoizon: unknown key"),
    ("grid_unknown", ["classify"], EF, {"grid.nx": 3}, "grid.nx: unknown key"),
    ("initial_unknown", ["classify"], EF, {"initial.phi2": 0.0}, "initial.phi2: unknown key"),
    ("initial_missing_phi1", ["classify"], EF, {"initial.phi1": DROP}, "initial.phi1: missing required key"),
    ("initial_phi0_string", ["classify"], EF, {"initial.phi0": "1"}, "initial.phi0: expected a number, got '1'"),
    ("version_2", ["classify"], EF, {"version": 2}, "version: expected 1, got 2"),
    ("version_missing", ["classify"], EF, {"version": DROP}, "version: expected 1, got None"),
    ("equation_missing", ["classify"], EF, {"equation": DROP}, "equation: missing required key"),
    ("equation_kind_missing", ["classify"], EF, {"equation.kind": DROP}, "equation.kind: missing required key"),
    (
        "equation_kind_unknown",
        ["classify"],
        EF,
        {"equation.kind": "mystery"},
        "equation.kind: unknown equation kind 'mystery' (expected one of ('custom', 'emden_fowler', 'van_der_pol'))",
    ),
    ("ef_unknown", ["classify"], EF, {"equation.extra": 1}, "equation.extra: unknown key"),
    ("ef_missing_n", ["classify"], EF, {"equation.n": DROP}, "equation.n: missing required key"),
    ("ef_rho_string", ["classify"], EF, {"equation.rho": "4"}, "equation.rho: expected a number, got '4'"),
    ("ef_variant", ["classify"], EF, {"equation.variant": "both"}, "equation.variant: expected 'absolute' or 'signed', got 'both'"),
    ("vdp_missing_mu", ["vdp"], VDP, {"equation.mu": DROP}, "equation.mu: missing required key"),
    ("vdp_time_kind", ["vdp"], VDP, {"equation.lambda.kind": "exp"}, "equation.lambda.kind: unknown time-function kind 'exp'"),
    ("vdp_time_unknown", ["vdp"], VDP, {"equation.nu.power": 1.0}, "equation.nu.power: unknown key"),
    ("custom_missing_r0", ["classify"], CUSTOM, {"equation.r0": DROP}, "equation.r0: missing required key"),
    ("custom_missing_t0", ["classify"], CUSTOM, {"equation.t0": DROP}, "equation.t0: missing required key"),
    ("field_kind", ["classify"], CUSTOM, {"equation.q0.kind": "spline"}, "equation.q0.kind: unknown field kind 'spline'"),
    ("field_kind_missing", ["classify"], CUSTOM, {"equation.q0.kind": DROP}, "equation.q0.kind: missing required key"),
    ("field_tag", ["classify"], CUSTOM, {"equation.p0.tags": ["even"]}, "equation.p0.tags: unknown tag 'even'"),
    ("field_tags_not_list", ["classify"], CUSTOM, {"equation.p0.tags": "positive"}, "equation.p0.tags: expected a list of strings"),
    ("field_w_abs", ["classify"], CUSTOM, {"equation.r0.w_abs": 1}, "equation.r0.w_abs: expected a boolean"),
    ("field_constant_extra", ["classify"], CUSTOM, {"equation.p0.coeff": 1.0}, "equation.p0.coeff: unknown key"),
    ("field_not_object", ["classify"], CUSTOM, {"equation.q0": 1.0}, "equation.q0: expected an object, got float"),
    ("terms_not_list", ["classify"], CUSTOM, {"equation.q0.terms": {"c": 1.0}}, "equation.q0.terms: expected a list of term objects"),
    ("term_unknown", ["classify"], CUSTOM, {"equation.q0.terms": [{"c": 1.0}, {"c": 1.0, "x": 2}]}, "equation.q0.terms[1].x: unknown key"),
    ("term_missing_c", ["classify"], CUSTOM, {"equation.q0.terms": [{"t": 1.0}]}, "equation.q0.terms[0].c: missing required key"),
    ("coeffs", ["classify"], CUSTOM, {"bounds.Q.coeffs": [0.0, "1"]}, "bounds.Q.coeffs: expected a list of numbers"),
    ("bounds_without_q", ["certify", "t3_1"], CUSTOM, {"bounds.Q": DROP}, "bounds: P and Q are required"),
    ("bounds_unknown", ["certify", "t3_1"], CUSTOM, {"bounds.S": {"kind": "constant", "value": 0.0}}, "bounds.S: unknown key"),
    ("bounds_time_kind", ["certify", "t3_1"], CUSTOM, {"bounds.P.kind": "step"}, "bounds.P.kind: unknown time-function kind 'step'"),
    ("qtilde_missing", ["certify", "t3_2"], EF, {}, "qtilde: required by certify t3_2"),
    ("option_not_number", ["classify"], EF, {"options": {"horizon": "50"}}, "options.horizon: expected a number, got '50'"),
    ("option_bool", ["classify"], EF, {"options": {"rel_tol": True}}, "options.rel_tol: expected a number, got True"),
    ("option_not_integer", ["classify"], EF, {"options": {"max_zeros": 10.5}}, "options.max_zeros: expected an integer, got 10.5"),
    ("option_seed_float", ["vdp"], VDP, {"options.seed": 1.0}, "options.seed: expected an integer, got 1.0"),
    ("options_not_object", ["classify"], EF, {"options": [1]}, "options: expected an object, got list"),
    ("ic_box_shape", ["vdp"], VDP, {"options.ic_box": [[-1.0, 1.0]]}, "options.ic_box: expected [[lo, hi], [lo, hi]]"),
    ("ic_box_pair", ["vdp"], VDP, {"options.ic_box": [[-1.0, 1.0], [0.0]]}, "options.ic_box[1]: expected a pair of numbers, got [0.0]"),
    ("grid_nt_float", ["classify"], EF, {"grid.nt": 9.0}, "grid.nt: expected an integer, got 9.0"),
    ("sweep_missing", ["sweep"], EF, {}, "sweep: required by command 'sweep'"),
    ("sweep_missing_dphi", ["sweep"], CUSTOM, {"sweep.dphi": DROP}, "sweep.dphi: missing required key"),
    ("sweep_resolution", ["sweep"], CUSTOM, {"sweep.resolution": [2, 2.5]}, "sweep.resolution: expected a pair of integers"),
    ("sweep_phi_pair", ["sweep"], CUSTOM, {"sweep.phi": [0.0, 1.0, 2.0]}, "sweep.phi: expected a pair of numbers, got [0.0, 1.0, 2.0]"),
    ("region_missing_t", ["certify", "t3_1"], EF, {"region": {"w": [-1.0, 1.0]}}, "region.t: missing required key"),
    ("region_reversed", ["certify", "t3_1"], EF, {"region.t": [50.0, 1.0]}, "region.t: expected lower <= upper, got [50.0, 1.0]"),
    # The envelope scans start at initial.t1, so another region.t lower bound was silently ignored.
    (
        "region_t_lower_t3_1",
        ["certify", "t3_1"],
        EF,
        {"region.t": [5.0, 10.0]},
        "region.t: certify t3_1 scans its envelope from initial.t1 = 1.0, so the lower bound must equal it, got 5.0",
    ),
    (
        "region_t_lower_t3_2",
        ["certify", "t3_2"],
        EF,
        {"qtilde": {"kind": "constant", "value": 1.0}, "region.t": [0.5, 10.0]},
        "region.t: certify t3_2 scans its envelope from initial.t1 = 1.0, so the lower bound must equal it, got 0.5",
    ),
    (
        "region_t_lower_emden",
        ["emden"],
        EF,
        {"region.t": [5.0, 10.0]},
        "region.t: command 'emden' with rho > 1 scans its envelope from initial.t1 = 1.0, so the lower bound must equal it, got 5.0",
    ),
    # Without a region the scan runs from initial.t1 to the horizon, which must not come first.
    (
        "horizon_before_t1_t3_1",
        ["certify", "t3_1"],
        EF,
        {"region": DROP, "initial.t1": 60.0},
        "options.horizon: certify t3_1 scans its envelope from initial.t1 = 60.0, so the horizon must not lie before it, got 50.0",
    ),
    (
        "horizon_before_t1_emden",
        ["emden"],
        EF,
        {"region": DROP, "initial.t1": 60.0, "options": {"horizon": 20.0}},
        "options.horizon: command 'emden' with rho > 1 scans its envelope from initial.t1 = 60.0, so the horizon must not lie before it, got 20.0",
    ),
    ("initial_required", ["integrate"], EF, {"initial": DROP}, "initial: required by command 'integrate'"),
    ("initial_required_t3_3", ["certify", "t3_3"], EF, {"initial": DROP}, "initial: required by command 'certify' t3_3"),
    ("emden_kind", ["emden"], CUSTOM, {}, "equation.kind: command 'emden' needs an emden_fowler equation"),
    ("vdp_kind", ["vdp"], EF, {"region": DROP}, "equation.kind: command 'vdp' needs a van_der_pol equation"),
    ("t3_5_kind", ["certify", "t3_5"], EF, {"region": DROP}, "equation.kind: certify t3_5 needs a van_der_pol equation"),
    ("t4_2_kind", ["certify", "t4_2"], CUSTOM, {}, "equation.kind: certify t4_2 needs a van_der_pol equation"),
    (
        "t3_3_kind",
        ["certify", "t3_3"],
        VDP,
        {"initial": {"phi0": 1.0, "phi1": 0.0}},
        "equation.kind: certify t3_3 needs an emden_fowler equation (explicit-power majorant)",
    ),
    # Values that got past the schema: they crashed, ran to a report that could not be written,
    # met a different error later, or left an empty output directory behind.
    ("rel_tol_zero", ["classify"], EF, {"options": {"rel_tol": 0}}, "options.rel_tol: expected a positive number, got 0"),
    ("abs_tol_negative", ["classify"], EF, {"options": {"abs_tol": -1e-12}}, "options.abs_tol: expected a positive number, got -1e-12"),
    ("grid_nt_one", ["certify", "t3_1"], EF, {"grid.nt": 1}, "grid.nt: expected an integer >= 2, got 1"),
    ("sweep_resolution_one", ["sweep"], CUSTOM, {"sweep.resolution": [1, 2]}, "sweep.resolution: expected integers >= 2, got [1, 2]"),
    ("seed_negative", ["vdp"], VDP, {"options.seed": -1}, "options.seed: expected an integer >= 0, got -1"),
    ("phi0_nan", ["classify"], EF, {"initial.phi0": float("nan")}, "initial.phi0: expected a finite number, got nan"),
    ("sweep_phi_nan", ["sweep"], CUSTOM, {"sweep.phi": [0.0, float("nan")]}, "sweep.phi: expected a finite number, got nan"),
    ("t0_infinite", ["classify"], CUSTOM, {"equation.t0": float("inf")}, "equation.t0: expected a finite number, got inf"),
    ("horizon_nan", ["integrate"], EF, {"options": {"horizon": float("nan")}}, "options.horizon: expected a finite number, got nan"),
    (
        "escape_threshold_infinite",
        ["classify"],
        EF,
        {"options": {"escape_threshold": float("inf")}},
        "options.escape_threshold: expected a finite number, got inf",
    ),
    ("coeff_nan", ["certify", "t3_1"], CUSTOM, {"bounds.Q.coeffs": [0.0, float("nan")]}, "bounds.Q.coeffs[1]: expected a finite number, got nan"),
    ("ic_box_reversed", ["vdp"], VDP, {"options.ic_box": [[1.0, -1.0], [0.0, 0.0]]}, "options.ic_box[0]: expected lower <= upper, got [1.0, -1.0]"),
    ("horizon_huge_integer", ["classify"], EF, {"options": {"horizon": 10**400}}, f"options.horizon: expected a finite number, got {10**400}"),
    ("custom_without_bounds", ["certify", "t3_4"], CUSTOM, {"bounds": DROP}, "bounds: required for custom equations"),
    # Options without a range: each was accepted, and some gave a Verified certificate that checked nothing.
    ("epsilon_negative", ["certify", "t3_1"], EF, {"options": {"epsilon": -1.0}}, "options.epsilon: expected a nonnegative number, got -1.0"),
    ("escape_threshold_zero", ["classify"], EF, {"options": {"escape_threshold": 0}}, "options.escape_threshold: expected a positive number, got 0"),
    ("min_step_negative", ["classify"], EF, {"options": {"min_step": -1e-12}}, "options.min_step: expected a positive number, got -1e-12"),
    ("zero_tol_negative", ["classify"], EF, {"options": {"zero_tol": -1e-9}}, "options.zero_tol: expected a nonnegative number, got -1e-09"),
    ("max_zeros_zero", ["classify"], EF, {"options": {"max_zeros": 0}}, "options.max_zeros: expected an integer >= 1, got 0"),
    ("quad_abs_tol_negative", ["certify", "t3_1"], EF, {"options": {"quad_abs_tol": -1.0}}, "options.quad_abs_tol: expected a positive number, got -1.0"),
    ("quad_rel_tol_zero", ["certify", "t3_1"], EF, {"options": {"quad_rel_tol": 0.0}}, "options.quad_rel_tol: expected a positive number, got 0.0"),
    (
        "osc_min_zeros_zero",
        ["certify", "t3_5"],
        VDP,
        {"options": {"osc_min_zeros": 0, "osc_horizon": 0.5}},
        "options.osc_min_zeros: expected an integer >= 1, got 0",
    ),
]


def run_case(tmp_path, capsys, command, doc, extra=()):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main([*command, "--config", str(path), "--out", str(out), *extra])
    captured = capsys.readouterr()
    return code, captured, out


@pytest.mark.parametrize("command, base, edits, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_config_error(tmp_path, capsys, command, base, edits, message):
    code, captured, out = run_case(tmp_path, capsys, command, edited(base, edits))
    assert code == 1
    assert captured.err == f"config error: config.{message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--tol", "nan"], "options.rel_tol: expected a finite number, got nan"),
        (["--tol", "0"], "options.rel_tol: expected a positive number, got 0.0"),
        (["--horizon", "nan"], "options.horizon: expected a finite number, got nan"),
    ],
)
def test_flags_are_validated_as_options(tmp_path, capsys, flags, message):
    code, captured, out = run_case(tmp_path, capsys, ["classify"], EF, flags)
    assert code == 1
    assert captured.err == f"config error: config.{message}\n"
    assert not out.exists()


def test_flags_are_echoed_in_the_report(tmp_path, capsys):
    code, _, out = run_case(tmp_path, capsys, ["integrate"], edited(EF, {"options": {"horizon": 50.0}}), ["--horizon", "6.0", "--tol", "1e-8"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["options"] == {"horizon": 6.0, "rel_tol": 1e-8}
    assert report["terminal"]["time"] == 6.0


def test_every_base_config_is_valid(tmp_path, capsys):
    for command, base in ((["classify"], EF), (["sweep"], CUSTOM), (["certify", "t3_6"], VDP)):
        code, _, out = run_case(tmp_path, capsys, command, edited(base, {"region": {"t": [0.0, 2.0], "w": [-1.0, 1.0]}}))
        assert code in (0, 2)
        assert (out / "report.json").exists()
