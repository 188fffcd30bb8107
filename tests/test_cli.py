import dataclasses
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rcert.cli
from rcert.cli import main
from rcert.config import load_config
from rcert.errors import ConfigError
from conftest import validate_certificate_dict

EF_CONFIG = {
    "version": 1,
    "equation": {"kind": "emden_fowler", "rho": 4.0, "sigma": 0.0, "n": 3.0, "variant": "absolute", "t0": 1.0},
    "initial": {"t1": 1.0, "phi0": 0.5, "phi1": 0.0},
    "region": {"t": [1.0, 50.0]},
    "grid": {"nt": 33, "nw": 33},
    "options": {"horizon": 50.0},
}

HARMONIC_CONFIG = {
    "version": 1,
    "equation": {
        "kind": "custom",
        "t0": 0.0,
        "p0": {"kind": "constant", "value": 1.0, "tags": ["positive"]},
        "q0": {"kind": "constant", "value": 0.0},
        "r0": {"kind": "constant", "value": 1.0},
    },
    "initial": {"t1": 0.0, "phi0": 1.0, "phi1": 0.0},
    "options": {"horizon": 50.0},
}

NEGATIVE_R_CONFIG = {
    "version": 1,
    "equation": {
        "kind": "custom",
        "t0": 0.0,
        "p0": {"kind": "constant", "value": 1.0},
        "q0": {"kind": "constant", "value": 0.0},
        "r0": {"kind": "constant", "value": -1.0},
    },
    "region": {"t": [0.0, 10.0], "w": [-2.0, 2.0]},
    "grid": {"nt": 9, "nw": 9},
}

VDP_CONFIG = {
    "version": 1,
    "equation": {
        "kind": "van_der_pol",
        "lambda": {"kind": "constant", "value": 1.0},
        "mu": {"kind": "constant", "value": 1.0},
        "nu": {"kind": "constant", "value": 1.0},
        "t0": 0.0,
    },
    "grid": {"nt": 17, "nw": 17},
    "options": {"horizon": 30.0, "osc_horizon": 50.0, "n_random_ics": 2, "seed": 0},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args):
    return main(args)


class TestCertifyCommand:
    def test_verified_monotone_bound_in_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EF_CONFIG)
        code = run_cli(["certify", "t3_1", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        cert = report["certificates"][0]
        assert cert["status"] == "Verified"
        assert abs(cert["uniform_bound"] - 0.82436) <= 1e-4
        validate_certificate_dict(cert)
        assert "T3_1: Verified" in capsys.readouterr().out

    def test_a_region_too_wide_to_grid_names_the_grid(self, tmp_path, capsys):
        # hi - lo of the w axis overflows; the axis was [nan, inf, inf, inf, 1e308] and the error blamed r0
        doc = json.loads(json.dumps(EF_CONFIG))
        doc["region"]["w"], doc["grid"] = [-1e308, 1e308], {"nt": 5, "nw": 5}
        code = run_cli(["certify", "t3_4", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: grid axis over [-1e+308, 1e+308] spans inf: the region is too wide to grid\n"

    @pytest.mark.parametrize("command", [["certify", "t3_1"], ["emden"]], ids=["certify", "emden"])
    def test_unverified_t3_1_has_no_closed_form_cap(self, tmp_path, capsys, command):
        # The band |w| <= F + eps misses w in [2, 3], so T3_1 is Inconclusive and the A/B cap bounds nothing.
        doc = json.loads(json.dumps(EF_CONFIG))
        doc["region"]["w"] = [2.0, 3.0]
        code = run_cli(command + ["--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")])
        assert code == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        cert = report["certificates"][0]
        assert (cert["theorem"], cert["status"]) == ("T3_1", "Inconclusive")
        assert cert["uniform_bound"] is None
        assert cert["details"]["closed_form_case"] == "A<1"
        assert "bound=" not in capsys.readouterr().out
        if command == ["emden"]:
            assert report["closed_form_bounds"]["case"] == "A<1"

    @pytest.mark.parametrize("command", [["certify", "t3_1"], ["emden"]], ids=["certify", "emden"])
    @pytest.mark.parametrize("phi0, phi1, status", [(0.5, 2000.0, "Verified"), (1e-300, 1e300, "Inconclusive")], ids=["overflow", "inf"])
    def test_a_cap_that_is_not_a_finite_float_is_null(self, tmp_path, capsys, command, phi0, phi1, status):
        # c2 = 4000 overflows exp in the A cap; c2 = inf makes it inf, which no report may hold
        doc = {**EF_CONFIG, "initial": {"t1": 1.0, "phi0": phi0, "phi1": phi1}, "region": {"t": [1.0, 1.001], "w": [-1.0, 1.0]}, "grid": {"nt": 9, "nw": 9}}
        code = run_cli(command + ["--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")])
        assert code == (0 if status == "Verified" else 2)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        cert = report["certificates"][0]
        assert (cert["theorem"], cert["status"], cert["uniform_bound"]) == ("T3_1", status, None)
        assert cert["details"]["closed_form_case"] == "neither"
        assert "bound=" not in capsys.readouterr().out
        if command == ["emden"]:
            assert report["closed_form_bounds"] == {"A": None, "B": None, "case": "neither"}

    def test_falsified_exits_2_with_witness(self, tmp_path):
        cfg = write_config(tmp_path, NEGATIVE_R_CONFIG)
        code = run_cli(["certify", "t3_6", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        cert = report["certificates"][0]
        assert cert["status"] == "Falsified"
        assert cert["witness"] is not None
        validate_certificate_dict(cert)

    def test_aggregate_vdp_certificate(self, tmp_path):
        cfg = write_config(tmp_path, VDP_CONFIG)
        code = run_cli(["certify", "t4_2", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        cert = report["certificates"][0]
        assert cert["theorem"] == "T4_2"
        assert [p["status"] for p in cert["parts"]] == ["Verified", "Verified"]
        validate_certificate_dict(cert)

    def test_aggregate_with_an_inconclusive_part_is_inconclusive(self, tmp_path):
        # On w in [2, 8] T3_6 holds, but T3_5's unit band |w| <= 1 holds no grid point.
        doc = with_keys(
            VDP_CONFIG,
            region={"t": [0.0, 20.0], "w": [2.0, 8.0]},
            options={"eps0": 1.0, "osc_horizon": 50.0, "osc_min_zeros": 5},
        )
        code = run_cli(["certify", "t4_2", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")])
        assert code == 2
        (cert,) = json.loads((tmp_path / "out" / "report.json").read_text())["certificates"]
        assert (cert["status"], cert["reason"], cert["conclusion"]) == ("Inconclusive", "a component certificate is inconclusive", None)
        assert [p["status"] for p in cert["parts"]] == ["Verified", "Inconclusive"]
        assert "coverage" not in cert["region"]
        assert cert["details"] == {"existence_status": "Verified", "oscillation_status": "Inconclusive"}
        validate_certificate_dict(cert)

    @pytest.mark.parametrize("phi1, nonvanishing", [(0.2, True), (0.0, None)])
    def test_verified_t3_1_records_a_nonvanishing_derivative(self, tmp_path, phi1, nonvanishing):
        doc = with_keys(
            EF_CONFIG,
            initial={"t1": 1.0, "phi0": 0.5, "phi1": phi1},
            region={"t": [1.0, 30.0]},
            grid={"nt": 65, "nw": 65},
        )
        code = run_cli(["certify", "t3_1", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")])
        assert code == 0
        (cert,) = json.loads((tmp_path / "out" / "report.json").read_text())["certificates"]
        assert (cert["status"], cert["region"]["coverage"]) == ("Verified", "rows")
        assert cert["details"].get("derivative_nonvanishing") is nonvanishing
        assert cert["details"]["c2"] == (0.4 if phi1 else 0.0)
        validate_certificate_dict(cert)


    def test_t4_2_builds_the_equation_once(self, tmp_path, monkeypatch):
        # the config builds the Van der Pol equation; certify t4_2 must not build it again
        cfg = load_config(write_config(tmp_path, VDP_CONFIG), "certify", "t4_2")

        def second_build(*args, **kwargs):
            raise AssertionError("vdp_equation called after the config was loaded")

        monkeypatch.setattr("rcert.applications.vdp_equation", second_build)
        code, report = rcert.cli.run(cfg, tmp_path / "out", echo=lambda line: None)
        assert code == 0
        assert report["certificates"][0]["status"] == "Verified"


class TestClassifyAndIntegrate:
    def test_classify_harmonic(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HARMONIC_CONFIG)
        code = run_cli(["classify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["classification"]["kind"] == "Oscillatory"
        assert "Oscillatory" in capsys.readouterr().out

    def test_integrate_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, HARMONIC_CONFIG)
        out = tmp_path / "out"
        code = run_cli(["integrate", "--config", cfg, "--out", str(out)])
        assert code == 0
        assert (out / "trajectory.csv").exists()
        meta = json.loads((out / "trajectory.meta.json").read_text())
        assert meta["terminal"]["kind"] == "reached_horizon"
        report = json.loads((out / "report.json").read_text())
        assert report["artifacts"]["trajectory_csv"] == "trajectory.csv"

    def test_horizon_override(self, tmp_path):
        cfg = write_config(tmp_path, HARMONIC_CONFIG)
        out = tmp_path / "out"
        code = run_cli(["integrate", "--config", cfg, "--out", str(out), "--horizon", "6.0"])
        assert code == 0
        meta = json.loads((out / "trajectory.meta.json").read_text())
        assert meta["terminal"]["time"] == 6.0
        assert len(meta["zeros"]) == 2

    @pytest.mark.parametrize("t0", [1.0, 2.0])
    def test_default_region_ends_where_integrate_does(self, tmp_path, t0):
        # options.horizon is the absolute end time: the envelope scan without a
        # region and the trajectory both end there, whatever t0 is.
        doc = json.loads(json.dumps(EF_CONFIG))
        del doc["region"]
        doc["equation"]["t0"] = doc["initial"]["t1"] = t0
        cfg = write_config(tmp_path, doc)
        assert run_cli(["certify", "t3_1", "--config", cfg, "--out", str(tmp_path / "cert")]) == 0
        (cert,) = json.loads((tmp_path / "cert" / "report.json").read_text())["certificates"]
        assert cert["region"]["t"] == [t0, 50.0]
        assert run_cli(["integrate", "--config", cfg, "--out", str(tmp_path / "traj")]) == 0
        assert json.loads((tmp_path / "traj" / "report.json").read_text())["terminal"]["time"] == 50.0


class TestSweepCommand:
    def test_raster_artifact(self, tmp_path):
        doc = dict(HARMONIC_CONFIG)
        doc = json.loads(json.dumps(doc))
        del doc["initial"]
        doc["sweep"] = {"phi": [0.5, 1.5], "dphi": [0.0, 1.0], "resolution": [2, 2]}
        doc["options"] = {"horizon": 30.0}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code = run_cli(["sweep", "--config", cfg, "--out", str(out)])
        assert code == 0
        lines = (out / "raster.csv").read_text().strip().splitlines()
        assert len(lines) == 5
        report = json.loads((out / "report.json").read_text())
        assert report["raster"]["cells"] == 4
        assert report["raster"]["kinds"] == {"Oscillatory": 4}


class TestCaseStudyCommands:
    def test_emden_runner(self, tmp_path):
        doc = json.loads(json.dumps(EF_CONFIG))
        doc["grid"] = {"nt": 17, "nw": 17}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code = run_cli(["emden", "--config", cfg, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["closed_form_bounds"]["case"] == "A<1"
        assert report["normal_form"]["sigma1"] == pytest.approx((0.0 + 4.0) / 3.0 - 6.0)
        assert report["classification"]["kind"] == "GlobalMonotoneNonvanishing"
        assert (out / "trajectory.csv").exists()

    def test_emden_passes_quadrature_tolerances(self, tmp_path, monkeypatch):
        seen = []
        original = rcert.cli.check_t3_1

        def spy(*args, **kwargs):
            seen.append((kwargs.get("quad_abs_tol"), kwargs.get("quad_rel_tol")))
            return original(*args, **kwargs)

        monkeypatch.setattr(rcert.cli, "check_t3_1", spy)
        doc = json.loads(json.dumps(EF_CONFIG))
        doc["grid"] = {"nt": 9, "nw": 9}
        doc["options"] = {"horizon": 50.0, "quad_abs_tol": 1e-11, "quad_rel_tol": 1e-9}
        cfg = write_config(tmp_path, doc)
        run_cli(["emden", "--config", cfg, "--out", str(tmp_path / "out")])
        assert seen == [(1e-11, 1e-9)]

    def test_emden_stability_block(self, tmp_path):
        doc = json.loads(json.dumps(EF_CONFIG))
        doc["equation"].update({"rho": 2.0, "sigma": -2.0})
        doc["initial"] = {"t1": 1.0, "phi0": 0.05, "phi1": 0.0}
        doc["grid"] = {"nt": 17, "nw": 17}
        doc["options"] = {"horizon": 30.0, "n_stability_ics": 3}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code = run_cli(["emden", "--config", cfg, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        block = report["conditional_stability"]
        assert block["delta"] == pytest.approx(math.exp(-1.0) / 4.0)
        assert all(o["within_eps"] for o in block["outcomes"])

    def test_stability_trajectories_end_at_the_horizon(self, tmp_path, monkeypatch):
        # options.horizon is the absolute end time: from t0 = 1 with horizon 30 the runs end at 30, not 31.
        ends = []
        original = rcert.applications.integrate

        def spy(*args, **kwargs):
            traj = original(*args, **kwargs)
            ends.append(traj.t_end)
            return traj

        monkeypatch.setattr(rcert.applications, "integrate", spy)
        doc = json.loads(json.dumps(EF_CONFIG))
        doc["equation"].update({"rho": 2.0, "sigma": -2.0})
        doc["initial"] = {"t1": 1.0, "phi0": 0.05, "phi1": 0.0}
        doc["grid"] = {"nt": 9, "nw": 9}
        doc["options"] = {"horizon": 30.0, "n_stability_ics": 3}
        out = tmp_path / "out"
        assert run_cli(["emden", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        assert ends == [30.0] * 3
        report = json.loads((out / "report.json").read_text())
        assert [o["terminal"] for o in report["conditional_stability"]["outcomes"]] == ["reached_horizon"] * 3

    def test_vdp_ic_draws(self, tmp_path):
        # phi0 then phi1 for each IC, in turn, from random.Random(seed).uniform over ic_box.
        doc = json.loads(json.dumps(VDP_CONFIG))
        doc["grid"] = {"nt": 9, "nw": 9}
        doc["options"].update({"seed": 11, "n_random_ics": 3, "ic_box": [[-1.0, 2.0], [0.5, 1.5]], "horizon": 5.0})
        cfg = write_config(tmp_path, doc)
        for name in ("a", "b"):
            assert run_cli(["vdp", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        report = (tmp_path / "a" / "report.json").read_bytes()
        assert report == (tmp_path / "b" / "report.json").read_bytes()
        rng = random.Random(11)
        expected = [(rng.uniform(-1.0, 2.0), rng.uniform(0.5, 1.5)) for _ in range(3)]
        assert [(o["phi0"], o["phi1"]) for o in json.loads(report)["ic_outcomes"]] == expected

    def test_vdp_runner(self, tmp_path):
        cfg = write_config(tmp_path, VDP_CONFIG)
        out = tmp_path / "out"
        code = run_cli(["vdp", "--config", cfg, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["ic_outcomes"]) == 2
        assert all(o["terminal"]["kind"] == "reached_horizon" for o in report["ic_outcomes"])
        names = [c["theorem"] for c in report["certificates"]]
        assert names == ["T3_6", "T4_2"]

    @pytest.mark.parametrize("region, scans", [({"t": [0.0, 20.0], "w": [-8.0, 8.0]}, 1), (None, 2)], ids=["region", "default"])
    def test_vdp_scans_t3_6_once_on_a_region(self, tmp_path, monkeypatch, region, scans):
        # With a region, T4_2's existence part is the standalone T3_6 certificate; the two default regions differ.
        doc = {**VDP_CONFIG, "grid": {"nt": 65, "nw": 65}, "options": {"eps0": 1.0, "osc_horizon": 50.0, "osc_min_zeros": 5, "n_random_ics": 1}}
        if region is not None:
            doc["region"] = region
        seen = []
        scan = rcert.certificates._fixed_axis_check

        def counting(theorem, *args):
            seen.append(theorem)
            return scan(theorem, *args)

        monkeypatch.setattr(rcert.certificates, "_fixed_axis_check", counting)
        out = tmp_path / "out"
        assert run_cli(["vdp", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        assert seen.count("T3_6") == scans
        standalone, aggregate = json.loads((out / "report.json").read_text())["certificates"]
        assert (standalone == aggregate["parts"][0]) == (region is not None)


class TestReportRecordKeys:
    # These records are written from dataclass fields in field order, so a new field changes the
    # report bytes; each key list here is the report format, and a change to it must be deliberate.
    def test_emden_record_keys(self, tmp_path):
        doc = json.loads(json.dumps(EF_CONFIG))
        doc["equation"].update({"rho": 2.0, "sigma": -2.0})
        doc["initial"] = {"t1": 1.0, "phi0": 0.05, "phi1": 0.0}
        doc["grid"] = {"nt": 9, "nw": 9}
        doc["options"] = {"horizon": 30.0, "n_stability_ics": 1}
        out = tmp_path / "out"
        assert run_cli(["emden", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert list(report["parameters"]) == ["rho", "sigma", "n", "variant", "t0"]
        assert list(report["closed_form_bounds"]) == ["A", "B", "case"]
        assert list(report["classification"]) == [
            "kind", "zero_count", "terminal", "monotone", "zero_gap_ratios", "escape_time", "detail"
        ]
        assert list(report["conditional_stability"]) == ["eps", "delta", "outcomes"]
        assert [list(o) for o in report["conditional_stability"]["outcomes"]] == [
            ["phi0", "sup_norm", "within_eps", "terminal"]
        ]

    def test_vdp_record_keys(self, tmp_path):
        doc = json.loads(json.dumps(VDP_CONFIG))
        doc["grid"] = {"nt": 9, "nw": 9}
        doc["options"].update({"n_random_ics": 1, "horizon": 5.0})
        out = tmp_path / "out"
        assert run_cli(["vdp", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [list(o) for o in report["ic_outcomes"]] == [["t1", "phi0", "phi1", "kind", "zero_count", "terminal"]]
        assert list(report["ic_outcomes"][0]["terminal"]) == ["kind", "time"]

    def test_witness_record_keys(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["certify", "t3_6", "--config", write_config(tmp_path, NEGATIVE_R_CONFIG), "--out", str(out)]) == 2
        witness = json.loads((out / "report.json").read_text())["certificates"][0]["witness"]
        assert list(witness) == ["hypothesis", "t", "w", "detail"]


KNESER_CONFIG = {
    "version": 1,
    "equation": {"kind": "emden_fowler", "rho": 0.0, "sigma": -5.0, "n": 3.0, "variant": "absolute", "t0": 1.0},
    "initial": {"t1": 1.0, "phi0": 0.5, "phi1": 0.0},
    "grid": {"nt": 17, "nw": 17},
    "options": {"horizon": 20.0},
}

# The default T3_3 region is 1.1x the Kneser majorant's sup.  The w grid is
# mirrored, so comparing the equation with itself samples r0 at w and -w
# alike, and every T3_3 ordering holds.
KNESER_LINE = "T3_3: Verified | GLOBAL_MONOTONE"


def with_keys(base, **changes):
    doc = json.loads(json.dumps(base))
    doc.update(changes)
    return doc


class TestTheoremRuns:
    """Each theorem the CLI runs to the end: exit code, stdout, status and witness."""

    @pytest.mark.parametrize(
        "args, doc, code, lines, status, witness",
        [
            (
                ["certify", "t3_2"],
                with_keys(EF_CONFIG, qtilde={"kind": "constant", "value": 1.0}),
                2,
                ["T3_2: Inconclusive | ratio undefined: q0 = 0 with r0 = -0.2505002499999999 at (t=1.0, w=-0.5005)"],
                "Inconclusive",
                None,
            ),
            (["certify", "t3_3"], KNESER_CONFIG, 0, [KNESER_LINE], "Verified", None),
            (
                ["certify", "t3_4"],
                with_keys(EF_CONFIG, region={"t": [1.0, 10.0], "w": [-2.0, 2.0]}, grid={"nt": 9, "nw": 9}),
                2,
                ["T3_4: Falsified | witness (r0 >= 0) at t=1, w=-2"],
                "Falsified",
                {"hypothesis": "r0 >= 0", "t": 1.0, "w": -2.0, "detail": "r0=-4.0 < 0"},
            ),
            (
                ["certify", "t3_5"],
                VDP_CONFIG,
                0,
                ["T3_5: Verified | OSC_OR_SINGULAR_FIRST_KIND | heuristic: comparison_oscillation_zero_count,tail_divergence_probe"],
                "Verified",
                None,
            ),
            (
                ["emden"],
                KNESER_CONFIG,
                0,
                ["trajectory: GlobalMonotoneNonvanishing, terminal reached_horizon", KNESER_LINE],
                "Verified",
                None,
            ),
        ],
        ids=["t3_2", "t3_3", "t3_4", "t3_5", "emden_kneser"],
    )
    def test_theorem_outcome(self, tmp_path, capsys, args, doc, code, lines, status, witness):
        out = tmp_path / "out"
        assert run_cli(args + ["--config", write_config(tmp_path, doc), "--out", str(out)]) == code
        assert capsys.readouterr().out.splitlines() == lines
        (cert,) = json.loads((out / "report.json").read_text())["certificates"]
        assert (cert["status"], cert["witness"]) == (status, witness)
        validate_certificate_dict(cert)

    def test_t3_5_does_not_depend_on_the_equation_scale(self, tmp_path):
        # lambda = 1e16 t, mu = 1, nu = 1e16 is lambda = t, mu = 1e-16, nu = 1 times 1e16: int dt / (1e16 t)
        # diverges, so both pass the reciprocal tail probe and fail only at the zero count.
        witnesses = []
        for scale in (1e16, 1.0):
            doc = with_keys(
                VDP_CONFIG,
                region={"t": [1.0, 21.0], "w": [-8.0, 8.0]},
                grid={"nt": 33, "nw": 33},
                options={"eps0": 1.0, "osc_horizon": 50.0, "osc_min_zeros": 5},
            )
            doc["equation"] = {
                "kind": "van_der_pol",
                "lambda": {"kind": "power", "coeff": scale, "power": 1.0},
                "mu": {"kind": "constant", "value": scale * 1e-16},
                "nu": {"kind": "constant", "value": scale},
                "t0": 1.0,
            }
            out = tmp_path / str(scale)
            assert run_cli(["certify", "t3_5", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
            (cert,) = json.loads((out / "report.json").read_text())["certificates"]
            witnesses.append((cert["status"], cert["witness"]["detail"]))
        assert witnesses == [("Falsified", "comparison equation at eps=1.0 produced 4 zero(s) < 5 on horizon 50.0")] * 2

    @pytest.mark.parametrize("args", [["certify", "t3_3"], ["emden"]], ids=["t3_3", "emden"])
    def test_kneser_self_comparison_not_falsified(self, tmp_path, args):
        # An equation compared with itself satisfies every T3_3 ordering.
        out = tmp_path / "out"
        run_cli(args + ["--config", write_config(tmp_path, KNESER_CONFIG), "--out", str(out)])
        (cert,) = json.loads((out / "report.json").read_text())["certificates"]
        assert cert["status"] != "Falsified"


class TestConfigValidation:
    def test_unknown_key_has_path(self, tmp_path, capsys):
        doc = json.loads(json.dumps(HARMONIC_CONFIG))
        doc["mystery"] = 1
        cfg = write_config(tmp_path, doc)
        code = run_cli(["classify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config.mystery" in capsys.readouterr().err

    def test_bad_version(self, tmp_path, capsys):
        doc = json.loads(json.dumps(HARMONIC_CONFIG))
        doc["version"] = 2
        cfg = write_config(tmp_path, doc)
        code = run_cli(["classify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config.version" in capsys.readouterr().err

    def test_missing_initial_for_classify(self, tmp_path, capsys):
        doc = json.loads(json.dumps(HARMONIC_CONFIG))
        del doc["initial"]
        cfg = write_config(tmp_path, doc)
        code = run_cli(["classify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config.initial" in capsys.readouterr().err

    def test_nested_field_error_path(self, tmp_path, capsys):
        doc = json.loads(json.dumps(HARMONIC_CONFIG))
        doc["equation"]["p0"] = {"kind": "nope"}
        cfg = write_config(tmp_path, doc)
        code = run_cli(["classify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config.equation.p0.kind" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = run_cli(["classify", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "out")])
        assert code == 1

    def test_vdp_command_needs_vdp_equation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HARMONIC_CONFIG)
        code = run_cli(["vdp", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "van_der_pol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, base",
        [
            (["certify", "t3_3"], EF_CONFIG),
            (["certify", "t3_4"], EF_CONFIG),
            (["certify", "t3_6"], EF_CONFIG),
            (["certify", "t3_5"], VDP_CONFIG),
            (["certify", "t4_2"], VDP_CONFIG),
            (["vdp"], VDP_CONFIG),
        ],
    )
    def test_fixed_w_axis_needs_region_w(self, tmp_path, capsys, args, base):
        doc = json.loads(json.dumps(base))
        doc["region"] = {"t": [doc["equation"]["t0"], 10.0]}
        doc["grid"] = {"nt": 9, "nw": 9}
        cfg = write_config(tmp_path, doc)
        code = run_cli(args + ["--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config.region.w"), err
        assert "nan" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axis, pair", [("t", [50.0, 1.0]), ("w", [2.0, -2.0])])
    def test_reversed_region_pair_is_a_config_error(self, tmp_path, capsys, axis, pair):
        doc = json.loads(json.dumps(EF_CONFIG))
        doc["region"] = {"t": [1.0, 50.0], "w": [-2.0, 2.0], axis: pair}
        cfg = write_config(tmp_path, doc)
        code = run_cli(["certify", "t3_1", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config.region.{axis}"), err
        assert not (tmp_path / "out").exists()

    def test_vanishing_p0_under_ratio_is_an_error(self, tmp_path, capsys):
        doc = json.loads(json.dumps(NEGATIVE_R_CONFIG))
        doc["equation"]["p0"] = {"kind": "power", "w_power": 2}
        doc["equation"]["r0"] = {"kind": "constant", "value": 1.0}
        cfg = write_config(tmp_path, doc)
        code = run_cli(["certify", "t3_6", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error: p0 is not positive at (t=0.0, w=0.0): 0.0" in capsys.readouterr().err


class TestDispatchGuards:
    """A config that names no command or theorem ``run`` knows is refused before anything runs."""

    @pytest.mark.parametrize(
        "command, doc, change, message",
        [
            ("certify", VDP_CONFIG, {"theorem": "t9"}, "command: unhandled theorem 't9'"),
            ("vdp", VDP_CONFIG, {"command": "nope"}, "command: unhandled command 'nope'"),
        ],
        ids=["theorem", "command"],
    )
    def test_unhandled_name(self, tmp_path, command, doc, change, message):
        cfg = load_config(write_config(tmp_path, doc), command, "t3_6" if command == "certify" else None)
        with pytest.raises(ConfigError) as err:
            rcert.cli.run(dataclasses.replace(cfg, **change), tmp_path / "out", echo=lambda line: None)
        assert str(err.value) == message


class TestWithoutNumpy:
    def test_commands_run_without_numpy(self, tmp_path):
        # A fresh interpreter in which ``import numpy`` fails runs the package to the same exit codes.
        sweep = json.loads(json.dumps(HARMONIC_CONFIG))
        del sweep["initial"]
        sweep["sweep"] = {"phi": [0.5, 1.5], "dphi": [0.0, 1.0], "resolution": [2, 2]}
        sweep["options"] = {"horizon": 10.0}
        runs = [
            ["certify", "t3_1", "--config", write_config(tmp_path, EF_CONFIG, "ef.json")],
            ["sweep", "--config", write_config(tmp_path, sweep, "sweep.json")],
            ["vdp", "--config", write_config(tmp_path, VDP_CONFIG, "vdp.json")],
        ]
        runs = [args + ["--out", str(tmp_path / f"out{k}")] for k, args in enumerate(runs)]
        script = (
            "import json, sys\n"
            "sys.modules['numpy'] = None\n"
            f"sys.path.insert(0, {str(Path(rcert.cli.__file__).parents[1])!r})\n"
            "from rcert.cli import main\n"
            f"print(json.dumps([main(args) for args in {runs!r}]))\n"
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [0, 0, 0]


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, EF_CONFIG)
        run_cli(["certify", "t3_1", "--config", cfg, "--out", str(tmp_path / "a")])
        run_cli(["certify", "t3_1", "--config", cfg, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b

    def test_vdp_reports_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, VDP_CONFIG)
        run_cli(["vdp", "--config", cfg, "--out", str(tmp_path / "a")])
        run_cli(["vdp", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()
