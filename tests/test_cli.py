import json
import math

import pytest

import rcert.cli
from rcert.cli import main
from rcert.serialize import validate_certificate_dict

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

    def test_vanishing_p0_under_ratio_is_an_error(self, tmp_path, capsys):
        doc = json.loads(json.dumps(NEGATIVE_R_CONFIG))
        doc["equation"]["p0"] = {"kind": "power", "w_power": 2}
        doc["equation"]["r0"] = {"kind": "constant", "value": 1.0}
        cfg = write_config(tmp_path, doc)
        code = run_cli(["certify", "t3_6", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error: p0 is not positive at (t=0.0, w=0.0): 0.0" in capsys.readouterr().err


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
