"""The four benchmark workloads: inputs made from a seed, one operation, checks.

Each workload turns ``--seed`` into its inputs in :meth:`prepare`; the seed only
perturbs inputs in ways that keep every verdict and label and move work counts
by a few percent at most.  :meth:`execute` performs one operation (one CLI
command, or one library-level validation pass), the part that is timed, and
:meth:`check` checks every output it produced.  The ``rcert`` functions are looked up on their modules at call time,
so the tracer's wrappers are used while it is installed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import rcert
import rcert.cli

import reference
from setup_probe import oracle_equations

SQRT_E_HALF = 0.5 * math.exp(0.5)  # closed-form cap A of the rho=4, sigma=0, n=3 envelope from phi0=0.5, phi1=0
ENVELOPE_REL_TOL = 1e-6  # FBound against its closed form; the quadrature targets 1e-8 relative
RESIDUAL_TOL = 1e-6  # pinned acceptance tolerance of the residual oracles
ESCAPE_REL_TOL = 1e-4  # escape time against the energy-integral reference (the seed's stepper is within 3e-6)
OSC_FLAGS = ["comparison_oscillation_zero_count", "tail_divergence_probe"]


@dataclass
class Outcome:
    """What one operation produced: checked outputs, failures and the verdicts."""

    checks: int
    failures: list[str] = field(default_factory=list)
    signature: list = field(default_factory=list)


def envelope(t: float) -> float:
    """F(t) of the certify_grid start in closed form.

    With P = t^4, Q = 0, R = -1, c1 = 0.5 and c2 = 0 from t1 = 1, the envelope
    is 0.5 exp(-integral_1^t W/P) with W(tau) = -(tau - 1).
    """
    return 0.5 * math.exp(1.0 / 6.0 - 0.5 / t ** 2 + 1.0 / (3.0 * t ** 3))


def _write_config(workdir: Path, doc: dict) -> Path:
    path = workdir / "config.json"
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


def _cli(args: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return rcert.cli.main(args)


def _read_report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


class Workload:
    """One workload; ``BENCHMARK.json`` records why it was chosen."""

    name = ""
    rate = ""  # name of this workload's items-per-second rate in the details
    checks_per_op = 1
    work_per_op = 1

    def prepare(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def setup_probe_args(self) -> list[str]:
        """Arguments of ``setup_probe.py`` that rebuild this workload's inputs."""
        raise NotImplementedError

    def execute(self, out: Path):
        """One operation; returns what :meth:`check` needs besides the files under ``out``."""
        raise NotImplementedError

    def check(self, result, out: Path) -> Outcome:
        raise NotImplementedError


class CertifyGrid(Workload):
    name = "certify_grid"
    rate = "grid_points_per_s"
    n = 1025

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        t_max = 50.0 + rng.uniform(0.0, 1.0)  # moves every grid time; cap, verdict and sample count are unchanged
        self.config = _write_config(
            workdir,
            {
                "version": 1,
                "equation": {"kind": "emden_fowler", "rho": 4.0, "sigma": 0.0, "n": 3.0, "variant": "absolute", "t0": 1.0},
                "initial": {"t1": 1.0, "phi0": 0.5, "phi1": 0.0},
                "region": {"t": [1.0, t_max]},
                "grid": {"nt": self.n, "nw": self.n},
                "options": {"horizon": 50.0},
            },
        )
        self.t_max = t_max
        self.work_per_op = self.n * self.n

    def setup_probe_args(self):
        return ["config", str(self.config), "certify", "t3_1"]

    def execute(self, out):
        return _cli(["certify", "t3_1", "--config", str(self.config), "--out", str(out)])

    def check(self, code, out):
        cert = _read_report(out)["certificates"][0]
        fails = []
        if code != 0:
            fails.append(f"exit code {code}")
        expect = {"status": "Verified", "conclusion": "GLOBAL_MONOTONE", "witness": None, "heuristic_flags": []}
        for key, want in expect.items():
            if cert[key] != want:
                fails.append(f"{key} {cert[key]!r} != {want!r}")
        if not math.isclose(cert["uniform_bound"] or 0.0, SQRT_E_HALF, rel_tol=1e-9):
            fails.append(f"cap {cert['uniform_bound']!r} != 0.5*exp(0.5)")
        region = cert["region"]
        if (region["nt"], region["nw"]) != (self.n, self.n) or region["t"] != [1.0, self.t_max]:
            fails.append(f"region {region!r}")
        samples = cert["bound_samples"] or []
        worst = max((abs(v / envelope(t) - 1.0) for t, v in samples), default=math.inf)
        if len(samples) != self.n or worst > ENVELOPE_REL_TOL:
            fails.append(f"{len(samples)} envelope samples, off the closed form by up to {worst:.3g} relative")
        elif region.get("w_sampled") is None or not math.isclose(region["w_sampled"][1], samples[-1][1] + 1e-3 * 0.5, rel_tol=1e-12):
            fails.append(f"sampled w range {region.get('w_sampled')!r} is not the envelope plus epsilon")
        return Outcome(1, [f"certify_grid: {f}" for f in fails], [cert["status"], cert["conclusion"], cert["witness"]])


class CertifyOscillation(Workload):
    name = "certify_oscillation"
    rate = "grid_points_per_s"  # both parts: existence and oscillation
    n = 65

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        t_max = 20.0 + rng.uniform(0.0, 0.5)  # scans only: the probes and comparison runs do not see the region
        w_cap = 8.0 + rng.uniform(0.0, 0.5)
        one = {"kind": "constant", "value": 1.0}
        self.config = _write_config(
            workdir,
            {
                "version": 1,
                "equation": {"kind": "van_der_pol", "lambda": one, "mu": one, "nu": one, "t0": 0.0},
                "region": {"t": [0.0, t_max], "w": [-w_cap, w_cap]},
                "grid": {"nt": self.n, "nw": self.n},
                "options": {"eps0": 1.0, "osc_horizon": 50.0, "osc_min_zeros": 5},
            },
        )
        self.work_per_op = 2 * self.n * self.n

    def setup_probe_args(self):
        return ["config", str(self.config), "certify", "t4_2"]

    def execute(self, out):
        return _cli(["certify", "t4_2", "--config", str(self.config), "--out", str(out)])

    def check(self, code, out):
        cert = _read_report(out)["certificates"][0]
        fails = []
        if code != 0:
            fails.append(f"exit code {code}")
        expect = {
            "status": "Verified",
            "conclusion": "GLOBAL_AND_OSCILLATORY",
            "witness": None,
            "heuristic_flags": OSC_FLAGS,
            "details": {"existence_status": "Verified", "oscillation_status": "Verified"},
        }
        for key, want in expect.items():
            if cert[key] != want:
                fails.append(f"{key} {cert[key]!r} != {want!r}")
        parts = [(p["theorem"], p["status"], p["witness"]) for p in cert.get("parts", [])]
        if parts != [("T3_6", "Verified", None), ("T3_5", "Verified", None)]:
            fails.append(f"parts {parts!r}")
        return Outcome(1, [f"certify_oscillation: {f}" for f in fails], [cert["status"], cert["conclusion"], cert["heuristic_flags"], parts])


class SweepMixed(Workload):
    name = "sweep_mixed"
    rate = "cells_per_s"
    horizon = 100.0
    phi = (-0.5, 0.6)
    dphi_hi = 1.0

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        # Only the oscillating row moves: an escape's step count swings by tens of
        # percent under any change of its start, an oscillation's by under 1%.
        self.dphi_lo = 0.2 + rng.uniform(-0.02, 0.02)
        self.config = _write_config(
            workdir,
            {
                "version": 1,
                "equation": {
                    "kind": "custom",
                    "t0": 0.0,
                    "p0": {"kind": "constant", "value": 1.0, "tags": ["positive"]},
                    "q0": {"kind": "constant", "value": 0.0},
                    "r0": {"kind": "polynomial", "terms": [{"c": 1.0}, {"c": -1.0, "w": 2}]},
                },
                "sweep": {"phi": list(self.phi), "dphi": [self.dphi_lo, self.dphi_hi], "resolution": [2, 2]},
                "options": {"horizon": self.horizon},
            },
        )
        self.expected = []
        for phi0 in self.phi:
            for dphi0 in (self.dphi_lo, self.dphi_hi):
                if reference.oscillates(phi0, dphi0):
                    zeros = reference.zero_times(phi0, dphi0, 0.0, self.horizon)
                    # A zero this close to the horizon may fall on either side of it.
                    near = any(abs(z - self.horizon) < 1e-6 * self.horizon for z in zeros)
                    self.expected.append((phi0, dphi0, "Oscillatory", len(zeros), near, None))
                else:
                    t_star = reference.escape_time(phi0, dphi0, 0.0)
                    self.expected.append((phi0, dphi0, "Undetermined", reference.escape_zero_count(phi0, dphi0), False, t_star))
        self.checks_per_op = self.work_per_op = len(self.expected)

    def setup_probe_args(self):
        return ["config", str(self.config), "sweep"]

    def execute(self, out):
        return _cli(["sweep", "--config", str(self.config), "--out", str(out)])

    def check(self, code, out):
        with open(out / "raster.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        fails = [] if code == 0 else [f"exit code {code}"]
        if len(rows) != len(self.expected):
            fails.append(f"{len(rows)} cells, expected {len(self.expected)}")
        for row, (phi0, dphi0, kind, zeros, near, t_star) in zip(rows, self.expected):
            cell = f"cell ({phi0:g}, {dphi0:.6g})"
            if not (math.isclose(float(row["ic_phi"]), phi0, abs_tol=1e-12) and math.isclose(float(row["ic_dphi"]), dphi0, abs_tol=1e-12)):
                fails.append(f"{cell}: raster order, got ({row['ic_phi']}, {row['ic_dphi']})")
            elif row["kind"] != kind:
                fails.append(f"{cell}: label {row['kind']} != {kind}")
            elif not (int(row["zero_count"]) == zeros or (near and int(row["zero_count"]) == zeros - 1)):
                fails.append(f"{cell}: {row['zero_count']} zeros != {zeros}")
            elif t_star is None and row["escape_time"]:
                fails.append(f"{cell}: escape time {row['escape_time']} on a bounded orbit")
            elif t_star is not None and not (row["escape_time"] and math.isclose(float(row["escape_time"]), t_star, rel_tol=ESCAPE_REL_TOL)):
                fails.append(f"{cell}: escape time {row['escape_time']!r} vs T*={t_star!r}")
        return Outcome(len(self.expected), [f"sweep_mixed: {f}" for f in fails], [r["kind"] for r in rows])


class ValidateOracles(Workload):
    name = "validate_oracles"
    rate = "residual_checks_per_s"

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        self.starts = [
            ("van_der_pol", 1.0 + rng.uniform(-0.02, 0.02), 0.5 + rng.uniform(-0.02, 0.02), 10.0),
            ("power_law", 0.5, 0.2 + rng.uniform(-0.02, 0.02), 20.0),
        ]
        self.equations = oracle_equations()
        self.opts = {name: rcert.IntegrationOptions(horizon=h) for name, _, _, h in self.starts}
        # Size the work with one untimed pass: two oracles per segment, two per trajectory.
        self.checks_per_op = self.work_per_op = 0
        for name, phi0, dphi0, _ in self.starts:
            eq = self.equations[name]
            traj = rcert.integrate(eq, rcert.InitialData(eq.t0, phi0, dphi0), self.opts[name])
            n = 2 * len(rcert.auto_segments(traj)) + 2
            self.checks_per_op += n
            self.work_per_op += n

    def setup_probe_args(self):
        return ["oracles"]

    def execute(self, out):
        runs = []
        for name, phi0, dphi0, _ in self.starts:
            eq = self.equations[name]
            traj = rcert.integrate(eq, rcert.InitialData(eq.t0, phi0, dphi0), self.opts[name])
            segments = rcert.auto_segments(traj)
            residuals = []
            for seg in segments:
                path = rcert.transform(traj, seg)
                residuals.append((f"representation{seg}", rcert.representation_residual(path)))
                residuals.append((f"cauchy{seg}", rcert.cauchy_residual(path)))
            residuals.append(("flux", rcert.flux_residual(traj)))
            residuals.append(("volterra", rcert.volterra_residual(traj)))
            runs.append((name, traj.terminal.kind, len(traj.zeros), len(segments), residuals))
        return runs

    def check(self, runs, out):
        fails = []
        signature = []
        checks = 0
        for name, terminal, zeros, segments, residuals in runs:
            if terminal != "reached_horizon":
                fails.append(f"{name}: terminal {terminal}")
            checks += len(residuals)
            for label, value in residuals:
                if not (math.isfinite(value) and value <= RESIDUAL_TOL):
                    fails.append(f"{name}: {label} residual {value!r} > {RESIDUAL_TOL}")
            signature.append([name, terminal, zeros, segments])
        if checks != self.checks_per_op:
            fails.append(f"{checks} residual checks, expected {self.checks_per_op}")
        return Outcome(checks, [f"validate_oracles: {f}" for f in fails], signature)


WORKLOADS = {w.name: w for w in (CertifyGrid, CertifyOscillation, SweepMixed, ValidateOracles)}
