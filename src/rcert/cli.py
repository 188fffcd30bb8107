"""Command-line front end: config ingestion, dispatch, and report emission.

Exit codes: 0 when the command completed and every certificate (if any) is
Verified; 2 when a certificate is Falsified or Inconclusive (a correct
answer, distinct from a crash); 1 for configuration or runtime errors.
Reports are emitted through the canonical JSON writer, so identical configs
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import applications as apps
from .certificates import (
    FALSIFIED,
    INCONCLUSIVE,
    VERIFIED,
    Certificate,
    check_t3_1,
    check_t3_2,
    check_t3_3,
    check_t3_4,
    check_t3_6,
)
from .classify import classify, export_raster_csv, sweep
from .config import RunConfig, load_config
from .dynamics import Trajectory, export_trajectory_csv, integrate
from .errors import ConfigError, RcertError
from .fields import EquationSpec, InitialData, Rectangle
from .serialize import write_json

__all__ = ["run", "main"]


def _horizon_region(cfg: RunConfig) -> Rectangle:
    """The configured region, or [t1, horizon] with an unbounded w axis: the envelope scans start at t1
    and end where ``integrate`` does."""
    return cfg.region or Rectangle(cfg.initial.t1, cfg.options.horizon, -float("inf"), float("inf"))


def _t3_1(cfg: RunConfig) -> tuple[Certificate, apps.EFBounds | None]:
    """The T3_1 certificate and, for Emden-Fowler with rho > 1, the closed-form A/B bound,
    which caps the certificate only when it is Verified."""
    ic = cfg.initial
    cert = check_t3_1(
        cfg.equation,
        ic,
        cfg.bounds,
        region=_horizon_region(cfg),
        grid=cfg.grid,
        epsilon=cfg.options.epsilon,
        quad_abs_tol=cfg.options.quad_abs_tol,
        quad_rel_tol=cfg.options.quad_rel_tol,
    )
    ab = None
    p = cfg.params
    if isinstance(p, apps.EFParams) and p.rho > 1.0:
        c2 = ic.t1 ** p.rho * ic.phi1 / ic.phi0 if ic.phi0 != 0 else 0.0
        ab = apps.ef_bounds_A_B(p, ic.t1, ic.phi0, c2)
        if cert.status == VERIFIED:
            cert.uniform_bound = ab.A if ab.A is not None else ab.B
        cert.details["closed_form_case"] = ab.case
    return cert, ab


def _t3_3(cfg: RunConfig, region: Rectangle | None) -> tuple[Certificate, Trajectory]:
    """The T3_3 certificate against the Kneser majorant; with no region, its t span and 1.1x its sup."""
    eq = cfg.equation
    majorant = apps.kneser_majorant(cfg.params, eq.t0, cfg.options)
    if region is None:
        w_cap = 1.1 * max(float(np.max(np.abs(majorant.phis))), abs(cfg.initial.phi0))
        region = Rectangle(eq.t0, majorant.t_end, -w_cap, w_cap)
    return check_t3_3(eq, eq, majorant, cfg.initial, region=region, grid=cfg.grid), majorant


def _t4_2(cfg: RunConfig) -> Certificate:
    return apps.check_t4_2(
        cfg.equation,
        cfg.params,
        eps0=cfg.options.eps0,
        region=cfg.region,
        grid=cfg.grid,
        osc_horizon=cfg.options.osc_horizon,
        osc_min_zeros=cfg.options.osc_min_zeros,
    )


def _cert_summary(cert: Certificate) -> str:
    bits = [f"{cert.theorem}: {cert.status}"]
    if cert.conclusion:
        bits.append(cert.conclusion)
    if cert.uniform_bound is not None:
        bits.append(f"bound={cert.uniform_bound:.6g}")
    if cert.witness is not None:
        w = cert.witness
        bits.append(f"witness ({w.hypothesis}) at t={w.t:.6g}" + (f", w={w.w:.6g}" if w.w is not None else ""))
    if cert.reason:
        bits.append(cert.reason)
    if cert.heuristic_flags:
        bits.append("heuristic: " + ",".join(cert.heuristic_flags))
    return " | ".join(bits)


def _certify(cfg: RunConfig) -> tuple[list[Certificate], dict]:
    eq = cfg.equation
    theorem = cfg.theorem
    region = cfg.region
    extra: dict = {}
    if theorem == "t3_1":
        return [_t3_1(cfg)[0]], extra
    if theorem == "t3_2":
        return [
            check_t3_2(
                eq,
                cfg.initial,
                cfg.bounds,
                cfg.qtilde,
                region=_horizon_region(cfg),
                grid=cfg.grid,
                epsilon=cfg.options.epsilon,
                quad_abs_tol=cfg.options.quad_abs_tol,
                quad_rel_tol=cfg.options.quad_rel_tol,
            )
        ], extra
    if theorem == "t3_3":
        cert, majorant = _t3_3(cfg, region)
        extra["majorant_span"] = [majorant.t_start, majorant.t_end]
        return [cert], extra
    if theorem == "t3_4":
        return [check_t3_4(eq, cfg.bounds, region=region, grid=cfg.grid)], extra
    if theorem == "t3_5":
        opts = cfg.options
        cert = apps._vdp_oscillation(
            eq, cfg.params, eps0=opts.eps0, region=region, grid=cfg.grid, osc_horizon=opts.osc_horizon, osc_min_zeros=opts.osc_min_zeros
        )
        return [cert], extra
    if theorem == "t3_6":
        return [check_t3_6(eq, region=region, grid=cfg.grid)], extra
    if theorem == "t4_2":
        return [_t4_2(cfg)], extra
    raise ConfigError("command", f"unhandled theorem {theorem!r}")


def _ic_outcomes(cfg: RunConfig, eq: EquationSpec, ics: list[InitialData]) -> list[dict]:
    outcomes = []
    for ic in ics:
        traj = integrate(eq, ic, cfg.options)
        c = classify(traj)
        outcomes.append(
            {
                "t1": ic.t1,
                "phi0": ic.phi0,
                "phi1": ic.phi1,
                "kind": c.kind,
                "zero_count": c.zero_count,
                "terminal": traj.terminal.to_dict(),
            }
        )
    return outcomes


def run(cfg: RunConfig, out_dir, echo=print) -> tuple[int, dict]:
    """Execute a validated config; write report and artifacts under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report: dict = {"schema_version": 1, "command": cfg.command}
    if cfg.theorem:
        report["theorem"] = cfg.theorem
    report["config"] = cfg.doc
    summaries: list[str] = []
    certificates: list[Certificate] = []
    artifacts: dict = {}

    if cfg.command == "certify":
        certificates, extra = _certify(cfg)
        report.update(extra)
    elif cfg.command == "integrate":
        traj = integrate(cfg.equation, cfg.initial, cfg.options)
        export_trajectory_csv(traj, out / "trajectory.csv", out / "trajectory.meta.json")
        artifacts["trajectory_csv"] = "trajectory.csv"
        report["terminal"] = traj.terminal.to_dict()
        report["zero_count"] = len(traj.zeros)
        summaries.append(f"integrate: {traj.terminal.kind} at t={traj.terminal.time:.6g}, {len(traj.zeros)} zero(s)")
    elif cfg.command == "classify":
        traj = integrate(cfg.equation, cfg.initial, cfg.options)
        c = classify(traj)
        report["classification"] = c.to_dict()
        summaries.append(f"classify: {c.kind} ({c.zero_count} zeros, terminal {c.terminal})")
    elif cfg.command == "sweep":
        cells = sweep(cfg.equation, (cfg.sweep.phi, cfg.sweep.dphi), cfg.sweep.resolution, cfg.options)
        export_raster_csv(cells, out / "raster.csv")
        artifacts["raster_csv"] = "raster.csv"
        hist: dict[str, int] = {}
        for c in cells:
            hist[c.kind] = hist.get(c.kind, 0) + 1
        report["raster"] = {"cells": len(cells), "kinds": {k: hist[k] for k in sorted(hist)}}
        summaries.append("sweep: " + ", ".join(f"{k}={v}" for k, v in sorted(hist.items())))
    elif cfg.command == "emden":
        report_emden(cfg, out, report, summaries, certificates, artifacts)
    elif cfg.command == "vdp":
        report_vdp(cfg, out, report, summaries, certificates, artifacts)
    else:
        raise ConfigError("command", f"unhandled command {cfg.command!r}")

    if certificates:
        report["certificates"] = [c.to_dict() for c in certificates]
        for c in certificates:
            summaries.append(_cert_summary(c))
    if artifacts:
        report["artifacts"] = artifacts
    report["summaries"] = summaries
    write_json(report, out / "report.json")
    for line in summaries:
        echo(line)

    bad = any(c.status in (FALSIFIED, INCONCLUSIVE) for c in certificates)
    return (2 if bad else 0), report


def report_emden(cfg: RunConfig, out: Path, report: dict, summaries: list[str], certificates: list[Certificate], artifacts: dict) -> None:
    p = cfg.params
    eq = cfg.equation
    ic = cfg.initial
    report["parameters"] = {"rho": p.rho, "sigma": p.sigma, "n": p.n, "variant": p.variant, "t0": eq.t0}

    if p.rho > 1.0:
        cert, ab = _t3_1(cfg)
        report["closed_form_bounds"] = {"A": ab.A, "B": ab.B, "case": ab.case}
        certificates.append(cert)
    if p.rho != 1.0:
        tr = apps.ef_transform(p)
        report["normal_form"] = {"sigma1": tr.sigma1, "branch": tr.branch}
    if p.rho == 0.0 and p.sigma + p.n + 1.0 < 0.0:
        certificates.append(_t3_3(cfg, None)[0])
    if p.rho > 1.0 and p.sigma < -1.0:
        delta = apps.conditional_stability_delta(p, eq.t0, cfg.options.stability_eps)
        outcomes = apps.conditional_stability_experiment(
            p, eq.t0, cfg.options.stability_eps, n_ics=cfg.options.n_stability_ics, horizon=cfg.options.horizon
        )
        report["conditional_stability"] = {
            "eps": cfg.options.stability_eps,
            "delta": delta,
            "outcomes": [
                {"phi0": o.phi0, "sup_norm": o.sup_norm, "within_eps": o.within_eps, "terminal": o.terminal}
                for o in outcomes
            ],
        }
        summaries.append(
            f"conditional stability: delta={delta:.6g}, {sum(o.within_eps for o in outcomes)}/{len(outcomes)} within eps"
        )

    traj = integrate(eq, ic, cfg.options)
    export_trajectory_csv(traj, out / "trajectory.csv", out / "trajectory.meta.json")
    artifacts["trajectory_csv"] = "trajectory.csv"
    c = classify(traj)
    report["classification"] = c.to_dict()
    summaries.append(f"trajectory: {c.kind}, terminal {traj.terminal.kind}")


def report_vdp(cfg: RunConfig, out: Path, report: dict, summaries: list[str], certificates: list[Certificate], artifacts: dict) -> None:
    eq = cfg.equation
    certificates.append(check_t3_6(eq, region=cfg.region, grid=cfg.grid))
    certificates.append(_t4_2(cfg))
    rng = np.random.default_rng(cfg.options.seed)
    (p_lo, p_hi), (d_lo, d_hi) = cfg.options.ic_box
    ics = [
        InitialData(t1=eq.t0, phi0=float(rng.uniform(p_lo, p_hi)), phi1=float(rng.uniform(d_lo, d_hi)))
        for _ in range(cfg.options.n_random_ics)
    ]
    outcomes = _ic_outcomes(cfg, eq, ics)
    report["ic_outcomes"] = outcomes
    escapes = sum(1 for o in outcomes if o["terminal"]["kind"] != "reached_horizon")
    summaries.append(f"ic batch: {len(outcomes)} trajectories, {escapes} failed to reach the horizon")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="rcert", description="Certificates and classification for second-order nonlinear ODEs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="path to the JSON run configuration")
        sp.add_argument("--out", required=True, help="output directory for report and CSV artifacts")
        sp.add_argument("--horizon", type=float, default=None, help="override options.horizon")
        sp.add_argument("--tol", type=float, default=None, help="override options.rel_tol")

    certify = sub.add_parser("certify", help="check the hypotheses of one criterion")
    certify.add_argument("theorem", choices=["t3_1", "t3_2", "t3_3", "t3_4", "t3_5", "t3_6", "t4_2"])
    common(certify)
    for name in ("integrate", "classify", "sweep", "emden", "vdp"):
        common(sub.add_parser(name))

    args = parser.parse_args(argv)
    theorem = getattr(args, "theorem", None)
    try:
        overrides = {key: value for key, value in (("horizon", args.horizon), ("rel_tol", args.tol)) if value is not None}
        cfg = load_config(args.config, args.command, theorem, overrides)
        code, _ = run(cfg, args.out)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except RcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
