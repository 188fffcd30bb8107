"""Command-line front end: config ingestion, dispatch, and report emission.

Exit codes: 0 when the command completed and every certificate (if any) is
Verified; 2 when a certificate is Falsified or Inconclusive (a correct
answer, distinct from a crash); 1 for configuration or runtime errors.
Reports are emitted through the canonical JSON writer, so identical configs
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

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
from .config import _COMMANDS, _THEOREMS, RunConfig, load_config
from .dynamics import Trajectory, export_trajectory_csv, integrate
from .errors import ConfigError, RcertError
from .fields import InitialData, Rectangle
from .serialize import write_json

__all__ = ["run", "main"]


def _envelope(cfg: RunConfig, check, *extra) -> Certificate:
    """``check_t3_1``, or ``check_t3_2`` with ``qtilde`` as ``extra``, with the configured options and region or, without
    a region, [t1, horizon] with an unbounded w axis: the envelope scans start at t1 and end where ``integrate`` does."""
    opts = cfg.options
    region = cfg.region or Rectangle(cfg.initial.t1, opts.horizon, -float("inf"), float("inf"))
    return check(
        cfg.equation,
        cfg.initial,
        cfg.bounds,
        *extra,
        region=region,
        grid=cfg.grid,
        epsilon=opts.epsilon,
        quad_abs_tol=opts.quad_abs_tol,
        quad_rel_tol=opts.quad_rel_tol,
    )


def _oscillation(cfg: RunConfig, check) -> Certificate:
    """T3_5 (``applications._vdp_oscillation``) or T4_2 (``applications.check_t4_2``) with the configured options."""
    opts = cfg.options
    return check(
        cfg.equation, cfg.params, eps0=opts.eps0, region=cfg.region, grid=cfg.grid, osc_horizon=opts.osc_horizon, osc_min_zeros=opts.osc_min_zeros
    )


def _t3_1(cfg: RunConfig) -> tuple[Certificate, apps.EFBounds | None]:
    """The T3_1 certificate and, for Emden-Fowler with rho > 1, the closed-form A/B bound,
    which caps the certificate only when it is Verified."""
    ic = cfg.initial
    cert = _envelope(cfg, check_t3_1)
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
        w_cap = 1.1 * max(max(map(abs, majorant.phis)), abs(cfg.initial.phi0))
        region = Rectangle(eq.t0, majorant.t_end, -w_cap, w_cap)
    return check_t3_3(eq, eq, majorant, cfg.initial, region=region, grid=cfg.grid), majorant


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


def _certify(cfg: RunConfig, report: dict) -> Certificate:
    """The certificate of ``cfg.theorem``; T3_3 also writes its majorant's t span into ``report``."""
    eq = cfg.equation
    theorem = cfg.theorem
    region = cfg.region
    if theorem == "t3_1":
        return _t3_1(cfg)[0]
    if theorem == "t3_2":
        return _envelope(cfg, check_t3_2, cfg.qtilde)
    if theorem == "t3_3":
        cert, majorant = _t3_3(cfg, region)
        report["majorant_span"] = [majorant.t_start, majorant.t_end]
        return cert
    if theorem == "t3_4":
        return check_t3_4(eq, cfg.bounds, region=region, grid=cfg.grid)
    if theorem in ("t3_5", "t4_2"):
        return _oscillation(cfg, apps._vdp_oscillation if theorem == "t3_5" else apps.check_t4_2)
    if theorem == "t3_6":
        return check_t3_6(eq, region=region, grid=cfg.grid)
    raise ConfigError("command", f"unhandled theorem {theorem!r}")


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
        certificates = [_certify(cfg, report)]
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
        kinds = dict(sorted(Counter(c.kind for c in cells).items()))
        report["raster"] = {"cells": len(cells), "kinds": kinds}
        summaries.append("sweep: " + ", ".join(f"{k}={v}" for k, v in kinds.items()))
    elif cfg.command == "emden":
        report_emden(cfg, out, report, summaries, certificates, artifacts)
    elif cfg.command == "vdp":
        report_vdp(cfg, out, report, summaries, certificates, artifacts)
    else:
        raise ConfigError("command", f"unhandled command {cfg.command!r}")

    if certificates:
        report["certificates"] = [c.to_dict() for c in certificates]
        summaries.extend(map(_cert_summary, certificates))
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
    report["parameters"] = {**asdict(p), "t0": eq.t0}

    if p.rho > 1.0:
        cert, ab = _t3_1(cfg)
        report["closed_form_bounds"] = asdict(ab)
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
            "outcomes": [asdict(o) for o in outcomes],
        }
        summaries.append(
            f"conditional stability: delta={delta:.6g}, {sum(o.within_eps for o in outcomes)}/{len(outcomes)} within eps"
        )

    traj = integrate(eq, cfg.initial, cfg.options)
    export_trajectory_csv(traj, out / "trajectory.csv", out / "trajectory.meta.json")
    artifacts["trajectory_csv"] = "trajectory.csv"
    c = classify(traj)
    report["classification"] = c.to_dict()
    summaries.append(f"trajectory: {c.kind}, terminal {traj.terminal.kind}")


def report_vdp(cfg: RunConfig, out: Path, report: dict, summaries: list[str], certificates: list[Certificate], artifacts: dict) -> None:
    eq = cfg.equation
    # On a configured region T4_2's existence part is the T3_6 certificate of that region and grid; their default regions differ.
    standalone = check_t3_6(eq, grid=cfg.grid) if cfg.region is None else None
    aggregate = _oscillation(cfg, apps.check_t4_2)
    certificates += [aggregate.parts[0] if standalone is None else standalone, aggregate]
    rng = random.Random(cfg.options.seed)
    (p_lo, p_hi), (d_lo, d_hi) = cfg.options.ic_box
    outcomes = report["ic_outcomes"] = []
    for _ in range(cfg.options.n_random_ics):
        ic = InitialData(t1=eq.t0, phi0=rng.uniform(p_lo, p_hi), phi1=rng.uniform(d_lo, d_hi))
        traj = integrate(eq, ic, cfg.options)
        c = classify(traj)
        outcomes.append({**asdict(ic), "kind": c.kind, "zero_count": c.zero_count, "terminal": traj.terminal.to_dict()})
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
    certify.add_argument("theorem", choices=_THEOREMS)
    common(certify)
    for name in _COMMANDS:
        if name != "certify":
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
