"""rcert benchmark: one workload per run, in a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``rcert`` is imported from ``src/`` there.
Operations run one at a time in this process, with ``RCERT_THREADS=1``.  The
seed makes the workload's inputs; one untimed warm-up operation precedes the
timed ones, which repeat until ``--seconds`` have passed.  Every output of
every operation is checked; a crash, an exception or a wrong output counts as
a failed check.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``; their
times are normalized by a reference kernel timed while they run
(``calibrate.py``), because the machine's speed drifts more than the bounds
allow.
``--trace 1`` runs the layer microbenchmarks, then alternates untraced
operations with traced ones, for which every ``rcert`` layer is wrapped (see
``tracing.py``), and reports the raw per-layer metrics of the traced
operations, including the tracing overhead.

The last line of standard output is the result as one JSON object; the line
before it holds the details (samples, raw times, environment, failures), and
``perfbench/out/`` keeps both, plus the spans of traced runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S, Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7  # at least this many set-up samples per run
MIN_TIMED_OPS = 3
MIN_TRACED_OPS = 2  # each paired with an untraced operation
# Counts that must repeat exactly for the same inputs.
DETERMINISTIC_COUNTS = ("fields.calls", "dynamics.accepted_steps", "dynamics.rhs_evals", "quadrature.integrand_evals", "classify.cells")


class Runner:
    """Runs operations of one workload and tallies checks and failures."""

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.signatures: list = []
        self.kernel_times: list[float] = []  # reference kernel time during each untraced operation
        self._ops = 0

    def op(self, tracer=None) -> float:
        """One operation: timed execution, then the check outside the timing.

        An untraced operation runs under a :class:`Gauge`; its wall time
        leaves out the gauge's kernel runs.
        """
        w = self.workload
        out = self.workdir / f"op{self._ops}"
        self._ops += 1
        if tracer is not None:
            tracer.reset()
            tracer.op = self._ops
            frame = tracer.enter("bench.op", "bench")
            wall, result, error = self._execute(out)
            tracer.exit(frame)
        else:
            with Gauge() as gauge:
                wall, result, error = self._execute(out)
            wall = gauge.own_time(wall)
            self.kernel_times.append(gauge.kernel())
        if error is None:
            try:
                outcome = w.check(result, out)
            except Exception as exc:  # missing or malformed output files
                error = f"{w.name}: output unreadable: {type(exc).__name__}: {exc}"
        if error is not None:
            checks, failures, signature = w.checks_per_op, [error], None
        else:
            checks, failures, signature = outcome.checks, outcome.failures, outcome.signature
        self.attempted += checks
        self.failed += min(checks, len(failures))
        self.failures.extend(failures[: max(0, 20 - len(self.failures))])
        if signature is not None and signature not in self.signatures:
            self.signatures.append(signature)
        shutil.rmtree(out, ignore_errors=True)
        # Certificates and trajectories hold reference cycles; collecting them
        # here keeps one operation's garbage out of the next one's time and
        # memory, so peak RSS does not grow with the number of operations.
        gc.collect()
        return wall

    def _execute(self, out: Path):
        w = self.workload
        start = perf_counter()
        try:
            result, error = w.execute(out), None
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            result, error = None, f"{w.name}: {type(exc).__name__}: {exc}"
        return perf_counter() - start, result, error

    def timed(self, seconds: float, on_op) -> list[float]:
        walls = []
        start = perf_counter()
        while len(walls) < MIN_TIMED_OPS or perf_counter() - start < seconds:
            walls.append(self.op())
            on_op()
        return walls


def setup_once(workload) -> tuple[float, float]:
    """Import, config load and equation build in a fresh interpreter: (seconds, kernel seconds there)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *workload.setup_probe_args()]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    seconds, kernel = done.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(kernel)


def _normalized(seconds: float, kernel: float) -> float:
    return seconds * REFERENCE_S / kernel


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    w = runner.workload
    # Set-up is timed between operations, so its samples span the whole run.
    setup = [setup_once(w)]
    runner.op()  # warm-up
    walls = runner.timed(seconds, lambda: setup.append(setup_once(w)))
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_once(w))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kernels = runner.kernel_times[-len(walls):]
    norm_walls = [_normalized(wall, k) for wall, k in zip(walls, kernels)]
    norm_wall = statistics.median(norm_walls)
    metrics = {
        "norm_wall_s": norm_wall,
        "setup_s": statistics.median(_normalized(s, k) for s, k in setup),
        "peak_rss_mb": peak_rss_mb,
    }
    wall = statistics.median(walls)
    details = {
        "norm_wall_s_samples": norm_walls,
        "norm_wall_s_quartiles": statistics.quantiles(norm_walls, n=4),
        "wall_s": wall,
        "wall_s_samples": walls,
        "wall_s_quartiles": statistics.quantiles(walls, n=4),
        "wall_s_max": max(walls),
        "kernel_s_samples": kernels,
        "setup_s_raw_samples": [s for s, _ in setup],
        "setup_kernel_s_samples": [k for _, k in setup],
        "items_per_op": w.work_per_op,
        w.rate: w.work_per_op / wall,
        "norm_" + w.rate: w.work_per_op / norm_wall,
    }
    return metrics, details


class _Snapshot:
    def __init__(self, tracer, wall: float):
        self.wall = wall
        self.self_time = dict(tracer.self_time)
        self.group_time = dict(tracer.group_time)
        self.counts = dict(tracer.counts)
        self.max_residual = tracer.max_residual


def traced(runner: Runner, seconds: float) -> tuple[dict, dict, list]:
    import micro
    from tracing import Tracer

    runner.op()  # warm-up
    micro_metrics = micro.run_all()
    tracer = Tracer()
    untraced: list[float] = []
    snaps: list[_Snapshot] = []
    residues: list[dict] = []
    # Untraced and traced operations alternate, so that both medians, and the
    # overhead taken from them, cover the same stretch of the machine's drift;
    # the wrappers' call cost drifts with it, so it is calibrated each time.
    start = perf_counter()
    while len(snaps) < MIN_TRACED_OPS or perf_counter() - start < seconds:
        untraced.append(runner.op())
        tracer.calibrate()
        residues.append({k: v * 1e9 for k, v in tracer.residue.items()})
        tracer.install()
        try:
            snaps.append(_Snapshot(tracer, runner.op(tracer)))
        finally:
            tracer.uninstall()

    first = snaps[0].counts

    def count(name: str) -> int:
        return first.get(name, 0)

    def median(get) -> float:
        return statistics.median(get(s) for s in snaps)

    def layer_self(layer: str) -> float:
        return median(lambda s: s.self_time.get(layer, 0.0))

    def group(name: str) -> float:
        return median(lambda s: s.group_time.get(name, 0.0))

    steps = count("dynamics.accepted_steps")
    traced_wall = median(lambda s: s.wall)
    overhead = traced_wall - statistics.median(untraced)
    metrics = {
        "fields.calls": count("fields.calls"),
        "fields.self_s": layer_self("fields"),
        "fields.ns_per_call": micro_metrics["fields.ns_per_call"],
        "certificates.checks": count("certificates.checks"),
        "certificates.grid_points": count("certificates.grid_points"),
        "certificates.self_s": layer_self("certificates"),
        "quadrature.quad_calls": count("quadrature.quad_calls"),
        "quadrature.integrand_evals": count("quadrature.integrand_evals"),
        "quadrature.cumint_queries": count("quadrature.cumint_queries"),
        "quadrature.envelope_s": group("envelope"),
        "quadrature.probe_s": group("probe"),
        "quadrature.self_s": layer_self("quadrature"),
        "quadrature.us_per_panel": micro_metrics["quadrature.us_per_panel"],
        "dynamics.integrate_calls": count("dynamics.integrate_calls"),
        "dynamics.accepted_steps": steps,
        "dynamics.rhs_evals": count("dynamics.rhs_evals"),
        "dynamics.rhs_evals_per_step": count("dynamics.rhs_evals") / steps if steps else 0.0,
        "dynamics.escape_tail_steps": count("dynamics.escape_tail_steps"),
        "dynamics.zeros": count("dynamics.zeros"),
        "dynamics.dense_evals": count("dynamics.dense_evals"),
        "dynamics.self_s": layer_self("dynamics"),
        "dynamics.us_per_step": micro_metrics["dynamics.us_per_step"],
        "classify.cells": count("classify.cells"),
        "classify.error_cells": count("classify.error_cells"),
        "classify.self_s": layer_self("classify"),
        "riccati.residual_calls": count("riccati.residual_calls"),
        "riccati.self_s": layer_self("riccati"),
        "riccati.max_residual": median(lambda s: s.max_residual),
        "applications.self_s": layer_self("applications"),
        "cli.self_s": layer_self("cli"),
        "config.load_s": group("config_load"),
        "serialize.write_s": group("serialize_write"),
        "serialize.report_bytes": count("serialize.report_bytes"),
        "bench.self_s": layer_self("bench"),
        "trace.self_s": layer_self("trace"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": overhead,
    }
    repeat = all(s.counts.get(k, 0) == first.get(k, 0) for s in snaps for k in DETERMINISTIC_COUNTS)
    details = {
        "untraced_wall_s_samples": untraced,
        "traced_wall_s_samples": [s.wall for s in snaps],
        "self_s_by_layer": {k: layer_self(k) for k in sorted({k for s in snaps for k in s.self_time})},
        "self_s_sum_over_traced_wall": median(lambda s: sum(s.self_time.values()) / s.wall),
        # The cost of calling and leaving the wrappers, which stays in the callers' self times.
        "overhead_outside_trace_s": overhead - metrics["trace.self_s"],
        "trace_residue_ns_per_call": residues,
        "counts": first,
        "deterministic_counts": {k: first.get(k, 0) for k in DETERMINISTIC_COUNTS},
        "deterministic_counts_repeat": repeat,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.spans_dropped,
    }
    if not repeat:
        runner.failures.append("deterministic counts differ between traced operations of the same inputs")
    return metrics, details, tracer.spans


def environment(seed: int, threads_env: str | None) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "RCERT_THREADS": threads_env,
        "RCERT_THREADS_used": os.environ["RCERT_THREADS"],
        "seed": seed,
        "clients": 1,
        "loop": "closed",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "rcert" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"rcert sources or BENCHMARK.json not found under {ROOT}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    threads_env = os.environ.get("RCERT_THREADS")
    os.environ["RCERT_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload.prepare(args.seed, workdir)
        runner = Runner(workload, workdir)
        spans: list = []
        if args.trace:
            values, details, spans = traced(runner, args.seconds)
            wanted = spec["per_layer"]
        else:
            values, details = end_to_end(runner, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": runner.failed == 0 and not runner.failures, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    details.update(
        {
            "workload": workload.name,
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
            "trace": bool(args.trace),
            "seconds": args.seconds,
            "failed_ratio": runner.failed / runner.attempted,
            "failures": runner.failures,
            "verdicts": runner.signatures,
            "environment": environment(args.seed, threads_env),
        }
    )
    OUT.mkdir(exist_ok=True)
    record = {"details": details, "result": result}
    if args.trace:
        record["spans"] = {"fields": ["op", "id", "parent", "name", "start", "end"], "rows": spans}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record), encoding="utf-8")
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if not result["correct"]:
        print(f"{workload.name}: OUTPUT CHECK FAILED: {runner.failures[:3]}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
