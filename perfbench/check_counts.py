"""Check that the traced work counts repeat and that the seed moves no verdict.

    python3 perfbench/check_counts.py [--seed N] [--workload NAME ...]

For each workload, runs the traced benchmark twice with seed N, in separate
processes, and requires the deterministic counts to be identical; then runs it
with seed N + 1 and requires the same verdicts and labels, and every
deterministic count within :data:`COUNT_TOL` of seed N's.  Every run must also
pass its own output checks.  Prints the relative change of each count between
the seeds, and exits with 1 if any requirement fails.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNT_TOL = 0.05  # the seed may move a work count by at most this share


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def relative_change(old: int, new: int) -> float:
    if old == new:
        return 0.0
    return (new - old) / old if old else math.inf


def main() -> int:
    workloads = [w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=workloads)
    args = parser.parse_args()
    ok = True
    for name in args.workload or workloads:
        (a, ra), (b, rb), (c, rc) = (traced_run(name, s) for s in (args.seed, args.seed, args.seed + 1))
        problems = [f"seed {s}: output check failed" for s, r in ((args.seed, ra), (args.seed, rb), (args.seed + 1, rc)) if not r["correct"]]
        if a["deterministic_counts"] != b["deterministic_counts"]:
            problems.append(f"counts differ between two runs of seed {args.seed}: {a['deterministic_counts']} vs {b['deterministic_counts']}")
        if a["verdicts"] != c["verdicts"]:
            problems.append(f"verdicts differ between seeds {args.seed} and {args.seed + 1}: {a['verdicts']} vs {c['verdicts']}")
        moved = {k: relative_change(v, c["deterministic_counts"][k]) for k, v in a["deterministic_counts"].items()}
        for k, change in moved.items():
            if abs(change) > COUNT_TOL:
                problems.append(f"{k} moves by {change:+.2%} from seed {args.seed} to {args.seed + 1}, more than {COUNT_TOL:.0%}")
        print(f"{name}: {'ok' if not problems else 'FAILED'} counts={a['deterministic_counts']} verdicts={a['verdicts']}")
        print(f"  seed {args.seed} -> {args.seed + 1}: " + ", ".join(f"{k} {v:+.2%}" for k, v in moved.items()))
        for p in problems:
            print(f"  {p}")
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
