"""Check a benchmark workload's outputs over a range of seeds, with no timing.

    python3 tools/seed_sweep.py WORKLOAD FIRST LAST

Run from the root of a checkout.  For each seed from FIRST to LAST, builds the
workload's inputs with ``prepare``, performs one operation with ``execute``
and checks every output with ``check``, all from ``perfbench/workloads.py``
unchanged; an exception counts as a failure.  Prints each failing seed with
its failures and a summary line, and exits with 1 if any seed failed.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402


def failures(name: str, seed: int) -> list[str]:
    workload = WORKLOADS[name]()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        try:
            workload.prepare(seed, workdir)
            out = workdir / "out"
            return workload.check(workload.execute(out), out).failures
        except Exception as exc:
            return [f"{name}: {type(exc).__name__}: {exc}"]


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in WORKLOADS:
        raise SystemExit(f"usage: seed_sweep.py {{{','.join(WORKLOADS)}}} FIRST LAST")
    name, first, last = argv[0], int(argv[1]), int(argv[2])
    failed = 0
    for seed in range(first, last + 1):
        found = failures(name, seed)
        if found:
            failed += 1
            print(f"{name} seed {seed}: " + "; ".join(found))
    print(f"{name}: {last - first + 1 - failed} of {last - first + 1} seeds passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
