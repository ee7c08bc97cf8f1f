#!/usr/bin/env python3
"""Compare two checkouts of the repository in alternating pairs.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR --workload ber-sweep --pairs 10

BASE_DIR and CHANGE_DIR are source trees (for example made with
``git archive <commit> | tar -x -C DIR``); each must hold ``perfbench/`` and
``src/``.  Pair i runs both sides with seed ``--seed + i``; even pairs run
the base first, odd pairs the change first.  For every end-to-end metric the
script prints each side's median and quartiles, the change's share of pairs
won (ties count for neither side) and the base's own spread, the figures a
gain claim rests on.  It uses the benchmark of each checkout as it is.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

LOWER_IS_BETTER = {"setup_s", "design_s", "certify_s", "sweep_s", "peak_rss_mb", "gamma_min"}


def run(tree: Path, args, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{tree}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"{tree}: incorrect result with seed {seed}\n{proc.stderr[-2000:]}")
    return {k: m["value"] for k, m in res["metrics"].items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=20260808)
    ap.add_argument("--seconds", type=float, default=60.0)
    args = ap.parse_args()
    base, change = [], []
    for i in range(args.pairs):
        order = [(args.base, base), (args.change, change)]
        for tree, out in (order if i % 2 == 0 else order[::-1]):
            out.append(run(tree, args, args.seed + i))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    print(f"{'metric':16s} {'base median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'wins':>5s} {'base IQR':>9s}")
    for key in base[0]:
        b = [r[key] for r in base]
        c = [r[key] for r in change]
        sign = -1.0 if key in LOWER_IS_BETTER else 1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        qb, qc = statistics.quantiles(b, n=4), statistics.quantiles(c, n=4)
        print(f"{key:16s} {statistics.median(b):12.6g} [{qb[0]:9.4g}, {qb[2]:9.4g}] "
              f"{statistics.median(c):12.6g} [{qc[0]:9.4g}, {qc[2]:9.4g}] "
              f"{wins:2d}/{len(b):<2d} {qb[2] - qb[0]:9.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
