#!/usr/bin/env python3
"""Compare two benchmark records of one workload, metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

The records are the files perfbench/run.py writes under
`.bench_work/results/`. Results from different hosts (CPU count, CPU
model or memory differ) are refused: their numbers say nothing about the
code. A metric regresses when it is worse than BASE by more than the
bound BENCHMARK.json sets for it; per-layer metrics have no bound and are
shown for explanation only. Exits 1 on a regression, 2 on a refusal.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    spec = benchlib.load_json(spec_path)
    base, new = benchlib.load_json(argv[1]), benchlib.load_json(argv[2])
    try:
        rows = benchlib.compare(base, new, spec)
    except (benchlib.HostMismatch, ValueError) as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2
    print(f"{base['workload']}: seed {base['seed']} -> seed {new['seed']}")
    regressed = False
    for name, unit, b, n, worse, bound, bad in rows:
        limit = f"bound {bound:.0%}" if bound is not None else "no bound"
        flag = "  REGRESSED" if bad else ""
        print(f"  {name:<34} {b:>14.6g} -> {n:<14.6g} {unit:<6} worse by {worse:+.1%} ({limit}){flag}")
        regressed |= bad
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
