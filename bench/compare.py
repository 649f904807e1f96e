"""Compare a parent and a change checkout with the same benchmark code.

    python3 bench/compare.py --parent ../typeii-parent --change . \\
        --workload paper --workload qr48

Each checkout directory must hold `src/typeii`.  For every workload it runs
ten pairs of untraced benchmark runs of run_seconds each (BENCHMARK.json),
one per side with the same seed, alternating which side runs first, and
prints one row per workload and end-to-end metric: each side's quartiles, the
pairs the change won and the verdict of bench/stats.compare (gain,
regression, unresolved or within bound).  A run in which every sample failed
has no timings; bench/stats.compare counts it against its side.  A gain does
not count when the change failed more runs than the parent.  Every value
measured is written to --out as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import run
import stats
import workloads

PAIRS = 10  # the 9-of-10-wins rule needs ten pairs


def compare_workload(parent: Path, change: Path, workload: str, seed: int,
                     spec: dict) -> dict:
    sides = {"parent": parent / "src", "change": change / "src"}
    values = {side: {m["name"]: [] for m in spec["end_to_end"]} for side in sides}
    failed = dict.fromkeys(sides, 0)
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            record = run.measure(sides[side].resolve(), workload, seed + i,
                                 spec["run_seconds"], trace=0)
            failed[side] += record["failed"]
            for name, series in values[side].items():
                series.append(record["metrics"].get(name, math.nan))
    rows = {}
    for m in spec["end_to_end"]:
        row = stats.compare(values["parent"][m["name"]], values["change"][m["name"]],
                            m["better"], m["bound"])
        if row["verdict"] == stats.GAIN and failed["change"] > failed["parent"]:
            row["verdict"] = "gain void: more failed runs"
        rows[m["name"]] = row
    return {"values": values, "failed": failed, "rows": rows}


def _quartiles(q: dict) -> str:
    return f"{q['q1']:.4g}/{q['median']:.4g}/{q['q3']:.4g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=run.ROOT / ".bench_out" / "compare.json")
    args = parser.parse_args(argv)

    spec = run.load_spec()
    results = {}
    print(f"{'workload':<11} {'metric':<13} {'parent q1/med/q3':<30} "
          f"{'change q1/med/q3':<30} wins  verdict")
    for workload in args.workload or list(workloads.NAMES):
        try:
            res = compare_workload(args.parent, args.change, workload,
                                   args.seed, spec)
        except run.BenchError as err:
            print(f"error: {workload}: {err}", file=sys.stderr)
            return 2
        results[workload] = res
        for name, row in res["rows"].items():
            print(f"{workload:<11} {name:<13} {_quartiles(row['parent']):<30} "
                  f"{_quartiles(row['change']):<30} "
                  f"{row['wins']}/{row['pairs']:<4} {row['verdict']}")
        print(f"{workload:<11} failed runs: parent {res['failed']['parent']}, "
              f"change {res['failed']['change']}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"values: {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
