"""typeii benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Every sample runs in a fresh interpreter (bench/child.py) with TYPEII_THREADS
and TYPEII_DEEP removed, one child at a time, and its stdout is checked
against the reference recorded at the seed.  A sample that exits non-zero,
times out or differs counts as failed and its timings are dropped.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over the
samples of the run, with setup_s taken over extra set-up-only launches too.
Times are in reference seconds, so that a shared host changing speed under
the run does not move them (speed.py): each child times a fixed reference
loop while the workload runs and wall_s and cpu_s are scaled by the speed it
saw; setup_s is scaled by the speed of a bare interpreter launch made just
before the child.  The measured times are in the results file too.
--trace 1 alternates untraced and traced samples and reports the per-layer
metrics (medians over traced samples) plus trace.overhead_s.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
A results file with the environment, every sample and each timing's median,
high percentile and sample count goes to --out (default .bench_out/).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 10  # extra set-up-only launches per untraced run
RUN_LIMIT_S = 170    # every child of one run must end within this
E2E = ("wall_s", "cpu_s", "peak_rss_mb")
SAMPLE_KEYS = ("setup_s", "setup_raw_s", "launch_scale", "wall_raw_s",
               "cpu_raw_s", "scale", "ticks", "tick_s") + E2E


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or set-up fails)."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    return {k: v for k, v in os.environ.items()
            if k not in ("TYPEII_THREADS", "TYPEII_DEEP")}


def launch(src: Path, workload: str, seed: int, *, trace: int = 0,
           setup_only: bool = False, spans: Path | None = None,
           timeout: float) -> dict:
    """Run one child; return its record with setup_s and an ok/reason flag."""
    cmd = [sys.executable, "-I", str(BENCH / "child.py"), "--src", str(src),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        launch_scale = speed.launch_scale(child_env(), timeout)
    except (OSError, subprocess.SubprocessError) as err:
        return {"ok": False, "reason": f"bare launch failed: {err}"}
    launched = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 0.001))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "reason": "timeout"}
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["(no stderr)"]
        return {"ok": False, "reason": f"child exit {proc.returncode}: {tail[0]}"}
    try:
        record = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "reason": "unreadable child output"}
    record["setup_raw_s"] = record.pop("ready") - launched
    record["launch_scale"] = launch_scale
    record["setup_s"] = record["setup_raw_s"] * launch_scale
    if setup_only:
        record["ok"] = True
    elif record["exit"] != 0:
        record.update(ok=False, reason=f"program exit {record['exit']}")
    elif record["sha256"] != workloads.REFERENCE_SHA256[workload]:
        record.update(ok=False, reason="output differs from the reference")
    else:
        record["ok"] = True
    return record


def measure(src: Path, workload: str, seed: int, seconds: float, trace: int,
            spans_dir: Path | None = None) -> dict:
    """One benchmark run; returns the results record (see module docstring)."""
    if not (src / "typeii" / "__init__.py").is_file():
        raise BenchError(f"no typeii package under {src}")
    deadline = time.perf_counter() + RUN_LIMIT_S

    def left() -> float:
        return deadline - time.perf_counter()

    load_before = os.getloadavg()

    # compiles the bytecode cache and proves the program imports
    warm = launch(src, workload, seed, setup_only=True, timeout=left())
    if not warm["ok"]:
        raise BenchError(f"set-up failed: {warm['reason']}")
    setups = []
    if not trace:
        for _ in range(SETUP_LAUNCHES):
            rec = launch(src, workload, seed, setup_only=True, timeout=left())
            if not rec["ok"]:
                raise BenchError(f"set-up failed: {rec['reason']}")
            setups.append(rec["setup_s"])

    samples: list[dict] = []
    traced: list[dict] = []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < seconds:
        if trace:
            pair = len(traced)
            spans = (spans_dir / f"spans-{workload}-seed{seed}-{pair}.jsonl"
                     if spans_dir else None)
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            for mode in order:
                rec = launch(src, workload, seed, trace=mode, timeout=left(),
                             spans=spans if mode else None)
                (traced if mode else samples).append(rec)
        else:
            samples.append(launch(src, workload, seed, timeout=left()))
        if left() <= 0:
            break

    runs = samples + traced
    good = [r for r in samples if r["ok"]]
    good_traced = [r for r in traced if r["ok"]]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "attempted": len(runs),
        "failed": sum(1 for r in runs if not r["ok"]),
        "failures": [r["reason"] for r in runs if not r["ok"]],
        "samples": [{k: r[k] for k in SAMPLE_KEYS} for r in good],
    }
    record["error_rate"] = record["failed"] / record["attempted"]
    # success_rate is always there, so a run where every sample failed still
    # reads as a failure; timings are there only when a sample passed
    record["metrics"] = {"success_rate": 1 - record["error_rate"]}
    if not good or (trace and not good_traced):
        return record
    setups += [r["setup_s"] for r in good]
    record["timings"] = {m: stats.describe([r[m] for r in good]) for m in E2E}
    record["timings"]["setup_s"] = stats.describe(setups)
    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in good_traced)
                  for name in good_traced[0]["layers"]}
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in good_traced)
            - record["timings"]["wall_s"]["median"])
        record["metrics"] = layers
    else:
        record["metrics"].update(
            (m, record["timings"][m]["median"]) for m in E2E + ("setup_s",))
    return record


def result_line(record: dict, names: list[tuple[str, str]]) -> dict:
    """The final JSON object the benchmark contract asks for."""
    metrics = record["metrics"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for the results and spans files")
    args = parser.parse_args(argv)

    spec = load_spec()
    kind = "per_layer" if args.trace else "end_to_end"
    names = [(m["name"], m["unit"]) for m in spec[kind]]
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        record = measure(ROOT / "src", args.workload, args.seed,
                         args.seconds, args.trace, spans_dir=args.out)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"results: {path}", file=sys.stderr)
    if "timings" not in record:
        print(f"error: no sample succeeded: {record['failures']}", file=sys.stderr)
        return 1
    missing = [name for name, _ in names if name not in record["metrics"]]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps(result_line(record, names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
