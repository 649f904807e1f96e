"""One benchmark sample, run by bench/run.py in a fresh interpreter.

Imports `typeii` from --src, builds the workload's inputs, notes the
monotonic clock (the parent subtracts its launch time to get setup_s).  Unless
--setup-only, it then runs the workload once with its stdout captured, timing
the speed of the host every 0.1 s (speed.py), and prints one JSON line: the
clock at ready, raw and scaled wall and CPU time of the workload, the scale,
peak RSS, exit code and the sha256 of the program's stdout.  With --trace 1 the public layer functions are
wrapped first and the per-layer summary (raw times) is added; the spans are
written to --spans at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path[:0] = [args.src, os.path.dirname(os.path.abspath(__file__))]
    import typeii.cli  # noqa: F401  (imports every layer)
    import workloads

    job = workloads.prepare(args.workload, args.seed)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import speed

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    with speed.Probe() as probe, contextlib.redirect_stdout(out):
        code = job()
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    spent = probe.spent()
    if not probe.ticks:  # shorter than one tick interval: time one after it
        probe.tick()
    scale = probe.scale()
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "ready": ready,
        "scale": scale,
        "ticks": len(probe.ticks),
        "tick_s": spent,
        "wall_raw_s": wall,
        "cpu_raw_s": cpu,
        "wall_s": (wall - spent) * scale,
        "cpu_s": (cpu - spent) * scale,
        "peak_rss_mb": rss_kb / 1024,
        "exit": code,
        "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    }
    if tracer is not None:
        result["layers"] = tracer.summary(wall)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
