"""Layer spans recorded from outside the program.

`Tracer.install` replaces each public function listed in TARGETS by a wrapper
that records a span (name, parent span, start, end) in memory.  Modules import
by name (`from .harmonic import zonal_eval`), so the wrapper is bound in every
`typeii` namespace that holds the original, not only the defining module.
Methods of `gf2.Code` are replaced on the class.  Nothing private and nothing
called per codeword is wrapped.

Counters are computed from the arguments and results of the wrapped calls;
they are labelled as computed in the benchmark's documentation.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from math import comb
from time import perf_counter_ns

# (span name, module, attribute path in that module)
TARGETS = (
    ("gf2.rref", "gf2", "Code.__init__"),
    ("gf2.weight_distribution", "gf2", "Code.weight_distribution"),
    ("gf2.shell", "gf2", "Code.shell"),
    ("configuration.verify_on_code", "configuration", "verify_on_code"),
    ("configuration.analyze", "configuration", "analyze"),
    ("configuration.build_system", "configuration", "build_system"),
    ("configuration.extended_determinant", "configuration", "extended_determinant"),
    ("configuration.reference_ratio", "configuration", "reference_ratio"),
    ("exact.det_ratfun", "exact", "det_ratfun"),
    ("exact.integer_roots", "exact", "integer_roots"),
    ("harmonic.zonal_eval", "harmonic", "zonal_eval"),
    ("harmonic.sphere_sum", "harmonic", "sphere_sum"),
    ("harmonic.sphere_sum_symbolic", "harmonic", "sphere_sum_symbolic"),
    ("designs.predesign_count", "designs", "predesign_count"),
    ("designs.zonal_design_residual", "designs", "zonal_design_residual"),
    ("gleason.extremal_weight_enumerator", "gleason", "extremal_weight_enumerator"),
    ("catalog.resolve", "catalog", "resolve"),
    ("cli.main", "cli", "main"),
)

COUNTERS = (
    "gf2.codewords_swept",
    "gf2.codewords_per_s",
    "gf2.shell_hit_ratio",
    "exact.det_ratfun.max_dim",
    "exact.det_ratfun.max_num_degree",
    "harmonic.zonal_eval.repeat_ratio",
    "designs.predesign_count.subsets",
)


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{span}.{field}" for span, _, _ in TARGETS
             for field in ("calls", "total_s", "self_s")]
    return names + list(COUNTERS) + ["trace.coverage", "trace.overhead_s"]


class Tracer:
    """In-memory spans with parent links, plus counters."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._stack: list[int] = []
        self.swept = 0           # sum of 2^k over weight_distribution and shell
        self.shell_swept = 0     # sum of 2^k over shell calls
        self.shell_words = 0     # words returned by shell calls
        self.det_max_dim = 0
        self.det_max_num_degree = 0
        self.zonal_calls = 0
        self.zonal_repeats = 0
        self._zonal_seen: set = set()
        self.subsets = 0         # sum of |D| * C(w, t) over predesign_count

    # -- counters, from arguments and results ----------------------------------

    def _count(self, name: str, args: tuple, result) -> None:
        if name in ("gf2.weight_distribution", "gf2.shell"):
            words = 1 << args[0].k
            self.swept += words
            if name == "gf2.shell":
                self.shell_swept += words
                self.shell_words += len(result)
        elif name == "exact.det_ratfun":
            self.det_max_dim = max(self.det_max_dim, len(args[0]))
            self.det_max_num_degree = max(self.det_max_num_degree, result.num.degree)
        elif name == "harmonic.zonal_eval":
            self.zonal_calls += 1
            key = (args[0], args[1])
            if key in self._zonal_seen:
                self.zonal_repeats += 1
            else:
                self._zonal_seen.add(key)
        elif name == "designs.predesign_count":
            dset, t = args
            self.subsets += len(dset) * comb(dset.w, t)

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, self._count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, parent, start, end)
            count(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target in every typeii namespace that binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "typeii" or key.startswith("typeii.")]
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(f"typeii.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self._wrap(name, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    # -- summary -------------------------------------------------------------------

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of this traced run, except trace.overhead_s."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = {name: 0 for name, _, _ in TARGETS}
        total = dict.fromkeys(calls, 0)
        self_ns = dict.fromkeys(calls, 0)
        for idx, (name, _, start, end) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_ns[name] += end - start - child_ns[idx]
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name] / 1e9
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        sweep_s = out["gf2.weight_distribution.total_s"] + out["gf2.shell.total_s"]
        out["gf2.codewords_swept"] = self.swept
        out["gf2.codewords_per_s"] = self.swept / sweep_s if sweep_s else 0.0
        out["gf2.shell_hit_ratio"] = (self.shell_words / self.shell_swept
                                      if self.shell_swept else 0.0)
        out["exact.det_ratfun.max_dim"] = self.det_max_dim
        out["exact.det_ratfun.max_num_degree"] = self.det_max_num_degree
        out["harmonic.zonal_eval.repeat_ratio"] = (
            self.zonal_repeats / self.zonal_calls if self.zonal_calls else 0.0)
        out["designs.predesign_count.subsets"] = self.subsets
        # self times partition the time under top-level spans; the time cli.main
        # spends outside every named layer does not count as covered
        covered = sum(self_ns.values()) - self_ns["cli.main"]
        out["trace.coverage"] = covered / 1e9 / wall_s if wall_s else 0.0
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line: id, parent, name, start/end ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
