"""Summary statistics and the parent/change comparison rule.

The rule, over paired runs of a parent and a change: claim a gain only when
the change wins at least nine tenths of the pairs (ties count for neither)
and the medians differ by more than the parent's interquartile range; call a
metric unresolved when the parent's spread exceeds the bound, unless every
run of the change reads better than every run of the parent.  A run that
has no value (NaN: every sample of it failed) counts against its side: a
failed change run makes a regression, a failed parent run (with every change
run measured) leaves the metric unresolved.
"""

from __future__ import annotations

import math
import statistics

GAIN = "gain"
REGRESSION = "regression"
UNRESOLVED = "unresolved"
WITHIN = "within bound"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p50..p99 with at least ten samples above it, by
    nearest rank, or None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def _measured(values: list[float]) -> list[float]:
    """The values with failed runs (NaN) left out, or [NaN] if none is left."""
    return [v for v in values if not math.isnan(v)] or [math.nan]


def describe(values: list[float]) -> dict:
    """Median, the high percentile and the sample count of a timing."""
    out = {"median": statistics.median(values), "n": len(values)}
    high = high_percentile(values)
    if high is not None:
        out[f"p{high[0]}"] = high[1]
    return out


def compare(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Verdict for one metric on one workload from paired runs.

    parent[i] and change[i] come from the same pair; `better` is "lower" or
    "higher"; `bound` is the share of the parent's median by which the change
    may be worse before it counts as a regression.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of runs on each side")
    sign = 1 if better == "lower" else -1
    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    change_failed = any(math.isnan(v) for v in change)
    parent_failed = any(math.isnan(v) for v in parent)
    parent, change = _measured(parent), _measured(change)
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if change_failed:
        verdict = REGRESSION
    elif parent_failed:
        verdict = UNRESOLVED
    elif wins >= 0.9 * pairs and sign * (cmed - pmed) < 0 \
            and abs(cmed - pmed) > p3 - p1:
        verdict = GAIN
    elif spread(parent) > bound and not all_better:
        verdict = UNRESOLVED
    elif sign * (cmed - pmed) > bound * abs(pmed):
        verdict = REGRESSION
    else:
        verdict = WITHIN
    return {
        "parent": {"q1": p1, "median": pmed, "q3": p3},
        "change": {"q1": c1, "median": cmed, "q3": c3},
        "wins": wins,
        "pairs": pairs,
        "verdict": verdict,
    }
