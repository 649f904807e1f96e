"""Certification of t-designs and t-half-designs inside a Hamming sphere.

A subset D of B_w is a t-predesign when every t-subset of coordinates lies
in a constant number N_t of word supports; it is a t-design when that holds
for every positive t' <= t.  The tally here is the counting definition,
which is the authoritative test.  Residuals of zonal harmonic sums give the
complementary analytic certificate: they vanish through degree t for a
t-design, and a t-half-design additionally kills degree t + 2.  The zonal
residual check runs over a deterministic sample of reference words (int
words, as in `gf2`) and is a necessary condition (zonal polynomials need not
span all harmonics), so reports label it "zonal-verified".

Both computations run on one bit-sliced engine (Biham, FSE 1997), the
transpose of the codeword sweep in `gf2`: the column bitmaps of a set
(`DesignSet.columns`, bit i of column j is coordinate j of word i) are built
once per set.
- The tally walks the t-subsets of coordinates depth first, ANDing one
  column into the prefix per step, so the number of supports holding a
  t-subset is one `bit_count`; the walk stops at the first count that
  differs, and a prefix held by no support settles its whole subtree.
- The intersection profile against a reference word adds the columns of
  its support with the carry-save counter of `gf2` and splits the words
  on the counter's bit planes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb
from operator import and_

from .gf2 import DesignSet, count_planes, split_by_count
from .harmonic import zonal_sum

PREDESIGN_BOUND = 10**7
SAMPLE_SEED = 0x5EED

__all__ = [
    "DesignSet",
    "check_predesign_bound",
    "default_cbar_sample",
    "intersection_profile",
    "is_t_design",
    "is_t_half_design",
    "predesign_count",
    "sample_profiles",
    "zonal_design_residual",
]


def check_predesign_bound(n: int, t: int):
    """Refuse a tally over more than PREDESIGN_BOUND t-subsets of n coordinates."""
    total = comb(n, t)
    if total > PREDESIGN_BOUND:
        raise ValueError(f"C({n},{t}) = {total} exceeds the enumeration bound")


def predesign_count(dset: DesignSet, t: int) -> int | None:
    """The constant N such that every t-subset of coordinates lies in exactly
    N supports, or None when the counts are not constant."""
    n = dset.n
    if not 0 <= t <= n:
        raise ValueError(f"t = {t} outside 0..{n}")
    check_predesign_bound(n, t)
    if t == 0:
        return len(dset)
    cols = dset.columns
    target = reduce(and_, cols[:t]).bit_count()  # N of {0, ..., t-1}

    def walk(acc: int, start: int, left: int) -> bool:
        # every completion of the prefix acc by `left` columns from start on
        if left == 1:
            return all((acc & c).bit_count() == target for c in cols[start:])
        for j in range(start, n - left + 1):
            sub = acc & cols[j]
            if not sub:
                # every t-subset through this prefix lies in no support
                if target:
                    return False
            elif not walk(sub, j + 1, left - 1):
                return False
        return True

    return target if walk((1 << len(dset)) - 1, 0, t) else None


def is_t_design(dset: DesignSet, t: int) -> bool:
    """True iff dset is a t'-predesign for every positive t' <= t.

    One tally decides it.  For t <= w a t-predesign is an s-predesign for
    every s <= t, with N_s = N_t C(n-s, t-s) / C(w-s, t-s); for t > w no
    t-subset lies in a support, so only the w-tally can fail."""
    return predesign_count(dset, min(t, dset.w)) is not None


def intersection_profile(dset: DesignSet, cbar: int) -> dict[int, int]:
    """How many design words meet cbar in each intersection weight, in
    ascending order of weight."""
    if cbar < 0 or cbar >> dset.n:
        raise ValueError("reference word bits beyond the design length")
    cols = (c for j, c in enumerate(dset.columns) if cbar >> j & 1)
    masks = split_by_count(count_planes(cols), (1 << len(dset)) - 1)
    return {a: masks[a].bit_count() for a in sorted(masks)}


def sample_profiles(dset: DesignSet, deg: int, cbar_sample: list[int] | None = None
                    ) -> list[tuple[int, dict[int, int]]]:
    """(weight, intersection profile) of each reference word of weight at
    least deg, in sample order (default: default_cbar_sample(n, deg)).

    Lighter words are skipped: the degree-deg zonal generator divides by
    s - l for l < deg, so it is undefined for them."""
    if cbar_sample is None:
        cbar_sample = default_cbar_sample(dset.n, deg)
    return [(cbar.bit_count(), intersection_profile(dset, cbar))
            for cbar in cbar_sample if cbar.bit_count() >= deg]


def zonal_design_residual(dset: DesignSet, deg: int, cbar: int) -> Fraction:
    """Sum of the degree-deg zonal harmonic relative to cbar over the design,
    grouped by intersection weight; zero when dset is a deg-design."""
    profile = intersection_profile(dset, cbar)
    return zonal_sum(dset.n, cbar.bit_count(), dset.w, profile, deg)


def default_cbar_sample(n: int, deg: int, extra: int = 64) -> list[int]:
    """Deterministic reference-word sample: every weight-1 word, every
    weight-deg word supported on the first 12 coordinates, and `extra` words
    from the pseudorandom stream seeded with SAMPLE_SEED."""
    words = [1 << j for j in range(n)]
    head = min(12, n)
    if deg <= head:
        words.extend(sum(1 << j for j in c) for c in combinations(range(head), deg))
    rng = random.Random(SAMPLE_SEED)
    seen = set(words)
    while extra > 0:
        bits = rng.getrandbits(n)
        if bits and bits not in seen:
            seen.add(bits)
            words.append(bits)
            extra -= 1
    return words


def is_t_half_design(dset: DesignSet, t: int,
                     cbar_sample: list[int] | None = None) -> bool:
    """t-design whose zonal sums also vanish in degree t + 2, checked over the
    sample of reference words (see sample_profiles)."""
    if not is_t_design(dset, t):
        return False
    deg = t + 2
    return all(zonal_sum(dset.n, s, dset.w, profile, deg) == 0
               for s, profile in sample_profiles(dset, deg, cbar_sample))
