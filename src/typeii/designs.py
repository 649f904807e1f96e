"""Certification of t-designs and t-half-designs inside a Hamming sphere.

A subset D of B_w is a t-predesign when every t-subset of coordinates lies
in a constant number N_t of word supports; it is a t-design when that holds
for every positive t' <= t.  The tally here is the counting definition,
which is the authoritative test.  Residuals of zonal harmonic sums give the
complementary analytic certificate: they vanish through degree t for a
t-design, and a t-half-design additionally kills degree t + 2.  The zonal
residual check runs over a deterministic sample of reference words and is a
necessary condition (zonal polynomials need not span all harmonics), so
reports label it "zonal-verified".
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

from .gf2 import DesignSet, Word
from .harmonic import zonal_sum

PREDESIGN_BOUND = 10**7
SAMPLE_SEED = 0x5EED

__all__ = [
    "DesignSet",
    "default_cbar_sample",
    "doublecount_check",
    "intersection_profile",
    "is_t_design",
    "is_t_half_design",
    "predesign_count",
    "sphere",
    "zonal_design_residual",
]


def sphere(n: int, w: int) -> DesignSet:
    """The full Hamming sphere B_w (desk scale only)."""
    if comb(n, w) > PREDESIGN_BOUND:
        raise ValueError(f"sphere B_{w} in length {n} is too large to materialize")
    return DesignSet(
        n, w, tuple(Word.from_support(n, c) for c in combinations(range(n), w))
    )


def predesign_count(dset: DesignSet, t: int) -> int | None:
    """The constant N such that every t-subset of coordinates lies in exactly
    N supports, or None when the counts are not constant."""
    n = dset.n
    if not 0 <= t <= n:
        raise ValueError(f"t = {t} outside 0..{n}")
    total = comb(n, t)
    if total > PREDESIGN_BOUND:
        raise ValueError(f"C({n},{t}) = {total} exceeds the enumeration bound")
    if t == 0:
        return len(dset)
    # dense tally indexed by the combinatorial number system rank
    table = [[comb(c, i) for i in range(1, t + 1)] for c in range(n)]
    counts = [0] * total
    for word in dset.words:
        sup = word.support()
        for combo in combinations(sup, t):
            idx = 0
            for i, c in enumerate(combo):
                idx += table[c][i]
            counts[idx] += 1
    first = counts[0]
    return first if all(c == first for c in counts) else None


def is_t_design(dset: DesignSet, t: int) -> bool:
    """True iff dset is a t'-predesign for every positive t' <= t."""
    return all(predesign_count(dset, tp) is not None for tp in range(1, t + 1))


def doublecount_check(dset: DesignSet, t: int) -> bool:
    """Pair-counting identity C(n,t) N_t = C(w,t) |D|; False when the counts
    are not constant (no N_t exists)."""
    n_t = predesign_count(dset, t)
    if n_t is None:
        return False
    return comb(dset.n, t) * n_t == comb(dset.w, t) * len(dset)


def intersection_profile(dset: DesignSet, cbar: Word) -> dict[int, int]:
    """How many design words meet cbar in each intersection weight."""
    counts: dict[int, int] = {}
    cb = cbar.bits
    for word in dset.words:
        a = (word.bits & cb).bit_count()
        counts[a] = counts.get(a, 0) + 1
    return counts


def zonal_design_residual(dset: DesignSet, deg: int, cbar: Word) -> Fraction:
    """Sum of the degree-deg zonal harmonic relative to cbar over the design,
    grouped by intersection weight; zero when dset is a deg-design."""
    if cbar.n != dset.n:
        raise ValueError("reference word of wrong length")
    profile = intersection_profile(dset, cbar)
    return zonal_sum(dset.n, cbar.weight(), dset.w, profile, deg)


def default_cbar_sample(n: int, deg: int, extra: int = 64,
                        seed: int = SAMPLE_SEED) -> list[Word]:
    """Deterministic reference-word sample: every weight-1 word, every
    weight-deg word supported on the first 12 coordinates, and `extra` words
    from a fixed-seed pseudorandom stream."""
    words = [Word.from_support(n, [j]) for j in range(n)]
    head = min(12, n)
    if deg <= head:
        words.extend(
            Word.from_support(n, c) for c in combinations(range(head), deg)
        )
    rng = random.Random(seed)
    seen = {w.bits for w in words}
    while extra > 0:
        bits = rng.getrandbits(n)
        if bits and bits not in seen:
            seen.add(bits)
            words.append(Word(n, bits))
            extra -= 1
    return words


def is_t_half_design(dset: DesignSet, t: int,
                     cbar_sample: list[Word] | None = None) -> bool:
    """t-design whose zonal sums also vanish in degree t + 2, checked over the
    sample (words lighter than t + 2 are skipped: the zonal generator divides
    by s - l for l < deg, so it is undefined for them)."""
    if not is_t_design(dset, t):
        return False
    deg = t + 2
    if cbar_sample is None:
        cbar_sample = default_cbar_sample(dset.n, deg)
    for cbar in cbar_sample:
        if cbar.weight() < deg:
            continue
        if zonal_design_residual(dset, deg, cbar) != 0:
            return False
    return True
