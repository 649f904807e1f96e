"""Certification of t-designs and t-half-designs inside a Hamming sphere.

A subset D of B_w is a t-predesign when every t-subset of coordinates lies
in a constant number N_t of word supports; it is a t-design when that holds
for every positive t' <= t.  Delsarte ("Hahn polynomials, discrete
harmonics, and t-designs", SIAM J. Appl. Math. 34, 1978) gives the exact
certificate `paper` reads: for 1 <= d <= min(w, n - w) the degree-d
harmonics restricted to B_w form one irreducible S_n-module, and the zonal
function Z_d(.; y) of a reference word y in B_w is a fixed positive multiple
of its reproducing kernel.  So the double sum of Z_d(x; y) over x and y in D
is a fixed positive multiple of the squared norm of the projection of the
indicator of D onto that module, and it vanishes exactly when D kills the
degree-d harmonics.  The double sum is one `zonal_sum` over the inner
distribution of D (`inner_distribution`), and `killed_degrees` lists the
degrees where it vanishes and every degree above min(w, n - w), where no
nonzero harmonic lives on B_w.  D is a t-design iff it kills every degree
1..t; then N_t = |D| C(w, t) / C(n, t).  A t-half-design is a t-design that
also kills degree t + 2.

Every N_t a command prints comes from that formula (`design_counts`); what
differs is how the strength is found.  `design-check --half` reads it and
both verdicts from one `killed_degrees(D, t + 2)`.  It counts all |D|^2
pairs, so `inner_distribution` refuses more than PAIR_BOUND words before any
(`check_pair_bound`).  Plain runs find it with the tally (`predesign_count`),
which reaches shells far too large for pair work and takes milliseconds
where the certificate takes half a second (qr48 or rm32 weight 12).  For
t <= w a constant N_t forces N_{t-1} = N_t (n-t+1)/(w-t+1): for a
(t-1)-subset A, count the pairs of a support through A and one of its w-t+1
coordinates outside A.  So the tally runs from level t down and stops at
the first constant level.

Every computation runs on one bit-sliced engine (Biham, FSE 1997), the
transpose of the codeword sweep in `gf2`: the column bitmaps of a set
(`DesignSet.columns`, bit i of column j is coordinate j of word i) are built
once per set.
- The tally walks the t-subsets of coordinates depth first, ANDing one
  column into the prefix per step, so the number of supports holding a
  t-subset is one `bit_count`; the walk stops at the first count that
  differs, and a prefix held by no support settles its whole subtree.
- The intersection profile against a reference word adds the columns of
  its support with the carry-save counter of `gf2` and splits the words
  on the counter's bit planes.  `summed_profile` counts many references
  side by side: each gets a segment of |D| bits, padded to whole bytes, in
  one int per support slot, whose slot-s segment is the column of the
  reference's s-th coordinate (zero past its weight).  One count and one
  split then serve a chunk of references; the padding bits, which count 0,
  are taken off the count at 0.  Chunks keep every slot int within
  SLOT_BOUND bits.  A single reference, or a segment wider than
  SEGMENT_BOUND bits, goes alone in its chunk, unpadded: its segment is the
  column itself.  Past that width the bytes round trip (about 1.5 ns a
  byte) costs more than the per-reference overhead it saves.  The inner
  distribution is the summed profile of every word of D.
"""

from __future__ import annotations

from collections.abc import Container, Sequence
from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from math import comb
from operator import and_, itemgetter

from .gf2 import DesignSet, _set_bits, count_planes, split_by_count
from .harmonic import zonal_sum

PREDESIGN_BOUND = 10**7
PAIR_BOUND = 1 << 15  # every catalog shell up to qr48 w = 12
SLOT_BOUND = 1 << 19  # bits per slot int of summed_profile, 64 KiB
SEGMENT_BOUND = 1 << 13  # bits; a wider segment goes alone in its chunk


def check_predesign_bound(n: int, t: int):
    """Refuse a tally over more than PREDESIGN_BOUND t-subsets of n coordinates."""
    total = comb(n, t)
    if total > PREDESIGN_BOUND:
        raise ValueError(f"C({n},{t}) = {total} exceeds the enumeration bound")


def check_pair_bound(size: int):
    """Refuse pair work (every pair of words) on more than PAIR_BOUND words."""
    if size > PAIR_BOUND:
        raise ValueError(f"{size} words exceed PAIR_BOUND = {PAIR_BOUND}")


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


def summed_profile(dset: DesignSet, refs: Sequence[int]) -> dict[int, int]:
    """How many pairs (x, y), x in dset and y in refs, meet in each
    intersection weight, in ascending order of weight: the sum of the
    intersection profiles of the references, counted side by side (see the
    module docstring)."""
    n, size = dset.n, len(dset)
    if any(y < 0 or y >> n for y in refs):
        raise ValueError("reference word bits beyond the design length")
    supports = [list(_set_bits(y)) for y in refs]
    cols = dset.columns
    padded = (size + 7) // 8 * 8
    if len(refs) == 1 or padded > SEGMENT_BOUND:
        # one segment per chunk: the columns themselves, with no padding
        width, per = size, 1
        images, zero, join = cols, 0, itemgetter(0)
    else:
        width, per = padded, max(1, SLOT_BOUND // max(padded, 8))
        images = [c.to_bytes(width // 8, "little") for c in cols]
        zero = bytes(width // 8)

        def join(parts):
            return int.from_bytes(b"".join(parts), "little")
    total: dict[int, int] = {}
    for lo in range(0, len(supports), per):
        chunk = supports[lo:lo + per]
        slots = map(join, zip_longest(*([images[j] for j in s] for s in chunk),
                                      fillvalue=zero))
        masks = split_by_count(count_planes(slots), (1 << len(chunk) * width) - 1)
        for a, mask in masks.items():
            total[a] = total.get(a, 0) + mask.bit_count()
        total[0] = total.get(0, 0) - len(chunk) * (width - size)  # padding bits
    return {a: c for a, c in sorted(total.items()) if c}


def intersection_profile(dset: DesignSet, cbar: int) -> dict[int, int]:
    """How many design words meet cbar in each intersection weight, in
    ascending order of weight."""
    return summed_profile(dset, (cbar,))


def inner_distribution(dset: DesignSet) -> dict[int, int]:
    """How many ordered pairs (x, y) of design words meet in each
    intersection weight, in ascending order of weight, the diagonal x = y
    included."""
    check_pair_bound(len(dset))
    return summed_profile(dset, dset.words)


def killed_degrees(dset: DesignSet, top: int) -> set[int]:
    """The degrees d in 1..top whose harmonics dset kills: every d above
    min(w, n - w), where no nonzero harmonic lives on B_w, and each lower d
    where the double zonal sum over dset vanishes (see the module
    docstring)."""
    n, w = dset.n, dset.w
    inner = inner_distribution(dset)
    return {d for d in range(1, top + 1)
            if d > min(w, n - w) or zonal_sum(n, w, w, inner, d) == 0}


def design_counts(dset: DesignSet, killed: Container[int], top: int
                  ) -> dict[int, int | None]:
    """N_t for t in 1..top from the degrees dset kills (`killed_degrees` to top
    or beyond, or 1..s for a tally constant at level s): |D| C(w, t) / C(n, t)
    while every degree 1..t is killed, and None from the first t where one
    is not."""
    n, w = dset.n, dset.w
    strength = next((d - 1 for d in range(1, top + 1) if d not in killed), top)
    return {t: len(dset) * comb(w, t) // comb(n, t) if t <= strength else None
            for t in range(1, top + 1)}


def zonal_design_residual(dset: DesignSet, deg: int, cbar: int) -> Fraction:
    """Sum of the degree-deg zonal harmonic relative to cbar over the design,
    grouped by intersection weight; zero when dset is a deg-design."""
    profile = intersection_profile(dset, cbar)
    return zonal_sum(dset.n, cbar.bit_count(), dset.w, profile, deg)
