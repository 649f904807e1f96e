import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typeii.catalog import CATALOG, resolve
from typeii.designs import (
    PAIR_BOUND,
    DesignSet,
    check_pair_bound,
    design_counts,
    inner_distribution,
    intersection_profile,
    killed_degrees,
    predesign_count,
    summed_profile,
    zonal_design_residual,
)
from typeii.gf2 import parse_word
from typeii.harmonic import zonal_eval, zonal_sum


def word(support) -> int:
    """The word with a 1 at each coordinate of support."""
    return sum(1 << j for j in support)


def support(bits: int) -> list[int]:
    return [j for j in range(bits.bit_length()) if bits >> j & 1]


def sphere(n: int, w: int) -> DesignSet:
    """The full Hamming sphere B_w."""
    return DesignSet(n, w, tuple(word(c) for c in combinations(range(n), w)))


def is_t_design(dset: DesignSet, t: int) -> bool:
    """True iff dset is a t'-predesign for every positive t' <= t.

    One tally decides it.  For t <= w a t-predesign is an s-predesign for
    every s <= t, with N_s = N_t C(n-s, t-s) / C(w-s, t-s); for t > w no
    t-subset lies in a support, so only the w-tally can fail."""
    return predesign_count(dset, min(t, dset.w)) is not None


def doublecount_check(dset: DesignSet, t: int) -> bool:
    """Pair-counting identity C(n,t) N_t = C(w,t) |D|; False when the counts
    are not constant (no N_t exists)."""
    n_t = predesign_count(dset, t)
    return n_t is not None and comb(dset.n, t) * n_t == comb(dset.w, t) * len(dset)


@pytest.fixture(scope="module")
def octads():
    return resolve("golay24").shell(8)


@pytest.fixture(scope="module")
def dodecads():
    return resolve("golay24").shell(12)


# ------------------------------------------------------------ predesign tally

def test_octads_steiner_counts(octads):
    # Steiner system S(5,8,24); each N_t is pinned by the pair-counting
    # identity N_t = C(8,t) * 759 / C(24,t), evaluated independently here
    assert len(octads) == 759
    expected = {t: comb(8, t) * 759 // comb(24, t) for t in range(1, 6)}
    assert expected == {1: 253, 2: 77, 3: 21, 4: 5, 5: 1}
    for t, n_t in expected.items():
        assert predesign_count(octads, t) == n_t
        assert doublecount_check(octads, t)


def test_octads_fail_at_six(octads):
    assert predesign_count(octads, 6) is None
    assert not is_t_design(octads, 6)
    assert not doublecount_check(octads, 6)


def test_octads_are_five_design(octads):
    assert is_t_design(octads, 5)


def test_full_sphere_counts():
    n, w = 8, 3
    b_w = sphere(n, w)
    for t in range(0, w + 1):
        assert predesign_count(b_w, t) == comb(n - t, w - t)
        assert doublecount_check(b_w, t)
    assert is_t_design(b_w, w)


def test_empty_design():
    empty = DesignSet(8, 3, ())
    assert predesign_count(empty, 2) == 0
    assert is_t_design(empty, 3)
    assert doublecount_check(empty, 2)


def test_proper_subset_fails_at_w():
    # for t >= w the only t-designs in B_w are the sphere and the empty set
    d = DesignSet(4, 2, (parse_word("1100"),))
    assert not is_t_design(d, 2)


def test_predesign_constant_implies_design_on_structured_sets(octads):
    # two code paths agree: constant tally at t (w >= t) forces all t' <= t
    for dset in (sphere(6, 3), DesignSet(6, 3, ()), octads):
        t = 3
        if predesign_count(dset, t) is not None:
            assert is_t_design(dset, t)


def test_equation_two_bruteforce_equivalence():
    # Span argument: functions of at most t coordinates are combinations of
    # subset indicators, so the averaging identity holds for all such f iff
    # it holds for every indicator of an I with |I| <= t.
    n, w, t = 6, 3, 2
    rng = random.Random(7)
    full = list(combinations(range(n), w))

    def indicator_identity(words: list[int]) -> bool:
        d_size = len(words)
        for r in range(t + 1):
            for isub in combinations(range(n), r):
                mask = sum(1 << j for j in isub)
                lhs = comb(n, w) * sum(
                    1 for bits in words if bits & mask == mask
                )
                rhs = d_size * comb(n - r, w - r)
                if lhs != rhs:
                    return False
        return True

    for _ in range(40):
        size = rng.randint(0, len(full))
        chosen = rng.sample(full, size)
        words = [word(c) for c in chosen]
        dset = DesignSet(n, w, tuple(words))
        assert is_t_design(dset, t) == indicator_identity(words)


# ------------------------------------------------------------ zonal residuals

def test_octad_residuals_design_degrees(octads):
    cbars = [word(range(8)), 0b101010101010101]
    for cbar in cbars:
        for deg in (1, 2, 3, 4, 5):
            assert zonal_design_residual(octads, deg, cbar) == 0


def test_octad_residual_degree_seven(octads):
    cbar = word(range(9))
    assert zonal_design_residual(octads, 7, cbar) == 0


def test_octad_residual_degree_six_nonzero(octads):
    cbar = word(range(8))
    assert zonal_design_residual(octads, 6, cbar) != 0


def test_full_sphere_residual_vanishes():
    b_w = sphere(8, 4)
    cbar = word(range(3))
    for deg in (1, 2, 3):
        assert zonal_design_residual(b_w, deg, cbar) == 0


def test_residual_permutation_invariance(octads):
    rng = random.Random(11)
    perm = list(range(24))
    rng.shuffle(perm)

    def permute(bits: int) -> int:
        return word(perm[j] for j in support(bits))

    cbar = word([0, 2, 4, 6, 8, 10, 12])
    moved = DesignSet(24, 8, tuple(sorted(permute(w) for w in octads)))
    assert zonal_design_residual(octads, 7, cbar) == \
        zonal_design_residual(moved, 7, permute(cbar))


# ------------------------------------------------------------ half designs
# The sampled residual check `design-check --half` ran before it read the
# exact certificate, kept as an oracle: zonal residuals against a sample of
# reference words, a necessary condition only.

SAMPLE_SEED = 0x5EED


def default_cbar_sample(n: int, deg: int, extra: int = 64) -> list[int]:
    """Deterministic reference-word sample: every weight-1 word, every
    weight-deg word supported on the first 12 coordinates, and `extra` words
    from the pseudorandom stream seeded with SAMPLE_SEED."""
    words = [1 << j for j in range(n)]
    head = min(12, n)
    if deg <= head:
        words.extend(word(c) for c in combinations(range(head), deg))
    rng = random.Random(SAMPLE_SEED)
    seen = set(words)
    while extra > 0:
        bits = rng.getrandbits(n)
        if bits and bits not in seen:
            seen.add(bits)
            words.append(bits)
            extra -= 1
    return words


def sample_profiles(dset: DesignSet, deg: int, cbar_sample: list[int]
                    ) -> list[tuple[int, dict[int, int]]]:
    """(weight, intersection profile) of each reference word of weight at
    least deg, in sample order.  Lighter words are skipped: the degree-deg
    zonal generator divides by s - l for l < deg."""
    return [(cbar.bit_count(), intersection_profile(dset, cbar))
            for cbar in cbar_sample if cbar.bit_count() >= deg]


def sampled_half_design(dset: DesignSet, t: int, sample: list[int]) -> bool:
    """The sampled t-half-design check, an oracle next to the exact
    certificate: a t-design whose degree-(t+2) zonal residuals vanish
    against every sample word of weight at least t + 2."""
    deg = t + 2
    return is_t_design(dset, t) and all(
        zonal_sum(dset.n, s, dset.w, profile, deg) == 0
        for s, profile in sample_profiles(dset, deg, sample))


def test_octads_are_five_half_design(octads):
    sample = default_cbar_sample(24, 7, extra=8)
    assert sampled_half_design(octads, 5, sample)
    assert {1, 2, 3, 4, 5, 7} <= killed_degrees(octads, 7)


def test_dodecads_are_five_half_design(dodecads):
    sample = [word(range(7)), word(range(1, 9))]
    assert sampled_half_design(dodecads, 5, sample)
    assert {1, 2, 3, 4, 5, 7} <= killed_degrees(dodecads, 7)


def test_full_sphere_is_half_design():
    b_w = sphere(8, 4)
    assert sampled_half_design(b_w, 2, [word(range(4))])
    assert killed_degrees(b_w, 4) == {1, 2, 3, 4}


def test_default_sample_is_deterministic():
    a = default_cbar_sample(24, 7, extra=16)
    b = default_cbar_sample(24, 7, extra=16)
    assert a == b
    assert sum(1 for w in a if w.bit_count() == 1) == 24
    assert sum(1 for w in a if w.bit_count() == 7 and max(support(w)) < 12) \
        == comb(12, 7)


# ------------------------------------------------------------ reference oracles
# The per-word and per-Fraction loops the bit-sliced engine replaced, kept as
# references for differential tests.

def predesign_count_reference(dset: DesignSet, t: int) -> int | None:
    """Tally of every t-subset of every support in a dense table indexed by
    the combinatorial number system rank."""
    n = dset.n
    if t == 0:
        return len(dset)
    table = [[comb(c, i) for i in range(1, t + 1)] for c in range(n)]
    counts = [0] * comb(n, t)
    for bits in dset.words:
        for combo in combinations(support(bits), t):
            counts[sum(table[c][i] for i, c in enumerate(combo))] += 1
    first = counts[0]
    return first if all(c == first for c in counts) else None


def intersection_profile_reference(dset: DesignSet, cbar: int) -> dict[int, int]:
    """One AND and one bit_count per design word."""
    counts: dict[int, int] = {}
    for bits in dset.words:
        a = (bits & cbar).bit_count()
        counts[a] = counts.get(a, 0) + 1
    return counts


def zonal_sum_reference(n: int, s: int, w: int, counts: dict[int, int],
                        d: int) -> Fraction:
    """One zonal_eval and one Fraction multiply-add per profile entry."""
    total = Fraction(0)
    for a, count in counts.items():
        total += count * zonal_eval(n, s, w, a, d)
    return total


def _closure(n: int, words: set[int], perms: list[list[int]]) -> set[int]:
    """The union of the orbits of words under the group generated by perms."""
    out, todo = set(words), list(words)
    while todo:
        bits = todo.pop()
        for p in perms:
            image = sum(1 << p[j] for j in range(n) if bits >> j & 1)
            if image not in out:
                out.add(image)
                todo.append(image)
    return out


# primitive root g of each prime q <= 11: x -> x + 1 and x -> g x generate
# AGL(1, q), 2-transitive on q points; with x -> -1/x they generate
# PGL(2, q), 3-transitive on the q + 1 points of the projective line
PRIMITIVE_ROOT = {3: 2, 5: 2, 7: 3, 11: 2}


def _group(kind: str, n: int) -> list[list[int]]:
    if kind == "cyclic":
        return [[(j + 1) % n for j in range(n)]]
    q = n if kind == "affine" else n - 1  # point q is infinity
    g = PRIMITIVE_ROOT[q]
    gens = [[(j + 1) % q for j in range(q)], [g * j % q for j in range(q)]]
    if kind == "affine":
        return gens
    inverse = {j: pow(j, -1, q) for j in range(1, q)}
    return [gen + [q] for gen in gens] + [
        [q] + [(-inverse[j]) % q for j in range(1, q)] + [0]]


@st.composite
def design_sets(draw, max_n: int = 12) -> DesignSet:
    """Small subsets of B_w with n <= max_n, the empty set included.  A
    union of orbits under a transitive, 2-transitive or 3-transitive group
    (cyclic shift, AGL(1, q), PGL(2, q)) is a 1-, 2- or 3-design, and the
    complement in B_w of a t-design is a t-design too, so constant tallies
    are common."""
    kind = draw(st.sampled_from(["none", "cyclic", "affine", "projective"]))
    if kind == "affine":
        n = draw(st.sampled_from([q for q in sorted(PRIMITIVE_ROOT) if q <= max_n]))
    elif kind == "projective":
        n = draw(st.sampled_from([q + 1 for q in PRIMITIVE_ROOT if q < max_n]))
    else:
        n = draw(st.integers(1, max_n))
    w = draw(st.integers(0, n))
    ball = [sum(1 << j for j in c) for c in combinations(range(n), w)]
    words = set(draw(st.lists(st.sampled_from(ball), max_size=4)))
    if kind != "none":
        words = _closure(n, words, _group(kind, n))
    if draw(st.booleans()):
        words = set(ball) - words
    return DesignSet(n, w, tuple(sorted(words)))


@settings(max_examples=150, deadline=None)
@given(design_sets())
def test_tally_matches_reference(dset):
    n, w = dset.n, dset.w
    for j, col in enumerate(dset.columns):
        assert col == sum(1 << i for i, bits in enumerate(dset.words)
                          if bits >> j & 1)
    counts = {t: predesign_count(dset, t) for t in range(n + 1)}
    assert counts == {t: predesign_count_reference(dset, t) for t in range(n + 1)}
    # the definition: a t'-predesign for every positive t' <= t
    for t in range(n + 2):
        assert is_t_design(dset, t) == all(
            counts[tp] is not None for tp in range(1, min(t, n) + 1))
    # N_s = N_t C(n-s, t-s) / C(w-s, t-s) for every s <= t <= w
    for t in range(w + 1):
        if counts[t] is not None:
            for s_ in range(t + 1):
                assert counts[s_] * comb(w - s_, t - s_) \
                    == counts[t] * comb(n - s_, t - s_)


@settings(max_examples=150, deadline=None)
@given(design_sets(), st.data())
def test_profiles_and_zonal_sums_match_reference(dset, data):
    n, w = dset.n, dset.w
    cbar = data.draw(st.integers(0, (1 << n) - 1))
    s = cbar.bit_count()
    profile = intersection_profile(dset, cbar)
    assert profile == intersection_profile_reference(dset, cbar)
    assert list(profile) == sorted(profile)
    for d in range(min(s, 5) + 1):
        assert zonal_sum(n, s, w, profile, d) \
            == zonal_sum_reference(n, s, w, profile, d)
        assert zonal_design_residual(dset, d, cbar) \
            == zonal_sum_reference(n, s, w, profile, d)


# ------------------------------------------------------------ exact certificate

@settings(max_examples=400, deadline=None)
@given(design_sets(max_n=10))
def test_killed_degrees_match_tally(dset):
    # Delsarte: D in B_w is a t-design iff it kills the harmonics of every
    # degree 1..min(t, w, n - w), and no nonzero harmonic of a higher degree
    # lives on B_w; the tally is the counting definition
    n, w = dset.n, dset.w
    top = min(w, n - w)
    inner = inner_distribution(dset)
    assert inner == dict(sorted(Counter(
        (x & y).bit_count() for x in dset for y in dset).items()))
    # the double sum is a positive multiple of a squared norm
    assert all(zonal_sum(n, w, w, inner, d) >= 0 for d in range(1, top + 1))
    killed = killed_degrees(dset, n + 2)
    assert killed - set(range(1, top + 1)) == set(range(top + 1, n + 3))
    assert killed_degrees(dset, 2) == killed & {1, 2}
    counts = design_counts(dset, killed, w)
    for t in range(1, w + 1):
        certified = set(range(1, min(t, top) + 1)) <= killed
        n_t = predesign_count(dset, t)
        assert (n_t is not None) == certified
        if certified:
            assert n_t * comb(n, t) == len(dset) * comb(w, t)
        assert counts[t] == n_t
    # a constant N_t settles every lower level: the first constant level
    # counting down from w gives every N_t by the formula
    s = next((t for t in range(w, 0, -1) if predesign_count(dset, t) is not None), 0)
    assert design_counts(dset, range(1, s + 1), w) \
        == {t: predesign_count(dset, t) for t in range(1, w + 1)}


@settings(max_examples=150, deadline=None)
@given(design_sets(max_n=9))
def test_killed_degrees_match_sphere_residuals(dset):
    # exact oracle: the zonal functions of the words of B_w span the degree-d
    # harmonics on B_w, so D kills degree d iff its residual against every
    # reference word of B_w vanishes
    n, w = dset.n, dset.w
    killed = killed_degrees(dset, n)
    ball = sphere(n, w).words
    for d in range(1, min(w, n - w) + 1):
        assert (d in killed) == all(
            zonal_design_residual(dset, d, y) == 0 for y in ball)


def test_pair_bound(monkeypatch):
    check_pair_bound(PAIR_BOUND)
    with pytest.raises(ValueError, match=f"{PAIR_BOUND + 1} words exceed PAIR_BOUND"):
        check_pair_bound(PAIR_BOUND + 1)
    # the certificate refuses a set past the bound before its first profile
    monkeypatch.setattr("typeii.designs.PAIR_BOUND", 19)
    assert len(inner_distribution(sphere(6, 2))) == 3
    with pytest.raises(ValueError, match="20 words exceed PAIR_BOUND = 19"):
        inner_distribution(sphere(6, 3))


# |D| on both sides of a byte boundary, so that segments with and without
# padding bits are both counted
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0, 1, 7, 8, 9, 64, 65]), st.sampled_from([8, 64, 1000]),
       st.sampled_from([0, 1 << 13]), st.data())
def test_summed_profile_matches_pair_count(size, bound, segment, data):
    # a bound of 8 bits gives one reference per chunk; 64 and 1000 give
    # chunk boundaries and a partial last chunk; a segment bound of 0 sends
    # every reference alone, unpadded, as a wide segment would go
    n = data.draw(st.integers(9, 12))
    w = n // 2  # C(9, 4) = 126 words at least
    ball = [word(c) for c in combinations(range(n), w)]
    dset = DesignSet(n, w, tuple(data.draw(st.permutations(ball))[:size]))
    refs = data.draw(st.lists(st.one_of(st.just(0), st.integers(0, (1 << n) - 1)),
                              max_size=40))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("typeii.designs.SLOT_BOUND", bound)
        mp.setattr("typeii.designs.SEGMENT_BOUND", segment)
        summed = summed_profile(dset, refs)
        inner = inner_distribution(dset)
    assert summed == Counter((x & y).bit_count() for x in dset for y in refs)
    assert list(summed) == sorted(summed)
    assert inner == Counter((x & y).bit_count() for x in dset for y in dset)
    assert summed_profile(dset, []) == {}


def test_inner_distribution_sums_the_profiles_on_catalog_shells():
    seen = 0
    for name in CATALOG:
        code = resolve(name)
        dist = code.sweep()[0]
        for w in range(1, code.n + 1):
            if 0 < dist[w] <= 759:
                shell = code.shell(w)
                total = Counter()
                for y in shell:
                    total.update(intersection_profile(shell, y))
                assert inner_distribution(shell) == total, (name, w)
                seen += 1
    # e8 2, e8e8 4, d16plus 4, golay24 3, rm32 3, qr48 1 (the all-ones word)
    assert seen == 17


@pytest.mark.parametrize("name, w, killed", [
    ("golay24", 8, {1, 2, 3, 4, 5, 7}),
    ("golay24", 12, {1, 2, 3, 4, 5, 7, 9, 10, 11}),
    ("e8", 4, {1, 2, 3}),
    ("e8e8", 4, {1, 3}),
    ("d16plus", 4, {1, 3}),
    ("rm32", 8, {1, 2, 3, 5}),
])
def test_catalog_shell_kill_sets(name, w, killed):
    shell = resolve(name).shell(w)
    inner = inner_distribution(shell)
    assert sum(inner.values()) == len(shell) ** 2 and inner[w] == len(shell)
    top = min(w, shell.n - w)
    assert killed <= set(range(1, top + 1))
    assert killed_degrees(shell, shell.n) == killed | set(range(top + 1, shell.n + 1))
    # a killed degree leaves no residual against any reference word
    for d in killed:
        for cbar in (word(range(d)), word(range(1, 2 * d, 2))):
            assert zonal_design_residual(shell, d, cbar) == 0


def test_profile_rejects_word_of_wrong_length(octads):
    with pytest.raises(ValueError):
        intersection_profile(octads, 1 << 24)
    with pytest.raises(ValueError, match="beyond the design length"):
        summed_profile(octads, [0, 1 << 24])


# ------------------------------------------------------------ permutations

def test_golay_verdicts_invariant_under_coordinate_permutation():
    # the engine walks and adds columns in coordinate order, so a permuted
    # code must give the same tallies, verdicts and profiles
    golay = resolve("golay24")
    rng = random.Random(24)
    perm = list(range(24))
    rng.shuffle(perm)

    def permute(bits: int) -> int:
        return word(perm[j] for j in support(bits))

    moved = type(golay)(24, [permute(g) for g in golay.rref_rows])
    sample = default_cbar_sample(24, 7, extra=8)
    moved_sample = [permute(cbar) for cbar in sample]
    for w in (8, 12):
        shell, moved_shell = golay.shell(w), moved.shell(w)
        assert sorted(moved_shell.words) == sorted(permute(x) for x in shell)
        assert [predesign_count(moved_shell, t) for t in range(1, 7)] \
            == [predesign_count(shell, t) for t in range(1, 7)]
        for t in (4, 5):
            assert sampled_half_design(moved_shell, t, moved_sample) \
                == sampled_half_design(shell, t, sample)
        assert inner_distribution(moved_shell) == inner_distribution(shell)
        assert killed_degrees(moved_shell, w) == killed_degrees(shell, w)
        profiles = [p for _, p in sample_profiles(shell, 1, sample)]
        moved_profiles = [p for _, p in sample_profiles(moved_shell, 1, moved_sample)]
        assert sorted(map(sorted, map(dict.items, moved_profiles))) \
            == sorted(map(sorted, map(dict.items, profiles)))
