import inspect
import random
import re
from collections.abc import Iterator
from functools import reduce
from itertools import combinations, islice
from math import comb
from operator import xor

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from typeii.catalog import resolve
from typeii.gf2 import (
    LOWEST,
    QUOTIENT_CAP,
    Code,
    CodeFileError,
    DesignSet,
    EnumerationCapError,
    _bit_patterns,
    _rref,
    _set_bits,
    _transpose,
    _weight_classes,
    _xor_table,
    count_planes,
    parse_generator_text,
    parse_word,
    split_by_count,
)

E8_ROWS = ["11111111", "01010101", "00110011", "00001111"]


def e8() -> Code:
    return Code(8, map(parse_word, E8_ROWS))


def min_weight(c: Code) -> int:
    dist = c.weight_distribution()
    return next(w for w in range(1, c.n + 1) if dist[w])


# ------------------------------------------------------------------- words

def test_word_weight_examples():
    assert parse_word("00000000").bit_count() == 0
    assert parse_word("11110000").bit_count() == 4
    assert parse_word("1" * 24).bit_count() == 24


def test_word_ops_and_weight_identity_instance():
    u = parse_word("11110000")
    v = parse_word("00111100")
    assert (u ^ v).bit_count() == 4 \
        == u.bit_count() + v.bit_count() - 2 * (u & v).bit_count()
    assert u ^ u == 0


def test_word_validation():
    with pytest.raises(ValueError):
        Code(4, [0b10000])
    with pytest.raises(ValueError):
        Code(4, [-1])
    with pytest.raises(ValueError):
        parse_word("01012")


@given(st.integers(1, 64), st.data())
def test_weight_identity_quantified(n, data):
    u = data.draw(st.integers(0, (1 << n) - 1))
    v = data.draw(st.integers(0, (1 << n) - 1))
    assert (u ^ v).bit_count() \
        == u.bit_count() + v.bit_count() - 2 * (u & v).bit_count()


def format_word(n: int, bits: int) -> str:
    """The length-n word `bits` as 0s and 1s, coordinate 0 first: the text
    form parse_word reads."""
    return format(bits, f"0{n}b")[::-1]


def test_support_roundtrip():
    w = sum(1 << j for j in (0, 3, 9))
    assert format_word(10, w) == "1001000001"
    assert parse_word(format_word(10, w)) == w


# ------------------------------------------------------------------- codes

def test_e8_is_self_dual():
    c = e8()
    assert c.k == 4
    d = c.dual()
    # brute-force pairing check over all 16 x 16 codeword pairs
    words = list(gray_walk(c))
    assert len(words) == 16
    for u in words:
        for v in words:
            assert (u & v).bit_count() % 2 == 0
    assert d == c


def test_dual_of_full_space_is_trivial():
    full = Code(4, [1 << j for j in range(4)])
    assert full.dual().k == 0
    assert full.dual().dual() == full


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12), st.data())
def test_dual_involution_and_dimension(n, data):
    rows = data.draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=min(n, 6))
    )
    c = Code(n, rows)
    d = c.dual()
    assert c.k + d.k == n
    assert d.dual() == c
    for u in c.rref_rows:
        for v in d.rref_rows:
            assert (u & v).bit_count() % 2 == 0


def test_shell_and_distribution():
    c = e8()
    dist = c.weight_distribution()
    assert dist == [1, 0, 0, 0, 14, 0, 0, 0, 1]
    assert sum(dist) == 2**c.k
    assert len(c.shell(4)) == 14
    assert list(c.shell(0)) == [0]
    assert min_weight(c) == 4


def test_shell_cap_enforced():
    # k = 27 > ENUM_CAP: every exhaustive routine refuses before any sweep
    c = Code(27, [1 << i for i in range(27)])
    for sweep in (lambda: c.shell(4), c.weight_distribution, c.sweep,
                  lambda: c.coset_leaders(c)):
        with pytest.raises(EnumerationCapError, match="enumeration cap 2\\^26"):
            sweep()
    with pytest.raises(ValueError):
        e8().sweep(offset=1 << 8)


def test_span_of_shell_e8():
    c = e8()
    assert Code(8, c.shell(4)) == c


def _distinct_words(n: int, w: int, count: int, rng: random.Random) -> list[int]:
    words: set[int] = set()
    while len(words) < min(count, comb(n, w)):
        words.add(sum(1 << j for j in rng.sample(range(n), w)))
    return sorted(words)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_span_from_columns_matches_row_span(data):
    n = data.draw(st.integers(1, 40))
    w = data.draw(st.integers(0, n))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    words = _distinct_words(n, w, data.draw(st.integers(0, 64)), rng)
    assert Code.spanned_by(DesignSet(n, w, tuple(words))) == Code(n, words)


@pytest.mark.parametrize("n, w, words", [
    (10, 4, []),                                                # the zero code
    (7, 3, [sum(1 << j for j in c) for c in combinations(range(7), 3)]),  # F_2^7
])
def test_span_from_columns_edge_cases(n, w, words):
    span = Code.spanned_by(DesignSet(n, w, tuple(words)))
    assert span == Code(n, words) and span.k == (n if words else 0)


def test_span_from_columns_of_permuted_octads():
    perm = list(range(24))
    random.Random(24).shuffle(perm)

    def moved(bits: int) -> int:
        return sum(1 << perm[j] for j in range(24) if bits >> j & 1)

    golay = resolve("golay24")
    octads = sorted(map(moved, golay.shell(8)))
    span = Code.spanned_by(DesignSet(24, 8, tuple(octads)))
    assert span == Code(24, octads) == Code(24, map(moved, golay.rref_rows))
    assert span.k == 12


def _weights(c: Code) -> list[int]:
    return [w for w, count in enumerate(c.weight_distribution()) if count]


def test_properties_e8():
    c = e8()
    assert all(w % 4 == 0 for w in _weights(c)) and c.dual() == c
    assert min_weight(c) == 4
    assert all(w % 2 == 0 for w in _weights(c)) and c.is_subcode_of(c.dual())


def test_properties_length2_repetition():
    c = Code(2, [0b11])
    assert all(w % 2 == 0 for w in _weights(c)) and c.dual() == c
    assert not all(w % 4 == 0 for w in _weights(c))
    assert min_weight(c) == 2


def test_self_dual_implies_half_dimension():
    for rows, n in [(E8_ROWS, 8), (["11"], 2)]:
        c = Code(n, map(parse_word, rows))
        if c.dual() == c:
            assert 2 * c.k == n


def test_coset_min_weight_trivial_quotient():
    c = e8()
    assert {label: s.w for label, s in c.coset_leaders(c).items()} == {0: 0}


def test_coset_requires_subcode():
    c = e8()
    other = Code(8, [parse_word("10000000")])
    with pytest.raises(ValueError):
        c.coset_leaders(other)


class _FirstSweep(Exception):
    pass


def test_coset_quotient_cap(monkeypatch):
    # one sweep per coset: a quotient of dimension QUOTIENT_CAP + 1 is refused
    # before the first, and one of dimension QUOTIENT_CAP reaches it
    def first_sweep(*args, **kwargs):
        raise _FirstSweep

    monkeypatch.setattr(Code, "sweep", first_sweep)
    sub = Code(24, [1 << 23])

    def over_sub(q: int) -> Code:
        return Code(24, [1 << i for i in range(q)] + [1 << 23])

    with pytest.raises(EnumerationCapError,
                       match=f"^quotient dimension {QUOTIENT_CAP + 1} exceeds {QUOTIENT_CAP}$"):
        over_sub(QUOTIENT_CAP + 1).coset_leaders(sub)
    with pytest.raises(_FirstSweep):
        over_sub(QUOTIENT_CAP).coset_leaders(sub)


def _gray_walk_oracle(code: Code, offset: int, target: int, per_weight: int = 3):
    """Distribution, sorted words of weight `target` (of the lowest weight
    when target is LOWEST) and the first nonzero words of each weight, read
    one word at a time off the Gray walk over offset + code.  For a code
    holding the all-ones word the walk is the first 2^(k-1) steps of the
    Gray walk, then the complements of those steps in the same order."""
    lowest = target == LOWEST
    dist = [0] * (code.n + 1)
    hits: list[int] = []
    picks: dict[int, list[int]] = {}
    ones = (1 << code.n) - 1
    walk = gray_walk(code)
    if code.contains(ones):
        half = list(islice(walk, 1 << code.k - 1))
        walk = half + [bits ^ ones for bits in half]
    for bits in walk:
        word = bits ^ offset
        w = word.bit_count()
        dist[w] += 1
        if lowest and (target < 0 or w < target):
            target, hits = w, []
        if w == target:
            hits.append(word)
        if word and len(picks.setdefault(w, [])) < per_weight:
            picks[w].append(word)
    samples = [b for w in sorted(picks) for b in picks[w]]
    return dist, target, sorted(hits), samples


# k above 16 crosses the 2^16-word blocks of the bit-sliced engine; k below
# 16 sweeps a single short block
@pytest.mark.parametrize("k", range(21))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_bitsliced_sweep_matches_gray_walk(k, data):
    n = data.draw(st.integers(max(k, 1), 40))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    rows = [rng.getrandbits(n) for _ in range(k)]
    # n = k draws the full space, which holds the all-ones word, so the
    # sweep walks half of it
    if k and data.draw(st.booleans()):
        n, rows = k, [1 << i for i in range(k)]
    code = Code(n, rows)
    target = data.draw(st.integers(0, n))
    dist, _, hits, samples = _gray_walk_oracle(code, 0, target)
    got_dist, shell, got_samples = code.sweep(target, per_weight=3)
    assert got_dist == dist
    assert sorted(shell) == hits and shell.w == target
    assert list(got_samples) == samples

    # the offset sweep decodes its samples from a nonzero base; above k = 16
    # the offset also sets low pivots, so that both counts of the pivot
    # planes (odd and even blocks) start from a nonzero pattern
    offset = data.draw(st.integers(1, (1 << n) - 1))
    if k > 16:
        offset |= sum(data.draw(st.sets(st.sampled_from(
            [r & -r for r in code.rref_rows[:16]]), min_size=1)))
    dist, lowest, leaders, samples = _gray_walk_oracle(code, offset, LOWEST)
    got_dist, shell, got_samples = code.sweep(LOWEST, per_weight=3, offset=offset)
    assert got_dist == dist
    assert shell.w == lowest and sorted(shell) == leaders
    assert list(got_samples) == samples


def _assert_half_sweep(k: int, seed: int):
    """Code.sweep on a random [n, k] code holding the all-ones word, which
    walks half the code and reads the complements of its words for the
    other half, against the oracle's walk over the half and its complements:
    the sweep of a random weight and the LOWEST sweep of a random coset."""
    rng = random.Random(seed)
    n = rng.randint(k, 40)
    rows = [(1 << n) - 1]
    while Code(n, rows).k < k:
        rows.append(rng.getrandbits(n))
    code = Code(n, rows)
    per_weight = rng.choice((1, 3, 5))
    target = rng.randint(0, n)
    dist, _, hits, samples = _gray_walk_oracle(code, 0, target, per_weight)
    got_dist, shell, got_samples = code.sweep(target, per_weight)
    assert got_dist == dist
    assert sorted(shell) == hits and shell.w == target
    assert list(got_samples) == samples

    offset = rng.randrange(1, 1 << n)
    dist, lowest, leaders, samples = _gray_walk_oracle(code, offset, LOWEST, per_weight)
    got_dist, shell, got_samples = code.sweep(LOWEST, per_weight, offset)
    assert got_dist == dist
    assert shell.w == lowest and sorted(shell) == leaders
    assert list(got_samples) == samples


# the random-code test above draws only the full space among codes holding
# 1; above k = 17 the half walk over k - 1 rows crosses the 2^16-word blocks,
# so one example each.  A smaller seed is no simpler code, so a failure is
# reported unshrunk
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@pytest.mark.parametrize("k", range(1, 18))
@settings(max_examples=2, deadline=None, phases=NO_SHRINK)
@given(seed=st.integers(0, 2**32))
def test_half_sweep_matches_gray_walk(k, seed):
    _assert_half_sweep(k, seed)


@pytest.mark.parametrize("k", [18, 19, 20])
@settings(max_examples=1, deadline=None, phases=NO_SHRINK)
@given(seed=st.integers(0, 2**32))
def test_half_sweep_across_blocks_matches_gray_walk(k, seed):
    _assert_half_sweep(k, seed)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.data())
def test_coset_leaders_match_residue_classes(n, data):
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    code = Code(n, rows)
    sub = Code(n, rows[:data.draw(st.integers(0, len(rows)))])
    expected: dict[int, tuple[int, list[int]]] = {}
    for word in gray_walk(code):
        key = sub.reduce(word)
        best = expected.get(key)
        if best is None or word.bit_count() < best[0]:
            expected[key] = (word.bit_count(), [word])
        elif word.bit_count() == best[0]:
            best[1].append(word)
    leaders = code.coset_leaders(sub)
    got = {sub.reduce(c.words[0]): (c.w, sorted(c)) for c in leaders.values()}
    assert got == {key: (w, sorted(b)) for key, (w, b) in expected.items()}
    # the label contract: bit i of a label selects row i of the quotient basis
    ext = _rref([sub.reduce(r) for r in code.rref_rows], n)[0]
    assert list(leaders) == list(range(1 << len(ext)))
    for label, coset in leaders.items():
        residue = 0
        for i, row in enumerate(ext):
            if label >> i & 1:
                residue ^= row
        assert all(sub.reduce(word) == residue for word in coset)


# ---------------------------------------------------------------- design sets

def test_design_set_validation():
    with pytest.raises(ValueError, match="beyond"):
        DesignSet(4, 1, (0b10000,))
    with pytest.raises(ValueError, match="beyond"):
        DesignSet(4, 1, (-1,))
    with pytest.raises(ValueError, match="weight 3"):
        DesignSet(4, 2, (parse_word("1110"),))
    with pytest.raises(ValueError, match="duplicate"):
        DesignSet(4, 2, (parse_word("1100"), parse_word("1100")))


# ------------------------------------------------------------------ kernels
# The carry-save counter, the block transpose and the byte-table bit decoder
# against the stdlib kernels they replaced, kept here as oracles, with the
# Gray walk that enumerates a code one word at a time.

def gray_walk(code: Code) -> Iterator[int]:
    """The codewords in Gray-walk order, one XOR per step: step i is the XOR
    of the RREF rows picked by the bits of i ^ i >> 1, the order in which
    Code.sweep takes its per-weight samples from a code without the all-ones
    word; from a code holding it, the sweep takes them from the first half of
    this walk, then from the complements of those steps in the same order."""
    rows = code.rref_rows
    acc = 0
    yield acc
    for m in range(1, 1 << len(rows)):
        acc ^= rows[(m & -m).bit_length() - 1]
        yield acc


def ripple_count_reference(columns, start=()) -> list[int]:
    """Ripple-carry bit-sliced count: each column is added to the planes in
    turn, the carry moving up until it is empty."""
    count = list(start)
    for x in columns:
        for i, c in enumerate(count):
            count[i] = c ^ x
            x &= c
            if not x:
                break
        else:
            count.append(x)
    return count


def transpose_reference(words, n: int) -> tuple[int, ...]:
    """Text transpose: the words last to first, each most significant bit
    first, so every n-th character from n-1-j reads column j."""
    text = "".join(format(w, f"0{n}b") for w in reversed(words))
    return tuple(int(text[n - 1 - j::n] or "0", 2) for j in range(n))


def set_bits_reference(mask: int) -> list[int]:
    return [m.start() for m in re.finditer("1", format(mask, "b")[::-1])]


def _stripped(planes: list[int]) -> list[int]:
    while planes and not planes[-1]:
        planes = planes[:-1]
    return planes


def _count_at(planes: list[int], t: int) -> int:
    return sum((p >> t & 1) << i for i, p in enumerate(planes))


@pytest.mark.parametrize("columns, start", [
    ([], []),                              # no columns
    ([], [0b1010, 0b0110, 0]),             # start planes only
    ([0, 0, 0, 0], []),                    # zero columns
    ([0, 0, 0], [0, 0b11]),
    ([0b1011], []),                        # one column
    ([0b1011], [0b0001, 0b0010]),
    ([(1 << 70) - 1] * 300, []),           # carries through nine levels
    ([(1 << 70) - 1] * 255, [1, 0, 0, 0, 0, 0, 0, 0]),
])
def test_count_planes_edge_cases(columns, start):
    planes = count_planes(iter(columns), [start])
    assert planes == _stripped(ripple_count_reference(columns, start))
    assert not planes or planes[-1]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, (1 << 70) - 1), max_size=60),
       st.lists(st.integers(0, (1 << 70) - 1), max_size=7))
def test_count_planes_matches_ripple_carry(columns, start):
    planes = count_planes(iter(columns), [start])
    assert planes == _stripped(ripple_count_reference(columns, start))
    for t in range(70):
        assert _count_at(planes, t) \
            == sum(x >> t & 1 for x in columns) + _count_at(start, t)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, (1 << 70) - 1), max_size=30),
       st.lists(st.lists(st.integers(0, (1 << 70) - 1), max_size=8), max_size=6),
       st.integers(0, 3))
def test_count_planes_adds_several_start_counts(columns, groups, zeros):
    # each start count is the unstripped ripple count of its own columns (all
    # zero columns give zero planes), plus an empty and an all-zero count
    starts = [ripple_count_reference(g) for g in groups] + [[], [0] * zeros]
    planes = count_planes(iter(columns), starts)
    assert planes == _stripped(ripple_count_reference(columns + sum(groups, [])))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128])
@pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 1025])
def test_transpose_matches_text_transpose(n, size):
    rng = random.Random(1000 * n + size)
    words = [rng.getrandbits(n) for _ in range(size)]
    if size:
        words[0], words[-1] = (1 << n) - 1, 1 << n - 1   # first and last rows full
    cols = _transpose(words, n)
    assert cols == transpose_reference(words, n) and len(cols) == n


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 130), st.data())
def test_transpose_matches_text_transpose_random(n, data):
    words = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=200))
    assert _transpose(words, n) == transpose_reference(words, n)


@pytest.mark.parametrize("m", range(17))
def test_bit_patterns_match_division_formula(m):
    # 2^m bits; the period-2^(r+1) pattern of bit r is full // (2^(2^(r+1)) - 1)
    # copies of its top half
    full = (1 << (1 << m)) - 1
    assert _bit_patterns(m) == [
        full // ((1 << (2 << r)) - 1) * (((1 << (1 << r)) - 1) << (1 << r))
        for r in range(m)]


@pytest.mark.parametrize("walk_rows", [21, 22, 23])
@pytest.mark.parametrize("ones", [False, True])
def test_grouped_block_counts_match_plain_count(walk_rows, ones):
    """_weight_classes on walks of 32 to 128 blocks, which add the pivot
    count, the cached counts of the other planes' triples and the one or two
    planes left over (these six random codes leave 0, 1 and 2), against the plain
    count of each block: count_planes of every sliced plane onto nothing.
    Offset 0 keeps the pivot bits of base 0 or p_15; the second offset also
    sets other low pivots, so the other pivot patterns occur.  Some triple
    takes all 8 patterns."""
    rng = random.Random(100 * walk_rows + ones)
    n = rng.randint(walk_rows + 4, 48)
    rows = [(1 << n) - 1] if ones else []
    while Code(n, rows).k < walk_rows + ones:
        rows.append(rng.getrandbits(n))
    rows = Code(n, rows).rref_rows
    walk = rows[:-1] if ones else rows      # the walk Code.sweep takes
    assert (reduce(xor, rows) == (1 << n) - 1) == ones
    full = (1 << (1 << 16)) - 1
    lows = _bit_patterns(16) + [0]
    planes = [0] * n
    for r in range(16):
        for j in range(n):
            if walk[r] >> j & 1:
                planes[j] ^= lows[r] ^ lows[r + 1]
    sliced = [(j, x) for j, x in enumerate(planes) if x]
    fixed = sum(1 << j for j, x in enumerate(planes) if not x)
    pivots = [r & -r for r in walk[:16]]
    rest = [j for j, _ in sliced if 1 << j not in pivots]
    triples = [sum(1 << j for j in rest[i:i + 3]) for i in range(0, len(rest) - 2, 3)]
    for offset in (0, rng.getrandbits(n) | sum(rng.sample(pivots, 3))):
        blocks, lead_keys, triple_keys = 0, set(), [set() for _ in triples]
        for base, classes in _weight_classes(walk, n, offset):
            count = count_planes(x ^ full if base >> j & 1 else x for j, x in sliced)
            assert classes == split_by_count(count, full, (base & fixed).bit_count())
            blocks += 1
            lead_keys.add(base & sum(pivots))
            for keys, mask in zip(triple_keys, triples):
                keys.add(base & mask)
        assert blocks == 1 << walk_rows - 16
        assert len(lead_keys) == 2 and max(map(len, triple_keys)) == 8


def test_set_bits_edge_cases():
    rng = random.Random(16)
    masks = [0, 1, (1 << 64) - 1, (1 << 65) - 1, (1 << 1 << 16) - 1,
             sum(1 << rng.randrange(1 << 16) for _ in range(40)),   # sparse
             rng.getrandbits(1 << 16)]                              # dense
    # a bit on each side of every byte and 64-bit boundary up to 2^8
    for b in range(1, 257):
        masks += [1 << b - 1, 1 << b, 3 << b - 1]
    for mask in masks:
        assert list(_set_bits(mask)) == set_bits_reference(mask)


@given(st.integers(0, (1 << 600) - 1))
def test_set_bits_matches_regex_scan(mask):
    assert list(_set_bits(mask)) == set_bits_reference(mask)


def test_set_bits_is_lazy():
    # the sweep takes only the first few words of a dense weight class
    dense = random.Random(17).getrandbits(1 << 16)
    bits = _set_bits(dense)
    assert inspect.isgenerator(bits)
    assert list(islice(bits, 5)) == set_bits_reference(dense)[:5]


def _per_bit_sweep(code: Code, target: int | None, per_weight: int, offset: int):
    """Code.sweep with every class counted by bit_count and every word
    decoded bit by bit, as base ^ lo[t & 255] ^ hi[t >> 8] at each set bit t
    of a class mask, lo and hi the XOR tables of Gray basis rows 0-7 and
    8-15: (distribution, shell words in sweep order, samples)."""
    rows, n = code.rref_rows, code.n
    ones = (1 << n) - 1
    half = reduce(xor, rows, 0) == ones
    walk = rows[:-1] if half else rows
    basis = [r ^ s for r, s in zip(walk[:16], (0, *walk))]
    lo, hi = _xor_table(basis[:8]), _xor_table(basis[8:])
    dist, hits, first, mirror = [0] * (n + 1), [], {}, {}
    lowest = target == LOWEST

    def decode(base: int, mask: int, limit: int | None = None) -> list[int]:
        return [base ^ lo[t & 255] ^ hi[t >> 8] for t in set_bits_reference(mask)[:limit]]

    for base, classes in _weight_classes(walk, n, offset):
        for w, mask in classes.items():
            dist[w] += mask.bit_count()
        sides = [(base, classes, first)]
        if half:
            sides.append((base ^ ones, {n - w: x for w, x in classes.items()}, mirror))
        for side_base, side, picks in sides:
            for w, mask in side.items():
                if w and len(picks.setdefault(w, [])) < per_weight:
                    picks[w] += decode(side_base, mask, per_weight - len(picks[w]))
            if lowest and (target < 0 or min(side) < target):
                target, hits = min(side), []
            if target in side:
                hits += decode(side_base, side[target])
    if half:
        dist = [a + b for a, b in zip(dist, reversed(dist))]
    samples = [b for w in sorted(first.keys() | mirror.keys())
               for b in (first.get(w, []) + mirror.get(w, []))[:per_weight]]
    return dist, hits, samples


def _assert_sweep_matches_per_bit(code: Code, target: int | None, per_weight: int,
                                  offset: int):
    dist, hits, samples = _per_bit_sweep(code, target, per_weight, offset)
    got_dist, shell, got_samples = code.sweep(target, per_weight, offset)
    assert got_dist == dist
    assert (shell is None) == (target is None)
    if shell is not None:
        assert list(shell) == hits
    assert list(got_samples) == samples


# the byte decode splits the Gray basis at rows 3 and 8 and the blocks at row
# 16: k = 0..18 walks codes below, across and beyond each split
@pytest.mark.parametrize("k", range(19))
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_byte_decode_matches_per_bit_decode(k, data):
    n = data.draw(st.integers(max(k, 1), 40))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    rows = [(1 << n) - 1] if k and data.draw(st.booleans()) else []
    while Code(n, rows).k < k:
        rows.append(rng.getrandbits(n))
    code = Code(n, rows)
    target = data.draw(st.sampled_from([None, LOWEST, rng.randint(0, n)]))
    offset = data.draw(st.sampled_from([0, rng.getrandbits(n)]))
    _assert_sweep_matches_per_bit(code, target, data.draw(st.integers(0, 3)), offset)


@pytest.mark.parametrize("target", [None, LOWEST, 0, 3])
@pytest.mark.parametrize("offset", [0, 0b10110])
def test_zero_code_sweep_counts_its_single_class(target, offset):
    # k = 0: one block of one position, whose class is counted as the block
    # size minus no others
    code = Code(5, [])
    _assert_sweep_matches_per_bit(code, target, 3, offset)
    assert code.sweep(target, 3, offset)[0] == [int(w == offset.bit_count()) for w in range(6)]


# ---------------------------------------------------------------- file format

def format_generator_text(code: Code, comment: str | None = None) -> str:
    """The generator-matrix file of a code: comment lines, the header 'n k'
    and the RREF rows, the format parse_generator_text reads."""
    lines = [f"# {part}" for part in (comment or "").splitlines()]
    lines.append(f"{code.n} {code.k}")
    lines.extend(format_word(code.n, r) for r in code.rref_rows)
    return "\n".join(lines) + "\n"


def test_generator_file_roundtrip():
    c = e8()
    text = format_generator_text(c, comment="e8 = extended Hamming [8,4,4]")
    assert parse_generator_text(text) == c


def test_generator_file_ignores_blanks_and_comments():
    text = "# header\n\n8 4\n" + "\n".join(E8_ROWS) + "\n"
    assert parse_generator_text(text) == e8()


@pytest.mark.parametrize(
    "text, line",
    [
        ("8\n", 1),
        ("8 4\n1111\n", 2),
        ("8 4\n111111112\n", 2),
        ("8 4\n1111111x\n", 2),
        ("8 4\n11111111\n01010101\n00110011\n00001111\n11110000\n", 6),
    ],
)
def test_generator_file_errors_carry_line_numbers(text, line):
    with pytest.raises(CodeFileError) as err:
        parse_generator_text(text)
    assert err.value.line == line


def test_generator_file_row_count_mismatch():
    with pytest.raises(CodeFileError):
        parse_generator_text("8 4\n11111111\n")


def test_generator_file_rank_below_header():
    # a repeated row leaves rank 3 under a header declaring k = 4: refused
    # at the header line, not loaded as an [8,3] code
    text = "# e8 with a repeated row\n8 4\n11111111\n11111111\n01010101\n00110011\n"
    with pytest.raises(CodeFileError) as err:
        parse_generator_text(text)
    assert err.value.line == 2
    assert "rank 3" in str(err.value) and "k = 4" in str(err.value)
