"""Binary linear code algebra on int bitsets.

A word is a plain Python int: coordinate j of the word is bit j of the int,
and its length is the length n of the code or set that holds it, which
checks that no bit lies at n or above.  `parse_word` reads the text form,
coordinates left to right.  Codes carry an eagerly computed reduced
row-echelon form of their generators, which is the canonical representation
used for equality, containment, and duals.

Exhaustive sweeps are bit-sliced (Biham, "A Fast New DES Implementation in
Software", FSE 1997): one 2^16-bit int per coordinate holds that coordinate of
2^16 codewords, and a carry-save adder tree over the n ints weighs them all
at once.  A coset sweep is the same pass with an offset.  The planes of the low
pivot coordinates take one of two patterns, so their count is made once per
pattern.  The other planes are counted by triples: a block complements the
planes where its first word has a 1, so a triple's planes take at most 8
patterns, and each triple's sum and carry are made once per pattern.  A block
adds the pivot count, the triples' counts and the one or two planes left over
in one carry-save pass.
The low planes' Gray patterns are bytes repeated and read as one int.  A word
is decoded from its position t = 8 i + j (j < 8) in the block by three XOR
tables over the Gray basis rows[r] ^ rows[r - 1], for bits 0-2, 3-7 and 8-15
of t: a regex finds the nonzero bytes i of the weight mask, each costs two
table reads, and each set bit j of a byte, read through a byte table, one.

A code holding the all-ones word 1 is swept over half its words: its walk is
the Gray walk over all rows but the last, then those words plus 1 in the same
order, so each weight-w class of the first half is also the weight-(n - w)
class of its complement block, and the samples are taken in this walk's order.

The span of a set of words is the dual of the linear relations among its
column bitmaps (`Code.spanned_by`): elimination on n ints, not on one row per
word.  The column bitmaps are the words transposed as one int, by masked swaps
on every 64 x 64 bit block at once.
"""

from __future__ import annotations

import re
import sys
from array import array
from collections.abc import Iterable, Iterator, Sequence
from functools import reduce
from itertools import islice
from operator import xor

MAX_LENGTH = 128
ENUM_CAP = 26  # refuse exhaustive sweeps beyond 2^26 codewords
QUOTIENT_CAP = 20  # refuse coset walks beyond 2^20 cosets, one sweep each
LOW_BITS = 16  # message bits sliced into the 2^16 bit positions of one plane
LOWEST = -1    # Code.sweep target: the words of the lowest weight present
MAX_FILE_BYTES = 1 << 20  # refuse longer matrix files; 128 rows take 17 KB


class EnumerationCapError(RuntimeError):
    """Raised when an exhaustive sweep would exceed the enumeration cap."""


class CodeFileError(ValueError):
    """Malformed generator-matrix file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_word(text: str) -> int:
    """The word whose coordinate j is character j of a string of 0s and 1s."""
    bad = text.strip("01")
    if bad:
        raise ValueError(f"invalid bit character {bad[0]!r}")
    return int(text[::-1] or "0", 2)


class DesignSet:
    """A finite subset of the Hamming sphere B_w, the raw material of a
    design: distinct words of length n and weight w.  Immutable."""

    __slots__ = ("n", "w", "words", "_columns")

    def __init__(self, n: int, w: int, words: tuple[int, ...]):
        if words and (min(words) < 0 or max(words) >> n):
            raise ValueError("design word bits beyond the word length")
        wrong = set(map(int.bit_count, words)) - {w}
        if wrong:
            raise ValueError(f"design word of weight {min(wrong)}, expected {w}")
        if len(set(words)) != len(words):
            raise ValueError("duplicate word in design set")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "_columns", None)

    def __setattr__(self, name, value):
        raise AttributeError("DesignSet is immutable")

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[int]:
        return iter(self.words)

    @property
    def columns(self) -> tuple[int, ...]:
        """Column bitmaps, the transpose of the words: bit i of columns[j] is
        coordinate j of words[i].  Computed on first use."""
        if self._columns is None:
            object.__setattr__(self, "_columns", _transpose(self.words, self.n))
        return self._columns


_LOW64 = (1 << 64) - 1


def _swap_mask(s: int) -> bytes:
    """The bits a transpose stage swaps in one 64 x 64 block, where bit
    64 r + c is row r, column c: those with bit s of r clear and bit s of c
    set, each swapped with the bit 63 s above it, at row r + s, column c - s."""
    row = sum(1 << c for c in range(64) if c & s)
    return sum(row << 64 * r for r in range(64) if not r & s).to_bytes(512, "little")


_SWAP_MASKS = tuple((s, _swap_mask(s)) for s in (32, 16, 8, 4, 2, 1))


def _transpose(words: Sequence[int], n: int) -> tuple[int, ...]:
    """The n column bitmaps of words of length n: bit i of column j is
    coordinate j of words[i]."""
    blocks = -(-len(words) // 64)
    cols: list[int] = []
    # per 64-bit slice of the words: bit 64 i + j of x is coordinate lo + j of
    # word i, so every 64 x 64 block of x holds 64 words; the swap stages
    # transpose all blocks at once (Warren, Hacker's Delight, 2nd ed., 7-3),
    # after which 64-bit piece 64 b + j of x is coordinate lo + j of words
    # 64 b to 64 b + 63
    for lo in range(0, n, 64):
        packed = array("Q", words if n <= 64 else [w >> lo & _LOW64 for w in words])
        if sys.byteorder == "big":
            packed.byteswap()
        x = int.from_bytes(packed.tobytes(), "little")
        for s, block_mask in _SWAP_MASKS:
            d = (x >> 63 * s ^ x) & int.from_bytes(block_mask * blocks, "little")
            x ^= d ^ d << 63 * s
        pieces = memoryview(x.to_bytes(512 * blocks, "little")).cast("Q")
        cols += [int.from_bytes(pieces[j::64].tobytes(), "little")
                 for j in range(min(64, n - lo))]
    return tuple(cols)


def _rref(rows: Sequence[int], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced row-echelon form over GF(2): (rows sorted by pivot, pivot columns)."""
    work: list[int] = []
    pivots: list[int] = []
    for row in rows:
        for p, r in zip(pivots, work):
            if row >> p & 1:
                row ^= r
        if row == 0:
            continue
        p = (row & -row).bit_length() - 1
        for i, r in enumerate(work):
            if r >> p & 1:
                work[i] ^= row
        work.append(row)
        pivots.append(p)
    order = sorted(range(len(work)), key=lambda i: pivots[i])
    return tuple(work[i] for i in order), tuple(pivots[i] for i in order)


def _xor_table(rows: Sequence[int]) -> list[int]:
    """The XOR of the rows selected by the set bits of g, for every g below
    2^len(rows), indexed by g."""
    table = [0]
    for r in rows:
        table += [x ^ r for x in table]
    return table


_NONZERO = b"\x00" + b"\x01" * 255  # bytes.translate table: flag nonzero bytes
_FLAG = re.compile(b"\x01")
# _BYTE_BITS[b]: the set bits of byte b, ascending; bytes with bit j set
# are those below 2^j with j added
_BYTE_BITS = reduce(lambda table, j: table + tuple(bits + (j,) for bits in table),
                    range(8), ((),))


def _set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, ascending, found byte by byte: a
    table lists the bits of each byte.  Its callers pass words of a code, at
    most MAX_LENGTH // 8 bytes, so every byte is walked; the sweep finds the
    nonzero bytes of its 2^16-bit masks itself."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    for i, byte in enumerate(data):
        for j in _BYTE_BITS[byte]:
            yield 8 * i + j


def count_planes(columns: Iterable[int], starts: Iterable[Sequence[int]] = ()) -> list[int]:
    """Bit-sliced population count: bit t of plane i is bit i of the number
    of `columns` with bit t set, plus the counts whose planes are `starts`;
    the top plane is nonzero.  A carry-save adder tree (Biham, FSE 1997;
    Warren, Hacker's Delight, 2nd ed., 5-1) keeps the ints pending at each
    bit level and turns three of them into a sum and a carry by one full
    adder, so a column costs about one full adder wherever it lands.  Plane
    i of each start count enters at level i, so one start count costs no
    adder and several are summed in the same pass as the columns."""
    levels: list[list[int]] = []

    def add(i: int, x: int):
        while True:
            if i == len(levels):
                levels.append([x])
                return
            level = levels[i]
            level.append(x)
            if len(level) < 3:
                return
            a, b, c = level
            u = a ^ b
            level[:] = (u ^ c,)
            x = a & b | u & c
            i += 1

    for count in starts:
        for i, p in enumerate(count):
            add(i, p)
    for x in columns:
        add(0, x)
    # a level left with two ints takes a half adder; the carry may fill the
    # next level, which add reduces
    for i, level in enumerate(levels):
        if len(level) == 2:
            a, b = level
            level[:] = (a ^ b,)
            add(i + 1, a & b)
    planes = [level[0] for level in levels]
    while planes and not planes[-1]:
        planes.pop()
    return planes


def split_by_count(planes: Sequence[int], full: int, base: int = 0) -> dict[int, int]:
    """{base + count: mask of the positions in `full` holding that count},
    where `planes` are the bit planes of count_planes; empty masks are left out."""
    classes = {base: full} if full else {}
    for i, c in enumerate(planes):
        split = {}
        for w, mask in classes.items():
            hi = mask & c
            if hi:
                split[w + (1 << i)] = hi
            if hi != mask:
                split[w] = mask ^ hi
        classes = split
    return classes


_LOW_BYTES = b"\xaa\xcc\xf0"  # bit t of byte r is bit r of t, for r < 3


def _bit_patterns(m: int) -> list[int]:
    """For r below m, the 2^m-bit int whose bit t is bit r of t: for r >= 3,
    runs of 2^(r-3) zero bytes and 2^(r-3) 0xff bytes, repeated."""
    size = max(1 << m >> 3, 1)
    full = (1 << (1 << m)) - 1
    patterns = []
    for r in range(m):
        run = 1 << r >> 3
        unit = bytes(run) + b"\xff" * run if run else _LOW_BYTES[r:r + 1]
        patterns.append(int.from_bytes(unit * (size // len(unit)), "little") & full)
    return patterns


def _weight_classes(rows: Sequence[int], n: int,
                    offset: int = 0) -> Iterator[tuple[int, dict[int, int]]]:
    """Bit-sliced Gray walk over offset + span(rows), 2^m words per block;
    rows are RREF rows, each with its pivot at its lowest set bit.

    Bit t of the plane of coordinate j is coordinate j of the word at block
    position t, base XOR the rows picked by the bits of gray(t), with
    gray(t) = t ^ t >> 1 and m = min(k, LOW_BITS).  Blocks walk the high
    message bits in Gray order; count_planes adds the planes (complemented
    where base has a 1), and splitting on its bits gives the mask of each
    weight.  Yields (base, {weight: mask}) per block.

    Low row r is the only row with a 1 at its pivot p_r, so the plane of p_r
    is the Gray pattern of bit r, and on the low pivots base is the offset or
    the offset with p_{m-1} flipped: the counter of the pivot planes is built
    once per pattern.  The other sliced planes are taken three at a time, in
    column order: a triple's planes take at most 8 patterns of base's bits
    on its columns, and its count is built once per pattern, keyed by those
    bits.  A block adds the pivot count, the triples' counts and the one or
    two planes left over in one carry-save pass."""
    m = min(len(rows), LOW_BITS)
    full = (1 << (1 << m)) - 1
    # bit t of lows[r] is bit r of t; of lows[r] ^ lows[r + 1], bit r of gray(t)
    lows = _bit_patterns(m) + [0]
    planes = [0] * n
    for r in range(m):
        for j in range(n):
            if rows[r] >> j & 1:
                planes[j] ^= lows[r] ^ lows[r + 1]
    pivot_mask = sum(r & -r for r in rows[:m])
    sliced = [(j, p) for j, p in enumerate(planes) if p]
    lead = [(j, p) for j, p in sliced if pivot_mask >> j & 1]
    rest = [(j, p) for j, p in sliced if not pivot_mask >> j & 1]
    fixed = sum(1 << j for j, p in enumerate(planes) if not p)
    high = rows[m:]
    cut = len(rest) - len(rest) % 3
    groups = [(pivot_mask, lead, {})] + [
        (sum(1 << j for j, _ in rest[i:i + 3]), rest[i:i + 3], {})
        for i in range(0, cut, 3)]
    rest = rest[cut:]
    base = offset
    for block in range(1 << len(high)):
        if block:
            # gray(block * 2^m + t) = gray(block) * 2^m + (gray(t) ^ (block
            # & 1) * 2^(m-1)): odd blocks also carry low row m - 1
            base ^= high[(block & -block).bit_length() - 1] ^ rows[m - 1]
        counts = []
        for mask, columns, cache in groups:
            key = base & mask
            if key not in cache:
                cache[key] = count_planes(x ^ full if base >> j & 1 else x
                                          for j, x in columns)
            counts.append(cache[key])
        count = count_planes((x ^ full if base >> j & 1 else x for j, x in rest), counts)
        yield base, split_by_count(count, full, (base & fixed).bit_count())


class Code:
    """Binary linear code held as the RREF of its generator matrix."""

    __slots__ = ("n", "rref_rows", "pivots", "k")

    def __init__(self, n: int, generators: Iterable[int]):
        if not 0 < n <= MAX_LENGTH:
            raise ValueError(f"code length must be in 1..{MAX_LENGTH}, got {n}")
        rows = list(generators)
        if rows and (min(rows) < 0 or max(rows) >> n):
            raise ValueError("generator bits beyond code length")
        rref_rows, pivots = _rref(rows, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rref_rows", rref_rows)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "k", len(rref_rows))

    def __setattr__(self, name, value):
        raise AttributeError("Code is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Code):
            return NotImplemented
        return self.n == other.n and self.rref_rows == other.rref_rows

    def __hash__(self):
        return hash((self.n, self.rref_rows))

    def __repr__(self) -> str:
        return f"Code(n={self.n}, k={self.k})"

    # -- membership and span ------------------------------------------------

    def reduce(self, bits: int) -> int:
        """Residue of a word after reduction by the code's RREF rows."""
        for p, r in zip(self.pivots, self.rref_rows):
            if bits >> p & 1:
                bits ^= r
        return bits

    def contains(self, word: int) -> bool:
        return self.reduce(word) == 0

    def is_subcode_of(self, other: "Code") -> bool:
        if self.n != other.n:
            return False
        return all(other.contains(r) for r in self.rref_rows)

    @classmethod
    def spanned_by(cls, dset: DesignSet) -> "Code":
        """span(dset), the dual of the linear relations among its n column
        bitmaps: the elimination runs on n ints of len(dset) bits, each with
        its coordinate as a tag above them, not on len(dset) rows of n bits."""
        size = len(dset)
        rows, pivots = _rref([col | 1 << (size + j)
                              for j, col in enumerate(dset.columns)], dset.n + size)
        # a row whose pivot lies in the tags is a relation among the columns
        return cls(dset.n, [r >> size for r, p in zip(rows, pivots) if p >= size]).dual()

    # -- duals ----------------------------------------------------------------

    def dual(self) -> "Code":
        """Nullspace basis: dim(dual) = n - k and every cross pairing is 0."""
        pivot_set = set(self.pivots)
        free = [j for j in range(self.n) if j not in pivot_set]
        rows = []
        for f in free:
            bits = 1 << f
            for p, r in zip(self.pivots, self.rref_rows):
                if r >> f & 1:
                    bits |= 1 << p
            rows.append(bits)
        return Code(self.n, rows)

    # -- exhaustive sweeps -----------------------------------------------------

    def _check_cap(self):
        if self.k > ENUM_CAP:
            raise EnumerationCapError(
                f"2^{self.k} codewords exceed the enumeration cap 2^{ENUM_CAP}"
            )

    def sweep(self, target: int | None = None, per_weight: int = 0, offset: int = 0
              ) -> tuple[list[int], DesignSet | None, tuple[int, ...]]:
        """One bit-sliced pass over offset + this code (a coset unless offset
        is a codeword).  Returns the weight distribution, the words of weight
        `target` (None: no words; LOWEST: the lowest weight present) and the
        first `per_weight` nonzero words of each weight in Gray-walk order,
        where step i is the XOR of the rows picked by the bits of i ^ i >> 1.
        If the code holds the all-ones word 1 (the XOR of all RREF rows), the
        walk is the one over rows[:-1], then its words plus 1 in the same
        order, and only its first half is swept: each class of weight w in a
        block also gives the class of weight n - w of the block plus 1.

        Only the returned words are decoded, from their block positions
        t = 8 i + j, j < 8: lo, mid and hi are the XOR tables of rows 0-2, 3-7
        and 8-15 of the Gray basis rows[r] ^ rows[r - 1], each nonzero byte i
        of a weight mask costs h = base ^ hi[i >> 5] ^ mid[i & 31] once, and
        each set bit j of it gives the word h ^ lo[j]."""
        self._check_cap()
        if offset < 0 or offset >> self.n:
            raise ValueError("offset bits beyond the code length")
        rows, n = self.rref_rows, self.n
        ones = (1 << n) - 1
        half = reduce(xor, rows, 0) == ones
        walk = rows[:-1] if half else rows
        basis = [r ^ s for r, s in zip(walk[:LOW_BITS], (0, *walk))]
        lo, mid, hi = _xor_table(basis[:3]), _xor_table(basis[3:8]), _xor_table(basis[8:])
        dist, hits, first, mirror = [0] * (n + 1), [], {}, {}
        lowest = target == LOWEST

        def decode(base: int, mask: int, limit: int | None = None) -> list[int]:
            # each nonzero byte i yields at least one word
            data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
            words = []
            for m in islice(_FLAG.finditer(data.translate(_NONZERO)), limit):
                i = m.start()
                h = base ^ hi[i >> 5] ^ mid[i & 31]
                for j in _BYTE_BITS[data[i]]:
                    words.append(h ^ lo[j])
            return words[:limit]

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
        shell = None if target is None else DesignSet(n, target, tuple(hits))
        return dist, shell, tuple(b for w in sorted(first.keys() | mirror.keys())
                                  for b in (first.get(w, []) + mirror.get(w, []))[:per_weight])

    def weight_distribution(self) -> list[int]:
        return self.sweep()[0]

    def shell(self, w: int) -> DesignSet:
        """All codewords of weight exactly w."""
        if not 0 <= w <= self.n:
            raise ValueError(f"shell weight {w} outside 0..{self.n}")
        return self.sweep(w)[1]

    # -- cosets -----------------------------------------------------------------

    def coset_leaders(self, sub: "Code") -> dict[int, DesignSet]:
        """The minimal-weight words of each coset of `sub` in this code, keyed
        by the coset label (bit i of the label selects the i-th extension
        basis row).  Label 0 is `sub` itself, led by the zero word alone; the
        rest are walked in Gray order, one basis row XORed in per coset."""
        if not sub.is_subcode_of(self):
            raise ValueError("coset quotient requires sub to be a subcode")
        # XORs of residues mod sub stay residues: their RREF spans the quotient
        ext = _rref([sub.reduce(row) for row in self.rref_rows], self.n)[0]
        q = len(ext)
        if q > QUOTIENT_CAP:
            raise EnumerationCapError(f"quotient dimension {q} exceeds {QUOTIENT_CAP}")
        sub._check_cap()
        out, offset = [DesignSet(self.n, 0, (0,))] * (1 << q), 0
        for i in range(1, 1 << q):
            offset ^= ext[(i & -i).bit_length() - 1]
            out[i ^ i >> 1] = sub.sweep(LOWEST, offset=offset)[1]
        return dict(enumerate(out))


# -- generator-matrix files ------------------------------------------------------

def parse_generator_text(text: str) -> Code:
    """Parse the generator-matrix format: 'n k' then k rows of n bits.

    Blank lines and lines starting with '#' are ignored.  Errors report the
    offending 1-based line number; rows of rank below k are refused at the
    header line.
    """
    header: tuple[int, int] | None = None
    rows: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2:
                raise CodeFileError("expected header 'n k'", lineno)
            try:
                n, k = int(parts[0]), int(parts[1])
            except ValueError:
                raise CodeFileError("non-integer header fields", lineno) from None
            if not 0 < n <= MAX_LENGTH or not 0 <= k <= n:
                raise CodeFileError(f"invalid dimensions n={n} k={k}", lineno)
            header = (n, k)
            header_line = lineno
            continue
        n, k = header
        if len(rows) == k:
            raise CodeFileError(f"more than the {k} declared generator rows", lineno)
        if len(line) != n or line.strip("01"):
            raise CodeFileError(f"expected exactly {n} characters from {{0,1}}", lineno)
        rows.append(parse_word(line))
    if header is None:
        raise CodeFileError("missing header 'n k'", 1)
    n, k = header
    if len(rows) != k:
        raise CodeFileError(f"expected {k} generator rows, found {len(rows)}", 1)
    code = Code(n, rows)
    if code.k != k:
        raise CodeFileError(f"generator rows have rank {code.k}, below the declared "
                            f"k = {k}", header_line)
    return code


def load_code(path) -> Code:
    """Read a matrix file of at most MAX_FILE_BYTES bytes."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise CodeFileError(f"file exceeds {MAX_FILE_BYTES} bytes",
                            data.count(b"\n", 0, MAX_FILE_BYTES) + 1)
    return parse_generator_text(data.decode("ascii"))
