"""Deterministic constructions of the concrete codes used for verification.

Catalog names: e8, e8e8, d16plus, golay24, rm32, qr48.  Each entry records
the length and dimension the built code must have, which `build` asserts.
Every entry is also shipped as a generator-matrix text file under data/;
the test suite checks each file and each code's weights against the builders.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable

from .gf2 import Code, load_code


def _qr_set(p: int) -> set[int]:
    return {pow(x, 2, p) for x in range(1, p)}


def _gf2poly_mod(a: int, b: int) -> int:
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _gf2poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2poly_mod(a, b)
    return a


def _build_e8() -> Code:
    # extended Hamming [8,4,4]: all-ones plus the three coordinate hyperplanes
    return Code(8, ["11111111", "01010101", "00110011", "00001111"])


def _build_e8e8() -> Code:
    rows = _build_e8().rref_rows
    return Code(16, [*rows, *(r << 8 for r in rows)])


def _build_d16plus() -> Code:
    # seven overlapping tetrads 1111 at positions {2i..2i+3} plus the glue (10)^8
    rows = [0b1111 << (2 * i) for i in range(7)]
    rows.append(sum(1 << (2 * j) for j in range(8)))
    return Code(16, rows)


def _build_golay24() -> Code:
    # standard bordered-circulant form [I | B]: for i, j <= 10,
    # B[i][j] = 1 iff (i - j) mod 11 is 0 or a quadratic residue mod 11;
    # twelfth row and column all ones, corner 0.
    hits = _qr_set(11) | {0}
    rows = []
    for i in range(12):
        bits = 1 << i
        for j in range(12):
            if i < 11 and j < 11:
                on = (i - j) % 11 in hits
            else:
                on = not (i == 11 and j == 11)
            if on:
                bits |= 1 << (12 + j)
        rows.append(bits)
    return Code(24, rows)


def _build_rm32() -> Code:
    # Reed-Muller RM(2,5): evaluation vectors of all monomials of degree <= 2
    def ev(f: Callable[[int], int]) -> int:
        return sum(1 << t for t in range(32) if f(t))

    gens = [ev(lambda t: 1)]
    gens += [ev(lambda t, i=i: t >> i & 1) for i in range(5)]
    gens += [
        ev(lambda t, i=i, j=j: (t >> i & 1) & (t >> j & 1))
        for i in range(5)
        for j in range(i + 1, 5)
    ]
    return Code(32, gens)


def _build_extended_qr(p: int) -> Code:
    # cyclic quadratic-residue code of prime length p from the generator
    # polynomial gcd(x^p + 1, sum_{r in QR(p)} x^r), extended by a parity bit
    theta = sum(1 << r for r in _qr_set(p))
    g = _gf2poly_gcd((1 << p) | 1, theta)
    k = p - (g.bit_length() - 1)
    rows = []
    for i in range(k):
        poly = g << i
        rows.append(poly | ((poly.bit_count() & 1) << p))
    return Code(p + 1, rows)


def _build_qr48() -> Code:
    return _build_extended_qr(47)


class CatalogEntry(namedtuple("CatalogEntry", "name n k builder")):
    """A catalog code: its name, its [n, k] and the function that builds it."""

    __slots__ = ()


CATALOG: dict[str, CatalogEntry] = {
    e.name: e
    for e in (
        CatalogEntry("e8", 8, 4, _build_e8),
        CatalogEntry("e8e8", 16, 8, _build_e8e8),
        CatalogEntry("d16plus", 16, 8, _build_d16plus),
        CatalogEntry("golay24", 24, 12, _build_golay24),
        CatalogEntry("rm32", 32, 16, _build_rm32),
        CatalogEntry("qr48", 48, 24, _build_qr48),
    )
}


def build(name: str) -> Code:
    """Construct a catalog code and assert its length and dimension."""
    try:
        entry = CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown catalog code {name!r}; known: {sorted(CATALOG)}") from None
    code = entry.builder()
    if code.n != entry.n or code.k != entry.k:
        raise AssertionError(f"{name}: built [{code.n},{code.k}], expected [{entry.n},{entry.k}]")
    return code


def resolve(name_or_path: str) -> Code:
    """A catalog name or a path to a matrix file.  Any other string is a path:
    a shipped data file name such as 'e8.txt' resolves against the current
    directory, not data/; the shipped codes are reached by catalog name."""
    if name_or_path in CATALOG:
        return build(name_or_path)
    return load_code(name_or_path)

