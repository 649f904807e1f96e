"""The catalog codes: their constructions, kept here as the oracle for the
shipped matrix files, and the records every catalog code must meet."""

from collections.abc import Callable
from importlib import resources

import pytest

from typeii.catalog import CATALOG, resolve
from typeii.gf2 import Code, parse_generator_text, parse_word
from typeii.gleason import extremal_min_weight

from test_gf2 import format_generator_text


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
    return Code(8, map(parse_word, ["11111111", "01010101", "00110011", "00001111"]))


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


def _build_qr48() -> Code:
    # cyclic quadratic-residue code of prime length 47 from the generator
    # polynomial gcd(x^47 + 1, sum_{r in QR(47)} x^r), extended by a parity bit
    p = 47
    theta = sum(1 << r for r in _qr_set(p))
    g = _gf2poly_gcd((1 << p) | 1, theta)
    k = p - (g.bit_length() - 1)
    rows = []
    for i in range(k):
        poly = g << i
        rows.append(poly | ((poly.bit_count() & 1) << p))
    return Code(p + 1, rows)


# name: (n, k, construction)
BUILDERS = {
    "e8": (8, 4, _build_e8),
    "e8e8": (16, 8, _build_e8e8),
    "d16plus": (16, 8, _build_d16plus),
    "golay24": (24, 12, _build_golay24),
    "rm32": (32, 16, _build_rm32),
    "qr48": (48, 24, _build_qr48),
}


def build(name: str) -> Code:
    """A catalog code from its construction, checked against its [n, k]."""
    n, k, builder = BUILDERS[name]
    code = builder()
    assert (code.n, code.k) == (n, k), f"{name}: built [{code.n},{code.k}]"
    return code


DESK = ["e8", "e8e8", "d16plus", "golay24", "rm32"]

# name: (minimum weight, number of minimal words); every catalog code is self-dual
EXPECTED = {
    "e8": (4, 14),
    "e8e8": (4, 28),
    "d16plus": (4, 28),
    "golay24": (8, 759),
    "rm32": (8, 620),
    "qr48": (12, 17296),
}


def check_record(code: Code, name: str):
    """Assert the expected record of a catalog code with one sweep."""
    d, count = EXPECTED[name]
    dist = code.weight_distribution()
    assert code.dual() == code, f"{name}: not self-dual"
    assert min(w for w in range(1, code.n + 1) if dist[w]) == d
    assert dist[d] == count


def span_of_shell(code: Code, w: int) -> Code:
    return Code(code.n, code.shell(w))


def data_file_text(name: str) -> str:
    """The generator-matrix file shipped under data/ for a catalog code."""
    code = build(name)
    comment = (f"{name}: [{code.n},{code.k},{EXPECTED[name][0]}] "
               "self-dual binary code (canonical RREF rows)")
    return format_generator_text(code, comment=comment)


@pytest.mark.parametrize("name", DESK)
def test_build_with_checks(name):
    check_record(build(name), name)


def test_unknown_name(tmp_path, monkeypatch):
    # a string that is no catalog name is a path
    monkeypatch.chdir(tmp_path)
    assert set(CATALOG) == set(BUILDERS)
    with pytest.raises(FileNotFoundError):
        resolve("e7")


@pytest.mark.parametrize("name", DESK)
def test_catalog_codes_are_extremal_type_ii(name):
    code = resolve(name)
    dist = code.weight_distribution()
    assert code.dual() == code
    assert all(w % 4 == 0 for w, count in enumerate(dist) if count)
    assert min(w for w in range(1, code.n + 1) if dist[w]) == extremal_min_weight(code.n)


@pytest.mark.parametrize("name", ["e8", "e8e8", "golay24", "rm32"])
def test_generated_by_minimal_words(name):
    code = resolve(name)
    assert span_of_shell(code, extremal_min_weight(code.n)) == code


def test_d16plus_tetrad_span_is_codimension_one():
    code = resolve("d16plus")
    span = span_of_shell(code, 4)
    assert span.k == 7
    assert span.is_subcode_of(code) and span != code
    assert sorted(s.w for s in code.coset_leaders(span).values()) == [0, 8]


def test_golay_span_of_octads():
    code = resolve("golay24")
    span = span_of_shell(code, 8)
    assert span == code
    assert [s.w for s in code.coset_leaders(span).values()] == [0]


def test_qr48_checks_and_span():
    code = resolve("qr48")
    check_record(code, "qr48")
    assert span_of_shell(code, 12) == code


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_shipped_files_match_builders(name):
    shipped = resources.files("typeii").joinpath("data", f"{name}.txt")
    text = shipped.read_text(encoding="ascii")
    assert text == data_file_text(name)
    code = build(name)
    assert parse_generator_text(text) == code
    assert resolve(name).rref_rows == code.rref_rows


def test_resolve_accepts_paths(tmp_path):
    path = tmp_path / "mycode.txt"
    path.write_text(data_file_text("e8"), encoding="ascii")
    assert resolve(str(path)) == resolve("e8") == build("e8")
