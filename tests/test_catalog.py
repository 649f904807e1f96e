from importlib import resources

import pytest

from typeii.catalog import CATALOG, build, resolve
from typeii.gf2 import Code, format_generator_text, parse_generator_text
from typeii.gleason import extremal_min_weight

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


def check_record(name: str) -> Code:
    """Build a catalog code and assert its expected record with one sweep."""
    code = build(name)
    d, count = EXPECTED[name]
    dist = code.weight_distribution()
    assert code.dual() == code, f"{name}: not self-dual"
    assert min(w for w in range(1, code.n + 1) if dist[w]) == d
    assert dist[d] == count
    return code


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
    code = check_record(name)
    entry = CATALOG[name]
    assert (code.n, code.k) == (entry.n, entry.k)


def test_unknown_name():
    with pytest.raises(KeyError):
        build("e7")


@pytest.mark.parametrize("name", DESK)
def test_catalog_codes_are_extremal_type_ii(name):
    code = build(name)
    dist = code.weight_distribution()
    assert code.dual() == code
    assert all(w % 4 == 0 for w, count in enumerate(dist) if count)
    assert min(w for w in range(1, code.n + 1) if dist[w]) == extremal_min_weight(code.n)


@pytest.mark.parametrize("name", ["e8", "e8e8", "golay24", "rm32"])
def test_generated_by_minimal_words(name):
    code = build(name)
    assert span_of_shell(code, extremal_min_weight(code.n)) == code


def test_d16plus_tetrad_span_is_codimension_one():
    code = build("d16plus")
    span = span_of_shell(code, 4)
    assert span.k == 7
    assert span.is_subcode_of(code) and span != code
    assert sorted(s.w for s in code.coset_leaders(span).values()) == [0, 8]


def test_golay_span_of_octads():
    code = build("golay24")
    span = span_of_shell(code, 8)
    assert span == code
    assert [s.w for s in code.coset_leaders(span).values()] == [0]


def test_qr48_checks_and_span():
    code = check_record("qr48")
    assert span_of_shell(code, 12) == code


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_shipped_files_match_builders(name):
    shipped = resources.files("typeii").joinpath("data", f"{name}.txt")
    text = shipped.read_text(encoding="ascii")
    assert text == data_file_text(name)
    assert parse_generator_text(text) == build(name)


def test_resolve_accepts_paths(tmp_path):
    path = tmp_path / "mycode.txt"
    path.write_text(data_file_text("e8"), encoding="ascii")
    assert resolve(str(path)) == build("e8")
    assert resolve("e8") == build("e8")
