import pytest

from typeii.catalog import CATALOG, build, data_file_text, resolve, shipped_file
from typeii.gf2 import parse_generator_text
from typeii.gleason import extremal_min_weight

DESK = ["e8", "e8e8", "d16plus", "golay24", "rm32"]


@pytest.mark.parametrize("name", DESK)
def test_build_with_checks(name):
    code = build(name, check=True)
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
    assert code.min_weight() == extremal_min_weight(code.n)


@pytest.mark.parametrize("name", ["e8", "e8e8", "golay24", "rm32"])
def test_generated_by_minimal_words(name):
    code = build(name)
    assert code.span_of_shell(extremal_min_weight(code.n)) == code


def test_d16plus_tetrad_span_is_codimension_one():
    code = build("d16plus")
    span = code.span_of_shell(4)
    assert span.k == 7
    assert span.is_subcode_of(code) and span != code
    assert sorted(s.w for s in code.coset_leaders(span).values()) == [0, 8]


def test_golay_span_of_octads():
    code = build("golay24")
    span = code.span_of_shell(8)
    assert span == code
    assert [s.w for s in code.coset_leaders(span).values()] == [0]


def test_qr48_checks_and_span():
    code = build("qr48", check=True)
    assert code.span_of_shell(12) == code


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_shipped_files_match_builders(name):
    text = shipped_file(name).read_text(encoding="ascii")
    assert text == data_file_text(name)
    assert parse_generator_text(text) == build(name)


def test_resolve_accepts_paths(tmp_path):
    path = tmp_path / "mycode.txt"
    path.write_text(data_file_text("e8"), encoding="ascii")
    assert resolve(str(path)) == build("e8")
    assert resolve("e8") == build("e8")
