import pytest

from typeii.catalog import resolve
from typeii.gleason import extremal_min_weight, extremal_weight_enumerator, sigma


def test_extremal_min_weight_values():
    assert extremal_min_weight(24) == 8
    assert extremal_min_weight(96) == 20
    assert extremal_min_weight(8) == 4
    assert extremal_min_weight(16) == 4


def test_sigma_values():
    assert sigma(48) == 5
    assert sigma(56) == 3
    assert sigma(16) == 1
    assert sigma(8) == 3
    assert sigma(72) == 5


@pytest.mark.parametrize("bad", [0, 4, 12, 25, -8, 136])
def test_length_validation(bad):
    with pytest.raises(ValueError):
        extremal_min_weight(bad)
    with pytest.raises(ValueError):
        sigma(bad)


def test_enumerator_small_lengths():
    assert extremal_weight_enumerator(8) == (1, 0, 0, 0, 14, 0, 0, 0, 1)
    w16 = extremal_weight_enumerator(16)
    assert (w16[4], w16[8]) == (28, 198)
    w24 = extremal_weight_enumerator(24)
    assert (w24[8], w24[12]) == (759, 2576)
    assert extremal_weight_enumerator(48)[12] == 17296


def test_enumerator_totals_and_gaps():
    for n in range(8, 129, 8):
        enum = extremal_weight_enumerator(n)
        assert len(enum) == n + 1
        assert sum(enum) == 2 ** (n // 2)
        d = extremal_min_weight(n)
        assert all(enum[w] == 0 for w in range(1, d))
        assert all(enum[w] == 0 for w in range(n + 1) if w % 4)


@pytest.mark.parametrize("name", ["e8", "e8e8", "d16plus", "golay24", "rm32"])
def test_enumerator_matches_exhaustive_counts(name):
    code = resolve(name)
    dist = code.weight_distribution()
    enum = extremal_weight_enumerator(code.n)
    assert tuple(dist) == enum
    assert enum[code.n] == 1  # all-ones word present in every catalog code


def test_enumerator_matches_qr48_shell():
    code = resolve("qr48")
    assert code.weight_distribution()[12] == extremal_weight_enumerator(48)[12]
