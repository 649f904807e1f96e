from fractions import Fraction
from itertools import islice
from math import perm

import pytest

from typeii import configuration
from typeii.catalog import resolve
from typeii.configuration import (
    COUNTEREXAMPLE,
    DUAL_OF_SPAN,
    GENERATED,
    INDETERMINATE,
    QUOTIENT_OF_CODE,
    REFERENCE,
    ROOTS_MULT_4,
    SUPPORTED_LENGTHS,
    analyze,
    build_system,
    extended_determinant,
    kept_degree_set,
    minimal_sweep,
    reference_ratio,
    scenario_for,
    verify_on_code,
)
from typeii.designs import intersection_profile
from typeii.exact import (
    ONE,
    ZERO,
    Polynomial,
    RationalFunction,
    factor_numerator,
    integer_roots,
)
from typeii.gf2 import Code, parse_word
from typeii.gleason import extremal_min_weight
from typeii.harmonic import zonal_eval

from test_exact import S, lift, ratfun_value
from test_gf2 import gray_walk


# ------------------------------------------------------------ system building

def test_kept_degrees():
    assert kept_degree_set(48) == [1, 2, 3, 4]
    assert kept_degree_set(96) == [1, 2, 3, 4, 5, 7]
    assert kept_degree_set(16) == [1, 3]
    assert kept_degree_set(8) == [1, 2]
    assert kept_degree_set(72) == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        kept_degree_set(40)


def test_system_shapes():
    # d(n)/4 + 1 unknowns and their right-hand side per row; the sum row over
    # 1, then one zonal row per kept degree d over s(s-1)...(s-d+1)
    for n in SUPPORTED_LENGTHS:
        rows, roots = build_system(n)
        d = extremal_min_weight(n)
        assert len(rows) == len(roots) == d // 4 + 2
        assert all(len(r) == d // 4 + 2 for r in rows)
        assert rows[0][:-1] == (ONE,) * (d // 4 + 1)
        assert roots == [()] + [tuple(range(deg)) for deg in kept_degree_set(n)]


def test_system_examples():
    rows8, _ = build_system(8)
    assert len(rows8) == 3 and len(rows8[0]) - 1 == 2
    assert lift(build_system(24)[0][0][-1])(1) == 759
    rows56, _ = build_system(56)
    assert scenario_for(56) == DUAL_OF_SPAN
    assert len(rows56) == 5
    # the unknowns lambda_0, lambda_2, lambda_4, lambda_6
    assert len(rows56[0]) - 1 == 4
    assert scenario_for(48) == QUOTIENT_OF_CODE


@pytest.mark.parametrize("n", SUPPORTED_LENGTHS)
def test_zonal_rows_match_zonal_eval(n):
    """Each zonal row, numerators over its one denominator, is Z_d at the
    kept intersection weights: the polynomial rows agree with the one
    evaluator."""
    rows, roots = build_system(n)
    d_min = extremal_min_weight(n)
    weights = range(0, d_min // 2 + 1, 2)
    assert roots[0] == ()
    for (*coefficients, rhs), den, d in zip(rows[1:], roots[1:], kept_degree_set(n),
                                            strict=True):
        assert rhs == ZERO
        assert den == tuple(range(d))
        # Z_d needs s >= d, and every kept weight a <= d(n)/2 needs s >= a
        for s in (max(d, d_min // 2), d_min + 1):
            for coeff, a in zip(coefficients, weights, strict=True):
                expected = ratfun_value(zonal_eval(n, None, d_min, a, d), s)
                assert lift(coeff)(s) / perm(s, d) == expected, (n, d, s, a)
                # the numeric Z_d exists where a weight-s word can meet a
                # weight-d_min word in a positions
                if d_min - a <= n - s:
                    assert zonal_eval(n, s, d_min, a, d) == expected, (n, d, s, a)


# ------------------------------------------------------------- determinants

@pytest.mark.parametrize("n", SUPPORTED_LENGTHS)
def test_determinant_equals_published(n):
    assert extended_determinant(n) == REFERENCE[n].published()


@pytest.mark.parametrize("n", SUPPORTED_LENGTHS)
def test_determinant_numerator_divisible_by_reference_factor(n):
    det = extended_determinant(n)
    prim = det.num.primitive()
    ref = REFERENCE[n]
    assert ref.factor.divides(prim)
    cofactor = lift(prim).exact_div(ref.factor)
    # anything beyond the reference factor must be integer-root-free in 1..n
    if cofactor.degree > 0:
        assert not any(1 <= r <= n for r in integer_roots(cofactor))


@pytest.mark.parametrize("n", SUPPORTED_LENGTHS)
def test_determinant_proportional_to_reference(n):
    ratio = reference_ratio(n)
    assert ratio.den.degree == 0 and ratio.num.degree <= 0
    assert not ratio.is_zero
    # informational: 1 means the published constants are reproduced exactly
    print(f"n={n} determinant ratio to reference: {ratio}")


def test_reference_ratio_needs_a_dividing_factor(monkeypatch):
    # the published numerator must divide the determinant's: s - 9 does not
    # divide the n = 16 numerator, whose only integer root is 8
    monkeypatch.setitem(REFERENCE, 16, REFERENCE[16]._replace(factor=Polynomial([-9, 1])))
    with pytest.raises(ArithmeticError):
        reference_ratio(16)


def test_factor_numerator_structure():
    f = factor_numerator((S - 8) * Polynomial([2]))
    assert f.content == 2
    assert f.linear == ((8, 1),)
    assert f.residual == Polynomial([1])


# ------------------------------------------------------------------ verdicts

def test_analyze_n72_no_roots():
    v = analyze(72)
    quartic = Polynomial([3650496, -800440, 67410, -2600, 39])
    assert quartic.divides(v.determinant.num.primitive())
    assert v.integer_roots == frozenset()
    assert v.conclusion == GENERATED and v.generated_by_minimal


def test_analyze_n16_counterexample():
    v = analyze(16)
    assert v.relevant_roots == {8}
    assert v.conclusion == COUNTEREXAMPLE
    assert v.counterexample_weight == 8
    assert not v.generated_by_minimal


def test_analyze_n56_n96_multiples_of_four():
    for n, root in ((56, 16), (96, 24)):
        v = analyze(n)
        assert v.scenario == DUAL_OF_SPAN
        assert v.relevant_roots == {root}
        assert v.conclusion == ROOTS_MULT_4
        assert v.generated_by_minimal


# a synthetic determinant with an integer root on each scenario's boundary:
# d(16) = 4 for the quotient scenario and 0 for the dual one at n = 56
@pytest.mark.parametrize("n, numerator, relevant, conclusion", [
    (16, (S - 4) * (S - 1), set(), GENERATED),           # s > d(n), not s >= d(n)
    (16, (S - 4) * (S - 5), {5}, COUNTEREXAMPLE),
    (56, S * (S + 2), set(), GENERATED),                 # s > 0, not s >= 0
    (56, S * (S - 3), {3}, INDETERMINATE),
    (56, S * (S - 4), {4}, ROOTS_MULT_4),
])
def test_analyze_root_boundaries(monkeypatch, n, numerator, relevant, conclusion):
    monkeypatch.setattr(configuration, "extended_determinant",
                        lambda n: RationalFunction(numerator, (-1,)))
    v = analyze(n)
    assert v.integer_roots == integer_roots(numerator)
    assert v.relevant_roots == relevant and v.conclusion == conclusion
    assert v.counterexample_weight == (min(relevant) if conclusion == COUNTEREXAMPLE
                                       else None)
    assert v.generated_by_minimal == (conclusion in (GENERATED, ROOTS_MULT_4))


@pytest.mark.parametrize("n", SUPPORTED_LENGTHS)
def test_analyze_matches_reference_conclusion(n):
    assert analyze(n).conclusion == REFERENCE[n].conclusion


def test_verdict_roundtrips_to_dict():
    d = analyze(16).to_dict()
    assert d["relevant_roots"] == [8]
    assert d["conclusion"] == COUNTEREXAMPLE
    assert d["counterexample_weight"] == 8


# ------------------------------------------------------------ concrete codes

@pytest.mark.parametrize("name", ["e8", "e8e8", "golay24", "rm32"])
def test_verify_on_generated_codes(name):
    r = verify_on_code(resolve(name))
    assert r.generated_by_minimal
    assert r.coset_min_weights == (0,)
    assert r.all_checks_pass


def test_verify_on_d16plus():
    r = verify_on_code(resolve("d16plus"))
    assert not r.generated_by_minimal
    assert r.span_dimension == 7
    assert r.coset_min_weights == (0, 8)
    assert r.all_checks_pass  # consistency checks hold even without generation


@pytest.mark.parametrize("name", ["e8", "e8e8", "d16plus", "golay24", "rm32"])
def test_catalog_samples_are_first_words_of_full_gray_walk(name):
    # each catalog code holds 1, so the sweep takes its samples from the half
    # walk and then its complements; on these codes they are still the first
    # three words of each weight in the full walk, the words behind the
    # lambda-row checks of the goldens
    code = resolve(name)
    picks: dict[int, list[int]] = {}
    for word in gray_walk(code):
        if word and len(picks.setdefault(word.bit_count(), [])) < 3:
            picks[word.bit_count()].append(word)
    assert minimal_sweep(code)[2] == tuple(b for w in sorted(picks) for b in picks[w])


@pytest.mark.parametrize("make, field", [
    (lambda: analyze(8), "conclusion"),
    (lambda: verify_on_code(resolve("e8")), "generated_by_minimal"),
    (lambda: resolve("e8").shell(4), "words"),
], ids=["Verdict", "CodeReport", "DesignSet"])
def test_records_are_immutable(make, field):
    record = make()
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.extra = value
    assert getattr(record, field) is value


def test_e8_lambda_sum_is_enumerator_coefficient():
    code = resolve("e8")
    shell = code.shell(4)
    for cbar in islice(gray_walk(code), 1, 6):
        profile = intersection_profile(shell, cbar)
        assert sum(profile.values()) == 14
        assert all(a % 2 == 0 for a in profile)


def test_d16plus_coset_rep_solves_n16_system():
    code = resolve("d16plus")
    span = Code(16, code.shell(4))
    rep = next(w for w in code.shell(8) if not span.contains(w))
    shell = code.shell(4)
    profile = intersection_profile(shell, rep)
    assert set(profile) <= {0, 2}          # intersection bound at d/2 = 2
    assert sum(profile.values()) == 28     # sum equation
    for d in kept_degree_set(16):
        total = sum(
            count * zonal_eval(16, 8, 4, a, d)
            for a, count in profile.items()
        )
        assert total == 0


def test_golay_octads_cover_every_coordinate():
    octads = resolve("golay24").shell(8)
    coverage = 0
    for word in octads:
        coverage |= word
    assert coverage == (1 << 24) - 1


def test_intersection_bound_on_golay():
    # adding a minimal word to any codeword it meets too deeply would shorten
    # it; instantiated over octad pairs
    code = resolve("golay24")
    octads = code.shell(8)
    words = list(octads)[:40]
    for c in words:
        for cbar in words:
            inter = (c & cbar).bit_count()
            if inter > 4:
                assert (c ^ cbar).bit_count() < cbar.bit_count()


def test_odd_intersections_fail_the_lambda_rows():
    # all of F_2^8: the weight-4 shell is all of B_4, a 4-design, so every
    # kept zonal row vanishes; only the odd intersections of the weight-1
    # samples with the shell break the rows
    r = verify_on_code(Code(8, [1 << j for j in range(8)]))
    assert (r.shell_size, r.span_dimension, r.coset_min_weights) == (70, 7, (0, 1))
    assert not r.lambda_rows_consistent


def test_lambda_rows_checked_at_s_equal_to_degree(monkeypatch):
    # the weight-2 samples meet the one weight-4 word in 2 or 0 positions, so
    # the odd check passes, and the kept degrees of n = 8 are 1 and 2; a zonal
    # sum that is nonzero only at s = d must fail the rows, since the
    # degree-d row is defined for every s >= d
    assert kept_degree_set(8) == [1, 2]
    code = Code(8, [parse_word("11000000"), parse_word("11110000")])
    for at_degree, consistent in ((0, True), (1, False)):
        monkeypatch.setattr(configuration, "zonal_sum",
                            lambda n, s, w, profile, d: at_degree * (s == d))
        r = verify_on_code(code)
        assert r.sampled_weights == (2, 2, 4)
        assert r.lambda_rows_consistent == consistent


def test_verify_on_qr48():
    r = verify_on_code(resolve("qr48"))
    assert r.generated_by_minimal and r.all_checks_pass
