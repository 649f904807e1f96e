"""Acceptance suite: one check per shipped claim, every tolerance exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one verdict line per
criterion.  The qr48 criteria sweep 2^24 codewords, about 0.2 s each.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from typeii.catalog import resolve
from typeii.configuration import (
    REFERENCE,
    analyze,
    extended_determinant,
    reference_ratio,
    verify_on_code,
)
from typeii.designs import predesign_count, zonal_design_residual
from typeii.exact import integer_roots
from typeii.gf2 import Code
from typeii.gleason import extremal_min_weight, extremal_weight_enumerator
from typeii.harmonic import sphere_sum, sphere_sum_symbolic

from test_designs import default_cbar_sample, is_t_design
from test_exact import S
from test_gf2 import gray_walk


def span_of_shell(code: Code, w: int) -> Code:
    return Code(code.n, code.shell(w))


def verdict(num: int, ok: bool, desc: str):
    print(f"\nACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


@pytest.fixture(scope="module")
def golay():
    return resolve("golay24")


@pytest.fixture(scope="module")
def octads(golay):
    return golay.shell(8)


def test_criterion_01_determinant_reproduction():
    ok = True
    for n in (8, 24, 32, 48, 72):
        det = extended_determinant(n)
        prim = det.num.primitive()
        ok = ok and REFERENCE[n].factor.divides(prim)
        d_min = extremal_min_weight(n)
        ok = ok and not any(r > d_min for r in integer_roots(prim))
    verdict(1, ok, "determinants for n=8,24,32,48,72 divisible by the "
                   "published factors with no integer roots above d(n)")


def test_criterion_02_n16_counterexample():
    prim = extended_determinant(16).num.primitive()
    divisible = (S - 8).divides(prim)
    roots_in_window = {r for r in integer_roots(prim) if 4 < r <= 16}
    verdict(2, divisible and roots_in_window == {8},
            "n=16 numerator divisible by (s-8); 8 is its only integer root in (4,16]")


def test_criterion_03_n56_n96_multiples_of_four():
    ok = True
    for n in (56, 96):
        prim = extended_determinant(n).num.primitive()
        ok = ok and REFERENCE[n].factor.divides(prim)
        ok = ok and all(r % 4 == 0 for r in integer_roots(prim))
    verdict(3, ok, "n=56,96 numerators divisible by the published products; "
                   "every integer root is a multiple of 4")


def test_criterion_04_catalog_configuration_verdicts():
    t0 = time.perf_counter()
    ok = True
    for name in ("e8", "e8e8", "golay24", "rm32"):
        code = resolve(name)
        ok = ok and span_of_shell(code, extremal_min_weight(code.n)) == code
    d16 = resolve("d16plus")
    span = span_of_shell(d16, 4)
    ok = ok and span.k == d16.k - 1
    ok = ok and sorted(s.w for s in d16.coset_leaders(span).values()) == [0, 8]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    verdict(4, ok, f"catalog span verdicts (e8, e8e8, golay24, rm32 generated; "
                   f"d16plus codimension 1, coset weight 8) in {elapsed:.2f}s")


def test_criterion_04_deep_qr48_span():
    t0 = time.perf_counter()
    code = resolve("qr48")
    ok = span_of_shell(code, 12) == code
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    verdict(4, ok, f"qr48 equals the span of its weight-12 shell in {elapsed:.1f}s")


def test_criterion_05_design_certification(golay, octads):
    expected = {5: 1, 4: 5, 3: 21, 2: 77, 1: 253}
    ok = all(predesign_count(octads, t) == n_t for t, n_t in expected.items())
    # pair counting: C(n,t) N_t = C(w,t) |D|
    ok = ok and all(comb(24, t) * n_t == comb(8, t) * len(octads)
                    for t, n_t in expected.items())
    ok = ok and not is_t_design(octads, 6)
    for w in (0, 8, 12, 16, 24):
        ok = ok and is_t_design(golay.shell(w), 5)
    verdict(5, ok, "golay octads form a 5-design with N=(253,77,21,5,1), "
                   "fail at t=6; every shell passes t=5")


def test_criterion_06_half_design_residuals(octads):
    sample = default_cbar_sample(24, 7)
    ok = all(
        zonal_design_residual(octads, d, cbar) == 0
        for d in (1, 2, 3, 4, 5, 7)
        for cbar in sample
        if cbar.bit_count() >= d
    )
    degree6 = any(
        cbar.bit_count() >= 6 and zonal_design_residual(octads, 6, cbar) != 0
        for cbar in sample
    )
    verdict(6, ok and degree6,
            f"octad residuals vanish in degrees 1-5 and 7 over the full "
            f"{len(sample)}-word sample; degree 6 is nonzero for some word")


def test_criterion_07_harmonic_sphere_sum_gate():
    ok = True
    for n in (8, 16, 24):
        for d in range(1, 8):
            for w in range(n + 1):
                # identically zero in s covers every weight, poles included
                ok = ok and sphere_sum_symbolic(n, w, d).is_zero
            for s in range(d, n):
                for w in range(n + 1):
                    ok = ok and sphere_sum(n, s, w, d) == 0
    verdict(7, ok, "zonal sphere sums vanish exactly for all d<=7, "
                   "n in {8,16,24}, every (s,w)")


def test_criterion_08_enumerator_oracle():
    ok = True
    for name in ("e8", "e8e8", "d16plus", "golay24", "rm32"):
        code = resolve(name)
        enum = extremal_weight_enumerator(code.n)
        ok = ok and tuple(code.weight_distribution()) == enum
    verdict(8, ok, "extremal enumerators equal exhaustive shell counts for "
                   "n=8,16,24,32 (all coefficients)")


def test_criterion_08_deep_qr48_shell_count():
    dist = resolve("qr48").weight_distribution()
    ok = dist[12] == extremal_weight_enumerator(48)[12] == 17296
    verdict(8, ok, "A_12(48) = 17296 matches the qr48 sweep")


def test_criterion_09_property_suites(golay, octads):
    rng = random.Random(20260810)
    cases = 1000
    failures = 0

    for _ in range(cases):
        u = rng.getrandbits(24)
        v = rng.getrandbits(24)
        if (u ^ v).bit_count() != \
                u.bit_count() + v.bit_count() - 2 * (u & v).bit_count():
            failures += 1

    for _ in range(cases):
        n = rng.randint(2, 16)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(1, min(n, 8)))]
        c = Code(n, rows)
        d = c.dual()
        if c.k + d.k != n or d.dual() != c:
            failures += 1

    # minimal words meeting a codeword too deeply would shorten it
    codewords = list(gray_walk(golay))
    octad_list = list(octads)
    for _ in range(cases):
        c = rng.choice(octad_list)
        cbar = rng.choice(codewords)
        if cbar == 0:
            continue
        if (c & cbar).bit_count() > 4 and (c ^ cbar).bit_count() >= cbar.bit_count():
            failures += 1

    shells = {w: list(golay.shell(w)) for w in (8, 12, 16, 24)}
    for _ in range(cases):
        j = rng.randrange(24)
        w = rng.choice((8, 12, 16, 24))
        if not any(word >> j & 1 for word in shells[w]):
            failures += 1

    verdict(9, failures == 0,
            f"weight identity, dual involution, intersection bound, and "
            f"coordinate coverage: 4x{cases} randomized cases, {failures} failures")


def test_criterion_10_bonus_informational(golay):
    # non-gating: logged for information, asserted only to be computable
    span12 = span_of_shell(golay, 12) == golay
    span16 = span_of_shell(golay, 16) == golay
    print(f"\nINFO golay24 = span(shell 12): {span12}; = span(shell 16): {span16}")
    for n in REFERENCE:
        ratio = reference_ratio(n)
        constant = ratio.den.degree == 0 and ratio.num.degree <= 0
        shown = str(ratio) if constant else "nonconstant"
        print(f"INFO n={n:>2} determinant / published value = {shown}")
    verdict(10, True, "bonus spans and exact-constant comparisons logged above")
