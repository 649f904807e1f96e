from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typeii.exact import (
    ONE,
    S,
    ZERO,
    Polynomial,
    RationalFunction,
    RF_ONE,
    RF_ZERO,
    affine,
    binom_poly,
    det_ratfun,
    factored_str,
    format_poly,
    integer_roots,
    poly_gcd,
)


# ---------------------------------------------------------------- rationals

@given(st.integers(-10**6, 10**6), st.integers(1, 10**6),
       st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_rational_arithmetic_matches_cross_multiplication(a, b, c, d):
    # reference: p/q + r/t = (p*t + r*q) / (q*t), compared by cross-multiplying
    x, y = Fraction(a, b), Fraction(c, d)
    s = x + y
    assert s.numerator * (b * d) == (a * d + c * b) * s.denominator
    p = x * y
    assert p.numerator * (b * d) == (a * c) * p.denominator


@given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
def test_rational_normalization_idempotent(a, b):
    x = Fraction(a, b)
    y = Fraction(x.numerator, x.denominator)
    assert (y.numerator, y.denominator) == (x.numerator, x.denominator)
    from math import gcd
    assert gcd(abs(x.numerator), x.denominator) == 1
    assert x.denominator >= 1


# -------------------------------------------------------------- polynomials

def test_polynomial_basic_ops():
    p = Polynomial([1, 2])        # 2s + 1
    q = Polynomial([-1, 0, 1])    # s^2 - 1
    assert (p + q).coeffs == (0, 2, 1)
    assert (p * q).coeffs == (-1, -2, 1, 2)
    assert q(3) == 8
    assert (q - q).is_zero
    assert q.degree == 2 and ZERO.degree == -1


def test_polynomial_divmod_exact():
    q = Polynomial([-1, 0, 1])  # (s-1)(s+1)
    quo, rem = divmod(q, S - 1)
    assert rem.is_zero and quo == S + 1
    with pytest.raises(ArithmeticError):
        q.exact_div(S - 2)


def test_poly_gcd_and_primitive():
    a = (S - 1) * (S - 2) * 6
    b = (S - 1) * (S + 5) * 4
    assert poly_gcd(a, b) == S - 1
    p = Polynomial([Fraction(2, 3), Fraction(4, 3)])
    assert p.primitive().coeffs == (1, 2)
    assert p.content() == Fraction(2, 3)
    assert p.primitive() * p.content() == p


def test_format_and_factored():
    p = Polynomial([-10, 3])
    assert format_poly(p) == "3*s - 10"
    assert factored_str((S - 16) * Polynomial([-5120, 1368, -112, 3])) == \
        "(s-16)*(3*s^3-112*s^2+1368*s-5120)"
    assert factored_str(Polynomial([0, -2, 2])) == "2*s*(s-1)"
    rt = Polynomial.from_json(p.to_json())
    assert rt == p


# -------------------------------------------------------- symbolic binomials

def test_binom_poly_spec_values():
    assert binom_poly(S, 2) == Polynomial([0, Fraction(-1, 2), Fraction(1, 2)])
    assert binom_poly(S, 0) == ONE
    assert binom_poly(affine(-1, 6), 1) == affine(-1, 6)


@given(st.integers(0, 30), st.integers(0, 8))
def test_binom_poly_matches_integer_binomial(m, k):
    from math import comb
    assert binom_poly(S, k)(m) == comb(m, k)
    if m < k:
        assert binom_poly(S, k)(m) == 0


# -------------------------------------------------------- rational functions

def test_ratfun_normalization_and_arith():
    one = RationalFunction(S, S - 1) * RationalFunction(S - 1, S)
    assert one == RationalFunction(ONE)
    two_over_s = RationalFunction(ONE, S) + RationalFunction(ONE, S)
    assert two_over_s == RationalFunction(Polynomial([2]), S)
    cancelled = RationalFunction(S * S - 1, S - 1)
    assert cancelled == RationalFunction(S + 1)
    assert cancelled.den == ONE


def test_ratfun_monic_denominator():
    r = RationalFunction(ONE, 2 * S - 4)
    assert r.den == S - 2
    assert r.num == Polynomial([Fraction(1, 2)])


def test_ratfun_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(ONE, S) / RationalFunction(ZERO)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(ONE, S)(0)


# -------------------------------------------------------------- determinants

def test_det_trivial_cases():
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert det_ratfun(ident) == RationalFunction(ONE)
    repeated = [[S, 1, 2], [S, 1, 2], [1, S, 0]]
    assert det_ratfun(repeated).is_zero
    rank1 = [[RationalFunction(S), RationalFunction(ONE)],
             [RationalFunction(ONE), RationalFunction(ONE, S)]]
    assert det_ratfun(rank1).is_zero


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det_ratfun([[1, 2, 3], [4, 5, 6]])


@st.composite
def small_ratfun_matrices(draw):
    n = draw(st.integers(1, 4))
    def entry():
        num = Polynomial(draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3)))
        den_kind = draw(st.integers(0, 2))
        den = [ONE, S, S - 1][den_kind]
        return RationalFunction(num, den)
    return [[entry() for _ in range(n)] for _ in range(n)]


def det_cofactor(rows: list[list[RationalFunction]]) -> RationalFunction:
    """Determinant by cofactor expansion along the first row (reference oracle)."""
    if not rows:
        return RF_ONE
    total = RF_ZERO
    for j, e in enumerate(rows[0]):
        if e.is_zero:
            continue
        term = e * det_cofactor([r[:j] + r[j + 1:] for r in rows[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


@settings(max_examples=60, deadline=None)
@given(small_ratfun_matrices())
def test_det_bareiss_agrees_with_cofactor(m):
    assert det_ratfun(m) == det_cofactor(m)


def test_det_multilinear_in_a_row():
    base = [[S, 1, 0], [2, S - 1, 1], [0, 3, S + 2]]
    scaled = [row[:] for row in base]
    scaled[1] = [RationalFunction(Polynomial([e]) * 5 if isinstance(e, int) else e * 5)
                 for e in base[1]]
    assert det_ratfun(scaled) == det_ratfun(base) * RationalFunction(Polynomial([5]))


# -------------------------------------------------------------- integer roots

def test_integer_roots_paper_linear_factors():
    assert integer_roots(Polynomial([-10, 3])) == set()
    assert integer_roots(S - 8) == {8}


def test_integer_roots_cubic_by_exhaustive_scan():
    # Independent oracle: any integer root of the cubic divides 5120, so a
    # full scan of [-5120, 5120] is exhaustive.
    cubic = Polynomial([-5120, 1368, -112, 3])
    scanned = {r for r in range(-5120, 5121) if cubic(r) == 0}
    assert scanned == set()
    assert integer_roots(cubic) == scanned


def test_integer_roots_strips_s_powers():
    p = S * S * (S - 3)
    assert integer_roots(p) == {0, 3}


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=3),
       st.lists(st.integers(-6, 6), min_size=1, max_size=3))
def test_integer_roots_multiplicative_union(rs, qs):
    p = ONE
    for r in rs:
        p = p * (S - r)
    q = ONE
    for r in qs:
        q = q * (S - r)
    assert integer_roots(p * q) == integer_roots(p) | integer_roots(q)
