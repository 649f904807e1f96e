from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typeii import harmonic
from typeii.exact import Polynomial, RationalFunction, _make, _mul_into, _reduce, _unpack
from typeii.harmonic import (
    sphere_sum,
    sphere_sum_symbolic,
    zonal_eval,
    zonal_numerator,
    zonal_sum,
)

from test_exact import ONE, S, ZERO, Poly, _product_sum, ratfun_value


# ------------------------------------------------- reference: the Poly ring
# P_d built term by term in Q[s], one reduced Poly per product: the
# construction the integer kernel of typeii.harmonic replaced.

def affine(alpha: int, beta: int) -> Poly:
    """The affine expression alpha*s + beta."""
    return Poly([beta, alpha])


def binom_poly(x: Polynomial, k: int) -> Polynomial:
    """The symbolic binomial C(x, k) = x(x-1)...(x-k+1) / k! as a polynomial in s."""
    if k < 0:
        raise ValueError("binomial order must be nonnegative")
    prod = ONE
    for t in range(k):
        prod = prod * (x - t)
    return prod * Fraction(1, factorial(k))


@lru_cache(maxsize=None)
def krawtchouk_oracle(x: int, alpha: int, beta: int, k: int) -> Polynomial:
    """sum_i (-1)^i C(x, i) C(N - x, k - i) with N = alpha*s + beta, degree k in s."""
    top = affine(alpha, beta - x)
    out = ZERO
    for i in range(min(x, k) + 1):
        out = out + binom_poly(top, k - i) * ((-1) ** i * comb(x, i))
    return out


def q_dk_oracle(n: int, w: int, a: int, d: int, k: int) -> Polynomial:
    return krawtchouk_oracle(a, 1, 0, k) * krawtchouk_oracle(w - a, -1, n, d - k)


def zonal_numerator_oracle(n: int, w: int, a: int, d: int) -> Polynomial:
    """P_d = Z_d * s(s-1)...(s-d+1): over that common denominator the
    coefficient of Q_{d,k} is prod_{l<k} ((n-s)-(d-l-1)) * (s-k)...(s-d+1)."""
    tail = ONE  # (s-k)...(s-d+1), the part not consumed by coefficient k
    for l in range(d):
        tail = tail * (S - l)
    num = ONE
    total = ZERO
    for k in range(d + 1):
        if k > 0:
            num = num * affine(-1, n - d + k)  # (n - s) - (d - (k-1) - 1)
            tail = tail.exact_div(S - (k - 1))
        term = num * tail * q_dk_oracle(n, w, a, d, k)
        total = total + term if k % 2 == 0 else total - term
    return total


def test_binom_poly_spec_values():
    assert binom_poly(S, 2) == Polynomial([0, Fraction(-1, 2), Fraction(1, 2)])
    assert binom_poly(S, 0) == ONE
    assert binom_poly(affine(-1, 6), 1) == affine(-1, 6)


@given(st.integers(0, 30), st.integers(0, 8))
def test_binom_poly_matches_integer_binomial(m, k):
    assert binom_poly(S, k)(m) == comb(m, k)
    if m < k:
        assert binom_poly(S, k)(m) == 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_zonal_numerator_matches_polynomial_construction(data):
    n = data.draw(st.integers(1, 48))
    d = data.draw(st.integers(0, min(n // 2, 10)))
    w = data.draw(st.integers(0, n))
    a = data.draw(st.integers(0, w))
    assert zonal_numerator(n, w, a, d) == zonal_numerator_oracle(n, w, a, d)


def test_zonal_numerator_matches_polynomial_construction_large():
    assert zonal_numerator(64, 30, 11, 32) == zonal_numerator_oracle(64, 30, 11, 32)


# the corners of the CLI bounds n <= 128, d <= n/2: the empty and the full
# word, and a = w, where the largest coefficients sit
@pytest.mark.parametrize("n, w, a, d", [
    (1, 0, 0, 0), (1, 1, 1, 0), (2, 2, 2, 1), (2, 1, 0, 1),
    (8, 8, 8, 4), (8, 8, 0, 4), (8, 4, 4, 4), (8, 0, 0, 1),
    (128, 128, 128, 1), (128, 128, 128, 64), (128, 128, 0, 64),
])
def test_zonal_numerator_matches_polynomial_construction_corners(n, w, a, d):
    assert zonal_numerator(n, w, a, d) == zonal_numerator_oracle(n, w, a, d)


# ------------------------------ reference: one product sum of unpacked factors
# d! P_d as one exact._product_sum over the d+1 terms, each factor an integer
# tuple built by the schoolbook convolution: the route the packed falling
# kernel of typeii.harmonic replaced.

@lru_cache(maxsize=None)
def falling_ints(alpha: int, beta: int, m: int) -> tuple[int, ...]:
    """The integer coefficients of prod_{t<m} (alpha*s + beta - t)."""
    if m == 0:
        return (1,)
    return tuple(_mul_into([0] * (m + 1), falling_ints(alpha, beta, m - 1),
                           (beta - m + 1, alpha)))


@lru_cache(maxsize=None)
def krawtchouk_ints(x: int, alpha: int, beta: int, j: int) -> tuple[int, ...]:
    """j! K_j(x; N) with N = alpha*s + beta: the integer polynomial
    sum_i (-1)^i C(x, i) j!/(j-i)! (N-x)(N-x-1)...(N-x-j+i+1) of degree j."""
    out = [0] * (j + 1)
    for i in range(min(x, j) + 1):
        _mul_into(out, ((-1) ** i * comb(x, i) * perm(j, i),),
                  falling_ints(alpha, beta - x, j - i))
    return tuple(out)


@lru_cache(maxsize=None)
def coefficient_ints(n: int, d: int, k: int) -> tuple[int, ...]:
    """A_{n,d,k} = prod_{l<k} (n-d+l+1-s) * (s-k)...(s-d+1): the coefficient of
    Q_{d,k} over the common denominator s(s-1)...(s-d+1), of degree d."""
    return tuple(_mul_into([0] * (d + 1), falling_ints(-1, n - d + k, k),
                           falling_ints(1, -k, d - k)))


def numerator_product_sum(n: int, w: int, a: int, d: int) -> tuple[int, ...]:
    terms = [(((-1) ** k * comb(d, k),), coefficient_ints(n, d, k),
              krawtchouk_ints(w - a, -1, n, d - k),
              krawtchouk_ints(a, 1, 0, k)) for k in range(d + 1)]
    return tuple(_product_sum(terms, 2 * d + 1))


def _oracle_step(polys) -> int:
    """The slot in bytes, from the oracle's own L1 norms plus a sign bit, not
    from _step, that holds every coefficient of every polynomial in polys."""
    norm = max(sum(map(abs, p)) for p in polys)
    return -(-(norm.bit_length() + 1) // 8)


@settings(deadline=None)
@given(st.sampled_from([1, -1]), st.integers(-130, 130), st.integers(0, 130))
def test_fallings_match_tuple_oracle(alpha, beta, m):
    # every running product j <= m is read back at the width the widest needs
    expected = [falling_ints(alpha, beta, j) for j in range(m + 1)]
    step = _oracle_step(expected)
    packed = harmonic._fallings(alpha, beta, m, 8 * step)
    assert len(packed) == m + 1
    for j, (got, want) in enumerate(zip(packed, expected)):
        assert _unpack(got, step, j + 1) == list(want)


@settings(deadline=None)
@given(st.sampled_from([1, -1]), st.integers(-130, 130), st.integers(0, 130),
       st.integers(0, 64))
def test_krawtchouk_chain_matches_tuple_oracle(alpha, beta, x, d):
    # the recurrence against the alternating sum, for every j <= d
    expected = [krawtchouk_ints(x, alpha, beta, j) for j in range(d + 1)]
    step = _oracle_step(expected)
    chain = harmonic._krawtchouk_chain(x, alpha, beta, d, 8 * step)
    assert len(chain) == d + 1
    for j, (got, want) in enumerate(zip(chain, expected)):
        assert _unpack(got, step, j + 1) == list(want)


def test_falling_matches_tuple_oracle():
    # the denominator of Z_d, built from its roots 0..d-1
    for d in range(65):
        assert RationalFunction(ONE, range(d)).den == Polynomial(falling_ints(1, 0, d))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_numerator_ints_match_product_sum(data):
    n = data.draw(st.integers(1, 128))
    d = data.draw(st.integers(0, n // 2))
    w = data.draw(st.integers(0, n))
    a = data.draw(st.integers(0, w))
    expected = numerator_product_sum(n, w, a, d)
    # d! P_d has degree at most d: the oracle's top d coefficients vanish
    assert harmonic._numerator_ints(n, w, a, d) == expected[:d + 1]
    assert not any(expected[d + 1:])


def _corners(n: int):
    for d in sorted({0, 1, n // 2}):
        for w in sorted({0, 1, n // 2, n - 1, n}):
            for a in sorted({0, w // 2, w}):
                yield w, a, d


@pytest.mark.parametrize("n", [1, 8, 128])
def test_numerator_slot_holds_every_coefficient(n):
    # _unpack reads a digit c exactly when |c| < 2^(8 step - 1); at n = 8,
    # d = 1 and at n = 128, d = 1 the coefficients of w = a = n need the
    # whole slot, so a slot one byte narrower fails there
    for w, a, d in _corners(n):
        num = harmonic._numerator_ints(n, w, a, d)
        expected = numerator_product_sum(n, w, a, d)
        assert num == expected[:d + 1]
        assert not any(expected[d + 1:])
        assert max(map(abs, num)) < 2 ** (8 * harmonic._step(n, 0, d) - 1)


def zonal_direct(n: int, s: int, w: int, a: int, d: int) -> Fraction:
    """Z_d by the defining formula at an integer s >= d (reference oracle);
    every binomial top is nonnegative for a realizable intersection a."""
    def q(k: int) -> int:
        first = sum((-1) ** i * comb(a, i) * comb(s - a, k - i)
                    for i in range(k + 1))
        second = sum((-1) ** i * comb(w - a, i)
                     * comb((n - s) - (w - a), d - k - i)
                     for i in range(d - k + 1))
        return first * second

    total = Fraction(0)
    coef = Fraction(1)
    for k in range(d + 1):
        if k > 0:
            # extend the product by the l = k-1 term and flip the sign
            coef = -coef * Fraction((n - s) - (d - k), s - (k - 1))
        total += coef * q(k)
    return total


def test_zonal_point_validation():
    with pytest.raises(ValueError):
        zonal_eval(8, 4, 9, 0, 0)
    with pytest.raises(ValueError):
        zonal_eval(8, 2, 4, 3, 0)   # a > s
    with pytest.raises(ValueError):
        zonal_eval(8, 4, 4, 5, 0)   # a > w
    # w - a > n - s: zonal_eval refuses the point as zonal_sum does
    with pytest.raises(ValueError) as summed:
        zonal_sum(8, 6, 5, {0: 1}, 1)
    with pytest.raises(ValueError) as single:
        zonal_eval(8, 6, 5, 0, 1)
    assert str(single.value) == str(summed.value)


def test_q_dk_spec_values():
    def q_dk(pt: tuple[int, int, int, int], d: int, k: int) -> Fraction:
        n, s, w, a = pt
        return q_dk_oracle(n, w, a, d, k)(s)

    pt = (10, 6, 5, 2)
    assert q_dk(pt, 0, 0) == 1
    # degree-1 inner sums expand by hand: k=1 gives (s-a) - a, k=0 second
    # factor gives ((n-s)-(w-a)) - (w-a)
    assert q_dk(pt, 1, 1) == 6 - 2 * 2
    pt2 = (8, 4, 4, 2)
    assert q_dk(pt2, 1, 0) == 0  # (n-s) - 2(w-a) = 4 - 4
    assert q_dk(pt2, 1, 1) == 0


def test_zonal_degree_zero_is_one():
    for (n, s, w, a) in [(8, 4, 4, 2), (24, 8, 12, 3), (16, 1, 16, 1)]:
        assert zonal_eval(n, s, w, a, 0) == 1


def test_zonal_degree_one_closed_form():
    # solving the degree-1 zonal harmonicity condition by hand gives
    # Z_1 = (2/s) (n a - s w)
    for (n, s, w, a) in [(8, 4, 4, 2), (8, 4, 4, 3), (24, 8, 12, 5), (16, 7, 9, 0)]:
        expected = Fraction(2, s) * (n * a - s * w)
        assert zonal_eval(n, s, w, a, 1) == expected
    assert zonal_eval(8, 4, 4, 2, 1) == 0


def test_zonal_requires_s_at_least_d():
    with pytest.raises(ZeroDivisionError):
        zonal_eval(8, 2, 4, 1, 3)


def test_zonal_sum_contract():
    # a weight-4 word meets a weight-6 word of length 8 in 2..4 positions
    assert zonal_sum(8, 2, 4, {}, 3) == 0
    with pytest.raises(ZeroDivisionError):
        zonal_sum(8, 2, 4, {1: 1}, 3)
    for a in (-1, 0, 1, 5):
        with pytest.raises(ValueError):
            zonal_sum(8, 6, 4, {a: 1}, 2)


def test_zonal_sum_builds_numerators_at_profile_weights_only():
    # a weight-12 word meets a weight-8 word of length 24 in 0..8 positions;
    # the profile holds three even weights, so three numerators are built
    profile = {2: 3, 4: 10, 6: 5}
    harmonic._numerator_ints.cache_clear()
    total = zonal_sum(24, 8, 12, profile, 3)
    info = harmonic._numerator_ints.cache_info()
    assert (info.misses, info.currsize) == (3, 3)
    assert total == sum(c * zonal_direct(24, 8, 12, a, 3) for a, c in profile.items())
    zonal_sum(24, 8, 12, profile, 3)
    assert harmonic._numerator_ints.cache_info().currsize == 3


def test_zonal_row_matches_direct_formula():
    for n in (8, 16, 24):
        for d in range(8):
            for s in range(d, n + 1):
                for w in range(n + 1):
                    for a in range(max(0, w - (n - s)), min(s, w) + 1):
                        assert zonal_sum(n, s, w, {a: 1}, d) \
                            == zonal_direct(n, s, w, a, d), (n, s, w, a, d)


def test_sphere_sum_vanishes_small_grid():
    # direct finite summation over every realizable intersection weight
    for n in (8, 16):
        for d in range(1, 6):
            for s in range(d, n):
                for w in range(n + 1):
                    assert sphere_sum(n, s, w, d) == 0, (n, d, s, w)


def test_sphere_sum_example_from_low_degree():
    assert sphere_sum(8, 2, 4, 2) == 0
    total = sum(
        comb(2, a) * comb(6, 4 - a) * zonal_eval(8, 2, 4, a, 2)
        for a in range(0, 3)
    )
    assert total == 0


def test_sphere_sum_degree_zero_counts_sphere():
    assert sphere_sum(8, 3, 4, 0) == comb(8, 4)


def test_sphere_sum_symbolic_identically_zero_sample():
    for (n, w, d) in [(8, 4, 1), (8, 4, 3), (16, 6, 5), (24, 8, 7), (24, 12, 6)]:
        assert sphere_sum_symbolic(n, w, d).is_zero


def test_sphere_sum_symbolic_degree_zero_counts_sphere():
    # Z_0 = 1: the sum is the sphere size C(n, w) for every s.  The packed
    # sum is the constant w! C(n, w), which only the (2n + 1)^w factor of
    # the slot holds; at n = 128, w = 1 it is 128, which needs the sign byte
    # of a two-byte slot
    for n in (8, 16, 24, 128):
        for w in range(n + 1):
            expected = RationalFunction(Polynomial([comb(n, w)]))
            assert sphere_sum_symbolic(n, w, 0) == expected


@pytest.mark.parametrize("n, w, d", [(8, 4, 1), (16, 6, 3), (24, 8, 7)])
def test_sphere_sum_symbolic_partial_sums_match_polynomial_oracle(monkeypatch, n, w, d):
    # over every a the sum vanishes for d >= 1; over the first `top` weights
    # it does not, and must equal sum_a C(s, a) C(n-s, w-a) P_d over the
    # common denominator s(s-1)...(s-d+1)
    for top in range(1, w + 1):
        monkeypatch.setattr(harmonic, "_weights", lambda *args, top=top: range(top))
        expected = ZERO
        for a in range(top):
            expected = expected + (binom_poly(S, a) * binom_poly(affine(-1, n), w - a)
                                   * zonal_numerator_oracle(n, w, a, d))
        assert not expected.is_zero
        assert sphere_sum_symbolic(n, w, d) == RationalFunction(expected, range(d))


# ----------------------- reference: the sphere sum as one product sum
# w! d! times the sum over a in `weights` of C(s, a) C(n-s, w-a) P_d as one
# _product_sum of four-factor terms: the route the closed-form sphere slot
# of typeii.harmonic replaced.

def sphere_sum_product_sum(n: int, w: int, d: int, weights: range) -> RationalFunction:
    terms = [((comb(w, a),), falling_ints(1, 0, a),
              falling_ints(-1, n, w - a), harmonic._numerator_ints(n, w, a, d))
             for a in weights]
    total = _product_sum(terms, w + 2 * d + 1)
    return RationalFunction(_make(*_reduce(total, factorial(w) * factorial(d))), range(d))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sphere_sum_symbolic_matches_product_sum(data):
    # over all of 0..w the sum vanishes for d >= 1, so most draws sum the
    # first `top` weights only, where it does not
    n = data.draw(st.integers(1, 48))
    w = data.draw(st.integers(0, n))
    d = data.draw(st.integers(0, 7))
    top = data.draw(st.integers(0, w + 1))
    with mock.patch.object(harmonic, "_weights", lambda *args: range(top)):
        got = sphere_sum_symbolic(n, w, d)
    assert got == sphere_sum_product_sum(n, w, d, range(top))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_symbolic_matches_numeric(data):
    n = data.draw(st.sampled_from([8, 16, 24]))
    d = data.draw(st.integers(1, 7))
    s = data.draw(st.integers(d, n - 1))
    w = data.draw(st.integers(0, n))
    a = data.draw(st.integers(max(0, w - (n - s)), min(s, w)))
    expected = zonal_direct(n, s, w, a, d)
    assert ratfun_value(zonal_eval(n, None, w, a, d), s) == expected
    assert zonal_eval(n, s, w, a, d) == expected


def test_symbolic_mode_via_zonal_point():
    from typeii.exact import RationalFunction
    res = zonal_eval(8, None, 4, 2, 1)
    assert isinstance(res, RationalFunction)
    assert ratfun_value(res, 4) == 0          # matches numeric value at s = 4
    assert ratfun_value(res, 8) == Fraction(2, 8) * (8 * 2 - 8 * 4)
