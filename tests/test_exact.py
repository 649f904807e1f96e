from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from typeii.exact import (
    Polynomial,
    RationalFunction,
    det_ratfun,
    factor_numerator,
    format_poly,
    integer_roots,
)
from typeii.exact import _horner, _mul_into, _pack, _quotient, _unpack


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
    assert gcd(abs(x.numerator), x.denominator) == 1
    assert x.denominator >= 1


# -------------------------------------------------------------- polynomials

def test_polynomial_basic_ops():
    p = Poly([1, 2])        # 2s + 1
    q = Poly([-1, 0, 1])    # s^2 - 1
    assert (p + q).coeffs == (0, 2, 1)
    assert (p * q).coeffs == (-1, -2, 1, 2)
    assert q(3) == 8
    assert (q - q).is_zero
    assert q.degree == 2 and ZERO.degree == -1


def test_polynomial_divmod_exact():
    # exact division is decided by divides and carried out by _quotient
    q = Polynomial([-1, 0, 1])  # (s-1)(s+1)
    assert Polynomial([-1, 1]).divides(q)
    assert _quotient(q._num, (-1, 1)) == (1, 1)
    assert not Polynomial([-2, 1]).divides(q)
    assert _quotient(q._num, (-2, 1)) is None


# ------------------------------------- reference: the Euclidean normal form
#
# RationalFunction once normalized num/den for any polynomial den by the
# monic Euclidean gcd over Q, two exact divisions and a monic denominator.
# It is kept here as the oracle of the root-stripping constructor.

def monic(p: Polynomial) -> Polynomial:
    """p scaled to leading coefficient 1; the zero polynomial as it is."""
    return p if p.is_zero else p * (1 / p.leading())


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd in Q[s]; gcd(0, 0) = 0."""
    return Poly(ref_gcd(a.coeffs, b.coeffs))


def ratfun_euclid(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(num, den) divided by their gcd, den monic and the scale in num;
    (0, 1) for a zero num."""
    if num.is_zero:
        return ZERO, ONE
    g = poly_gcd(num, den)
    num, den = num.exact_div(g), den.exact_div(g)
    return num * (1 / den.leading()), monic(den)


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
    assert str(factor_numerator((S - 16) * Polynomial([-5120, 1368, -112, 3]))) == \
        "(s-16)*(3*s^3-112*s^2+1368*s-5120)"
    assert str(factor_numerator(Polynomial([0, -2, 2]))) == "2*s*(s-1)"
    assert Polynomial(Fraction(c) for c in p.to_json()) == p


# ------------------------------- reference: one Fraction per coefficient
#
# The arithmetic Polynomial used before it stored integer numerators over one
# denominator, kept here on plain tuples of Fractions (coefficient of s^i at
# index i, trailing zeros stripped) as the oracle for the stored form.

def ref(cs) -> tuple[Fraction, ...]:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
               for i in range(n))


def ref_neg(a):
    return ref(-c for c in a)


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref(out)


def ref_divmod(a, b):
    rem = list(a)
    dq = len(a) - len(b)
    if dq < 0:
        return (), ref(a)
    quo = [Fraction(0)] * (dq + 1)
    for i in range(dq, -1, -1):
        q = rem[i + len(b) - 1] / b[-1]
        quo[i] = q
        for j, y in enumerate(b):
            rem[i + j] -= q * y
    return ref(quo), ref(rem)


def ref_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_content(a):
    if not a:
        return Fraction(0)
    return Fraction(gcd(*(c.numerator for c in a)), lcm(*(c.denominator for c in a)))


def ref_primitive(a):
    if not a:
        return a
    c = ref_content(a) if a[-1] > 0 else -ref_content(a)
    return ref(x / c for x in a)


def ref_monic(a):
    return ref(x / a[-1] for x in a) if a else a


def ref_gcd(a, b):
    while b:
        a, b = b, ref_monic(ref_divmod(a, b)[1])
    return ref_monic(a)


def assert_stored_form(p: Polynomial, expected) -> None:
    """p holds the coefficients `expected` in its one canonical stored form."""
    assert p.coeffs == expected
    assert all(type(c) is int for c in p._num) and type(p._den) is int
    assert p._den > 0 and (not p._num or p._num[-1] != 0)
    assert gcd(p._den, *p._num) == 1


# ------------------------------------------------------- the test-side ring
#
# Polynomial is a value type whose one operation is the product.  The tests
# build their inputs with sums, powers, values and exact quotients as well:
# Poly adds these on the Fraction-tuple oracles above, and lifts the plain
# Polynomial that Polynomial.__mul__ returns back to a Poly.

class Poly(Polynomial):
    """A Polynomial with the ring operations of the oracles above."""

    __slots__ = ()

    def __add__(self, other) -> "Poly":
        return Poly(ref_add(self.coeffs, lift(other).coeffs))

    def __neg__(self) -> "Poly":
        return Poly(ref_neg(self.coeffs))

    def __sub__(self, other) -> "Poly":
        return self + -lift(other)

    def __mul__(self, other) -> "Poly":
        return lift(Polynomial.__mul__(self, other))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def __call__(self, x) -> Fraction:
        return ref_eval(self.coeffs, x)

    def exact_div(self, other) -> "Poly":
        quo, rem = ref_divmod(self.coeffs, lift(other).coeffs)
        if rem:
            raise ArithmeticError(f"inexact polynomial division: ({self}) / ({other})")
        return Poly(quo)


def lift(x) -> Poly:
    """A Polynomial or a scalar as a Poly of the same stored form."""
    p = x if isinstance(x, Polynomial) else Polynomial([x])
    out = object.__new__(Poly)
    object.__setattr__(out, "_num", p._num)
    object.__setattr__(out, "_den", p._den)
    return out


def ratfun_value(r: RationalFunction, x) -> Fraction:
    """r at x; ZeroDivisionError at a pole."""
    return lift(r.num)(x) / lift(r.den)(x)


ZERO, ONE, S = Poly(), Poly([1]), Poly([0, 1])


small_fractions = st.fractions(min_value=-12, max_value=12, max_denominator=8)
coefficient_lists = st.lists(st.one_of(small_fractions, st.integers(-9, 9)), max_size=6)


@settings(deadline=None)
@given(coefficient_lists, coefficient_lists, st.integers(-6, 6), small_fractions)
def test_ring_operations_match_reference(xs, ys, k, c):
    a, b = ref(xs), ref(ys)
    p, q = Polynomial(xs), Polynomial(ys)
    assert_stored_form(p, a)
    assert_stored_form(p * q, ref_mul(a, b))
    for scalar in (k, c):
        assert_stored_form(p * scalar, ref_mul(a, ref([scalar])))
    assert p.to_json() == [str(x) for x in a]


@settings(deadline=None)
@given(coefficient_lists, coefficient_lists.filter(lambda ys: any(ys)))
def test_division_matches_reference(xs, ys):
    # divides and _quotient see only primitive parts, so a divisor and its
    # monic form give one answer, the oracle's, for p and for p * divisor
    a, b = ref(xs), ref(ys)
    p, q = Polynomial(xs), Polynomial(ys)
    for divisor, db in ((q, b), (monic(q), ref_monic(b))):
        rem = ref_divmod(a, db)[1]
        assert divisor.divides(p) == (not rem)
        got = _quotient((p * divisor).primitive()._num, divisor.primitive()._num)
        assert got == p.primitive()._num


@settings(deadline=None)
@given(coefficient_lists, st.integers(-20, 20))
def test_evaluation_matches_reference(xs, k):
    # evaluation lives in _horner on the integer numerators over the common
    # denominator
    p, a = Polynomial(xs), ref(xs)
    assert Fraction(_horner(p._num, k), p._den) == ref_eval(a, k)


@settings(deadline=None)
@given(coefficient_lists, coefficient_lists, coefficient_lists)
def test_normal_forms_match_reference(xs, ys, zs):
    p, a = Polynomial(xs), ref(xs)
    assert p.content() == ref_content(a)
    assert_stored_form(p.primitive(), ref_primitive(a))
    assert_stored_form(monic(p), ref_monic(a))
    # a common factor makes the gcd nontrivial more often than chance would
    common = Polynomial(zs)
    lhs, rhs = p * common, Polynomial(ys) * common
    expected = ref_gcd(ref_mul(a, ref(zs)), ref_mul(ref(ys), ref(zs)))
    assert_stored_form(poly_gcd(lhs, rhs), expected)


# f = 2s + 1 does not divide 3s + 1, though its leading coefficient leaves a
# remainder whose tail is 0; s divides the leading term of s^2 + 1 alone; a
# constant divides every g, 0 included; s^2 + 1 divides no nonzero g of
# lower degree
@settings(deadline=None)
@example([1, 2], [], [1, 3])
@example([0, 1], [], [1, 0, 1])
@example([Fraction(2, 3)], [Fraction(1, 2), 3], [])
@example([1, 0, 1], [Fraction(1, 2), 3], [0, 6])
@given(coefficient_lists, coefficient_lists, coefficient_lists)
def test_divides_matches_reference(xs, ys, zs):
    # f divides g over Q exactly when the oracle leaves no remainder, and
    # then the integer quotient of the primitive parts is the oracle's
    # quotient made primitive; the product h * f divides by construction
    f, h = Polynomial(xs), Polynomial(ys)
    for g in (Polynomial(zs), h * f):
        if f.is_zero:
            assert f.divides(g) == g.is_zero
            continue
        quo, rem = ref_divmod(g.coeffs, f.coeffs)
        assert f.divides(g) == (not rem)
        got = _quotient(g.primitive()._num, f.primitive()._num)
        assert got == (None if rem else ref_primitive(quo))


def test_polynomial_is_a_value_type():
    # the ring arithmetic lives in the tests' Poly; Polynomial keeps *
    p = Polynomial([1, 2])
    for name in ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__rmul__",
                 "__pow__", "__divmod__", "__floordiv__", "__mod__", "exact_div", "__call__"):
        assert not hasattr(p, name), name
    assert not callable(RationalFunction(p, (0,)))
    with pytest.raises(TypeError):
        p + p
    with pytest.raises(TypeError):
        2 * p


def test_equal_polynomials_hash_equal():
    halves = [Polynomial([Fraction(2, 4)]), ONE * Fraction(1, 2),
              (2 * S + 1 - 2 * S) * Fraction(1, 2), Polynomial([Fraction(1, 2), 0])]
    zeros = [ZERO, Polynomial([0, Fraction(0, 3)]), S - S, ZERO * Fraction(3, 5)]
    for forms in (halves, zeros):
        assert all(p == forms[0] for p in forms)
        assert len({hash(p) for p in forms}) == 1 and len(set(forms)) == 1
    assert halves[0] == Fraction(1, 2) and zeros[0] == 0
    with pytest.raises(TypeError):
        Polynomial([1, 0.5])
    with pytest.raises(AttributeError):
        S._num = (1,)


# ------------------------------------------------------------- product sums
#
# _product_sum sums many products by Kronecker substitution at a slot sized
# from the factors' L1 norms, on the real _pack and _unpack; it is the
# oracle of typeii.harmonic's packed kernels, whose slots have closed forms.
# Here it is checked against the schoolbook convolution _mul_into, one
# product per factor and one sum per term.

def _product_sum(terms: Sequence[Sequence[Sequence[int]]], m: int) -> list[int]:
    """The m coefficients of the sum over terms of the product of each term's
    factors (integer coefficient sequences); m is at least the length of
    every product, and a term with an empty or all-zero factor is zero.

    Kronecker substitution (von zur Gathen & Gerhard, *Modern Computer
    Algebra*, 8.4): each factor is packed at X = 2^(8 step), the packed ints
    are multiplied and added, and the sum is read back once as m signed
    digits.  Every coefficient of a product is at most the product of its
    factors' L1 norms, which is below 2^(sum of the norms' bit lengths), so
    a slot of the largest such sum over the terms, plus the bits of the term
    count and one sign bit, rounded up to whole bytes, holds every
    coefficient of the sum: the digits are exact by construction."""
    width = 0
    live = []
    for factors in terms:
        norms = [sum(map(abs, f)) for f in factors]
        if all(norms):
            live.append(factors)
            width = max(width, sum(x.bit_length() for x in norms))
    bits = width + len(terms).bit_length() + 1
    step = -(-bits // 8)
    shift = 8 * step
    total = 0
    for factors in live:
        product = 1
        for f in factors:
            product *= _pack(f, shift)
        total += product
    return _unpack(total, step, m)


def product_sum_oracle(terms, m):
    out = [0] * m
    for factors in terms:
        if not all(factors):
            continue
        product = [1]
        for f in factors:
            product = _mul_into([0] * (len(product) + len(f) - 1), product, f)
        for i, c in enumerate(product):
            out[i] += c
    return out


signed_coefficients = st.one_of(st.integers(-9, 9), st.integers(-2**300, 2**300))
product_terms = st.lists(
    st.lists(st.lists(signed_coefficients, max_size=6), min_size=1, max_size=4),
    max_size=20)


@settings(deadline=None)
@given(product_terms, st.integers(0, 3))
def test_product_sum_matches_convolutions(terms, extra):
    m = max((sum(map(len, t)) - len(t) + 1 for t in terms if all(t)), default=0) + extra
    assert _product_sum(terms, m) == product_sum_oracle(terms, m)


def test_product_sum_edge_cases():
    assert _product_sum([], 0) == []
    assert _product_sum([], 3) == [0, 0, 0]
    assert _product_sum([((1, 2), ())], 2) == [0, 0]       # an empty factor: zero term
    assert _product_sum([((1, 2), ()), ((3,), (1, -1))], 2) == [3, -3]
    assert _product_sum([((0, 0), (0,)), ((0,),)], 2) == [0, 0]
    assert _product_sum([((3,), (-5,), (7,))], 1) == [-105]
    assert _product_sum([((1, 1), (1, 1))], 5) == [1, 2, 1, 0, 0]  # trailing zeros kept


def test_product_sum_at_the_sign_boundary():
    # +-2^k and +-(2^k - 1) fill a slot up to its sign bit; k runs through
    # slots of 1 to 41 bytes
    for k in range(321):
        for c in (2**k, -2**k, 2**k - 1, 1 - 2**k):
            assert _product_sum([((c,),)], 1) == [c]
            assert _product_sum([((c, -c), (c,))], 3) == [c * c, -c * c, 0]
            assert _product_sum([((c,), (c,)), ((-c,), (c,))], 1) == [0]


def test_product_sum_term_count_headroom():
    # same-sign maximal coefficients: the sum outgrows the slot of any one
    # term, and only the bits of the term count keep it inside
    for k in range(1, 80):
        for c in (2**k - 1, -2**k):
            for count in (2, 3, 7, 20, 255, 256):
                assert _product_sum([((c,),)] * count, 1) == [count * c]
                assert _product_sum([((c,) * 3, (c,) * 3)] * count, 5) == \
                    [count * c * c * j for j in (1, 2, 3, 2, 1)]


def test_product_sum_l1_width_edge_cases():
    # an all-zero factor zeroes its term, however wide its other factors
    assert _product_sum([((0, 0), (2**200,)), ((1,), (-1, 1))], 2) == [-1, 1]
    assert _product_sum([((0,), (2**200,))], 2) == [0, 0]
    # an empty factor does the same
    assert _product_sum([((), (2**200,)), ((3,),)], 1) == [3]
    # single coefficients attain the L1 bound: three terms of 2^6 - 1 sum to
    # 189, which needs 9 bits with the sign; without the sign bit or the
    # term-count bits the slot would be one byte
    for c in (63, -63):
        assert _product_sum([((c,),)] * 3, 1) == [3 * c]
    # a factor's L1 norm, not its largest coefficient, sets its width: the
    # middle coefficient 147 of (7 + 7s + 7s^2)^2 overflows the one-byte slot
    # that 3 bits per factor, a term-count bit and a sign bit would give
    assert _product_sum([((7, 7, 7), (7, 7, 7))], 5) == [49, 98, 147, 98, 49]
    assert _product_sum([((7, -7, 7), (-7, 7, -7))], 5) == [-49, 98, -147, 98, -49]


# -------------------------------------------------------- rational functions

def test_ratfun_normalization_and_arith():
    assert RationalFunction(S * (S - 1), (1, 0)) == RationalFunction(ONE)
    cancelled = RationalFunction(S * S - 1, (1,))
    assert cancelled == RationalFunction(S + 1)
    assert cancelled.den == ONE and cancelled.roots == ()
    assert RationalFunction(ZERO, (0,)) == RationalFunction(0)
    assert RationalFunction(ZERO, (0,)).roots == ()


def test_ratfun_monic_denominator():
    # the content lives in the numerator: 1/(2s - 4) is (1/2)/(s - 2)
    r = RationalFunction(Fraction(1, 2), (2,))
    assert r.den == S - 2 and r.roots == (2,)
    assert r.num == Polynomial([Fraction(1, 2)])
    # a shared root cancels up to its multiplicity in the denominator
    r = RationalFunction((6 * S - 12) * (S + 3), (2, -3, 2, 5))
    assert r.num == Polynomial([6]) and r.roots == (2, 5)
    assert r.den == (S - 2) * (S - 5)


@given(st.lists(st.integers(-6, 6), max_size=6), st.integers(1, 3))
def test_ratfun_den_factors_match_root_search(roots, c):
    # the display read from the roots is the one the divisor search finds
    r = RationalFunction(Polynomial([c, 0, 1]), roots)
    assert r.den_factors() == factor_numerator(r.den)


def test_ratfun_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ratfun_value(RationalFunction(ONE, (0,)), 0)
    # the pole stays where the numerator's root has a lower multiplicity
    with pytest.raises(ZeroDivisionError):
        ratfun_value(RationalFunction(S - 3, (3, 3)), 3)
    assert ratfun_value(RationalFunction(S - 3, (3,)), 3) == 1
    with pytest.raises(TypeError):
        RationalFunction(ONE, (Fraction(1, 2),))


def test_ratfun_denominator_where_the_norm_meets_the_bound():
    # roots of one sign: the coefficients of prod (s - r) share one sign, so
    # its L1 norm reaches the bound prod (|r| + 1); large roots, byte
    # boundaries and a root past 64 bits, multiplied out from the roots
    for r, k in ((128, 1), (1, 8), (255, 2), (2**64, 3)):
        for root in (r, -r):
            assert RationalFunction(ONE, [root] * k).den == (S - root) ** k


# num = c * prod (s - r)^m * R: planted roots, among them 0 and negative ones,
# shared with the denominator's roots at lower, equal and higher multiplicity
planted_roots = st.dictionaries(st.integers(-6, 6), st.integers(1, 3), max_size=4)
cofactors = st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(Poly)


@settings(max_examples=200, deadline=None)
@given(planted_roots, cofactors, st.fractions(max_denominator=12), st.data())
def test_ratfun_matches_euclidean_normal_form(mults, cofactor, c, data):
    num = cofactor * c
    for r, m in mults.items():
        num = num * (S - r) ** m
    shared = {r: data.draw(st.integers(0, m + 2)) for r, m in mults.items()}
    extra = data.draw(st.lists(st.integers(-6, 6), max_size=3))
    roots = data.draw(st.permutations(
        [r for r, m in shared.items() for _ in range(m)] + extra))
    den = ONE
    for r in roots:
        den = den * (S - r)
    got = RationalFunction(num, roots)
    assert (got.num, got.den) == ratfun_euclid(num, den)
    assert got.den.leading() == 1
    assert got.den == product(S - r for r in got.roots)
    assert all(_horner(got.num._num, r) for r in got.roots)


# -------------------------------------------------------------- determinants

def det_cofactor(rows: list[list[Polynomial]]) -> Polynomial:
    """Determinant by cofactor expansion along the first row (reference oracle)."""
    if not rows:
        return ONE
    total = ZERO
    for j, e in enumerate(rows[0]):
        if e.is_zero:
            continue
        term = e * det_cofactor([r[:j] + r[j + 1:] for r in rows[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def product(polys) -> Polynomial:
    out = ONE
    for p in polys:
        out = out * p
    return out


def test_det_trivial_cases():
    ident = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    assert det_ratfun(ident, [()] * 3) == RationalFunction(ONE)
    assert det_ratfun([], []) == RationalFunction(ONE)
    one = Poly([1])
    repeated = [[S, one, 2 * one], [S, one, 2 * one], [one, S, ZERO]]
    assert det_ratfun(repeated, [(), (0,), (1,)]).is_zero
    # rows (s, 1) and (1, 1/s): the second is the first over s
    assert det_ratfun([[S, ONE], [S, ONE]], [(), (0,)]).is_zero
    # every entry under a zero pivot is zero: no swap can help
    assert det_ratfun([[ZERO, S], [ZERO, ONE]], [(), ()]).is_zero


def test_det_rejects_non_square():
    one = Poly([1])
    with pytest.raises(ValueError):
        det_ratfun([[one, one, one], [one, one, one]], [(), ()])
    with pytest.raises(ValueError):
        det_ratfun([[one, ZERO], [ZERO, one]], [()])


row_denominators = st.sampled_from([(), (0,), (1,), (0, 1)])


@st.composite
def numerator_systems(draw):
    """(rows, dens) with small integer entries, zeros common, and a zero in
    the first pivot position half the time, so that Bareiss must swap rows."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(
        st.just(ZERO),
        st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(Polynomial))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows[0][0] = ZERO
    return rows, [draw(row_denominators) for _ in range(n)]


@settings(max_examples=80, deadline=None)
@given(numerator_systems())
def test_det_bareiss_agrees_with_cofactor(system):
    rows, dens = system
    expected = RationalFunction(det_cofactor(rows), [r for rs in dens for r in rs])
    assert det_ratfun(rows, dens) == expected


def det_bareiss_poly(rows: list[list[Polynomial]]) -> Polynomial:
    """Determinant by fraction-free Bareiss elimination on the Polynomial
    entries, each update one product and one exact pseudo-division
    (reference oracle for the packed integer Bareiss of det_ratfun)."""
    n = len(rows)
    m = [list(row) for row in rows]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if m[k][k].is_zero:
            pivot = next((i for i in range(k + 1, n) if not m[i][k].is_zero), None)
            if pivot is None:
                return ZERO
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]).exact_div(prev)
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else ONE


FACTORIALS = (1, 2, 6, 24, 120, 720, 5040)  # entry denominators up to 7!


@st.composite
def packed_systems(draw):
    """(rows, dens) of size 1..7 with entries of degree <= 8, coefficients up
    to 2^64 in absolute value over denominators up to 7!, a quarter of them
    zero, and half the time a zero first pivot, a zero column or a repeated row."""
    n = draw(st.integers(1, 7))
    nonzero = st.builds(lambda cs, q: Poly([Fraction(c, q) for c in cs]),
                        st.lists(st.integers(-2**64, 2**64), min_size=1, max_size=9),
                        st.sampled_from(FACTORIALS)).filter(lambda e: not e.is_zero)
    entry = st.one_of(st.just(ZERO), nonzero, nonzero, nonzero)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(("plain", "plain", "plain", "zero pivot",
                                  "zero column", "repeated row")))
    if shape == "zero pivot":
        rows[0][0] = ZERO
    elif shape == "zero column":
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = ZERO
    elif shape == "repeated row" and n > 1:
        i, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.fractions(min_value=-7, max_value=7, max_denominator=7))
        rows[k] = [e * c for e in rows[i]]
    return rows, [draw(row_denominators) for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(packed_systems())
def test_packed_det_matches_polynomial_bareiss(system):
    rows, dens = system
    expected = RationalFunction(det_bareiss_poly(rows), [r for rs in dens for r in rs])
    assert det_ratfun(rows, dens) == expected


def test_packed_det_where_the_norm_meets_the_bound():
    # Coefficients of one sign on a permutation pattern: the determinant is
    # +-prod of the entries, so its L1 norm equals the row-sum bound B.
    full = Poly([2**64] * 9)
    for perm in ((0, 1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1, 0), (1, 0, 2, 3, 4, 5, 6)):
        rows = [[full if j == perm[i] else ZERO for j in range(7)] for i in range(7)]
        det = det_ratfun(rows, [()] * 7)
        assert det == RationalFunction(det_bareiss_poly(rows))
        assert sum(abs(c) for c in det.num.coeffs) == (9 * 2**64) ** 7
    # B = 2^128 - 1 fills 128 bits, so its one coefficient needs the sign
    # byte of the slot, as the negative one does after a row swap
    lo, hi = Poly([2**64 - 1]), Poly([2**64 + 1])
    assert det_ratfun([[lo, ZERO], [ZERO, hi]], [(), ()]) == RationalFunction(lo * hi)
    assert det_ratfun([[ZERO, lo], [hi, ZERO]], [(), ()]) == RationalFunction(-lo * hi)


def test_det_multilinear_in_a_row():
    one = Poly([1])
    base = [[S, one, ZERO], [2 * one, S - 1, one], [ZERO, 3 * one, S + 2]]
    dens = [(), (0,), (1,)]
    scaled = [row[:] for row in base]
    scaled[1] = [e * 5 for e in base[1]]
    det = det_ratfun(base, dens)
    assert det_ratfun(scaled, dens) == RationalFunction(det.num * 5, det.roots)
    # a 1/5 through the row's entries scales the row's lcm L_i = 5 back out
    fifths = [row[:] for row in base]
    fifths[1] = [e * Fraction(1, 5) for e in base[1]]
    assert det_ratfun(fifths, dens) == RationalFunction(det.num * Fraction(1, 5), det.roots)


# -------------------------------------------------------------- integer roots

def test_integer_roots_paper_linear_factors():
    assert integer_roots(Polynomial([-10, 3])) == set()
    assert integer_roots(S - 8) == {8}


def test_integer_roots_cubic_by_exhaustive_scan():
    # Independent oracle: any integer root of the cubic divides 5120, so a
    # full scan of [-5120, 5120] is exhaustive.
    cubic = Poly([-5120, 1368, -112, 3])
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
    assert integer_roots(p * q) == set(rs) | set(qs)


# ---------------------------------------------------------- linear factors

RESIDUALS = (ONE, Polynomial([-10, 3]), Polynomial([2, 0, 1]),
             Polynomial([-5120, 1368, -112, 3]), Polynomial([-10, 3]) * Polynomial([2, 0, 1]))


@settings(deadline=None)
@given(st.dictionaries(st.integers(-30, 30), st.integers(1, 3), max_size=4),
       st.sampled_from(RESIDUALS),
       st.fractions(max_denominator=50).filter(bool))
def test_factor_numerator_splits_planted_roots(mults, residual, c):
    p = residual * c
    for r, m in mults.items():
        p = p * (S - r) ** m
    f = factor_numerator(p)
    assert f.content == c
    assert f.linear == tuple(sorted(mults.items()))
    assert f.residual == residual
    rebuilt = f.residual * f.content
    for r, m in f.linear:
        rebuilt = rebuilt * (S - r) ** m
    assert rebuilt == p


# ------------------------------------------------------- the readback contract
#
# _unpack reads m signed digits and checks itself: a nonzero digit at slot m
# or above leaves total plus the bias negative or too wide for m slots, so
# int.to_bytes raises OverflowError and no digit is dropped silently.

def test_unpack_raises_on_a_digit_past_the_last_slot():
    step, m = 2, 3
    shift = 8 * step
    half = 1 << (shift - 1)
    fits = [half - 1, -half, 7]  # the extreme digits, which carry nothing
    assert _unpack(_pack(fits, shift), step, m) == fits
    assert _unpack(_pack(fits, shift), step, m + 2) == fits + [0, 0]
    for top in ([1], [-1], [half - 1], [-half], [0] * 40 + [1], [0] * 40 + [-3]):
        with pytest.raises(OverflowError):
            _unpack(_pack(fits + top, shift), step, m)


@settings(deadline=None)
@given(st.integers(1, 3), st.data())
def test_unpack_reads_back_or_raises(step, data):
    half = 1 << (8 * step - 1)
    digits = st.lists(st.integers(-half, half - 1), max_size=6)
    low, high = data.draw(digits), data.draw(digits)
    total = _pack(low + high, 8 * step)
    if any(high):
        with pytest.raises(OverflowError):
            _unpack(total, step, len(low))
    else:
        assert _unpack(total, step, len(low)) == low
