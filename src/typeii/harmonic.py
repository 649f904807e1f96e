"""Discrete zonal harmonic polynomials.

A zonal harmonic of degree d relative to a fixed word cbar depends on an
evaluation word v only through n, s = wt(cbar), w = wt(v), a = wt(v & cbar).
The generator evaluated here is

    Z_d(v) = sum_{k=0}^d (-1)^k  [ prod_{l=0}^{k-1} ((n-s)-(d-l-1)) / (s-l) ]  Q_{d,k}(v)

with Q_{d,k} a product of two alternating binomial convolutions, one in
(a, s-a) of degree k and one in (w-a, (n-s)-(w-a)) of degree d-k.  Both
convolutions carry the alternating sign (-1)^i: under the sign-free variant
of the second factor the degree-1 polynomial is proportional to a alone and
its sphere sum is positive, so sums over full spheres would not vanish.
With the alternating sign Z_1 is proportional to n*a - s*w and every
degree >= 1 sphere sum is exactly zero, which is the property the design
arguments rely on and the correctness gate enforced by the test suite.

Z_d is built once per (n, w, a, d) as an exact RationalFunction of the
formal weight s; for an integer s that function is evaluated at s, giving an
exact Fraction (memoised per point).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .exact import ONE, S, Polynomial, RationalFunction, affine, binom_poly


def gbinom(top: int, k: int) -> Fraction:
    """Generalized binomial C(top, k) = top(top-1)...(top-k+1)/k! for any
    integer top (negative tops included), k >= 0."""
    if k < 0:
        raise ValueError("binomial order must be nonnegative")
    num = 1
    for t in range(k):
        num *= top - t
    return Fraction(num, factorial(k))


@dataclass(frozen=True)
class ZonalPoint:
    """Evaluation data (n, s, w, a); s=None means the formal weight variable."""

    n: int
    s: int | None
    w: int
    a: int

    def __post_init__(self):
        if not 0 < self.n:
            raise ValueError("length must be positive")
        if not 0 <= self.w <= self.n:
            raise ValueError(f"w = {self.w} outside 0..{self.n}")
        if self.a < 0 or self.a > self.w:
            raise ValueError(f"a = {self.a} outside 0..w = {self.w}")
        if self.s is not None:
            if not 0 <= self.s <= self.n:
                raise ValueError(f"s = {self.s} outside 0..{self.n}")
            if self.a > self.s:
                raise ValueError(f"a = {self.a} exceeds s = {self.s}")

    @property
    def symbolic(self) -> bool:
        return self.s is None


def q_dk(pt: ZonalPoint, d: int, k: int) -> Fraction | RationalFunction:
    """The building block Q_{d,k} at pt: first factor degree k in (a, s-a),
    second factor degree d-k in (w-a, (n-s)-(w-a)), both alternating."""
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    block = _q_dk_symbolic(pt.n, pt.w, pt.a, d, k)
    return RationalFunction(block) if pt.symbolic else block(pt.s)


def zonal_eval(pt: ZonalPoint, d: int) -> Fraction | RationalFunction:
    """Z_d at pt; exact Fraction for integer s (requires s >= d when d >= 1),
    exact RationalFunction in s for the formal case."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if pt.symbolic:
        return _zonal_symbolic(pt.n, pt.w, pt.a, d)
    if d > 0 and pt.s < d:
        raise ZeroDivisionError(
            f"zonal coefficient divides by s-l for l < {d}; s = {pt.s} is too small"
        )
    return _zonal_at(pt.n, pt.s, pt.w, pt.a, d)


@lru_cache(maxsize=None)
def _zonal_at(n: int, s: int, w: int, a: int, d: int) -> Fraction:
    return _zonal_symbolic(n, w, a, d)(s)


def zonal_sum(n: int, s: int, w: int, counts: dict[int, int], d: int) -> Fraction:
    """Sum of count * Z_d(n, s, w, a) over an intersection profile {a: count}
    of weight-w words against a weight-s reference word."""
    total = Fraction(0)
    for a, count in counts.items():
        total += count * zonal_eval(ZonalPoint(n, s, w, a), d)
    return total


@lru_cache(maxsize=None)
def _first_factor(a: int, k: int) -> Polynomial:
    """sum_i (-1)^i C(a, i) C(s - a, k - i), degree k in s."""
    out = Polynomial([0])
    for i in range(k + 1):
        c = (-1) ** i * gbinom(a, i)
        if c:
            out = out + binom_poly(S - a, k - i) * c
    return out


@lru_cache(maxsize=None)
def _second_factor(m: int, b: int, j: int) -> Polynomial:
    """sum_i (-1)^i C(b, i) C((m - s), j - i), degree j in s (m = n - w + a, b = w - a)."""
    out = Polynomial([0])
    top = affine(-1, m)
    for i in range(j + 1):
        c = (-1) ** i * gbinom(b, i)
        if c:
            out = out + binom_poly(top, j - i) * c
    return out


def _q_dk_symbolic(n: int, w: int, a: int, d: int, k: int) -> Polynomial:
    return _first_factor(a, k) * _second_factor(n - w + a, w - a, d - k)


def _falling(d: int) -> Polynomial:
    """s(s-1)...(s-d+1), the common denominator of the degree-d coefficients."""
    out = ONE
    for l in range(d):
        out = out * (S - l)
    return out


@lru_cache(maxsize=None)
def _zonal_symbolic(n: int, w: int, a: int, d: int) -> RationalFunction:
    # accumulate numerators over the common denominator s(s-1)...(s-d+1);
    # a single normalization at the end avoids per-term gcd churn
    den = _falling(d)
    tail = den  # (s-k)...(s-d+1), the part of den not consumed by coefficient k
    num = ONE
    total = Polynomial([0])
    for k in range(d + 1):
        if k > 0:
            num = num * affine(-1, n - d + k)  # (n - s) - (d - (k-1) - 1)
            tail = tail.exact_div(S - (k - 1))
        term = num * tail * _q_dk_symbolic(n, w, a, d, k)
        total = total + term if k % 2 == 0 else total - term
    return RationalFunction(total, den)


def intersection_count(n: int, s: int, w: int, a: int) -> int:
    """Number of weight-w words with intersection weight a against a fixed
    weight-s word: C(s, a) * C(n-s, w-a)."""
    if a > s or w - a > n - s or a < 0 or w - a < 0:
        return 0
    return comb(s, a) * comb(n - s, w - a)


def sphere_sum(n: int, s: int, w: int, d: int) -> Fraction:
    """Sum of Z_d over the whole sphere B_w relative to a weight-s word."""
    counts = {a: intersection_count(n, s, w, a)
              for a in range(max(0, w - (n - s)), min(s, w) + 1)}
    return zonal_sum(n, s, w, counts, d)


@lru_cache(maxsize=None)
def _sphere_count_poly(n: int, w: int, a: int) -> Polynomial:
    """C(s, a) C(n - s, w - a) with s formal: weight-w words at intersection a."""
    return binom_poly(S, a) * binom_poly(affine(-1, n), w - a)


def sphere_sum_symbolic(n: int, w: int, d: int) -> RationalFunction:
    """The sphere sum as a rational function of s; identically zero for d >= 1."""
    den = _falling(d)
    total = Polynomial([0])
    for a in range(w + 1):
        z = _zonal_symbolic(n, w, a, d)
        total = total + _sphere_count_poly(n, w, a) * (z.num * den.exact_div(z.den))
    return RationalFunction(total, den)
