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

Each factor is a Krawtchouk sum K_k(x; N) = sum_i (-1)^i C(x, i) C(N-x, k-i)
(Delsarte 1973) with N = s or N = n - s.  Z_d is kept in one form, the
polynomial P_d = Z_d * s(s-1)...(s-d+1) (`zonal_numerator`, over the
denominator `falling(d)`), built once per (n, w, a, d).  For an integer
s >= d the value is P_d(s) / (s(s-1)...(s-d+1)), an exact Fraction.  The
lambda-systems take P_d and falling(d) as they are, one numerator row over one
denominator, and a RationalFunction is built only where a formal Z_d or
sphere sum leaves the module.  Sums over intersection profiles read one
cached integer row per (n, s, w, d), the values at every feasible a times
their least common denominator, so a sum is one integer dot product and one
Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, perm

from .exact import ONE, S, ZERO, Polynomial, RationalFunction, affine, binom_poly


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


def zonal_eval(pt: ZonalPoint, d: int) -> Fraction | RationalFunction:
    """Z_d at pt; exact Fraction for integer s (requires s >= d when d >= 1),
    exact RationalFunction in s for the formal case."""
    _check_degree(pt.s, d)
    if pt.symbolic:
        return RationalFunction(zonal_numerator(pt.n, pt.w, pt.a, d), falling(d))
    return _zonal_at(pt.n, pt.s, pt.w, pt.a, d)


def _check_degree(s: int | None, d: int) -> None:
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if s is not None and s < d:
        raise ZeroDivisionError(
            f"zonal coefficient divides by s-l for l < {d}; s = {s} is too small"
        )


def _zonal_at(n: int, s: int, w: int, a: int, d: int) -> Fraction:
    return zonal_numerator(n, w, a, d)(s) / perm(s, d)  # perm(s, d) = falling(d)(s)


@lru_cache(maxsize=None)
def _zonal_row(n: int, s: int, w: int, d: int) -> tuple[tuple[int, ...], int]:
    """(row, D): row[i] = Z_d(n, s, w, a) * D at a = max(0, w-(n-s)) + i,
    for every intersection weight a a weight-w word can have with a weight-s
    word, and D the least common denominator of those values."""
    if not 0 < n:
        raise ValueError("length must be positive")
    if not (0 <= s <= n and 0 <= w <= n):
        raise ValueError(f"need 0 <= s, w <= n = {n}, got s = {s}, w = {w}")
    _check_degree(s, d)
    values = [_zonal_at(n, s, w, a, d)
              for a in range(max(0, w - (n - s)), min(s, w) + 1)]
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def zonal_sum(n: int, s: int, w: int, counts: dict[int, int], d: int) -> Fraction:
    """Sum of count * Z_d(n, s, w, a) over an intersection profile {a: count}
    of weight-w words against a weight-s reference word: one integer dot
    product with the cached row of _zonal_row.  An empty profile sums to 0.

    Raises ValueError for an a outside max(0, w-(n-s))..min(s, w), which no
    weight-w word meets a weight-s word in, and ZeroDivisionError for s < d
    when d >= 1, as zonal_eval does."""
    if not counts:
        return Fraction(0)
    row, den = _zonal_row(n, s, w, d)
    lo = max(0, w - (n - s))
    total = 0
    for a, count in counts.items():
        if not lo <= a < lo + len(row):
            raise ValueError(f"no weight-{w} word meets a weight-{s} word "
                             f"in {a} of n = {n} positions")
        total += count * row[a - lo]
    return Fraction(total, den)


@lru_cache(maxsize=None)
def _krawtchouk(x: int, alpha: int, beta: int, k: int) -> Polynomial:
    """sum_i (-1)^i C(x, i) C(N - x, k - i) with N = alpha*s + beta, degree k in s."""
    top = affine(alpha, beta - x)
    out = ZERO
    for i in range(min(x, k) + 1):
        out = out + binom_poly(top, k - i) * ((-1) ** i * comb(x, i))
    return out


def _q_dk_symbolic(n: int, w: int, a: int, d: int, k: int) -> Polynomial:
    return _krawtchouk(a, 1, 0, k) * _krawtchouk(w - a, -1, n, d - k)


@lru_cache(maxsize=None)
def falling(d: int) -> Polynomial:
    """s(s-1)...(s-d+1), the common denominator of the degree-d coefficients."""
    out = ONE
    for l in range(d):
        out = out * (S - l)
    return out


@lru_cache(maxsize=None)
def zonal_numerator(n: int, w: int, a: int, d: int) -> Polynomial:
    """P_d = Z_d * s(s-1)...(s-d+1): over that common denominator the
    coefficient of Q_{d,k} is prod_{l<k} ((n-s)-(d-l-1)) * (s-k)...(s-d+1)."""
    tail = falling(d)  # (s-k)...(s-d+1), the part not consumed by coefficient k
    num = ONE
    total = ZERO
    for k in range(d + 1):
        if k > 0:
            num = num * affine(-1, n - d + k)  # (n - s) - (d - (k-1) - 1)
            tail = tail.exact_div(S - (k - 1))
        term = num * tail * _q_dk_symbolic(n, w, a, d, k)
        total = total + term if k % 2 == 0 else total - term
    return total


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
    total = ZERO
    for a in range(w + 1):
        total = total + _sphere_count_poly(n, w, a) * zonal_numerator(n, w, a, d)
    return RationalFunction(total, falling(d))
