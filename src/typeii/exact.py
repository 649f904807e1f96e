"""Exact arithmetic substrate: rationals, polynomials in the weight variable s,
rational functions, symbolic binomials, determinants over Q(s), integer roots
and the linear-factor split of a polynomial.

Everything here is exact.  Scalars are `fractions.Fraction`, which keeps
numerator and denominator gcd-reduced with a positive denominator;
polynomials keep Fraction coefficients and are immutable, as are rational
functions.  Rational functions are normalized so that the denominator is
monic and coprime to the numerator, which gives every value a canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, isqrt, lcm
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Polynomial:
    """Univariate polynomial in s with Fraction coefficients.

    coeffs[i] is the coefficient of s^i; trailing zeros are stripped, so the
    zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            self.coefficient(i) + other.coefficient(i) for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(c * other for c in self.coeffs)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO
        # convolve over integers (one gcd per output coefficient, not per term)
        da = lcm(*(c.denominator for c in self.coeffs))
        db = lcm(*(c.denominator for c in other.coeffs))
        xs = [c.numerator * (da // c.denominator) for c in self.coeffs]
        ys = [c.numerator * (db // c.denominator) for c in other.coeffs]
        out = [0] * (len(xs) + len(ys) - 1)
        for i, a in enumerate(xs):
            if a:
                for j, b in enumerate(ys):
                    out[i + j] += a * b
        scale = da * db
        return Polynomial(Fraction(v, scale) for v in out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other) -> tuple["Polynomial", "Polynomial"]:
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return ZERO, self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.leading()
        for i in range(dq, -1, -1):
            top = rem[i + other.degree]
            if top == 0:
                continue
            q = top / lead
            quo[i] = q
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= q * b
        return Polynomial(quo), Polynomial(rem)

    def __floordiv__(self, other) -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Polynomial":
        return divmod(self, other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError(f"inexact polynomial division: ({self}) / ({other})")
        return q

    def __call__(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- normal forms -------------------------------------------------------

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lead = self.leading()
        if lead == 1:
            return self
        return Polynomial(c / lead for c in self.coeffs)

    def content(self) -> Fraction:
        """Rational c > 0 with self = c * primitive(self); 0 for the zero polynomial."""
        if self.is_zero:
            return Fraction(0)
        return Fraction(gcd(*(c.numerator for c in self.coeffs)),
                        lcm(*(c.denominator for c in self.coeffs)))

    def primitive(self) -> "Polynomial":
        """Integer-coefficient part with coprime coefficients and positive leading term."""
        if self.is_zero:
            return self
        c = self.content()
        if self.leading() < 0:
            c = -c
        return Polynomial(x / c for x in self.coeffs)

    def divides(self, other: "Polynomial") -> bool:
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return format_poly(self)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: Sequence[str]) -> "Polynomial":
        return Polynomial(Fraction(c) for c in data)


ZERO = Polynomial()
ONE = Polynomial([1])
S = Polynomial([0, 1])


def _coerce_poly(x) -> "Polynomial":
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial([x])
    return NotImplemented


def affine(alpha: int, beta: int) -> Polynomial:
    """The affine expression alpha*s + beta."""
    return Polynomial([beta, alpha])


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd in Q[s]; gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, a % b
        if not b.is_zero:
            b = b.monic()
    return a.monic() if not a.is_zero else a


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero or b.is_zero:
        return ZERO
    return (a * b).exact_div(poly_gcd(a, b)).monic()


def binom_poly(x: Polynomial, k: int) -> Polynomial:
    """The symbolic binomial C(x, k) = x(x-1)...(x-k+1) / k! as a polynomial in s.

    x is typically an affine expression in s; C(x, 0) = 1.
    """
    if k < 0:
        raise ValueError("binomial order must be nonnegative")
    prod = ONE
    for t in range(k):
        prod = prod * (x - t)
    return prod * Fraction(1, factorial(k))


class RationalFunction:
    """Quotient num/den of polynomials in s, normalized: gcd(num, den) = 1 and
    den monic (the overall sign and scale live in the numerator)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RationalFunction parts must be polynomials or scalars")
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = ZERO, ONE
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lead = den.leading()
            if lead != 1:
                num = num * (1 / lead)
                den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other) -> "RationalFunction":
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RationalFunction":
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __call__(self, x: Scalar) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole of rational function at s = {x}")
        return self.num(x) / d

    def __eq__(self, other) -> bool:
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.den == ONE:
            return format_poly(self.num)
        return f"({format_poly(self.num)})/({format_poly(self.den)})"


RF_ZERO = RationalFunction(ZERO)
RF_ONE = RationalFunction(ONE)


def _coerce_ratfun(x) -> "RationalFunction":
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction, Polynomial)):
        return RationalFunction(x)
    return NotImplemented


def det_ratfun(m: Sequence[Sequence]) -> RationalFunction:
    """Exact determinant of a small square matrix over Q(s).

    Entries may be RationalFunction, Polynomial, Fraction, or int.  Uses
    fraction-free Bareiss elimination on a polynomial matrix obtained by
    clearing each row's denominators (the cleared factor is tracked and
    divided back out at the end).
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return RF_ONE

    cleared = ONE
    rows: list[list[Polynomial]] = []
    for row in m:
        entries = [_coerce_ratfun(e) for e in row]
        if any(e is NotImplemented for e in entries):
            raise TypeError("matrix entries must be rational functions or scalars")
        common = ONE
        for e in entries:
            common = poly_lcm(common, e.den)
        rows.append([e.num * common.exact_div(e.den) for e in entries])
        cleared = cleared * common

    sign = 1
    prev = ONE
    for k in range(n - 1):
        if rows[k][k].is_zero:
            pivot = next((i for i in range(k + 1, n) if not rows[i][k].is_zero), None)
            if pivot is None:
                return RF_ZERO
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[k][k] * rows[i][j] - rows[i][k] * rows[k][j]).exact_div(prev)
            rows[i][k] = ZERO
        prev = rows[k][k]

    return RationalFunction(sign * rows[n - 1][n - 1], cleared)


def _divisors(m: int) -> list[int]:
    """All positive divisors of |m| (m != 0) via trial-division factorization."""
    m = abs(m)
    factors: dict[int, int] = {}
    d = 2
    while d <= isqrt(m):
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    divs = [1]
    for p, e in factors.items():
        divs = [x * p**i for x in divs for i in range(e + 1)]
    return sorted(divs)


def integer_roots(p: Polynomial) -> set[int]:
    """Exactly the integers r with p(r) = 0.

    Strips s^k factors (contributing the root 0), reduces to coprime integer
    coefficients, and tests the divisors of the constant term; any integer
    root of an integer polynomial must divide its constant term.
    """
    if p.is_zero:
        raise ValueError("integer_roots of the zero polynomial")
    roots: set[int] = set()
    coeffs = list(p.coeffs)
    k = 0
    while coeffs[k] == 0:
        k += 1
    if k > 0:
        roots.add(0)
        coeffs = coeffs[k:]
    q = Polynomial(coeffs).primitive()
    for d in _divisors(int(q.coefficient(0))):
        if q(d) == 0:
            roots.add(d)
        if q(-d) == 0:
            roots.add(-d)
    return roots


def format_poly(p: Polynomial) -> str:
    """Human-readable form, highest degree first: '3*s^2 - 10*s + 1'."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for i in range(p.degree, -1, -1):
        c = p.coefficient(i)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            var_part = "s" if i == 1 else f"s^{i}"
            body = var_part if mag == 1 else f"{mag}*{var_part}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


@dataclass(frozen=True)
class NumeratorFactors:
    """p = content * prod (s - r)^m * residual over the integer roots r of p."""

    content: Fraction                        # rational scale, sign included
    linear: tuple[tuple[int, int], ...]      # (integer root, multiplicity)
    residual: Polynomial                     # integer-root-free cofactor

    def linear_str(self, sep: str = "*") -> str:
        """The linear factors, e.g. 's*(s-1)^2*(s+3)'; '' when there are none."""
        return sep.join(
            ("s" if r == 0 else f"(s-{r})" if r > 0 else f"(s+{-r})")
            + (f"^{m}" if m > 1 else "")
            for r, m in self.linear
        )

    def __str__(self) -> str:
        """Factored display, e.g. '(s-16)*(3*s^3-112*s^2+1368*s-5120)'."""
        factors = [self.linear_str()] if self.linear else []
        content = self.content
        if self.residual.degree > 0:
            factors.append(f"({format_poly(self.residual).replace(' ', '')})")
        else:
            content = content * self.residual.coefficient(0)
        head: list[str] = []
        if content == -1 and factors:
            head.append("-")
        elif content != 1 or not factors:
            head.append(f"{content}*" if factors else str(content))
        return "".join(head) + "*".join(factors)


def factor_numerator(p: Polynomial) -> NumeratorFactors:
    """Split off the rational content (sign included) and every linear factor
    s - r with an integer root r; the residual is primitive with a positive
    leading term."""
    if p.is_zero:
        raise ValueError("zero numerator cannot be factored")
    prim = p.primitive()
    content = p.content() if p.leading() > 0 else -p.content()
    linear: list[tuple[int, int]] = []
    for r in sorted(integer_roots(prim)):
        mult = 0
        lin = S - r
        while lin.divides(prim):
            prim = prim.exact_div(lin)
            mult += 1
        linear.append((r, mult))
    return NumeratorFactors(content, tuple(linear), prim)


def factored_str(p: Polynomial) -> str:
    """Factored display of p (see NumeratorFactors); '0' for the zero polynomial."""
    return "0" if p.is_zero else str(factor_numerator(p))
