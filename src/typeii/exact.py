"""Exact arithmetic substrate: rationals, polynomials in the weight variable s,
rational functions, determinants, integer roots and the linear-factor split
of a polynomial.

Everything here is exact.  Scalars are `fractions.Fraction`, which keeps
numerator and denominator gcd-reduced with a positive denominator.  A
polynomial is stored in content/primitive form (von zur Gathen & Gerhard,
*Modern Computer Algebra*, ch. 6): integer numerators over one positive
integer denominator, reduced so that their gcd is 1, and `Fraction`
coefficients are built only when they are read.  `Polynomial` is a value type:
its one operation is the product, on `_mul_into` (the schoolbook convolution,
shared with `gleason`), and commands take it only for a scalar times a
polynomial (`ReferenceResult.published`) and the products in `REFERENCE`.
Divisibility is `_quotient`, integer long division of primitive parts, exact
by Gauss's lemma with no pseudo-division scale.  The integer kernels shared
with `harmonic`, which builds its numerators as packed ints and reduces once
per result, are `_reduce` (the canonical pair), `_horner`, and the Kronecker
substitution pair `_pack` (a coefficient sequence at X = 2^(8 step) by Horner
shift-adds) and `_unpack` (the signed readback of a packed sum as slots of
step bytes, which raises OverflowError rather than drop a nonzero digit past
the last slot).  `harmonic` sizes its slots, `det_ratfun` its own.

Polynomials and rational functions are immutable.  A rational function is a
value type with no arithmetic at all, built only at the edge, once a result in
Q(s) is complete.  Every denominator in this package is a product of linear
factors s - r with integer r (the zonal rows sit over s(s-1)...(s-d+1)), so a
rational function is given as a numerator over a multiset of integer roots.
It is normalized so that the denominator is monic and coprime to the
numerator, which gives every value a canonical form: the only irreducible
factors of the denominator are the s - r, so for each distinct root r of
multiplicity m the numerator is divided by s - r while r is one of its roots,
at most m times (`_deflate`, synthetic division on the integer numerators, the
same linear-factor stripper `factor_numerator` uses), and the roots left over
make the denominator, multiplied out by `_mul_into` whenever it is read.  No
polynomial gcd is needed.
A determinant of a matrix whose rows share one denominator each is
fraction-free Bareiss elimination (Bareiss, Math. Comp. 22, 1968) on ints:
row i of the numerators N is scaled to integers by L_i, the lcm of its
entries' denominators, and each entry of M = (L_i N_ij) is packed at one
X = 2^(8 step).  Evaluation at X is a ring homomorphism, so this gives
(det M)(X) exactly.  B = prod_i sum_j |M_ij|_1 bounds |det M|_1 (each
permutation term is a term of the expanded product of the row sums), so a
slot of B.bit_length() // 8 + 1 bytes makes the one signed readback unique,
and a zero int is a zero determinant.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import groupby
from math import gcd, isqrt, lcm

Scalar = int | Fraction


def _reduce(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """The canonical pair for num/den (den > 0): trailing zeros stripped,
    gcd(den, *num) = 1, and den = 1 for the zero polynomial."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return (), 1
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return tuple(num), den


def _mul_into(out: list[int], a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Add the product of the coefficient sequences a and b into out, which
    has at least len(a) + len(b) - 1 entries; returns out."""
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _pack(f: Sequence[int], shift: int) -> int:
    """The coefficient sequence f evaluated at X = 2^shift, by Horner."""
    packed = 0
    for c in reversed(f):
        packed = (packed << shift) + c
    return packed


def _unpack(total: int, step: int, m: int) -> list[int]:
    """The m signed base-2^(8 step) digits of total, every one in
    [-2^(8 step - 1), 2^(8 step - 1)).  Half a slot is added to each digit, so
    that every slot is nonnegative, and subtracted again per slice.

    The readback checks itself: when a digit of total at slot m or above is
    nonzero, total plus the bias is negative or does not fit in m slots, and
    int.to_bytes raises OverflowError, so no digit is dropped silently."""
    half = 1 << (8 * step - 1)
    raw = (total + int.from_bytes(half.to_bytes(step, "little") * m, "little")
           ).to_bytes(step * m, "little")
    return [int.from_bytes(raw[i:i + step], "little") - half
            for i in range(0, step * m, step)]


def _horner(num: Sequence[int], x: int) -> int:
    """The value of the integer coefficient sequence num at the integer x."""
    acc = 0
    for c in reversed(num):
        acc = acc * x + c
    return acc


def _deflate(num: tuple[int, ...], r: int, most: int) -> tuple[tuple[int, ...], int]:
    """(num / (s - r)^m, m) for the nonzero integer coefficient tuple num,
    where m is the multiplicity of the root r of num capped at most: one
    synthetic division by s - r per step, while the remainder num(r) is 0."""
    m = 0
    while m < most:
        acc, quo = 0, []
        for c in reversed(num):
            acc = acc * r + c
            quo.append(acc)
        if acc:
            break
        num = tuple(reversed(quo[:-1]))  # the remainder 0 dropped
        m += 1
    return num, m


def _quotient(g: Sequence[int], f: Sequence[int]) -> tuple[int, ...] | None:
    """g / f for primitive integer coefficient sequences g and f, f nonzero,
    or None when f does not divide g.  By Gauss's lemma a primitive f divides
    g over Q exactly when the quotient is integral, so integer long division
    decides it: None as soon as a leading coefficient leaves a remainder, or
    when the remainder left below deg f is nonzero."""
    rem, m, lead = list(g), len(f) - 1, f[-1]
    quo = [0] * max(len(g) - m, 0)
    for i in range(len(quo) - 1, -1, -1):
        q, r = divmod(rem[i + m], lead)
        if r:
            return None
        quo[i] = q
        for j, y in enumerate(f, i):
            rem[j] -= q * y
    return None if any(rem[:m]) else tuple(quo)


def _make(num: Sequence[int], den: int) -> "Polynomial":
    """A Polynomial from a pair that is already canonical."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "_num", num)
    object.__setattr__(p, "_den", den)
    return p


class Polynomial:
    """Univariate polynomial in s with rational coefficients.

    Stored as integer numerators `_num` over one positive integer
    denominator `_den`: the coefficient of s^i is `_num[i] / _den`.  Trailing
    zeros are stripped and gcd(_den, *_num) = 1, so every polynomial has one
    stored form and the zero polynomial is `((), 1)` with degree -1.  `coeffs`
    is the derived tuple of Fraction coefficients, coeffs[i] that of s^i.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"expected int or Fraction, got {type(c).__name__}")
        den = lcm(*(c.denominator for c in cs))
        num, den = _reduce([c.numerator * (den // c.denominator) for c in cs], den)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    def coefficient(self, i: int) -> Fraction:
        return Fraction(self._num[i], self._den) if 0 <= i < len(self._num) else Fraction(0)

    # -- products ------------------------------------------------------------

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return _make(*_reduce([x * p for x in self._num], self._den * q))
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._num, other._num
        if not a or not b:
            return ZERO
        out = _mul_into([0] * (len(a) + len(b) - 1), a, b)
        return _make(*_reduce(out, self._den * other._den))

    # -- normal forms -------------------------------------------------------

    def content(self) -> Fraction:
        """Rational c > 0 with self = c * primitive(self); 0 for the zero polynomial."""
        if self.is_zero:
            return Fraction(0)
        return Fraction(gcd(*self._num), self._den)

    def primitive(self) -> "Polynomial":
        """Integer-coefficient part with coprime coefficients and positive leading term."""
        if self.is_zero:
            return self
        g = gcd(*self._num)
        if self._num[-1] < 0:
            g = -g
        return _make(tuple(x // g for x in self._num), 1)

    def divides(self, other: "Polynomial") -> bool:
        """Whether other = self * q for a polynomial q over Q."""
        if self.is_zero:
            return other.is_zero
        return _quotient(other.primitive()._num, self.primitive()._num) is not None

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return format_poly(self)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]


ZERO = Polynomial()
ONE = Polynomial([1])


def _coerce_poly(x) -> "Polynomial":
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return _make(*_reduce([x.numerator], x.denominator))
    return NotImplemented


class RationalFunction:
    """Quotient of a polynomial num in s by prod_{r in roots} (s - r) for a
    multiset of integer roots, normalized: every root shared with num is
    cancelled up to its multiplicity, so gcd(num, den) = 1 and den is monic
    (the overall sign and scale live in the numerator).  `roots` is the
    sorted tuple of the roots left and `den` their product, built when read."""

    __slots__ = ("num", "roots")

    def __init__(self, num, roots: Iterable[int] = ()):
        num = _coerce_poly(num)
        if num is NotImplemented:
            raise TypeError("RationalFunction numerator must be a polynomial or scalar")
        rest = []
        if not num.is_zero:  # zero over anything is 0 over 1
            roots = sorted(roots)
            if not all(isinstance(r, int) for r in roots):
                raise TypeError("RationalFunction roots must be integers")
            ints = num._num
            for r, run in groupby(roots):
                m = len(list(run))
                ints, k = _deflate(ints, r, m)
                rest += [r] * (m - k)
            if ints is not num._num:
                # dividing by the primitive s - r keeps the integer numerators' gcd
                num = _make(ints, num._den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "roots", tuple(rest))

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def den(self) -> Polynomial:
        den = [1]
        for r in self.roots:
            den = _mul_into([0] * (len(den) + 1), den, (-r, 1))
        return _make(tuple(den), 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.roots == other.roots

    def __hash__(self):
        return hash((self.num, self.roots))

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.roots!r})"

    def __str__(self) -> str:
        if not self.roots:
            return format_poly(self.num)
        return f"({format_poly(self.num)})/({format_poly(self.den)})"

    def den_factors(self) -> "NumeratorFactors":
        """The monic den split into its linear factors, read from `roots`
        with no root search: content 1, residual 1."""
        linear = tuple((r, len(list(run))) for r, run in groupby(self.roots))
        return NumeratorFactors(Fraction(1), linear, ONE)


def det_ratfun(rows: Sequence[Sequence[Polynomial]],
               roots: Sequence[Sequence[int]]) -> RationalFunction:
    """Exact determinant of the square matrix whose row i is rows[i] divided
    by prod_{r in roots[i]} (s - r).

    Integer Bareiss at one Kronecker point (see the module docstring): det M
    is read back once at degree sum_i max_j deg N_ij, divided by prod L_i,
    and returned as one RationalFunction over all the rows' roots.
    """
    n = len(rows)
    if len(roots) != n or any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    ints, scale, bound, degree = [], 1, 1, 0
    for row in rows:
        big = lcm(*(e._den for e in row))
        ints.append([[x * (big // e._den) for x in e._num] for e in row])
        scale *= big
        bound *= sum(abs(x) for f in ints[-1] for x in f)
        degree += max(map(len, ints[-1])) - 1
    step = bound.bit_length() // 8 + 1
    m = [[_pack(f, 8 * step) for f in row] for row in ints]
    sign = prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return RationalFunction(ZERO)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    total = sign * m[n - 1][n - 1] if n else 1
    num = _unpack(total, step, degree + 1) if total else []  # a zero row may make degree + 1 < 0
    return RationalFunction(_make(*_reduce(num, scale)), [r for rs in roots for r in rs])


def _divisors(m: int) -> list[int]:
    """All positive divisors of |m| (m != 0) via trial-division factorization."""
    m = abs(m)
    factors: dict[int, int] = {}
    d, root = 2, isqrt(m)
    while d <= root:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
            root = isqrt(m)
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
    coefficients, and tests the divisors of the constant term by Horner; any
    integer root of an integer polynomial must divide its constant term.
    """
    if p.is_zero:
        raise ValueError("integer_roots of the zero polynomial")
    roots: set[int] = set()
    k = 0
    while p._num[k] == 0:
        k += 1
    if k > 0:
        roots.add(0)
    q = _make(p._num[k:], 1).primitive()._num
    for d in _divisors(q[0]):
        if not _horner(q, d):
            roots.add(d)
        if not _horner(q, -d):
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


class NumeratorFactors(namedtuple("NumeratorFactors", "content linear residual")):
    """p = content * prod (s - r)^m * residual over the integer roots r of p:
    `content` is the rational scale (a Fraction, sign included), `linear`
    the (integer root, multiplicity) pairs and `residual` the
    integer-root-free cofactor, a Polynomial."""

    __slots__ = ()

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
    num = p.primitive()._num
    content = p.content() if p.leading() > 0 else -p.content()
    linear: list[tuple[int, int]] = []
    for r in sorted(integer_roots(p)):
        num, mult = _deflate(num, r, len(num))
        linear.append((r, mult))
    return NumeratorFactors(content, tuple(linear), _make(num, 1))
