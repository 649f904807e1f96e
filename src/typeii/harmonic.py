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
denominator with the integer roots 0..d-1).  It is built from the identity

    d! P_d = sum_k (-1)^k C(d, k) A_{n,d,k}(s) [k! K_k(a; s)] [(d-k)! K_{d-k}(w-a; n-s)]

with A_{n,d,k} = prod_{l<k} (n-d+l+1-s) * (s-k)...(s-d+1).  A scaled factor
j! K_j(x; N) = sum_i (-1)^i C(x, i) j!/(j-i)! (N-x)(N-x-1)...(N-x-j+i+1) has
integer coefficients, so every term is an integer polynomial.  The terms have
degree 2d, but their top d coefficients cancel: d! P_d has degree at most d.

Every factor is built as one packed int by Kronecker substitution
(von zur Gathen & Gerhard, *Modern Computer Algebra*, 8.4): a polynomial f
is held as f(X) at X = 2^(8 step), and the linear term alpha*s + beta - t is
(alpha << 8 step) + beta - t.  `_fallings` multiplies these terms into the
running falling products prod_{t<j} (alpha*s + beta - t), j = 0..m, and A
is the product of two of them.  The whole chain j! K_j(x; N), j = 0..d,
comes from the three-term recurrence of the Krawtchouk polynomials
(MacWilliams & Sloane, *The Theory of Error-Correcting Codes*, ch. 5)

    k_{j+1} = (N - 2x) k_j - j (N - j + 1) k_{j-1},   k_0 = 1,  k_1 = N - 2x,

two products by a packed linear term per step (`_krawtchouk_chain`); it is a
polynomial identity in N, so it holds for the packed N too.  The factors of
d! P_d sit in two cached rows of d+1 packed ints: `_weighted_row` holds the
terms (-1)^k C(d, k) A_{n,d,k} (d-k)! K_{d-k}(x; n-s) by (n, d, x), on the
row of signed A of `_coefficient_row` by (n, d), and `_krawtchouk_row` holds
k! K_k(a; s) by (a, d, shift).  d! P_d is the dot product of the two rows at
x = w - a, one sum and one readback of d+1 signed slots (`exact._unpack`),
cached as a tuple by (n, w, a, d) (`_numerator_ints`).  The readback checks
the degree on every build: a nonzero coefficient above s^d is a nonzero
digit past the last slot, and `_unpack` raises OverflowError for it, so
none is dropped silently.  The slot of step = `_step(n, 0, d)` bytes
comes from a closed-form bound, so no build reads a coefficient to size it.
The L1 norm ||.||_1, the sum of the absolute coefficients, is
submultiplicative, and:

- A's linear factors n-d+l+1-s (l < k) and s-t (k <= t < d) have norm at
  most max(n, d) + 1, so ||A_{n,d,k}||_1 <= (max(n, d) + 1)^d;
- the linear factors N-x-t (t < j <= d) of j! K_j(x; N) have norm at most
  L = n + d + 1 for 0 <= x <= n, and C(x, i) j!/(j-i)! <= C(j, i) x^i, so
  ||j! K_j(x; N)||_1 <= sum_i C(j, i) x^i L^(j-i) = (x + L)^j
  <= (2n + d + 1)^j, and the two Krawtchouk factors of a term together have
  norm at most (2n + d + 1)^d;
- sum_k C(d, k) = 2^d.

Hence ||d! P_d||_1 <= 2^d (max(n, d) + 1)^d (2n + d + 1)^d, which bounds
every coefficient, and a slot of one byte more than that bound's bits holds
each with its sign.  Only the final coefficients have to fit: packing is a
ring homomorphism, so the factors, their products and the partial sums
may carry across slots.

The symbolic sphere sum packs its terms the same way, at the slot
`_step(n, w, d)`, and takes its two falling chains from `_fallings`: term a
is C(w, a) s(s-1)...(s-a+1) (n-s)...(n-s-w+a+1) d! P_d, and
||C(w, a) s(s-1)...(s-a+1)||_1 <= C(w, a) a! <= w^a,
||(n-s)...(n-s-w+a+1)||_1 <= (n + 1)^(w-a) and
sum_a w^a (n + 1)^(w-a) <= (w + n + 1)^w <= (2n + 1)^w, so every sum of
terms has norm at most (2n + 1)^w times the numerator bound; w = 0 gives
the numerator slot back.  This holds for any range of a, and at d = 0 the
sum is the constant w! C(n, w), which the (2n + 1)^w factor must hold.
Each term has degree at most w + d, so the sum is read back as w + d + 1
slots, under the same check.

`zonal_numerator` reduces d! P_d by d! once, to the canonical Polynomial.
For an integer s >= d the value is P_d(s) / (s(s-1)...(s-d+1)), an exact
Fraction.  The lambda-systems take P_d as it is, one numerator row over one
denominator, given by its integer roots 0..d-1, and a RationalFunction, P_d
over the roots range(d), is built only where a formal Z_d or sphere sum
leaves the module.  Every numeric value is one `zonal_sum`: a sum over an
intersection profile {a: count} evaluates the cached integer numerators
d! P_d by Horner at s at the profile's own weights only, over the one
denominator d! s(s-1)...(s-d+1), so it is one integer sum and one Fraction,
and no numerator is built at a weight no profile holds (the profiles of a
doubly-even code hold no odd weight).  `zonal_eval` is the profile {a: 1},
and `sphere_sum` the profile of sphere counts C(s, a) C(n-s, w-a) at every
feasible a.  The symbolic sphere sum is one readback of the packed terms
above.  The feasible intersection weights are stated once, in `_weights`;
`zonal_eval`, `zonal_sum` and the sphere sums all take them from there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm
from operator import mul

from .exact import Polynomial, RationalFunction, _horner, _make, _pack, _reduce, _unpack


def _weights(n: int, s: int | None, w: int) -> range:
    """The intersection weights a weight-w word can have with a weight-s word
    of length n, max(0, w-(n-s))..min(s, w); 0..w for the formal s."""
    if not 0 < n:
        raise ValueError("length must be positive")
    if not (0 <= w <= n and (s is None or 0 <= s <= n)):
        raise ValueError(f"need 0 <= s, w <= n = {n}, got s = {s}, w = {w}")
    if s is None:
        return range(w + 1)
    return range(max(0, w - (n - s)), min(s, w) + 1)


def _no_such_weight(n: int, s: int | None, w: int, a: int) -> ValueError:
    return ValueError(f"no weight-{w} word meets a weight-{'s' if s is None else s} "
                      f"word in {a} of n = {n} positions")


def zonal_eval(n: int, s: int | None, w: int, a: int, d: int
               ) -> Fraction | RationalFunction:
    """Z_d(n, s, w, a); exact Fraction for integer s (requires s >= d when
    d >= 1), the zonal_sum of the profile {a: 1}, and exact RationalFunction
    in s for the formal s=None.

    Raises ValueError for an a outside _weights(n, s, w), as zonal_sum does,
    before it checks the degree."""
    if a not in _weights(n, s, w):
        raise _no_such_weight(n, s, w, a)
    _check_degree(s, d)
    if s is None:
        return RationalFunction(zonal_numerator(n, w, a, d), range(d))
    return zonal_sum(n, s, w, {a: 1}, d)


def _check_degree(s: int | None, d: int) -> None:
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if s is not None and s < d:
        raise ZeroDivisionError(
            f"zonal coefficient divides by s-l for l < {d}; s = {s} is too small"
        )


def zonal_sum(n: int, s: int, w: int, counts: dict[int, int], d: int) -> Fraction:
    """Sum of count * Z_d(n, s, w, a) over an intersection profile {a: count}
    of weight-w words against a weight-s reference word: the integer
    numerators d! P_d at the profile's own weights, by Horner at s, over
    d! * s(s-1)...(s-d+1).  An empty profile sums to 0.

    Raises ValueError for an a outside _weights(n, s, w) and
    ZeroDivisionError for s < d when d >= 1, as zonal_eval does."""
    if not counts:
        return Fraction(0)
    weights = _weights(n, s, w)
    _check_degree(s, d)
    total = 0
    for a, count in counts.items():
        if a not in weights:
            raise _no_such_weight(n, s, w, a)
        total += count * _horner(_numerator_ints(n, w, a, d), s)
    return Fraction(total, factorial(d) * perm(s, d))


@lru_cache(maxsize=None)
def _step(n: int, w: int, d: int) -> int:
    """The slot in bytes that holds, with its sign, every coefficient of
    w! d! times a partial sphere sum of Z_d over weight w at length n, and
    for w = 0 of every d! P_d: one byte more than the bits of the bound
    (2n + 1)^w 2^d (max(n, d) + 1)^d (2n + d + 1)^d on the L1 norm."""
    bound = (2 * n + 1) ** w * 2 ** d * (max(n, d) + 1) ** d * (2 * n + d + 1) ** d
    return bound.bit_length() // 8 + 1


def _fallings(alpha: int, beta: int, m: int, shift: int) -> list[int]:
    """prod_{t<j} (alpha*s + beta - t) for j = 0..m, packed at X = 2^shift:
    the running products of the packed linear terms (alpha << shift) + beta - t."""
    lin = (alpha << shift) + beta
    out = [1]
    for t in range(m):
        out.append(out[-1] * (lin - t))
    return out


def _krawtchouk_chain(x: int, alpha: int, beta: int, d: int, shift: int) -> list[int]:
    """j! K_j(x; N) for j = 0..d with N = alpha*s + beta, packed at X = 2^shift,
    by the three-term recurrence k_{j+1} = (N - 2x) k_j - j (N - j + 1) k_{j-1}
    from k_0 = 1 and k_1 = N - 2x."""
    lin = (alpha << shift) + beta
    out = [1, lin - 2 * x]
    for j in range(1, d):
        out.append((lin - 2 * x) * out[j] - j * (lin - j + 1) * out[j - 1])
    return out[:d + 1]


@lru_cache(maxsize=None)
def _coefficient_row(n: int, d: int) -> tuple[int, ...]:
    """(-1)^k C(d, k) A_{n,d,k} for k = 0..d, packed at the slot _step(n, 0, d).
    Read from its fixed end, each product of A is one falling chain for every
    k: A_{n,d,k} = (-1)^d prod_{t<k} (s+d-n-1-t) prod_{t<d-k} (d-1-s-t)."""
    shift = 8 * _step(n, 0, d)
    up = _fallings(1, d - n - 1, d, shift)
    down = _fallings(-1, d - 1, d, shift)
    return tuple((-1) ** (d + k) * comb(d, k) * up[k] * down[d - k] for k in range(d + 1))


@lru_cache(maxsize=None)
def _weighted_row(n: int, d: int, x: int) -> tuple[int, ...]:
    """The terms (-1)^k C(d, k) A_{n,d,k} (d-k)! K_{d-k}(x; n-s), k = 0..d, of
    d! P_d that do not depend on a once x = w - a is fixed, packed at the
    slot _step(n, 0, d)."""
    chain = _krawtchouk_chain(x, -1, n, d, 8 * _step(n, 0, d))
    return tuple(c * chain[d - k] for k, c in enumerate(_coefficient_row(n, d)))


@lru_cache(maxsize=None)
def _krawtchouk_row(a: int, d: int, shift: int) -> tuple[int, ...]:
    """k! K_k(a; s) for k = 0..d, packed at X = 2^shift."""
    return tuple(_krawtchouk_chain(a, 1, 0, d, shift))


@lru_cache(maxsize=None)
def _numerator_ints(n: int, w: int, a: int, d: int) -> tuple[int, ...]:
    """The d+1 integer coefficients of d! P_d (degree at most d, trailing
    zeros kept): the dot product of two packed rows, read back once.  The
    readback raises OverflowError if a coefficient above s^d is nonzero."""
    step = _step(n, 0, d)
    total = sum(map(mul, _weighted_row(n, d, w - a), _krawtchouk_row(a, d, 8 * step)))
    return tuple(_unpack(total, step, d + 1))


def zonal_numerator(n: int, w: int, a: int, d: int) -> Polynomial:
    """P_d = Z_d * s(s-1)...(s-d+1): d! P_d reduced once by d!.  Over that
    common denominator the coefficient of Q_{d,k} is
    prod_{l<k} ((n-s)-(d-l-1)) * (s-k)...(s-d+1)."""
    return _make(*_reduce(list(_numerator_ints(n, w, a, d)), factorial(d)))


def sphere_sum(n: int, s: int, w: int, d: int) -> Fraction:
    """Sum of Z_d over the whole sphere B_w relative to a weight-s word: at
    intersection weight a it holds C(s, a) C(n-s, w-a) words."""
    return zonal_sum(n, s, w, {a: comb(s, a) * comb(n - s, w - a)
                               for a in _weights(n, s, w)}, d)


def sphere_sum_symbolic(n: int, w: int, d: int) -> RationalFunction:
    """The sphere sum as a rational function of s; identically zero for d >= 1.

    The weight-w words at intersection a number C(s, a) C(n-s, w-a), and
    w! C(s, a) C(n-s, w-a) = C(w, a) s(s-1)...(s-a+1) (n-s)...(n-s-w+a+1) is
    an integer polynomial.  Its product with d! P_d is two packed fallings and
    the packed d! P_d at the slot _step(n, w, d); the products are summed,
    read back once as the w + d + 1 coefficients of degree at most w + d and
    reduced by w! d!."""
    step = _step(n, w, d)
    shift = 8 * step
    ups = _fallings(1, 0, w, shift)
    downs = _fallings(-1, n, w, shift)
    total = sum(comb(w, a) * ups[a] * downs[w - a] * _pack(_numerator_ints(n, w, a, d), shift)
                for a in _weights(n, None, w))
    num = _unpack(total, step, w + d + 1)
    return RationalFunction(_make(*_reduce(num, factorial(w) * factorial(d))), range(d))
