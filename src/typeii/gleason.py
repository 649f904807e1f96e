"""Extremality bookkeeping for Type II codes of length n = 0 mod 8.

The minimal-weight bound is 4*floor(n/24) + 4; the design strength sigma(n)
is 5, 3, or 1 according to n mod 24.  The extremal weight enumerator is the
unique Type II enumerator with no codewords of positive weight below the
bound, computed exactly in the invariant-ring basis

    g8  = x^8 + 14 x^4 y^4 + y^8
    g24 = x^4 y^4 (x^4 - y^4)^4

by solving the linear system that kills the low-weight coefficients.  Every
Type II weight is a multiple of 4, so the work runs in z = y^4 with x = 1:
g8 = 1 + 14 z + z^2 and g24 = z (1 - z)^4 are dense coefficient tuples, and
the basis elements g8^i g24^j (8i + 24j = n) are powers multiplied by
`exact._mul_into`.  Since g8^i g24^j starts at z^j with coefficient 1, the
system is unit lower-triangular and forward substitution solves it in
integers.
"""

from __future__ import annotations

from .exact import _mul_into
from .gf2 import MAX_LENGTH


def _check_length(n: int):
    if n <= 0 or n % 8 or n > MAX_LENGTH:
        raise ValueError(f"Type II lengths are multiples of 8 in 8..{MAX_LENGTH}, got {n}")


def extremal_min_weight(n: int) -> int:
    """Largest possible minimal weight of a Type II code of length n."""
    _check_length(n)
    return 4 * (n // 24) + 4


def sigma(n: int) -> int:
    """Design strength of the shells of an extremal Type II code of length n."""
    _check_length(n)
    return {0: 5, 8: 3, 16: 1}[n % 24]


# the Gleason generators in z = y^4, coefficient of z^k at index k
_G8 = (1, 14, 1)
_G24 = (0, 1, -4, 6, -4, 1)


def extremal_weight_enumerator(n: int) -> tuple[int, ...]:
    """The unique Type II weight enumerator of length n with A_w = 0 for
    0 < w < extremal_min_weight(n): the tuple (A_0, ..., A_n)."""
    _check_length(n)
    # enum accumulates c_j g8^i g24^j over j < r; g8^i g24^r is the only
    # later basis element with a z^r term, and that term is 1, so c_r sets
    # A_{4r} to 1 for r = 0 and to 0 below the minimal weight
    enum = [0] * (n // 4 + 1)
    for r in range(n // 24 + 1):
        basis = (1,)
        for g, e in ((_G8, (n - 24 * r) // 8), (_G24, r)):
            for _ in range(e):
                basis = _mul_into([0] * (len(basis) + len(g) - 1), basis, g)
        _mul_into(enum, ((r == 0) - enum[r],), basis)
    out = [0] * (n + 1)
    out[::4] = enum
    return tuple(out)
