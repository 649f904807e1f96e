"""Extremality bookkeeping for Type II codes of length n = 0 mod 8.

The minimal-weight bound is 4*floor(n/24) + 4; the design strength sigma(n)
is 5, 3, or 1 according to n mod 24.  The extremal weight enumerator is the
unique Type II enumerator with no codewords of positive weight below the
bound, computed exactly in the invariant-ring basis

    g8  = x^8 + 14 x^4 y^4 + y^8
    g24 = x^4 y^4 (x^4 - y^4)^4

by solving the linear system that kills the low-weight coefficients.  Since
g8^i g24^j starts at y^(4j) with coefficient 1, that system is unit
lower-triangular and forward substitution solves it in integers.
"""

from __future__ import annotations

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


class WeightEnumerator:
    """Homogeneous weight enumerator: coefficients[w] counts weight-w words.
    Immutable."""

    __slots__ = ("n", "coefficients")

    def __init__(self, n: int, coefficients: tuple[int, ...]):
        if len(coefficients) != n + 1:
            raise ValueError("coefficient vector must have length n + 1")
        if coefficients[0] != 1:
            raise ValueError("A_0 must be 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coefficients", coefficients)

    def __setattr__(self, name, value):
        raise AttributeError("WeightEnumerator is immutable")

    def __getitem__(self, w: int) -> int:
        return self.coefficients[w]

    def nonzero(self) -> dict[int, int]:
        return {w: c for w, c in enumerate(self.coefficients) if c}


# weight profiles (coefficient of y^w) of the Gleason generators
_G8 = {0: 1, 4: 14, 8: 1}
_G24 = {4: 1, 8: -4, 12: 6, 16: -4, 20: 1}


def _convolve(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            out[wa + wb] = out.get(wa + wb, 0) + ca * cb
    return out


def _basis_profiles(n: int) -> list[dict[int, int]]:
    """Weight profiles of g8^i * g24^j over all (i, j) with 8i + 24j = n."""
    profiles = []
    for j in range(n // 24 + 1):
        i = (n - 24 * j) // 8
        prof = {0: 1}
        for _ in range(i):
            prof = _convolve(prof, _G8)
        for _ in range(j):
            prof = _convolve(prof, _G24)
        profiles.append(prof)
    return profiles


def extremal_weight_enumerator(n: int) -> WeightEnumerator:
    """The unique Type II weight enumerator of length n with A_w = 0 for
    0 < w < extremal_min_weight(n)."""
    _check_length(n)
    profiles = _basis_profiles(n)
    # coefficients c_j of g8^i g24^j with A_0 = 1 and A_4, ..., A_{4(m-1)} = 0;
    # row r involves only the profiles j <= r, and profile r has A_{4r} = 1
    coeffs: list[int] = []
    for row in range(len(profiles)):
        known = sum(c * prof.get(4 * row, 0) for c, prof in zip(coeffs, profiles))
        coeffs.append((1 if row == 0 else 0) - known)
    out = [0] * (n + 1)
    for c, prof in zip(coeffs, profiles):
        for w, v in prof.items():
            out[w] += c * v
    return WeightEnumerator(n, tuple(out))
