"""Intersection-count systems for extremal Type II codes and their verdicts.

For a length-n extremal Type II code C with minimal weight d = d(n), the
counts lambda_j(cbar) = #{c in the minimal shell : wt(c & cbar) = j} satisfy
one linear equation per zonal harmonic degree (the shell is a design, so the
zonal sums vanish) plus the sum equation whose right-hand side is the
extremal enumerator coefficient A_d.  Odd-j counts vanish by self-duality
and counts with j > d/2 vanish for a minimal-weight coset representative, so
the unknowns are lambda_0, lambda_2, ..., lambda_{d/2}.

Written with s = wt(cbar) kept formal, the system is overdetermined: its
extended determinant must vanish at any realizable s, yet as a rational
function of s it is not identically zero.  Its integer roots therefore
decide the configuration question per scenario:

  quotient scenario   cbar ranges over C / <minimal shell>; no integer root
                      with s > d means every class collapses, i.e. the code
                      is generated by its minimal-weight words.
  dual-of-span scenario   cbar ranges over <minimal shell>^perp / <minimal
                      shell>; if every positive integer root is divisible by
                      4 the dual of the span is doubly even, hence
                      self-orthogonal, which forces dim <shell span> >= n/2
                      and again generation by minimal words.
"""

from __future__ import annotations

from collections import namedtuple

from .designs import intersection_profile, summed_profile
from .exact import (
    ONE,
    Polynomial,
    RationalFunction,
    ZERO,
    _quotient,
    det_ratfun,
    factor_numerator,
)
from .gf2 import Code, DesignSet
from .gleason import extremal_min_weight, extremal_weight_enumerator, sigma
from .harmonic import zonal_numerator, zonal_sum

QUOTIENT_OF_CODE = "quotient_of_code"
DUAL_OF_SPAN = "dual_of_span"

GENERATED = "generated_by_minimal"
COUNTEREXAMPLE = "counterexample_at"
ROOTS_MULT_4 = "roots_all_multiples_of_4"
INDETERMINATE = "indeterminate"

SUPPORTED_LENGTHS = (8, 16, 24, 32, 48, 56, 72, 96)
_DUAL_SCENARIO_LENGTHS = frozenset({56, 96})


def scenario_for(n: int) -> str:
    _check_supported(n)
    return DUAL_OF_SPAN if n in _DUAL_SCENARIO_LENGTHS else QUOTIENT_OF_CODE


def _check_supported(n: int):
    if n not in SUPPORTED_LENGTHS:
        raise ValueError(f"unsupported length {n}; supported: {SUPPORTED_LENGTHS}")


def kept_degree_set(n: int) -> list[int]:
    """Zonal degrees retained in the system: of the available degrees
    {1..sigma} plus sigma+2, keep the lowest d(n)/4 + 1 (the sum equation
    fills the remaining row), discarding the highest degrees first."""
    _check_supported(n)
    available = list(range(1, sigma(n) + 1)) + [sigma(n) + 2]
    need = extremal_min_weight(n) // 4 + 1
    if need > len(available):
        raise ValueError(f"not enough zonal equations for length {n}")
    return available[:need]


def build_system(n: int) -> tuple[list[tuple[Polynomial, ...]], list[tuple[int, ...]]]:
    """The lambda-system of length n as the two arguments of det_ratfun: its
    extended rows (coefficients . lambda = rhs, the coefficients then the
    right-hand side) and, per row, the integer roots r of the row's one
    denominator prod (s - r), () for 1.  The unknowns are lambda_{2j'} for
    0 <= j' <= d(n)/4.  The sum row comes first, with every coefficient 1 and
    right-hand side A_d, over 1; then one symbolic zonal row per kept degree d
    (`kept_degree_set`), with the coefficients P_d(n, d(n), a, d) at the kept
    weights a and right-hand side 0, over s(s-1)...(s-d+1), whose roots are
    0..d-1."""
    _check_supported(n)
    d_min = extremal_min_weight(n)
    weights = range(0, d_min // 2 + 1, 2)
    a_d = extremal_weight_enumerator(n)[d_min]
    rows, roots = [(ONE,) * len(weights) + (Polynomial([a_d]),)], [()]
    for d in kept_degree_set(n):
        rows.append(tuple(zonal_numerator(n, d_min, a, d) for a in weights) + (ZERO,))
        roots.append(tuple(range(d)))
    return rows, roots


def extended_determinant(n: int) -> RationalFunction:
    """Determinant of the square extended matrix (coefficients plus the
    right-hand-side column); must vanish at any s admitting a solution."""
    return det_ratfun(*build_system(n))


class Verdict(namedtuple("Verdict", "n scenario determinant factors integer_roots "
                                   "relevant_roots conclusion generated_by_minimal "
                                   "counterexample_weight", defaults=(None,))):
    """The integer-root verdict for length n: the extended `determinant` (a
    RationalFunction) and the NumeratorFactors of its numerator,
    `integer_roots` (a frozenset of all integer roots of the numerator) and
    `relevant_roots` (those in the scenario's range), the `conclusion`, and
    the weight of a counterexample class, None unless there is one."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "scenario": self.scenario,
            "determinant": {
                "numerator": self.determinant.num.to_json(),
                "denominator": self.determinant.den.to_json(),
                "display": str(self.determinant),
            },
            "numerator_factors": {
                "content": str(self.factors.content),
                "linear": [list(f) for f in self.factors.linear],
                "residual": self.factors.residual.to_json(),
            },
            "integer_roots": sorted(self.integer_roots),
            "relevant_roots": sorted(self.relevant_roots),
            "conclusion": self.conclusion,
            "generated_by_minimal": self.generated_by_minimal,
            "counterexample_weight": self.counterexample_weight,
        }


def analyze(n: int) -> Verdict:
    """Integer-root analysis of the extended determinant for length n.

    The verdict restricts roots to the scenario's meaningful range: a
    quotient-scenario counterexample class has minimal weight s > d(n), and a
    dual-scenario representative has s > 0 (denominator-clearing artifacts at
    small s must not flip verdicts)."""
    det = extended_determinant(n)
    if det.is_zero:
        raise ArithmeticError(f"extended determinant for n={n} vanished identically")
    factors = factor_numerator(det.num)
    roots = frozenset(r for r, _ in factors.linear)
    scenario = scenario_for(n)
    quotient = scenario == QUOTIENT_OF_CODE
    relevant = frozenset(r for r in roots if r > (extremal_min_weight(n) if quotient else 0))
    if not relevant:
        conclusion = GENERATED
    elif quotient:
        conclusion = COUNTEREXAMPLE
    elif all(r % 4 == 0 for r in relevant):
        conclusion = ROOTS_MULT_4
    else:
        conclusion = INDETERMINATE
    return Verdict(
        n=n,
        scenario=scenario,
        determinant=det,
        factors=factors,
        integer_roots=roots,
        relevant_roots=relevant,
        conclusion=conclusion,
        generated_by_minimal=conclusion in (GENERATED, ROOTS_MULT_4),
        counterexample_weight=min(relevant) if conclusion == COUNTEREXAMPLE else None,
    )


class ReferenceResult(namedtuple("ReferenceResult",
                                 "factor constant denominator_root_powers conclusion")):
    """A reference analysis result the tool is expected to reproduce: the
    required polynomial factor of the determinant numerator, the published
    integer prefactor, and the published denominator as (root, power) pairs,
    prod (s - root)^power (the latter two are informational)."""

    __slots__ = ()

    def published(self) -> RationalFunction:
        """The full published determinant: constant * factor / denominator."""
        roots = [root for root, power in self.denominator_root_powers for _ in range(power)]
        return RationalFunction(self.factor * self.constant, roots)


def _poly(*coeffs_desc: int) -> Polynomial:
    return Polynomial(list(reversed(coeffs_desc)))


REFERENCE: dict[int, ReferenceResult] = {
    8: ReferenceResult(
        _poly(3, -10), 2**7 * 3 * 7, ((1, 1), (0, 1)), GENERATED
    ),
    16: ReferenceResult(
        _poly(1, -8), -93184, ((1, 1), (0, 1)), COUNTEREXAMPLE
    ),
    24: ReferenceResult(
        _poly(7, -98, 344), 2**15 * 3**2 * 5 * 7 * 11**2 * 23,
        ((2, 1), (1, 2), (0, 2)), GENERATED
    ),
    32: ReferenceResult(
        _poly(7, -126, 584), 2**17 * 3 * 5**2 * 7 * 29 * 31,
        ((2, 1), (1, 2), (0, 2)), GENERATED
    ),
    48: ReferenceResult(
        _poly(11, -396, 4906, -20736),
        2**26 * 3**5 * 5**2 * 7 * 11**2 * 23**2 * 43 * 47,
        ((3, 1), (2, 2), (1, 3), (0, 3)), GENERATED
    ),
    56: ReferenceResult(
        _poly(1, -16) * _poly(3, -112, 1368, -5120),
        -(2**27) * 3**7 * 5**3 * 7**3 * 11 * 13**2 * 17 * 53,
        ((4, 1), (3, 1), (2, 2), (1, 3), (0, 3)), ROOTS_MULT_4
    ),
    72: ReferenceResult(
        _poly(39, -2600, 67410, -800440, 3650496),
        2**42 * 3**5 * 5**2 * 7**2 * 11**2 * 13 * 17**3 * 23**2 * 67**2 * 71,
        ((4, 1), (3, 2), (2, 3), (1, 4), (0, 4)), GENERATED
    ),
    96: ReferenceResult(
        _poly(1, -24) * _poly(68, -6936, 289901, -6153306, 65640728, -277774080),
        -(2**59) * 3**9 * 5**4 * 7**2 * 11**2 * 13**2 * 17 * 19 * 23**3
        * 29 * 31**2 * 43 * 47**2 * 89**2,
        ((6, 1), (5, 1), (4, 2), (3, 3), (2, 4), (1, 5), (0, 5)), ROOTS_MULT_4
    ),
}


def reference_ratio(n: int) -> RationalFunction:
    """Computed determinant divided by the full reference value; a constant
    +-1 means the conventions match the published computation exactly.

    The published numerator must divide the determinant's: their primitive
    parts have an integer quotient q, the numerators' quotient is q scaled to
    their leading coefficients' ratio, and the ratio is that times the
    published denominator over the determinant's.  Raises ArithmeticError
    when the division is inexact."""
    det, ref = extended_determinant(n), REFERENCE[n].published()
    q = _quotient(det.num.primitive()._num, ref.num.primitive()._num)
    if q is None:
        raise ArithmeticError(f"the published numerator does not divide the n = {n} determinant's")
    scale = det.num.leading() / ref.num.leading() / q[-1]
    return RationalFunction(Polynomial(q) * scale * ref.den, det.roots)


# ------------------------------------------------------------ concrete codes

class CodeReport(namedtuple("CodeReport", "n k min_weight extremal shell_size "
                                         "matches_enumerator span_dimension "
                                         "generated_by_minimal coset_min_weights "
                                         "lambda_rows_consistent intersection_bound_holds "
                                         "sampled_weights")):
    """The checks of verify_on_code on one code, every field an int, a bool
    or a tuple of ints."""

    __slots__ = ()

    @property
    def all_checks_pass(self) -> bool:
        return (
            self.extremal
            and self.matches_enumerator
            and self.lambda_rows_consistent
            and self.intersection_bound_holds
        )

    def to_dict(self) -> dict:
        return {**self._asdict(), "all_checks_pass": self.all_checks_pass}


def verify_on_code(code: Code) -> CodeReport:
    """End-to-end configuration check on a constructed code: extremality,
    span of the minimal shell, coset minimal weights, and exact consistency
    of observed lambda vectors with every kept zonal equation."""
    return check_sweep(code, *minimal_sweep(code))


def minimal_sweep(code: Code) -> tuple[list[int], DesignSet, tuple[int, ...]]:
    """The one pass over a code of supported length that verify_on_code
    checks: its weight distribution, its shell of the extremal minimum
    weight d(n) and 3 sample words of each nonzero weight."""
    _check_supported(code.n)
    return code.sweep(extremal_min_weight(code.n), per_weight=3)


def check_sweep(code: Code, dist: list[int], shell: DesignSet,
                samples: tuple[int, ...]) -> CodeReport:
    """The checks of verify_on_code on the result of minimal_sweep(code)."""
    n = code.n
    d_min = extremal_min_weight(n)
    # 0 for the zero code (k = 0), which has no nonzero word and is not extremal
    min_weight = next((w for w in range(1, n + 1) if dist[w]), 0)
    extremal = min_weight == d_min
    matches_enumerator = tuple(dist) == extremal_weight_enumerator(n)
    span = Code.spanned_by(shell)
    generated = span == code
    leaders = code.coset_leaders(span)
    coset_weights = tuple(sorted(coset.w for coset in leaders.values()))

    degrees = kept_degree_set(n)
    rows_ok = True
    for cbar in samples:
        s = cbar.bit_count()
        profile = intersection_profile(shell, cbar)
        if any(a % 2 for a in profile):
            rows_ok = False
        for d in degrees:
            if s >= d and zonal_sum(n, s, d_min, profile, d) != 0:
                rows_ok = False

    # minimal-weight coset representatives meet every minimal word in at
    # most d/2 positions (otherwise adding the word would shorten them)
    reps = [leader for coset in leaders.values() for leader in coset]
    bound_ok = max(summed_profile(shell, reps), default=0) <= d_min // 2
    return CodeReport(
        n=n,
        k=code.k,
        min_weight=min_weight,
        extremal=extremal,
        shell_size=len(shell),
        matches_enumerator=matches_enumerator,
        span_dimension=span.k,
        generated_by_minimal=generated,
        coset_min_weights=coset_weights,
        lambda_rows_consistent=rows_ok,
        intersection_bound_holds=bound_ok,
        sampled_weights=tuple(w.bit_count() for w in samples),
    )

