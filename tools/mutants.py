"""Mutation smoke test: each mutant below changes one line of `src/typeii`,
and the tests named with it must fail on the changed copy.

    python3 tools/mutants.py        # about six minutes

`src/` and `tests/` are copied to a temporary directory once; each mutant is
written into that copy, its tests run with `pytest -x`, and the line is put
back.  The checkout is never written.  The tests first run on the unchanged
copy, which must pass.  Exit status: 0 when every mutant is killed, 1 when
one survives (its tests pass), 2 when a mutant's line is not found exactly
once or the unchanged copy fails.  Stdlib only; the tests need pytest and
hypothesis.

Left out as equivalent, each with the reason its output cannot differ:
- `comb(n, t) > PREDESIGN_BOUND` against `>=` in `designs.check_predesign_bound`:
  no n <= 128 and t give C(n, t) = 10^7.
- `if target:` against `if target > 1:` at the empty-prefix exit of
  `designs.predesign_count`: the two differ only when N_t = 1, and then a
  leaf fails too.  Every leaf below a covered (t-1)-set A checks the sets
  A + {c}, c > max(A), so if all leaves pass, A with any of its elements
  swapped for any c > max(A) is covered.  Starting from {0, ..., t-2} and
  swapping in the elements of a set Q, |Q| < t, in ascending order covers Q,
  so no prefix is empty: the exit is only an early stop.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/typeii, old line, new line, tests); lines are
# matched without their indentation, which the new line keeps
MUTANTS = (
    ("carry-drop", "gf2.py",
     "x = a & b | u & c", "x = a & b",
     ["tests/test_gf2.py"]),
    ("transpose-stage-drop", "gf2.py",
     "_SWAP_MASKS = tuple((s, _swap_mask(s)) for s in (32, 16, 8, 4, 2, 1))",
     "_SWAP_MASKS = tuple((s, _swap_mask(s)) for s in (32, 16, 8, 4, 2))",
     ["tests/test_gf2.py"]),
    ("byte-table-shift", "gf2.py",
     "_BYTE_BITS = reduce(lambda table, j: table + tuple(bits + (j,) for bits in table),",
     "_BYTE_BITS = reduce(lambda table, j: table + tuple(bits + (j + 1,) for bits in table),",
     ["tests/test_gf2.py"]),
    # a code holding 1 is swept over the first half of its Gray walk: the
    # mirrored counts give the second half, and a weight's samples are the
    # half walk's picks, then those of its complements, in that order
    ("half-mirror-drop", "gf2.py",
     "dist = [a + b for a, b in zip(dist, reversed(dist))]", "dist = dist",
     ["tests/test_gf2.py::test_half_sweep_matches_gray_walk",
      "tests/test_gf2.py::test_half_sweep_across_blocks_matches_gray_walk"]),
    ("half-mirror-picks-first", "gf2.py",
     "for b in (first.get(w, []) + mirror.get(w, []))[:per_weight])",
     "for b in (mirror.get(w, []) + first.get(w, []))[:per_weight])",
     ["tests/test_gf2.py::test_half_sweep_matches_gray_walk",
      "tests/test_gf2.py::test_half_sweep_across_blocks_matches_gray_walk"]),
    ("half-mirror-picks-dropped", "gf2.py",
     "for b in (first.get(w, []) + mirror.get(w, []))[:per_weight])",
     "for b in first.get(w, [])[:per_weight])",
     ["tests/test_gf2.py::test_half_sweep_matches_gray_walk",
      "tests/test_gf2.py::test_half_sweep_across_blocks_matches_gray_walk"]),
    # one sweep per coset: the cap refuses a quotient past 2^QUOTIENT_CAP cosets
    ("quotient-cap-boundary", "gf2.py",
     "if q > QUOTIENT_CAP:", "if q >= QUOTIENT_CAP:",
     ["tests/test_gf2.py::test_coset_quotient_cap"]),
    ("design-bits-bound", "gf2.py",
     "if words and (min(words) < 0 or max(words) >> n):", "if words and min(words) < 0:",
     ["tests/test_gf2.py::test_design_set_validation"]),
    # coset labels are walked in Gray order: step i reaches label gray(i)
    ("coset-gray-label", "gf2.py",
     "out[i ^ i >> 1] = sub.sweep(LOWEST, offset=offset)[1]",
     "out[i] = sub.sweep(LOWEST, offset=offset)[1]",
     ["tests/test_gf2.py::test_coset_leaders_match_residue_classes"]),
    # the sweep caches each triple's count by base's bits on the triple's
    # columns, and every non-pivot sliced plane but the last one or two is
    # in a triple
    ("triple-key-mask", "gf2.py",
     "key = base & mask", "key = base & pivot_mask",
     ["tests/test_gf2.py::test_grouped_block_counts_match_plain_count"]),
    ("triple-stride-drop", "gf2.py",
     "for i in range(0, cut, 3)]", "for i in range(0, cut, 4)]",
     ["tests/test_gf2.py::test_grouped_block_counts_match_plain_count"]),
    # a nonzero byte i of a class mask holds positions 8 i..8 i + 7, whose
    # bits 3-7 are i & 31 and bits 8-15 are i >> 5
    ("decode-hi-shift", "gf2.py",
     "h = base ^ hi[i >> 5] ^ mid[i & 31]", "h = base ^ hi[i >> 4] ^ mid[i & 31]",
     ["tests/test_gf2.py::test_byte_decode_matches_per_bit_decode"]),
    ("decode-mid-mask", "gf2.py",
     "h = base ^ hi[i >> 5] ^ mid[i & 31]", "h = base ^ hi[i >> 5] ^ mid[i & 15]",
     ["tests/test_gf2.py::test_byte_decode_matches_per_bit_decode"]),
    # the first class of a block is counted as the block size minus the others
    ("class-remainder-dropped", "gf2.py",
     "dist[first_w] -= count", "pass",
     ["tests/test_gf2.py::test_byte_decode_matches_per_bit_decode"]),
    ("design-duplicates", "gf2.py",
     "if len(set(words)) != len(words):", "if False:",
     ["tests/test_gf2.py::test_design_set_validation"]),
    # the solve sets A_{4r} to 1 at r = 0 and to 0 for 0 < 4r < d(n)
    ("enumerator-solve", "gleason.py",
     "_mul_into(enum, ((r == 0) - enum[r],), basis)", "_mul_into(enum, (1 - enum[r],), basis)",
     ["tests/test_gleason.py::test_enumerator_small_lengths"]),
    ("split-empty-masks", "gf2.py",
     "if hi:", "if True:",
     ["tests/test_designs.py", "tests/test_gf2.py"]),
    ("negative-roots", "exact.py",
     "if not _horner(q, -d):", "if False:",
     ["tests/test_exact.py"]),
    ("bareiss-swap-sign", "exact.py",
     "sign = -sign", "sign = sign",
     ["tests/test_exact.py", "tests/test_configuration.py"]),
    # the determinant's slot must hold B = prod of the row L1 sums with its
    # sign, and every row must be brought to integers by its own lcm
    ("det-slot-sign-byte", "exact.py",
     "step = bound.bit_length() // 8 + 1", "step = bound.bit_length() // 8",
     ["tests/test_exact.py::test_packed_det_where_the_norm_meets_the_bound"]),
    ("det-row-scale", "exact.py",
     "ints.append([[x * (big // e._den) for x in e._num] for e in row])",
     "ints.append([list(e._num) for e in row])",
     ["tests/test_exact.py::test_packed_det_matches_polynomial_bareiss"]),
    # one synthetic-division stripper serves factor_numerator and the
    # RationalFunction constructor: each planted root is stripped by s - r,
    # a denominator root no more often than it occurs, and every distinct
    # denominator root is tried
    ("deflate-root-sign", "exact.py",
     "acc = acc * r + c", "acc = acc * -r + c",
     ["tests/test_exact.py::test_factor_numerator_splits_planted_roots",
      "tests/test_exact.py::test_ratfun_matches_euclidean_normal_form"]),
    ("ratfun-strip-past-multiplicity", "exact.py",
     "while m < most:", "while True:",
     ["tests/test_exact.py::test_ratfun_matches_euclidean_normal_form"]),
    ("ratfun-root-skip", "exact.py",
     "ints, k = _deflate(ints, r, m)",
     "ints, k = _deflate(ints, r, m) if r == roots[0] else (ints, 0)",
     ["tests/test_exact.py::test_ratfun_matches_euclidean_normal_form"]),
    # the denominator is multiplied out from its roots when read
    ("ratfun-den-root-sign", "exact.py",
     "den = _mul_into([0] * (len(den) + 1), den, (-r, 1))",
     "den = _mul_into([0] * (len(den) + 1), den, (r, 1))",
     ["tests/test_exact.py::test_ratfun_monic_denominator"]),
    ("readback-bias", "exact.py",
     "half = 1 << (8 * step - 1)", "half = 0",
     ["tests/test_exact.py"]),
    # divisibility is integer long division of primitive parts: a leading
    # division that leaves a remainder, or a remainder left below deg f,
    # means f does not divide g
    ("quotient-inexact-lead", "exact.py",
     "q, r = divmod(rem[i + m], lead)", "q, r = rem[i + m] // lead, 0",
     ["tests/test_exact.py::test_divides_matches_reference"]),
    ("quotient-tail-skip", "exact.py",
     "return None if any(rem[:m]) else tuple(quo)", "return tuple(quo)",
     ["tests/test_exact.py::test_divides_matches_reference"]),
    # one slot function serves the numerators (w = 0) and the sphere sums,
    # and a test of each regime must catch a slot without its sign byte
    ("numerator-slot-short", "harmonic.py",
     "return bound.bit_length() // 8 + 1", "return bound.bit_length() // 8",
     ["tests/test_harmonic.py::test_numerator_slot_holds_every_coefficient"]),
    ("sphere-slot-sign-byte", "harmonic.py",
     "return bound.bit_length() // 8 + 1", "return bound.bit_length() // 8",
     ["tests/test_harmonic.py::test_sphere_sum_symbolic_degree_zero_counts_sphere"]),
    # at d = 0 the sphere sum is the constant w! C(n, w), which the slot of
    # d! P_d alone (one byte) cannot hold
    ("sphere-slot-w-factor", "harmonic.py",
     "bound = (2 * n + 1) ** w * 2 ** d * (max(n, d) + 1) ** d * (2 * n + d + 1) ** d",
     "bound = 2 ** d * (max(n, d) + 1) ** d * (2 * n + d + 1) ** d",
     ["tests/test_harmonic.py::test_sphere_sum_symbolic_degree_zero_counts_sphere"]),
    # the running falling products build A and the sphere-sum factors
    ("falling-term-shift", "harmonic.py",
     "out.append(out[-1] * (lin - t))",
     "out.append(out[-1] * (lin - t - 1))",
     ["tests/test_harmonic.py::test_fallings_match_tuple_oracle",
      "tests/test_harmonic.py::test_numerator_ints_match_product_sum"]),
    # the three-term recurrence builds every Krawtchouk factor of d! P_d
    ("krawtchouk-sign", "harmonic.py",
     "out.append((lin - 2 * x) * out[j] - j * (lin - j + 1) * out[j - 1])",
     "out.append((lin - 2 * x) * out[j] + j * (lin - j + 1) * out[j - 1])",
     ["tests/test_harmonic.py::test_krawtchouk_chain_matches_tuple_oracle",
      "tests/test_harmonic.py::test_numerator_ints_match_product_sum"]),
    ("krawtchouk-recurrence-term", "harmonic.py",
     "out.append((lin - 2 * x) * out[j] - j * (lin - j + 1) * out[j - 1])",
     "out.append((lin - 2 * x) * out[j] - j * (lin - j) * out[j - 1])",
     ["tests/test_harmonic.py::test_krawtchouk_chain_matches_tuple_oracle",
      "tests/test_harmonic.py::test_numerator_ints_match_product_sum"]),
    # d! P_d has degree d: one slot short drops its top coefficient, which
    # the readback must refuse rather than lose
    ("numerator-degree-slots", "harmonic.py",
     "return tuple(_unpack(total, step, d + 1))",
     "return tuple(_unpack(total, step, d))",
     ["tests/test_harmonic.py::test_numerator_ints_match_product_sum"]),
    ("symbolic-sum-dropped", "harmonic.py",
     "num = _unpack(total, step, w + d + 1)", "num = [0] * (w + d + 1)",
     ["tests/test_harmonic.py"]),
    # zonal_sum evaluates numerators at the profile's weights, and refuses a
    # weight no pair of words has
    ("zonal-sum-weight-check", "harmonic.py",
     "if a not in weights:", "if False:",
     ["tests/test_harmonic.py::test_zonal_sum_contract"]),
    # a numeric zonal value is the zonal sum of the one-word profile
    ("zonal-eval-profile-count", "harmonic.py",
     "return zonal_sum(n, s, w, {a: 1}, d)", "return zonal_sum(n, s, w, {a: 2}, d)",
     ["tests/test_harmonic.py::test_zonal_degree_zero_is_one",
      "tests/test_cli.py::test_zonal_numeric_and_symbolic"]),
    ("weights-lower-end", "harmonic.py",
     "return range(max(0, w - (n - s)), min(s, w) + 1)",
     "return range(max(0, w - (n - s) - 1), min(s, w) + 1)",
     ["tests/test_harmonic.py"]),
    # the sum row's right-hand side is the enumerator coefficient A_d
    ("sum-row-rhs", "configuration.py",
     "rows, roots = [(ONE,) * len(weights) + (Polynomial([a_d]),)], [()]",
     "rows, roots = [(ONE,) * len(weights) + (Polynomial([a_d + 1]),)], [()]",
     ["tests/test_configuration.py::test_system_examples",
      "tests/test_configuration.py::test_determinant_equals_published"]),
    # one ladder over the relevant roots, s > d(n) or s > 0 by scenario, sets
    # every verdict field
    ("quotient-root-boundary", "configuration.py",
     "relevant = frozenset(r for r in roots if r > (extremal_min_weight(n) if quotient else 0))",
     "relevant = frozenset(r for r in roots if r > (extremal_min_weight(n) - 1 if quotient else 0))",
     ["tests/test_configuration.py"]),
    ("dual-root-boundary", "configuration.py",
     "relevant = frozenset(r for r in roots if r > (extremal_min_weight(n) if quotient else 0))",
     "relevant = frozenset(r for r in roots if r > (extremal_min_weight(n) if quotient else -1))",
     ["tests/test_configuration.py"]),
    ("ladder-quotient-skip", "configuration.py",
     "elif quotient:", "elif False:",
     ["tests/test_configuration.py::test_analyze_root_boundaries"]),
    ("lambda-row-boundary", "configuration.py",
     "if s >= d and zonal_sum(n, s, d_min, profile, d) != 0:",
     "if s > d and zonal_sum(n, s, d_min, profile, d) != 0:",
     ["tests/test_configuration.py"]),
    ("odd-intersections", "configuration.py",
     "if any(a % 2 for a in profile):", "if False:",
     ["tests/test_configuration.py", "tests/test_cli.py"]),
    ("coset-bound", "configuration.py",
     "bound_ok = max(summed_profile(shell, reps), default=0) <= d_min // 2",
     "bound_ok = max(summed_profile(shell, reps), default=0) < d_min // 2",
     ["tests/test_configuration.py"]),
    # every degree above min(w, n - w) is killed, and degree min(w, n - w) is
    # not always: the e8 weight-4 words kill {1, 2, 3} but not 4
    ("vacuous-degree-boundary", "designs.py",
     "if d > min(w, n - w) or zonal_sum(n, w, w, inner, d) == 0}",
     "if d >= min(w, n - w) or zonal_sum(n, w, w, inner, d) == 0}",
     ["tests/test_designs.py::test_catalog_shell_kill_sets"]),
    # N_t holds through the strength, the last t whose degrees are all killed
    ("design-counts-strength-cut", "designs.py",
     "return {t: len(dset) * comb(w, t) // comb(n, t) if t <= strength else None",
     "return {t: len(dset) * comb(w, t) // comb(n, t) if t < strength else None",
     ["tests/test_designs.py::test_killed_degrees_match_tally"]),
    # the golay24 octads kill degree 5 but not 6, so t = 4 flips its verdict
    ("half-degree-shift", "cli.py",
     "deg = args.t + 2", "deg = args.t + 1",
     ["tests/test_cli.py::test_design_check_half_kill_sets"]),
    # plain runs tally from --t down to the first constant level, the
    # strength, and read every N_t through it from design_counts
    ("tally-top-skipped", "cli.py",
     "strength = next((t for t in range(args.t, 0, -1)",
     "strength = next((t for t in range(args.t - 1, 0, -1)",
     ["tests/test_cli.py::test_design_check_tallies_from_the_top"]),
    ("tally-strength-cut", "cli.py",
     "killed = range(1, strength + 1)", "killed = range(1, strength)",
     ["tests/test_cli.py::test_design_check_json"]),
    ("pair-bound-skip", "designs.py",
     "if size > PAIR_BOUND:", "if False:",
     ["tests/test_cli.py::test_design_check_pair_bound_precedes_tally_and_profiles"]),
    # a launch naming a subcommand parses with that subcommand's parser alone,
    # which must leave nothing over and carry the full parser's prog for it
    ("one-parser-leftovers", "cli.py",
     "return parser.parse_args(argv[1:], argparse.Namespace(command=name))",
     "return parser.parse_known_args(argv[1:], argparse.Namespace(command=name))[0]",
     ["tests/test_cli.py::test_one_parser_route_matches_full_parser"]),
    ("one-parser-prog", "cli.py",
     'parser = _SubcommandParser(prog=f"typeii {name}")',
     'parser = _SubcommandParser(prog="typeii")',
     ["tests/test_cli.py::test_one_parser_route_matches_full_parser"]),
    # its usage errors go to the full parser, which alone finds the top-level
    # ambiguity of `--=x` (it could match --help and --version)
    ("one-parser-error-printed", "cli.py",
     "raise argparse.ArgumentError(None, message)",
     "argparse.ArgumentParser.error(self, message)",
     ["tests/test_cli.py::test_one_parser_route_matches_full_parser"]),
    ("design-check-w-bound", "cli.py",
     "if not 0 <= args.w <= code.n:", "if False:",
     ["tests/test_cli.py::test_design_check_w_bound_precedes_tallies"]),
    ("matrix-file-bound", "gf2.py",
     "if len(data) > MAX_FILE_BYTES:", "if False:",
     ["tests/test_cli.py::test_matrix_file_size_bound"]),
    ("header-rank", "gf2.py",
     "if code.k != k:", "if False:",
     ["tests/test_gf2.py::test_generator_file_rank_below_header",
      "tests/test_cli.py::test_rank_deficient_matrix_file_is_usage_error"]),
    # only y itself meets y in all w coordinates, so with the words of dset
    # as references this drops the diagonal, one pair per reference
    ("inner-diagonal", "designs.py",
     "total[a] = total.get(a, 0) + mask.bit_count()",
     "total[a] = total.get(a, 0) + mask.bit_count() - (a == dset.w) * len(chunk)",
     ["tests/test_designs.py"]),
    # segments are padded to whole bytes, and the padding bits count 0
    ("padding-uncounted", "designs.py",
     "total[0] = total.get(0, 0) - len(chunk) * (width - size)  # padding bits",
     "total[0] = total.get(0, 0)",
     ["tests/test_designs.py::test_summed_profile_matches_pair_count"]),
    # the first reference of every chunk after the first is lost
    ("chunk-boundary-skip", "designs.py",
     "chunk = supports[lo:lo + per]",
     "chunk = supports[lo + (lo > 0):lo + per]",
     ["tests/test_designs.py::test_summed_profile_matches_pair_count"]),
)


def mutate(text: str, old: str, new: str) -> str | None:
    """text with the one line reading `old` (indentation aside) replaced by
    `new` at the same indentation; None unless exactly one line matches."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == old]
    if len(hits) != 1:
        return None
    line = lines[hits[0]]
    lines[hits[0]] = line[:len(line) - len(line.lstrip())] + new + "\n"
    return "".join(lines)


def run_tests(copy: Path, tests: list[str]) -> bool:
    """True when the tests pass on the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="typeii-mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=skip)
        tests = sorted({t for m in MUTANTS for t in m[4]})
        if not run_tests(copy, tests):
            print("the tests fail on the unchanged copy", file=sys.stderr)
            return 2
        survivors = []
        for name, path, old, new, tests in MUTANTS:
            target = copy / "src" / "typeii" / path
            original = target.read_text(encoding="utf-8")
            mutant = mutate(original, old, new)
            if mutant is None:
                print(f"{name}: no single line {old!r} in {path}", file=sys.stderr)
                return 2
            target.write_text(mutant, encoding="utf-8")
            try:
                killed = not run_tests(copy, tests)
            finally:
                target.write_text(original, encoding="utf-8")
            print(f"{name:<30} {'killed' if killed else 'SURVIVED'}", flush=True)
            if not killed:
                survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
