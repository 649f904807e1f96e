"""Command-line front end.

Subcommands: verify, verify-code, determinant, enumerator, design-check,
zonal, paper.  Exit codes: 0 when every claim checked out, 1 when a check
was refuted or failed, 2 on usage errors (bad flags, malformed or unreadable
files).

JSON reports are key-sorted and contain no wall-clock data, so repeated runs
with the same inputs are byte-identical; `paper --timings` adds elapsed
seconds to the human-readable output of `paper`.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .catalog import CATALOG, resolve
from .configuration import (
    REFERENCE,
    SUPPORTED_LENGTHS,
    analyze,
    check_sweep,
    extended_determinant,
    minimal_sweep,
    verify_on_code,
)
from .designs import check_predesign_bound, design_counts, killed_degrees, predesign_count
from .exact import factor_numerator, format_poly
from .gf2 import MAX_LENGTH, EnumerationCapError
from .gleason import extremal_weight_enumerator
from .harmonic import zonal_eval


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, choices=SUPPORTED_LENGTHS)
    p.add_argument("--json", action="store_true")


def _verify_code_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--code", required=True,
                   help=f"catalog name ({', '.join(sorted(CATALOG))}) or matrix file")
    p.add_argument("--json", action="store_true")


def _determinant_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, choices=SUPPORTED_LENGTHS)
    p.add_argument("--format", choices=("factored", "json", "latex"),
                   default="factored")


def _enumerator_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")


def _design_check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--code", required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--half", action="store_true",
                   help="also check that the shell kills degree t+2")
    p.add_argument("--json", action="store_true")


def _zonal_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=None,
                   help="weight of the reference word; omit for a symbolic result")
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--d", type=int, required=True)


def _paper_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--deep", action="store_true",
                   help="include the qr48 check (2^24 codewords, under a second)")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typeii",
        description="exact configuration checks for extremal Type II binary codes",
    )
    parser.add_argument("--version", action="version", version=f"typeii {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


class _SubcommandParser(argparse.ArgumentParser):
    """One subcommand's parser that raises its usage errors, not prints them,
    so that the full parser reports each: it alone also checks the whole argv
    against the top-level options (`--=x` could match --help and --version)."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), building only the parser of the
    subcommand argv[0] names.  The full parser hands the rest of argv to an
    identical parser under the same prog, so when that parser alone accepts
    the rest, the result is the same.  Its usage errors, leftovers included,
    go to the full parser, which reports them."""
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        parser = _SubcommandParser(prog=f"typeii {name}")
        _COMMANDS[name][1](parser)
        try:
            return parser.parse_args(argv[1:], argparse.Namespace(command=name))
        except argparse.ArgumentError:
            pass
    return build_parser().parse_args(argv)


def _emit_json(payload: dict) -> None:
    import json  # loaded only by a command that emits JSON

    print(json.dumps(payload, sort_keys=True, indent=2))


SAMPLE_SEED = 0x5EED  # fixed report field; the samples are deterministic (sweep order)


def _report(command: str, inputs: dict, results) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "seed": SAMPLE_SEED,
        "version": __version__,
    }


def _cmd_verify(args) -> int:
    verdict = analyze(args.n)
    expected = REFERENCE[args.n].conclusion
    ok = verdict.conclusion == expected
    if args.json:
        payload = verdict.to_dict()
        payload["matches_expected"] = ok
        _emit_json(_report("verify", {"n": args.n}, payload))
    else:
        print(f"n = {args.n}  scenario = {verdict.scenario}")
        print(f"determinant = {verdict.factors} / "
              f"{verdict.determinant.den_factors()}")
        print(f"integer roots = {sorted(verdict.integer_roots)}  "
              f"relevant = {sorted(verdict.relevant_roots)}")
        print(f"conclusion = {verdict.conclusion}"
              + (f" (s = {verdict.counterexample_weight})"
                 if verdict.counterexample_weight else ""))
        print("expected conclusion reproduced" if ok
              else f"MISMATCH: expected {expected}")
    return 0 if ok else 1


def _cmd_verify_code(args) -> int:
    code = resolve(args.code)
    report = verify_on_code(code)
    if args.json:
        _emit_json(_report("verify-code", {"code": args.code}, report.to_dict()))
    else:
        print(f"[{report.n},{report.k},{report.min_weight}] extremal={report.extremal}")
        print(f"minimal shell size {report.shell_size} "
              f"(enumerator match: {report.matches_enumerator})")
        print(f"span of minimal shell: dim {report.span_dimension} -> "
              f"generated_by_minimal = {report.generated_by_minimal}")
        print(f"coset minimal weights: {list(report.coset_min_weights)}")
        print(f"lambda rows consistent: {report.lambda_rows_consistent}; "
              f"intersection bound: {report.intersection_bound_holds}")
    return 0 if report.all_checks_pass else 1


def _cmd_determinant(args) -> int:
    det = extended_determinant(args.n)
    factors = factor_numerator(det.num)
    if args.format == "json":
        _emit_json(_report("determinant", {"n": args.n}, {
            "numerator": det.num.to_json(),
            "denominator": det.den.to_json(),
            "content": str(factors.content),
            "linear_factors": [list(f) for f in factors.linear],
            "residual": factors.residual.to_json(),
            "factored": f"{factors} / {det.den_factors()}",
        }))
    elif args.format == "latex":
        print(f"\\frac{{{format_poly(det.num.primitive())}}}"
              f"{{{format_poly(det.den)}}}"
              f"\\cdot {factors.content}")
    else:
        print(f"content:  {factors.content}")
        print(f"linear:   {factors.linear_str(' * ') or '1'}")
        print(f"residual: {format_poly(factors.residual)}")
        print(f"denominator: {det.den_factors()}")
    return 0


def _cmd_enumerator(args) -> int:
    nonzero = {w: c for w, c in enumerate(extremal_weight_enumerator(args.n)) if c}
    if args.json:
        _emit_json(_report("enumerator", {"n": args.n},
                           {str(w): c for w, c in nonzero.items()}))
    else:
        for w, c in nonzero.items():
            print(f"A_{w} = {c}")
    return 0


def _cmd_design_check(args) -> int:
    if not 1 <= args.t <= args.w:
        raise ValueError(f"--t must lie in 1..w, got t = {args.t} with w = {args.w}")
    code = resolve(args.code)
    # --w bounds --t, and the tally is bounded before the sweep, --half or not
    if not 0 <= args.w <= code.n:
        raise ValueError(f"shell weight {args.w} outside 0..{code.n}")
    for t in range(1, args.t + 1):
        check_predesign_bound(code.n, t)
    shell = code.shell(args.w)
    if not shell:
        # every tally of an empty set is the constant 0, a vacuous design
        print(f"empty shell: {args.code} has no words of weight {args.w}",
              file=sys.stderr)
        return 1
    deg = args.t + 2
    if args.half:
        # exact (see designs): one certificate gives every N_t and the half
        # verdict, and it refuses a shell past PAIR_BOUND before any pair work
        killed = killed_degrees(shell, deg)
    else:
        # a constant N_t forces N_{t-1} = N_t (n-t+1)/(w-t+1) for t <= w, so
        # the tally runs down to the first constant level, the strength
        strength = next((t for t in range(args.t, 0, -1)
                         if predesign_count(shell, t) is not None), 0)
        killed = range(1, strength + 1)
    counts = design_counts(shell, killed, args.t)
    verdict = all(c is not None for c in counts.values())
    half_verdict = verdict and deg in killed if args.half else None
    payload = {
        "code": args.code,
        "w": args.w,
        "t": args.t,
        "shell_size": len(shell),
        "predesign_counts": {str(t): c for t, c in counts.items()},
        "is_t_design": verdict,
        "is_t_half_design": half_verdict,
    }
    if args.json:
        _emit_json(_report("design-check", {"code": args.code, "w": args.w,
                                            "t": args.t}, payload))
    else:
        print(f"shell C_{args.w}: {len(shell)} words")
        for t, c in counts.items():
            print(f"  N_{t} = {c if c is not None else 'not constant'}")
        print(f"is_{args.t}_design = {verdict}")
        if args.half:
            print(f"is_{args.t}_half_design = {half_verdict}")
    ok = verdict and (half_verdict is not False)
    return 0 if ok else 1


def _cmd_zonal(args) -> int:
    # the symbolic build grows quickly with n and d, and Harm_d of F_2^n is
    # zero above d = n/2 (Delsarte), so both are bounded before any work
    if not 1 <= args.n <= MAX_LENGTH:
        raise ValueError(f"--n must lie in 1..{MAX_LENGTH}, got {args.n}")
    if not 0 <= args.d <= args.n // 2:
        raise ValueError(f"--d must lie in 0..n/2 = {args.n // 2}, got {args.d}")
    print(zonal_eval(args.n, args.s, args.w, args.a, args.d))
    return 0


def _cmd_paper(args) -> int:
    checks: list[tuple[str, bool, str, float]] = []

    def record(name: str, ok: bool, detail: str, elapsed: float):
        checks.append((name, ok, detail, elapsed))

    for n in SUPPORTED_LENGTHS:
        t0 = time.perf_counter()
        verdict = analyze(n)
        ref = REFERENCE[n]
        divisible = ref.factor.divides(verdict.determinant.num)
        ok = divisible and verdict.conclusion == ref.conclusion
        exact = verdict.determinant == ref.published()
        detail = (f"{verdict.conclusion}, roots {sorted(verdict.relevant_roots)}, "
                  f"reference factor divides: {divisible}, exact constants: {exact}")
        record(f"determinant n={n}", ok, detail, time.perf_counter() - t0)

    catalog_names = ["e8", "e8e8", "d16plus", "golay24", "rm32"]
    if args.deep:
        catalog_names.append("qr48")
    shells = {}
    for name in catalog_names:
        t0 = time.perf_counter()
        code = resolve(name)
        dist, shells[name], samples = minimal_sweep(code)
        report = check_sweep(code, dist, shells[name], samples)
        expect_generated = name != "d16plus"
        ok = (report.all_checks_pass
              and report.generated_by_minimal == expect_generated)
        if name == "d16plus":
            ok = ok and report.coset_min_weights == (0, 8)
        detail = (f"gen={report.generated_by_minimal}, "
                  f"cosets={list(report.coset_min_weights)}")
        record(f"catalog {name}", ok, detail, time.perf_counter() - t0)

    t0 = time.perf_counter()
    octads = shells["golay24"]  # d(24) = 8: the minimal shell is the octads
    # exact (see designs): a t-design kills every degree 1..t, and one
    # inner distribution decides every degree through 7
    killed = killed_degrees(octads, 7)
    counts = design_counts(octads, killed, 6)
    fails_at_6 = counts.pop(6) is None
    ok = counts == {1: 253, 2: 77, 3: 21, 4: 5, 5: 1} and fails_at_6
    record("golay octads 5-design", ok, f"N = {counts}, fails at 6: {fails_at_6}",
           time.perf_counter() - t0)

    t0 = time.perf_counter()
    degrees_ok = {1, 2, 3, 4, 5, 7} <= killed
    degree6_breaks = 6 not in killed
    record("golay octads 5.5-design residuals", degrees_ok and degree6_breaks,
           f"degrees 1-5,7 vanish: {degrees_ok}; degree 6 nonzero: {degree6_breaks}",
           time.perf_counter() - t0)

    all_ok = all(ok for _, ok, _, _ in checks)
    if args.json:
        _emit_json(_report("paper", {"deep": args.deep}, [
            {"check": name, "pass": ok, "detail": detail}
            for name, ok, detail, _ in checks
        ]))
    else:
        width = max(len(name) for name, _, _, _ in checks)
        for name, ok, detail, elapsed in checks:
            stamp = f"  [{elapsed:6.2f}s]" if args.timings else ""
            print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}{stamp}  {detail}")
        print(f"\n{'all checks passed' if all_ok else 'SOME CHECKS FAILED'}")
    return 0 if all_ok else 1


# subcommand name -> (help line, function adding its arguments, handler), in help order
_COMMANDS = {
    "verify": ("determinant analysis and verdict for a length", _verify_args, _cmd_verify),
    "verify-code": ("end-to-end checks on a constructed code", _verify_code_args,
                    _cmd_verify_code),
    "determinant": ("extended determinant for a length", _determinant_args, _cmd_determinant),
    "enumerator": ("extremal weight enumerator coefficients", _enumerator_args,
                   _cmd_enumerator),
    "design-check": ("t-design certification of a code shell", _design_check_args,
                     _cmd_design_check),
    "zonal": ("evaluate a zonal harmonic polynomial", _zonal_args, _cmd_zonal),
    "paper": ("run every length analysis and catalog check", _paper_args, _cmd_paper),
}


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return _COMMANDS[args.command][2](args)
    except (OSError, EnumerationCapError, ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
