import argparse
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import CASES, GOLDEN
from typeii import cli
from typeii.catalog import resolve
from typeii.cli import build_parser, main
from typeii.designs import PAIR_BOUND, predesign_count
from typeii.gf2 import MAX_FILE_BYTES, Code

from test_gf2 import format_generator_text, format_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_python_m_typeii_runs_the_cli():
    """`python -m typeii` is the command line of `python -m typeii.cli`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def launch(module, *argv):
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    package = launch("typeii", "verify", "--n", "8", "--json")
    module = launch("typeii.cli", "verify", "--n", "8", "--json")
    assert package.returncode == module.returncode == 0
    assert package.stdout == module.stdout and package.stdout
    unknown = launch("typeii", "--no-such-option", "verify", "--n", "8")
    assert unknown.returncode == 2
    assert "unrecognized arguments: --no-such-option" in unknown.stderr


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--n", "72")
    assert code == 0
    assert "generated_by_minimal" in out
    code, out, _ = run(capsys, "verify", "--n", "16")
    assert code == 0  # the counterexample at s=8 is the expected conclusion
    assert "counterexample_at" in out and "s = 8" in out


def test_verify_json_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--n", "48", "--json")
    code2, out2, _ = run(capsys, "verify", "--n", "48", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["results"]["conclusion"] == "generated_by_minimal"
    assert payload["results"]["matches_expected"] is True
    assert json.dumps(payload, sort_keys=True) == json.dumps(payload)


def test_determinant_factored_contains_reference_factor(capsys):
    code, out, _ = run(capsys, "determinant", "--n", "56", "--format", "factored")
    assert code == 0
    assert "(s-16)" in out
    assert "3*s^3 - 112*s^2 + 1368*s - 5120" in out


def test_determinant_json(capsys):
    code, out, _ = run(capsys, "determinant", "--n", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["linear_factors"] == []
    assert payload["results"]["residual"] == ["-10", "3"]


def test_enumerator_output(capsys):
    code, out, _ = run(capsys, "enumerator", "--n", "24")
    assert code == 0
    assert "A_8 = 759" in out and "A_12 = 2576" in out
    code, out, _ = run(capsys, "enumerator", "--n", "25")
    assert code == 2


def test_zonal_numeric_and_symbolic(capsys):
    code, out, _ = run(capsys, "zonal", "--n", "8", "--s", "4", "--w", "4",
                       "--a", "3", "--d", "1")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "zonal", "--n", "8", "--w", "4", "--a", "2",
                       "--d", "1")
    assert code == 0 and "s" in out
    code, _, err = run(capsys, "zonal", "--n", "8", "--s", "2", "--w", "4",
                       "--a", "1", "--d", "5")
    assert code == 2 and "error" in err
    # no weight-5 word meets a weight-6 word of length 8 in 0 positions
    code, out, err = run(capsys, "zonal", "--n", "8", "--s", "6", "--w", "5",
                         "--a", "0", "--d", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    # s < d past the --d bound: zonal_eval's ZeroDivisionError is a usage error
    assert run(capsys, "zonal", "--n", "8", "--s", "2", "--w", "4", "--a", "0",
               "--d", "3") == (2, "", "error: zonal coefficient divides by s-l for "
                               "l < 3; s = 2 is too small\n")
    # an infeasible a is reported before s < d
    assert run(capsys, "zonal", "--n", "8", "--s", "2", "--w", "4", "--a", "3",
               "--d", "3") == (2, "", "error: no weight-4 word meets a weight-2 "
                               "word in 3 of n = 8 positions\n")


def test_verify_code_catalog_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "verify-code", "--code", "d16plus")
    assert code == 0
    assert "generated_by_minimal = False" in out
    assert "[0, 8]" in out
    path = tmp_path / "e8.txt"
    path.write_text(format_generator_text(resolve("e8")), encoding="ascii")
    code, out, _ = run(capsys, "verify-code", "--code", str(path))
    assert code == 0
    assert "generated_by_minimal = True" in out


def test_verify_code_missing_file(capsys):
    code, _, err = run(capsys, "verify-code", "--code", "nosuch.txt")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv", [("verify-code",),
                                  ("design-check", "--w", "4", "--t", "1")])
def test_directory_as_code_is_usage_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, "--code", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [("verify-code",),
                                  ("design-check", "--w", "8", "--t", "1")])
def test_enumeration_cap_is_usage_error(capsys, tmp_path, argv):
    # 27 independent rows of length 48: 2^27 codewords, one past ENUM_CAP
    path = tmp_path / "k27.txt"
    rows = ["".join("1" if j == i else "0" for j in range(48)) for i in range(27)]
    path.write_text("\n".join(["48 27", *rows]) + "\n", encoding="ascii")
    code, out, err = run(capsys, *argv, "--code", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert "exceed the enumeration cap 2^26" in err


def test_design_check_t_bound_precedes_sweep(capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("Code.sweep called before the --t bound")

    monkeypatch.setattr(Code, "sweep", no_sweep)
    code, out, err = run(capsys, "design-check", "--code", "qr48",
                         "--w", "12", "--t", "7")
    assert code == 2 and out == ""
    assert err == "error: C(48,6) = 12271512 exceeds the enumeration bound\n"


def test_design_check_half_runs_past_the_tally_bound(capsys, monkeypatch):
    # C(32,8) refuses the tally of a plain run, but --half enumerates no
    # t-subset: PAIR_BOUND and the degrees <= min(w, n - w) bound its work
    def no_sweep(*args, **kwargs):
        raise AssertionError("Code.sweep called before the --t bound")

    argv = ["design-check", "--code", "rm32", "--w", "8", "--t", "8"]
    monkeypatch.setattr(Code, "sweep", no_sweep)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: C(32,8) = 10518300 exceeds the enumeration bound\n"
    monkeypatch.undo()
    code, out, err = run(capsys, *argv, "--half")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[1:4] == ["  N_1 = 155", "  N_2 = 35", "  N_3 = 7"]
    assert lines[4:9] == [f"  N_{t} = not constant" for t in range(4, 9)]
    assert lines[9] == "is_8_design = False"


@pytest.mark.parametrize("w", [9, 10**9])
def test_design_check_w_bound_precedes_tallies(capsys, monkeypatch, w):
    # --t <= --w leaves --w unbounded, and the tally bounds are checked for
    # every t up to --t: --w must lie in 0..n before that loop starts
    def bound(n, t):
        if t > n:
            raise AssertionError(f"tally bound checked at t = {t} > n = {n}")

    monkeypatch.setattr("typeii.cli.check_predesign_bound", bound)
    code, out, err = run(capsys, "design-check", "--code", "e8",
                         "--w", str(w), "--t", str(w))
    assert code == 2 and out == ""
    assert err == f"error: shell weight {w} outside 0..8\n"


def test_verify_code_zero_dimensional(capsys, tmp_path):
    # a valid file: 0 <= k <= n; the zero code has no minimal weight
    path = tmp_path / "k0.txt"
    path.write_text("8 0\n", encoding="ascii")
    code, out, _ = run(capsys, "verify-code", "--code", str(path), "--json")
    assert code == 1
    res = json.loads(out)["results"]
    assert (res["k"], res["min_weight"], res["shell_size"]) == (0, 0, 0)
    assert res["extremal"] is False and res["all_checks_pass"] is False


def test_verify_code_full_space_fails(capsys, tmp_path):
    # all of F_2^8: its weight-1 words meet the weight-4 shell in 1 position
    path = tmp_path / "full8.txt"
    rows = [format_word(8, 1 << j) for j in range(8)]
    path.write_text("\n".join(["8 8", *rows]) + "\n", encoding="ascii")
    code, out, _ = run(capsys, "verify-code", "--code", str(path), "--json")
    assert code == 1
    assert json.loads(out)["results"]["lambda_rows_consistent"] is False


@pytest.mark.parametrize("flags", [(), ("--half", "--json")])
def test_design_check_empty_shell_fails(capsys, tmp_path, flags):
    # the zero code has no word of weight 4: a vacuous design is refused
    path = tmp_path / "k0.txt"
    path.write_text("8 0\n", encoding="ascii")
    code, out, err = run(capsys, "design-check", "--code", str(path), "--w", "4",
                         "--t", "1", *flags)
    assert code == 1 and out == ""
    assert "empty shell" in err


def test_malformed_matrix_file_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("8 4\n11110000\n00001111\n0101\n10101010\n", encoding="ascii")
    code, _, err = run(capsys, "verify-code", "--code", str(path))
    assert code == 2
    assert "line 4" in err


def test_rank_deficient_matrix_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "rank3.txt"
    path.write_text("8 4\n11111111\n11111111\n01010101\n00110011\n", encoding="ascii")
    code, out, err = run(capsys, "verify-code", "--code", str(path))
    assert code == 2 and out == ""
    assert "line 1" in err and "rank 3" in err and "k = 4" in err


@pytest.mark.parametrize("extra, exit_code", [(0, 0), (1, 2)])
def test_matrix_file_size_bound(capsys, tmp_path, extra, exit_code):
    # a comment line fills the file to MAX_FILE_BYTES (+ extra) bytes ahead of
    # a valid e8 matrix; one byte past the bound is refused
    assert MAX_FILE_BYTES == 1 << 20
    body = format_generator_text(resolve("e8"))
    path = tmp_path / "long.txt"
    path.write_text("#" * (MAX_FILE_BYTES + extra - len(body) - 1) + "\n" + body,
                    encoding="ascii")
    assert path.stat().st_size == MAX_FILE_BYTES + extra
    code, _, err = run(capsys, "verify-code", "--code", str(path))
    assert code == exit_code
    assert ("exceeds" in err) == (exit_code == 2)


def test_design_check_json(capsys):
    code, out, _ = run(capsys, "design-check", "--code", "golay24", "--w", "8",
                       "--t", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    res = payload["results"]
    assert res["predesign_counts"] == {"1": 253, "2": 77, "3": 21, "4": 5, "5": 1}
    assert res["is_t_design"] is True


@pytest.mark.parametrize("name, w, t, exit_code", [
    ("golay24", 8, 4, 1),  # the octads kill {1-5, 7}: degree 6 is not killed
    ("e8e8", 4, 1, 0),     # kills {1, 3}
    ("rm32", 8, 3, 0),     # kills {1, 2, 3, 5}
])
def test_design_check_half_kill_sets(capsys, name, w, t, exit_code):
    code, out, _ = run(capsys, "design-check", "--code", name, "--w", str(w),
                       "--t", str(t), "--half")
    assert code == exit_code
    *_, design_line, half_line = out.splitlines()
    assert design_line == f"is_{t}_design = True"
    assert half_line.endswith(str(exit_code == 0))


def test_design_check_pair_bound_precedes_tally_and_profiles(capsys, monkeypatch):
    # the qr48 weight-16 shell has 535,095 words: its tally is cheap, its
    # pair work is not
    def refuse(*args):
        raise AssertionError("design work before the pair bound")

    monkeypatch.setattr("typeii.cli.predesign_count", refuse)
    monkeypatch.setattr("typeii.designs.intersection_profile", refuse)
    monkeypatch.setattr("typeii.designs.summed_profile", refuse)
    argv = ["design-check", "--code", "qr48", "--w", "16", "--t", "2"]
    code, out, err = run(capsys, *argv, "--half")
    assert code == 2 and out == ""
    assert err == f"error: 535095 words exceed PAIR_BOUND = {PAIR_BOUND}\n"
    monkeypatch.undo()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "is_2_design = True" in out


def test_design_check_half_runs_no_tally(capsys, monkeypatch):
    # with --half the certificate alone gives every N_t and both verdicts
    def refuse(*args):
        raise AssertionError("tally beside the certificate")

    monkeypatch.setattr("typeii.cli.predesign_count", refuse)
    name = "design-check-golay24-half.json"
    assert run(capsys, *CASES[name]) == (
        0, (GOLDEN / name).read_text(encoding="utf-8"), "")


@pytest.mark.parametrize("name, w, t, levels", [
    ("golay24", 8, 5, [5]),        # the octads are a 5-design
    ("d16plus", 4, 3, [3, 2, 1]),  # a 1-design
    ("rm32", 12, 5, [5, 4, 3]),    # a 3-design
])
def test_design_check_tallies_from_the_top(capsys, monkeypatch, name, w, t, levels):
    # a constant N_t settles every lower level, so the tally stops at the
    # first constant level counting down from t
    tallied = []

    def recorder(shell, level):
        tallied.append(level)
        return predesign_count(shell, level)

    monkeypatch.setattr("typeii.cli.predesign_count", recorder)
    run(capsys, "design-check", "--code", name, "--w", str(w), "--t", str(t))
    assert tallied == levels


def test_design_check_failing_t(capsys):
    code, out, _ = run(capsys, "design-check", "--code", "golay24", "--w", "8",
                       "--t", "6")
    assert code == 1
    assert "not constant" in out


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "40"])
    assert exc.value.code == 2


def test_paper_driver(capsys):
    code, out, _ = run(capsys, "paper")
    assert code == 0
    assert "all checks passed" in out
    assert out.count("PASS") == 15
    assert "FAIL" not in out


def test_paper_timings_stamp_each_check(capsys):
    code, out, _ = run(capsys, "paper", "--timings")
    assert code == 0
    stamp = re.compile(r"  \[ *\d+\.\d\ds\]")
    lines = out.splitlines()
    assert lines[-2:] == ["", "all checks passed"]
    assert len(lines) == 17
    assert all(len(stamp.findall(line)) == 1 for line in lines[:-2])
    _, plain, _ = run(capsys, "paper")
    assert stamp.sub("", out) == plain


@pytest.mark.parametrize("flags, calls", [((), 5), (("--deep",), 6)])
def test_paper_resolves_each_code_once(capsys, monkeypatch, flags, calls):
    names = []

    def counting_resolve(name):
        names.append(name)
        return resolve(name)

    monkeypatch.setattr("typeii.cli.resolve", counting_resolve)
    code, _, _ = run(capsys, "paper", "--json", *flags)
    assert code == 0
    assert len(names) == calls and len(set(names)) == calls


def test_paper_sweeps_golay24_once(capsys, monkeypatch):
    golay = resolve("golay24")
    sweep = Code.sweep
    swept = []

    def counting_sweep(self, *args, **kwargs):
        if self == golay:
            swept.append(args)
        return sweep(self, *args, **kwargs)

    monkeypatch.setattr(Code, "sweep", counting_sweep)
    code, _, _ = run(capsys, "paper", "--json")
    assert code == 0
    assert len(swept) == 1


@pytest.mark.parametrize("value", ["abc", "0", "-1", "2"])
def test_threads_flag_rejected(capsys, value):
    # --threads is gone: every value is an unknown-argument usage error
    with pytest.raises(SystemExit) as exc:
        main(["paper", "--threads", value])
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --threads" in capsys.readouterr().err


ZONAL = ["zonal", "--n", "8", "--w", "4", "--a", "2", "--d", "1"]
EDGE_ARGVS = [
    [], ["-h"], ["--help"], ["--version"], ["bogus"], ["pap"], ["--json", "paper"],
    *([name, "-h"] for name in cli._COMMANDS),
    ["verify"], ["verify", "--n"], ["verify", "--n", "40"], ["verify", "--n", "x"],
    ["verify", "--n=8"], ["verify", "--j", "--n", "8"], ["verify", "--n", "8", "--n", "16"],
    ["verify", "--n", "7", "--bogus"], ["verify", "--n", "8", "extra"],
    ["verify", "-h", "--n", "x"], ["verify", "--n", "x", "-h"], ["verify", "-h", "--bogus"],
    ["paper", "--js"], ["paper", "--", "--json"], ["paper", "--threads", "2"],
    ["paper", "--version"], ["paper", "--json", "--=x"],
    [*ZONAL, "--s", "-1"], [*ZONAL, "--s=-1"],
]


@pytest.mark.parametrize("argv", [*CASES.values(), *EDGE_ARGVS], ids=repr)
def test_one_parser_route_matches_full_parser(capsys, monkeypatch, argv):
    """main against an oracle that always parses with build_parser(): the same
    exit code or SystemExit code, stdout and stderr.  The commands are stubbed
    by one that prints the namespace, which is all a command reads; the
    goldens pin what the commands print for it."""
    monkeypatch.setattr(cli, "_COMMANDS", {
        name: (help_text, add_arguments, lambda args: print(sorted(vars(args).items())) or 0)
        for name, (help_text, add_arguments, _) in cli._COMMANDS.items()})

    def outcome():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        return (code, *capsys.readouterr())

    got = outcome()
    monkeypatch.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))
    assert got == outcome()


def test_one_parser_per_launch(capsys, monkeypatch):
    # a launch naming a subcommand builds only that subcommand's parser;
    # top-level options still build the full one
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["paper", "--json"]) == 0
    assert built == ["typeii paper"]
    built.clear()
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert built == ["typeii", *(f"typeii {name}" for name in cli._COMMANDS)]


@pytest.mark.parametrize("t", [0, 5, 40])
def test_design_check_t_bound(capsys, t):
    code, out, err = run(capsys, "design-check", "--code", "e8", "--w", "4",
                         "--t", str(t))
    assert code == 2 and out == ""
    assert f"t = {t}" in err and "w = 4" in err


@pytest.mark.parametrize("n", [136, 8000])
def test_enumerator_length_bound(capsys, n):
    code, out, err = run(capsys, "enumerator", "--n", str(n))
    assert code == 2 and out == ""
    assert "128" in err
    code, out, _ = run(capsys, "enumerator", "--n", "128")
    assert code == 0 and "A_24 = " in out


@pytest.mark.parametrize("argv", [
    ("--n", "0", "--w", "0", "--a", "0", "--d", "0"),
    ("--n", "136", "--s", "8", "--w", "4", "--a", "2", "--d", "1"),
    ("--n", "20000", "--w", "10000", "--a", "5000", "--d", "100"),
])
def test_zonal_length_bound(capsys, argv):
    code, out, err = run(capsys, "zonal", *argv)
    assert code == 2 and out == ""
    assert "error: --n must lie in 1..128" in err


@pytest.mark.parametrize("argv", [
    ("--n", "16", "--s", "8", "--w", "4", "--a", "2", "--d", "9"),
    ("--n", "128", "--w", "64", "--a", "32", "--d", "65"),
    ("--n", "8", "--w", "4", "--a", "2", "--d", "-1"),
])
def test_zonal_degree_bound(capsys, argv):
    code, out, err = run(capsys, "zonal", *argv)
    assert code == 2 and out == ""
    assert "error: --d must lie in 0..n/2" in err
    code, out, _ = run(capsys, "zonal", "--n", "16", "--s", "8", "--w", "4",
                       "--a", "2", "--d", "8")
    assert code == 0 and out.strip()


def _fuzz_matrix_text(rng) -> str:
    """A generator-matrix file with n <= 48 and k <= 14: random rows or a
    catalog code under a random coordinate permutation, then valid or broken
    in its header, its characters or its row count.  Lengths 12 and 40 are
    valid for the parser but unsupported by verify-code."""
    if rng.random() < 0.3:
        code = resolve(rng.choice(("e8", "e8e8", "d16plus", "golay24")))
        n, k = code.n, code.k
        perm = rng.sample(range(n), n)
        rows = ["".join(format_word(n, r)[j] for j in perm) for r in code.rref_rows]
    else:
        n = rng.choice((8, 12, 16, 24, 32, 40, 48))
        k = rng.randint(0, min(n, 14))
        rows = ["".join(rng.choice("01") for _ in range(n)) for _ in range(k)]
    header = f"{n} {k}"
    fault = rng.choice(("none", "none", "header", "chars", "extra"))
    if fault == "header":
        header = rng.choice((f"{n}", f"{n} {k} 0", f"{n} k", f"0 {k}", f"{n} {n + 1}"))
    elif fault == "chars":
        row = list(rows.pop() if rows else "0" * n)
        row[rng.randrange(n)] = rng.choice("2x.-")
        rows.append("".join(row))
    elif fault == "extra":
        rows.append("1" * n)
    return "\n".join([header, *rows]) + "\n"


def test_exit_code_fuzz(capsys, tmp_path):
    """README exit-code contract on random matrix files: 0, 1 or 2, no
    exception out of main, and an 'error:' line on stderr exactly for 2."""
    rng = random.Random(0x7E11)
    path = tmp_path / "fuzz.txt"
    codes = set()
    for _ in range(40):
        path.write_text(_fuzz_matrix_text(rng), encoding="ascii")
        if rng.random() < 0.5:
            argv = ["verify-code", "--code", str(path), "--json"]
        else:
            argv = ["design-check", "--code", str(path),
                    "--w", str(rng.choice((4, 8, rng.randint(0, 12)))),
                    "--t", str(rng.randint(0, 3))]
            if rng.random() < 0.5:
                argv.append("--half")
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        has_error = any(line.startswith("error:") for line in err.splitlines())
        assert has_error == (code == 2), (argv, code, err)
        codes.add(code)
    assert codes == {0, 1, 2}
