"""Byte-exact golden outputs of the command line.

Each case runs `typeii` in-process and compares its stdout with the file of
the same name under tests/golden/.  Refactors must leave every file as it is;
to record the files for new cases, run `python tests/test_golden.py`.
"""

from pathlib import Path

import pytest

from typeii.cli import main
from typeii.configuration import SUPPORTED_LENGTHS

GOLDEN = Path(__file__).parent / "golden"

CASES: dict[str, list[str]] = {}
for _n in SUPPORTED_LENGTHS:
    CASES[f"verify-{_n}.json"] = ["verify", "--n", str(_n), "--json"]
    CASES[f"verify-{_n}.txt"] = ["verify", "--n", str(_n)]
    for _fmt in ("json", "factored", "latex"):
        CASES[f"determinant-{_n}-{_fmt}.txt"] = [
            "determinant", "--n", str(_n), "--format", _fmt]
for _name in ("e8", "e8e8", "d16plus", "golay24", "rm32"):
    CASES[f"verify-code-{_name}.json"] = ["verify-code", "--code", _name, "--json"]
CASES["design-check-golay24-half.json"] = [
    "design-check", "--code", "golay24", "--w", "8", "--t", "5", "--half", "--json"]
# plain runs: N_t from the tally alone
for _name, _w, _t in (("golay24", 8, 5), ("rm32", 8, 3), ("qr48", 12, 4)):
    CASES[f"design-check-{_name}.json"] = [
        "design-check", "--code", _name, "--w", str(_w), "--t", str(_t), "--json"]
for _n in range(8, 129, 8):
    CASES[f"enumerator-{_n}.json"] = ["enumerator", "--n", str(_n), "--json"]
CASES["verify-code-qr48.json"] = ["verify-code", "--code", "qr48", "--json"]
CASES["paper.json"] = ["paper", "--json"]
CASES["paper-deep.json"] = ["paper", "--deep", "--json"]
CASES["zonal-numeric.txt"] = ["zonal", "--n", "24", "--s", "12", "--w", "8",
                              "--a", "3", "--d", "5"]
CASES["zonal-symbolic.txt"] = ["zonal", "--n", "24", "--w", "8", "--a", "2",
                               "--d", "3"]
# the widest numerator slot the CLI bounds allow: n = 128, d = n/2
CASES["zonal-numeric-128.txt"] = ["zonal", "--n", "128", "--s", "64", "--w", "64",
                                  "--a", "32", "--d", "64"]
CASES["zonal-symbolic-128.txt"] = ["zonal", "--n", "128", "--w", "64", "--a", "32",
                                   "--d", "64"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(capsys, name):
    code = main(list(CASES[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if main(list(argv)) != 0:
                raise SystemExit(f"{name}: nonzero exit")
        (GOLDEN / name).write_text(buf.getvalue(), encoding="utf-8")
