"""The runtime depends on the standard library alone.  numpy, sympy and
hypothesis may be installed next to it, so an accidental import would go
unnoticed in-process; a fresh isolated interpreter shows every module that
importing and running `typeii` pulls in.

The same interpreter, started with -S as well so that no site hook preloads
anything, also shows the import cost a CLI launch pays: `typeii.cli` must load
no `dataclasses` (which brings `inspect`, `ast`, `dis` and `tokenize`) and no
`typing`, and its text command `verify --n 8` must load no `json`, which
only a command that emits JSON imports.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# -I ignores PYTHONPATH, so the script puts src on sys.path itself; modules
# loaded at interpreter start (site hooks) are recorded first and not counted.
# "cli" lists what importing and running the CLI adds, before the script
# imports anything of its own
SCRIPT = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
from typeii import cli
code = cli.main(["verify", "--n", "8"])
added = set(sys.modules) - before
import importlib, json, pkgutil
import typeii
for info in pkgutil.iter_modules(typeii.__path__):
    importlib.import_module(f"typeii.{info.name}")
foreign = sorted(
    name for name in set(sys.modules) - before
    if name.split(".")[0] not in sys.stdlib_module_names | {"typeii"}
)
print(json.dumps({"code": code, "foreign": foreign, "cli": sorted(added)}))
"""

SLOW_TO_IMPORT = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
                  "json"}


def _run(*flags: str) -> dict:
    proc = subprocess.run(
        [sys.executable, *flags, "-c", SCRIPT, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_runtime_imports_only_the_standard_library():
    result = _run("-I")
    assert (result["code"], result["foreign"]) == (0, [])


def test_cli_import_skips_slow_stdlib_modules():
    result = _run("-I", "-S")
    assert result["code"] == 0
    assert sorted(SLOW_TO_IMPORT.intersection(result["cli"])) == []
