"""The runtime depends on the standard library alone.  numpy, sympy and
hypothesis may be installed next to it, so an accidental import would go
unnoticed in-process; a fresh isolated interpreter shows every module that
importing and running `typeii` pulls in.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# -I ignores PYTHONPATH, so the script puts src on sys.path itself; modules
# loaded at interpreter start (site hooks) are recorded first and not counted
SCRIPT = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import importlib, json, pkgutil
import typeii
for info in pkgutil.iter_modules(typeii.__path__):
    importlib.import_module(f"typeii.{info.name}")
from typeii import cli
code = cli.main(["verify", "--n", "8"])
foreign = sorted(
    name for name in set(sys.modules) - before
    if name.split(".")[0] not in sys.stdlib_module_names | {"typeii"}
)
print(json.dumps({"code": code, "foreign": foreign}))
"""


def test_runtime_imports_only_the_standard_library():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SCRIPT, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"code": 0, "foreign": []}
