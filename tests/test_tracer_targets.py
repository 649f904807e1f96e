"""The benchmark's tracer (bench/tracer.py) wraps functions of `typeii` by
name and fails every traced run if one of them is missing, so each entry of
its TARGETS list must resolve.  The list is read from the file, not imported.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_targets() -> tuple[tuple[str, str, str], ...]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "TARGETS" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACER.name}")


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert targets
    for span, module_name, attr in targets:
        obj = importlib.import_module(f"typeii.{module_name}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"{span}: typeii.{module_name}.{attr} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"{span}: typeii.{module_name}.{attr} is not callable"
