"""The benchmark tracer wraps library functions and methods by name
(perfbench/tracing.py, `Tracer.install`): each name must still be an entry
of its owner's own namespace, or a traced run stops with a KeyError."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_names():
    """SPANNED and COUNTED, read from the source without importing it."""
    names = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                names[target.id] = ast.literal_eval(node.value)
    assert set(names) == {"SPANNED", "COUNTED"}
    return names["SPANNED"] + names["COUNTED"]


@pytest.mark.parametrize("module,path", _traced_names())
def test_traced_name_is_in_its_owners_namespace(module, path):
    owner = importlib.import_module(f"azumaya.{module}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert attr in owner.__dict__
