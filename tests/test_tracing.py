"""The benchmark's tracer wraps treecut functions by module and attribute
name; a rename in ``src/treecut`` would make ``--trace 1`` fail in
``Tracer.install``.  This loads the tracer by path and resolves every name
it wraps."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    assert tracing.TRACED
    for module_name, attr, span, _count in tracing.TRACED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), (module_name, attr, span)
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr, span)
