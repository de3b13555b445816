"""The benchmark's tracer wraps treecut functions by module and attribute
name, and its worker calls treecut functions by name; a rename in
``src/treecut`` would make ``--trace 1`` fail in ``Tracer.install``, or
every benchmark run fail in its set-up.  This loads the tracer by path and
resolves every name it wraps, and every name the worker reaches."""

import ast
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
WORKER = TRACING.parent / "worker.py"


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


def test_every_name_the_worker_reaches_resolves():
    # the worker names the package ``treecut`` in its set-up (which calls
    # ``_fastlane.warm_up``) and ``tc`` in its ops
    import treecut
    import treecut._fastlane  # noqa: F401
    import treecut.cli  # noqa: F401

    names = set()
    for node in ast.walk(ast.parse(WORKER.read_text())):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in ("tc", "treecut"):
            names.add(".".join(reversed(parts)))
    assert {"_fastlane.warm_up", "_fastlane.available"} <= names
    for name in names:
        owner = treecut
        for part in name.split("."):
            assert hasattr(owner, part), name
            owner = getattr(owner, part)


def test_lane_counts_read_the_sweep_arguments():
    # ``_lane_count`` reads the tree, thresholds and budgets of
    # ``root_row``/``decide_many`` by position; its counts are the cells
    # behind ``solver.cells`` and the engaged ratio.  On a forest's layout
    # the calls still pass kappa, although the sweeps keep rows only up
    # to ``tree.part_cap`` below the virtual root
    import random
    from fractions import Fraction

    from conftest import past_bound, path_tree, random_tree
    from treecut import Forest, ProblemSpec, _fastlane, decide
    from treecut.solver import decide_batch
    from treecut.tree import part_cap

    tracing = _load_tracing()
    tree = random_tree(random.Random(8), 20)
    spec = ProblemSpec(1, 2, 1)
    # three trees of more than one vertex need a part each: at most 2 of
    # the 4 parts in any tree
    layout = Forest(tuple(path_tree([f"{i}{v}" for v in "abcdef"]) for i in range(3))).layout
    forest_spec = ProblemSpec(1, 4, 1)
    assert part_cap([6, 6, 6], 4, 1) == 2

    def traced_counts(tree, spec):
        tracer = tracing.Tracer(tracing.LANE_ONLY)
        tracer.install()
        try:
            decide(tree, spec)
            decide_batch(tree, spec, [Fraction(1, 2), 1, 2])
        finally:
            tracer.uninstall()
        return [(name, count) for name, _s, _e, _p, _op, count in tracer.spans]

    # past the int64 bound the same calls sweep on Python ints and count
    # alike
    scaled = past_bound(tree, False)
    assert not _fastlane.fits(scaled, [Fraction(1)], 2, 1)
    for instance, budgets, cells in ((tree, spec, 20 * 3 * 2),
                                     (layout, forest_spec, 18 * 5 * 2),
                                     (scaled, spec, 20 * 3 * 2)):
        assert traced_counts(instance, budgets) == [("fastlane.root_row", cells),
                                                    ("fastlane.decide_many", 3 * cells)]
