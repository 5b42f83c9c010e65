"""Public names: every ``__all__`` entry resolves, the package re-exports
only names its modules declare public, and every name the benchmark harness
(``perfbench/``) reaches exists."""

import ast
import functools
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import xlunet

MODULES = sorted(f"xlunet.{m.name}" for m in pkgutil.iter_modules(xlunet.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_package_reexports_only_public_names():
    public = set()
    for name in MODULES:
        public.update(importlib.import_module(name).__all__)
    reexported = [
        attr
        for attr, value in vars(xlunet).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert reexported
    stray = [attr for attr in reexported if attr not in public]
    assert not stray, f"xlunet re-exports names no module declares public: {stray}"


ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _chain(node):
    """``["xlunet", "train", "x"]`` for the attribute chain ``xlunet.train.x``;
    None when the chain does not start at a bare name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


def _package_chains(tree):
    """Every attribute chain rooted at ``xlunet`` or at a name assigned one
    (``train = xlunet.train``), spelled from ``xlunet``."""
    roots = {"xlunet": ["xlunet"]}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and [type(t) for t in node.targets] == [ast.Name]:
            chain = _chain(node.value)
            if chain and chain[0] == "xlunet":
                roots[node.targets[0].id] = chain
    chains = set()
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in roots:
            chains.add(tuple(roots[chain[0]] + chain[1:]))
    return chains


def _literal(tree, name):
    """The value of the module-level constant ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no module-level {name}")


def test_every_name_the_benchmark_reaches_resolves():
    # the harness is read, not imported: it drives the package from outside,
    # so a removed or renamed name would only show when the benchmark runs
    chains = _package_chains(ast.parse((PERFBENCH / "workloads.py").read_text()))
    assert ("xlunet", "train", "sample_patch") in chains  # through `train = xlunet.train`
    assert ("xlunet", "train", "adamw_step") in chains
    missing = []
    for chain in sorted(chains):
        try:
            functools.reduce(getattr, chain[1:], xlunet)
        except AttributeError:
            missing.append(".".join(chain))
    assert not missing, f"perfbench/workloads.py reaches undefined {missing}"

    spans = ast.parse((PERFBENCH / "spans.py").read_text())
    layers = _literal(spans, "LAYERS")
    for layer in layers:
        assert importlib.import_module(f"xlunet.{layer}").__all__, layer
    for layer, cls, method in _literal(spans, "LAYER_METHODS"):
        assert callable(getattr(getattr(importlib.import_module(f"xlunet.{layer}"), cls), method))
    wrapped = {
        name for layer in layers for name in importlib.import_module(f"xlunet.{layer}").__all__
    }
    stray = [name for name in _literal(spans, "OPEN_KEYS") if name not in wrapped | set(layers)]
    assert not stray, f"perfbench/spans.py opens spans on unwrapped {stray}"
    assert hasattr(xlunet.metrics, "ndimage")
    assert callable(xlunet.tensor.record)


def _unread_imports(path):
    """The names ``path`` imports and never reads: no name load, and not in
    ``__all__``; every import of ``xlunet/__init__.py`` is a re-export."""
    if path == ROOT / "src" / "xlunet" / "__init__.py":
        return []
    tree = ast.parse(path.read_text())
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # no linter runs with the suite, so an import left behind by an edit
    # would otherwise go unseen
    paths = sorted((ROOT / "src" / "xlunet").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unread = {str(p.relative_to(ROOT)): names for p in paths if (names := _unread_imports(p))}
    assert not unread, f"imported and never read: {unread}"
