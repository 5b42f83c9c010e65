"""Public names: every ``__all__`` entry resolves, and the package re-exports
only names its modules declare public."""

import importlib
import pkgutil
import types

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
