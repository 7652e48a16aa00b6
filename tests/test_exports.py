"""Every name a ``repro`` module exports in ``__all__`` resolves on it.

A stale ``__all__`` entry (a deleted function still listed, a lazy export
pointing at a moved module) breaks ``from repro.x import *`` and the
documented import paths; this catches it without a linter.
"""

import importlib
import pkgutil

import pytest

import repro


def _modules():
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            yield info.name


@pytest.mark.parametrize("name", sorted(_modules()))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attribute for attribute in exported if not hasattr(module, attribute)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"


def test_the_package_exports_something():
    exported = sum(len(getattr(importlib.import_module(n), "__all__", ())) for n in _modules())
    assert exported > 100
