"""Every exported name resolves: a deletion that leaves its name in an
``__all__`` list breaks ``from tetrasym import *`` and nothing else."""

import importlib
import pkgutil

import pytest

import tetrasym

MODULES = ["tetrasym"] + ["tetrasym." + m.name
                          for m in pkgutil.iter_modules(tetrasym.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []

