"""Every name a cotn module exports resolves."""

import importlib

import pytest

# The package and each module that declares __all__ (cotn.cli does not).
MODULES = ("cotn", "cotn.oscillator", "cotn.activation", "cotn.tensor",
           "cotn.model", "cotn.data", "cotn.training")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}"
