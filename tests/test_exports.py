"""The export lists of the modules with an ``__all__`` match what they define."""

from __future__ import annotations

import importlib
import inspect

import pytest


@pytest.mark.parametrize("name", ["wickkit.dnls", "wickkit.kinetic", "wickkit.cli"])
def test_all_lists_exactly_the_public_functions_and_classes(name):
    module = importlib.import_module(name)
    assert [export for export in module.__all__ if not hasattr(module, export)] == []
    defined = {
        attr
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == name
    }
    assert sorted(defined - set(module.__all__)) == []
