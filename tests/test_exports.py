"""The export lists of the modules with an ``__all__`` match what they define,
and the public signatures of the combinatorial core take no partition-sum memo."""

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


def public_callables(module):
    """The public functions, classes and methods a module defines, by dotted name."""
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield attr, value
        elif inspect.isclass(value):
            for name, member in vars(value).items():
                if inspect.isfunction(member) and not (name.startswith("_") and name != "__init__"):
                    yield f"{attr}.{name}", member


@pytest.mark.parametrize("name", ["wickkit.cumulants", "wickkit.hierarchy", "wickkit.wick"])
def test_no_public_signature_takes_a_memo_book_or_work_dict(name):
    # a memo belongs to the object whose sums it caches; only the kernel that
    # the owners lend their memo to, wick_product_expectation, takes one
    module = importlib.import_module(name)
    takers = [
        where
        for where, value in public_callables(module)
        if where != "wick_product_expectation"
        and {"memo", "book", "work"} & set(inspect.signature(value).parameters)
    ]
    assert takers == []
