"""The export lists of the modules with an ``__all__`` match what they define,
every public name has a consumer, the public signatures of the combinatorial
core take no partition-sum memo and, outside the Wick builders, no labeled
sequence, one module owns the Wick-group code layout,
and no module calls the enumerators kept for the benchmark tracer."""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

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
    # a memo belongs to the object whose sums it caches, and no caller lends one
    module = importlib.import_module(name)
    takers = [
        where
        for where, value in public_callables(module)
        if {"memo", "book", "work"} & set(inspect.signature(value).parameters)
    ]
    assert takers == []


#: the Wick polynomial and its builders, whose monomials are keyed by the labels of their ground sequence,
#: and the cumulant read the benchmark tracer wraps by name
LABELLED = {
    "WickPoly.__init__", "wick_recursive", "wick_from_cumulants", "wick_recursion_step", "gaussian_reference_wick",
    "CumulantEvaluator.kappa_of",
}


@pytest.mark.parametrize("name", ["wickkit.cumulants", "wickkit.hierarchy", "wickkit.wick"])
def test_only_the_wick_builders_take_labels(name):
    # cumulants, pair expectations and the hierarchy see an index sequence only through its multiset,
    # so they take index sequences, and the hierarchy's state is a table and a time
    module = importlib.import_module(name)
    takers = [
        where
        for where, value in public_callables(module)
        if where not in LABELLED
        and any(
            re.search(r"\b(LabeledSeq|HierarchyState)\b", str(parameter.annotation))
            for parameter in inspect.signature(value).parameters.values()
        )
    ]
    assert takers == []


def names_in(path: Path) -> set[str]:
    """Every name a module defines, imports or reads, as a plain name or an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def modules_naming(names: set[str]) -> list[str]:
    package = Path(importlib.import_module("wickkit").__file__).parent
    return [path.stem for path in sorted(package.glob("*.py")) if names & names_in(path)]


def test_only_wick_knows_the_wick_group_layout():
    # the tagged code layout of Wick groups has one owner; every other module sums pairs through it
    assert modules_naming({"_tag", "_untagged", "_group_masks"}) == ["wick"]


def test_only_indexing_names_the_enumerators_kept_for_the_tracer():
    # every partition sum runs through the kernel; the brute-force walks stay in indexing for
    # the benchmark tracer alone, and the tests keep their own
    assert modules_naming({"subsets", "partitions", "partitions_of", "Partition"}) == ["indexing"]


#: the package's own file formats, kept as checked external input though no route reads or writes them
FILE_FORMATS = {"save_ensemble", "load_ensemble", "read_trajectory_csv"}


def read_names(node: ast.AST) -> set[str]:
    """Every name a node reads, as a plain name, an attribute, an import or a dotted string such as a tracer target."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            names.update(child.value.split("."))
    return names


def test_every_public_name_has_a_consumer():
    # a public function or class stays where a route uses it: code that runs at import or as the
    # console entry point, an acceptance criterion, the benchmark tracer, or another definition
    # reached from them; or the paper defines it, and its docstring cites arXiv:1503.05851
    root = Path(importlib.import_module("wickkit").__file__).parents[2]
    definitions: dict[str, list[ast.AST]] = {}
    reached = set(FILE_FORMATS)
    for path in sorted((root / "src" / "wickkit").glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        docstring = body[0] if body and isinstance(body[0], ast.Expr) else None
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append(node)
                if "arXiv:1503.05851" in (ast.get_docstring(node) or ""):
                    reached.add(node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)) and node is not docstring and not (
                isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
            ):
                reached |= read_names(node)
    for path in (root / "tests" / "test_acceptance.py", root / "bench" / "spans.py"):
        reached |= read_names(ast.parse(path.read_text(encoding="utf-8")))
    todo = list(reached)
    while todo:
        for node in definitions.get(todo.pop(), ()):
            new = read_names(node) - reached
            reached |= new
            todo.extend(new)
    assert sorted(name for name in definitions if not name.startswith("_") and name not in reached) == []
