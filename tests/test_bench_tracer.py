"""The names the benchmark tracer patches must stay importable.

``bench/spans.py`` wraps the public functions in its ``TARGETS`` list by
module attribute, and ``Tracer.uninstall`` puts them back. A rename or a
deletion in the package breaks ``--trace 1`` runs without failing any other
test, so this runs the tracer's install and uninstall against the package
as it is. It reads ``bench/`` and changes nothing there.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import wickkit.cli  # noqa: F401  (imports every module the targets live in)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _owner_and_attr(module: str, attr: str):
    owner = sys.modules[module]
    owner_name, _, attr = attr.rpartition(".")
    return (getattr(owner, owner_name) if owner_name else owner), attr


def _package_bindings(originals) -> list[tuple[str, str, object]]:
    """Every (module, name, value) in a wickkit module bound to one of ``originals``."""
    ids = {id(fn) for fn in originals}
    return [
        (name, attr, value)
        for name, module in sorted(sys.modules.items())
        if name == "wickkit" or name.startswith("wickkit.")
        for attr, value in vars(module).items()
        if id(value) in ids
    ]


def test_tracer_wraps_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    targets = [_owner_and_attr(module, attr) for module, attr, *_ in spans.TARGETS]
    originals = [getattr(owner, attr) for owner, attr in targets]
    bindings = _package_bindings(originals)
    pool = wickkit.cli._map_in_order

    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(targets, originals):
            wrapped = getattr(owner, attr)
            assert wrapped is not original, attr
            assert wrapped.__wrapped__ is original, attr
        # a function is wrapped in every module that imported it, not just where it is defined
        for module, attr, original in bindings:
            assert getattr(sys.modules[module], attr) is not original, f"{module}.{attr}"
        assert wickkit.cli._map_in_order is not pool
    finally:
        tracer.uninstall()

    assert [getattr(owner, attr) for owner, attr in targets] == originals
    assert _package_bindings(originals) == bindings
    assert wickkit.cli._map_in_order is pool
