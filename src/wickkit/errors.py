"""Shared exception types, the checked input readers and file writers, the step-count check, RK4 and the jackknife.

Every JSON and CSV file of the package is read and written here; the writers
refuse a non-finite number before they open a file, and record each path for
a failed CLI run to remove.  ``Block`` reads a JSON object from outside the
program key by key, so each config block accepts exactly the keys its code
reads.  ``rk4`` is the one RK4 loop of the package: the
cumulant hierarchy, the kinetic equation and the decay of correlations all
step with it, so it lives in this neutral module beside ``step_count``.
``jackknife_stderr`` is the one Monte Carlo error formula, for the same
reason: the empirical cumulants and the lattice ensembles both use it, and
``cumulants`` does not import ``dnls``.  numpy is imported inside the
functions that build arrays, so the algebra kinds of the CLI never load it.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections.abc import Callable, Mapping, Sequence
from contextvars import ContextVar
from pathlib import Path


class GuardError(ValueError):
    """A size or stability guard was violated (combinatorial blow-up, CFL, ...)."""


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


def _unique_keys(pairs: list) -> dict:
    """The object of a JSON object's key-value pairs; a repeated key is a KeyError naming it."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        raise KeyError(next(key for key, _ in pairs if key in seen or seen.add(key)))
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _json(text: str, what: str):
    """The value of a JSON text; invalid JSON, or a key repeated within one object, is a ConfigError."""
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{what} is not valid JSON: {err}") from err
    except KeyError as err:
        raise ConfigError(f"{what} repeats the key {err.args[0]!r} within one JSON object") from None


def _object(raw, what: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{what} must be a JSON object, got {raw!r}")
    return raw


def _is_number(raw, integer: bool = False, low: float = -math.inf, strict: bool = False) -> bool:
    """Whether ``raw`` is a JSON number, not a bool or a string, finite and >= ``low`` (> if ``strict``).

    With ``integer`` it must be an int.
    """
    typed = isinstance(raw, int if integer else (int, float)) and not isinstance(raw, bool)
    return typed and abs(raw) <= sys.float_info.max and (raw > low if strict else raw >= low)


def _not_a_number(raw, what: str, integer: bool, low: float, strict: bool) -> ConfigError:
    bound = f" {'>' if strict else '>='} {low:g}" if low > -math.inf else ""
    return ConfigError(f"{what} must be a finite JSON {'integer' if integer else 'number'}{bound}, got {raw!r}")


def _number(raw, what: str, integer: bool = False, low: float = -math.inf, strict: bool = False):
    """``raw`` if ``_is_number`` accepts it, a float unless ``integer``; else a ConfigError naming ``what``."""
    if not _is_number(raw, integer, low, strict):
        raise _not_a_number(raw, what, integer, low, strict)
    return raw if integer else float(raw)


def _numbers(raw, what: str, low: float = -math.inf, strict: bool = False) -> list[float]:
    """A nonempty list of numbers as floats; the path of a refused entry is spelled out only then."""
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{what} must be a nonempty list of numbers, got {raw!r}")
    for i, v in enumerate(raw):
        if not _is_number(v, low=low, strict=strict):
            raise _not_a_number(v, f"{what}[{i}]", False, low, strict)
    return [float(v) for v in raw]


def _pair(raw, what: str) -> complex:
    if not isinstance(raw, list) or len(raw) != 2:
        raise ConfigError(f"{what} must be a [re, im] pair of numbers, got {raw!r}")
    return complex(*_numbers(raw, what))


_REQUIRED = object()  # the default of a read whose key must be present


class Block:
    """A JSON object from outside the program, read key by key inside ``with``.

    Each typed read checks one value and names its full key path.  A read
    without a default is a required key; where the default is None, a JSON
    null reads as the key left out.  Leaving the ``with`` block refuses every
    key that no read asked for, so the object accepts exactly the keys its
    code reads; an error raised inside the block is reported instead.
    """

    def __init__(self, raw, where: str) -> None:
        self.raw, self.where, self.read = _object(raw, where), where, set()

    def __enter__(self) -> "Block":
        return self

    def __exit__(self, error_type, *_) -> None:
        unknown = [key for key in self.raw if key not in self.read]
        if error_type is None and unknown:
            raise ConfigError(f"{self.where}: unknown key(s) {unknown}; allowed: {sorted(self.read)}")

    def name(self, key: str) -> str:
        return f"{self.where}.{key}"

    def get(self, key: str, default=_REQUIRED):
        """The raw value of ``key``: ``default`` if it is left out, a ConfigError if it is required."""
        self.read.add(key)
        if key in self.raw:
            return self.raw[key]
        if default is _REQUIRED:
            raise ConfigError(f"{self.where}: missing required key {key!r}")
        return default

    def number(self, key: str, default=_REQUIRED, low: float = -math.inf, strict: bool = False, integer: bool = False):
        raw = self.get(key, default)
        return None if raw is None and default is None else _number(raw, self.name(key), integer, low, strict)

    def integer(self, key: str, default=_REQUIRED, low: float = -math.inf) -> int | None:
        return self.number(key, default, low, integer=True)

    def numbers(self, key: str, low: float = -math.inf, strict: bool = False) -> list[float]:
        return _numbers(self.get(key), self.name(key), low=low, strict=strict)

    def pair(self, key: str, default=_REQUIRED) -> complex:
        return _pair(self.get(key, default), self.name(key))

    def sequence(self, key: str) -> list:
        """The JSON list under ``key``, possibly empty; its items are the caller's to check."""
        raw = self.get(key)
        if not isinstance(raw, list):
            raise ConfigError(f"{self.name(key)} must be a list, got {raw!r}")
        return raw

    def path(self, key: str) -> Path:
        raw = self.get(key)
        if not isinstance(raw, str):
            raise ConfigError(f"{self.name(key)} must be a path string, got {raw!r}")
        return Path(raw)

    def choice(self, key: str, options: Sequence[str], default=_REQUIRED) -> str | None:
        raw = self.get(key, default)
        if raw not in options and not (raw is None and default is None):
            raise ConfigError(f"{self.name(key)} must be one of {' | '.join(options)}, got {raw!r}")
        return raw

    def block(self, key: str, default=_REQUIRED) -> "Block":
        return Block(self.get(key, default), self.name(key))

    def inline_or_file(self, key: str):
        """The JSON value given inline as ``key`` or in the file named by ``key_path``: exactly one of the two."""
        inline, path = self.get(key, None), self.get(f"{key}_path", None)
        if (inline is None) == (path is None):
            raise ConfigError(f"{self.where}: supply exactly one of {key!r} or '{key}_path'")
        return inline if path is None else _json(_read_text(self.path(f"{key}_path")), f"{self.where}: {path}")


def _read_text(path: Path) -> str:
    """The text of an input file, decoded as UTF-8; bytes that are not UTF-8 are a ConfigError naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path} is not UTF-8 text: {err.reason} at byte {err.start}") from None


# the files the current run has (re)written; ``cli.run`` binds a fresh list per
# run, in its own context, and removes the files if the run fails
_written: ContextVar[list[Path] | None] = ContextVar("wickkit_written", default=None)


def _write_text(path: Path, text: str) -> None:
    written = _written.get()
    if written is not None:
        written.append(path)
    path.write_text(text)


def _write_json(path: Path, obj) -> None:
    """Write ``obj`` as one line of JSON with sorted keys; a non-finite number is a GuardError and nothing is written.

    Without ``indent`` the stdlib encodes in C.  Floats come out as
    ``float.__repr__`` writes them, the shortest text that reads back to the
    same bits, so the file is a function of ``obj`` alone.
    """
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as err:
        raise GuardError(f"{path.name}: a result is not finite ({err})") from None
    _write_text(path, text + "\n")


def write_csv(path: Path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length columns under ``header``; a non-finite float is a GuardError and nothing is written.

    A numpy array is a float column, written in C order as ``repr(float)``
    cells; an array whose dtype is not integer or floating (complex, bool,
    string, object) is a ConfigError, raised before anything is written.
    Any other column is a list of strings, written as given (a string may
    hold several cells, such as a lattice site's k components).
    """
    import numpy as np  # deferred: keeps numpy off the algebra kinds' import path

    cells = []
    for column in columns:
        if isinstance(column, np.ndarray):
            if column.dtype.kind not in "iuf":
                raise ConfigError(f"{path.name}: a column of dtype {column.dtype} is not real numbers")
            column = column.astype(float, copy=False).ravel()
            if not np.all(np.isfinite(column)):
                raise GuardError(f"{path.name}: a result is not finite")
            column = list(map(repr, column.tolist()))
        cells.append(column)
    rows = map(",".join, zip(*cells, strict=True))
    _write_text(path, "\n".join([",".join(header), *rows]) + "\n")


# a plain decimal number, as ``repr(float)`` writes it, or one of nan, inf, -inf;
# ``float`` alone would also take ``1_0``, `` 1.0`` and ``Infinity``
_CELL = re.compile(r"-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|nan|-?inf")


def read_csv(path: Path, optional: str | None = None) -> tuple[list[str], np.ndarray]:
    """The header and a (rows, columns) float array of a CSV table of numbers.

    Each row needs one number per header name, written as a plain decimal
    number or as ``nan``, ``inf`` or ``-inf``, else a ConfigError names the
    row.  Only the ``optional`` column may be empty, and then on every row:
    it is left out of the array.
    """
    import numpy as np  # deferred: keeps numpy off the algebra kinds' import path

    first, *lines = _read_text(path).strip("\n").splitlines() or [""]
    header = first.split(",")
    skip = header.index(optional) if optional in header else None
    empty = skip is not None and bool(lines) and all(line.split(",")[skip:skip + 1] == [""] for line in lines)
    numbers = []
    for row, line in enumerate(lines, start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"{path} row {row}: {len(cells)} cells under a header of {len(header)}")
        kept = [cell for col, cell in enumerate(cells) if not (empty and col == skip)]
        if not all(_CELL.fullmatch(cell) for cell in kept):
            raise ConfigError(f"{path} row {row}: {line!r} holds a cell that is not a number")
        numbers.append([float(cell) for cell in kept])
    return header, np.array(numbers, dtype=float).reshape(len(numbers), len(header) - empty)


def step_count(t_end: float, dt: float, where: str) -> int:
    """Number of steps of a finite ``dt > 0`` in a finite ``t_end >= 0``, else a ConfigError."""
    if not (0.0 < dt < math.inf and 0.0 <= t_end and math.isfinite(t_end / dt)):
        raise ConfigError(
            f"{where}: need a finite end time >= 0 and a finite step > 0, got {t_end!r} and {dt!r}"
        )
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end) or n_steps == 0 < t_end:
        raise ConfigError(f"{where}: end time {t_end!r} is not a whole number of steps of {dt!r}")
    return n_steps


def rk4(rhs: Callable, y, t: float, h: float, n_steps: int, project: Callable | None = None) -> tuple[list, list]:
    """March ``dy/dt = rhs(t, y)`` from ``(t, y)`` by ``n_steps`` classic RK4 steps of ``h``.

    ``project`` maps each new state before it is stored and stepped on (the
    start state is stored as given).  Returns the times and the states,
    ``n_steps + 1`` of each, times accumulated as ``t += h``.
    """
    times, states = [t], [y]
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if project is not None:
            y = project(y)
        t += h
        times.append(t)
        states.append(y)
    return times, states


def loo_means(samples: np.ndarray) -> np.ndarray:
    """The n leave-one-out means ``(sum(x) - x_i) / (n - 1)`` along axis 0."""
    return (samples.sum(axis=0)[None, ...] - samples) / (samples.shape[0] - 1)


def jackknife_stderr(loo: np.ndarray) -> np.ndarray:
    """Jackknife standard error along axis 0 from the n leave-one-out values of a statistic.

    ``sqrt((n - 1) / n * sum |loo - mean(loo)|^2)``; a complex statistic adds
    the spreads of its real and imaginary parts.
    """
    return _spread(lambda: loo - loo.mean(axis=0))


def _spread(deviations: Callable[[], np.ndarray]) -> np.ndarray:
    """``sqrt((n - 1) / n * sum |dev|^2)`` along axis 0 of ``dev = deviations()``.

    A real ``dev`` is squared in place.  Where that sum overflows although
    every deviation is finite (values above about 1e154), the spread is
    recomputed from a fresh ``dev`` divided by its largest magnitude and
    scaled back; every other entry keeps the bytes of the plain formula.
    """
    import numpy as np  # deferred: keeps numpy off the algebra kinds' import path

    dev = deviations()
    n = dev.shape[0]
    # |x|^2 of a real x is x^2 to the bit; a complex one keeps np.abs for its bytes
    with np.errstate(over="ignore"):
        square = np.abs(dev) ** 2 if np.iscomplexobj(dev) else np.square(dev, out=dev)
        spread = np.sqrt((n - 1) / n * np.sum(square, axis=0))
    overflowed = ~np.isfinite(spread)
    if not overflowed.any():
        return spread
    with np.errstate(all="ignore"):  # the columns kept below have 0 < scale < inf
        dev = deviations()
        scale = np.max(np.abs(dev), axis=0)
        scaled = scale * np.sqrt((n - 1) / n * np.sum(np.abs(dev / scale) ** 2, axis=0))
    return np.where(overflowed & np.isfinite(scale), scaled, spread)


def mean_stderr(samples: np.ndarray) -> np.ndarray:
    """Jackknife standard error of the mean along axis 0, which is ``std(ddof=1) / sqrt(n)``."""

    def deviations() -> np.ndarray:
        loo = loo_means(samples)
        loo -= loo.mean(axis=0)
        return loo

    return _spread(deviations)
