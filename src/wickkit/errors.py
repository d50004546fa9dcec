"""Shared exception types, and the checked readers of JSON input."""

import json
import math
import sys
from collections.abc import Mapping


class GuardError(ValueError):
    """A size or stability guard was violated (combinatorial blow-up, CFL, ...)."""


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


def _json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{what} is not valid JSON: {err}") from err


def _object(raw, what: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{what} must be a JSON object, got {raw!r}")
    return raw


def _number(raw, what: str, integer: bool = False, low: float = -math.inf, strict: bool = False):
    """A JSON number, not a bool or a string, finite and >= ``low`` (> if ``strict``); an int if ``integer``."""
    typed = isinstance(raw, int if integer else (int, float)) and not isinstance(raw, bool)
    if not (typed and abs(raw) <= sys.float_info.max and (raw > low if strict else raw >= low)):
        bound = f" {'>' if strict else '>='} {low:g}" if low > -math.inf else ""
        raise ConfigError(f"{what} must be a finite JSON {'integer' if integer else 'number'}{bound}, got {raw!r}")
    return raw if integer else float(raw)


def _numbers(raw, what: str, low: float = -math.inf, strict: bool = False) -> list[float]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{what} must be a nonempty list of numbers, got {raw!r}")
    return [_number(v, f"{what}[{i}]", low=low, strict=strict) for i, v in enumerate(raw)]


def _pair(raw, what: str) -> complex:
    if not isinstance(raw, list) or len(raw) != 2:
        raise ConfigError(f"{what} must be a [re, im] pair of numbers, got {raw!r}")
    return complex(*_numbers(raw, what))
