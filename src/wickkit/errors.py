"""Shared exception types, the checked JSON readers, the step-count check, the RK4 marcher and the jackknife.

``rk4`` is the one RK4 loop of the package: the cumulant hierarchy, the
kinetic equation and the decay of correlations all step with it, so it lives
in this neutral module beside ``step_count``.  ``jackknife_stderr`` is the one
Monte Carlo error formula, for the same reason: the empirical cumulants and
the lattice ensembles both use it, and ``cumulants`` does not import ``dnls``.
"""

import json
import math
import sys
from collections.abc import Callable, Mapping

import numpy as np


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
    n = loo.shape[0]
    dev = loo - loo.mean(axis=0)
    return np.sqrt((n - 1) / n * np.sum(np.abs(dev) ** 2, axis=0))


def mean_stderr(samples: np.ndarray) -> np.ndarray:
    """Jackknife standard error of the mean along axis 0, which is ``std(ddof=1) / sqrt(n)``."""
    return jackknife_stderr(loo_means(samples))
