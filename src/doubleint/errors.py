"""Exception types shared across the package, and config_value, every config's type rule."""

import dataclasses
import json
from numbers import Integral, Real


class DoubleIntError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DoubleIntError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedTruth(DoubleIntError):
    """The signal has no closed-form integrals to serve as ground truth."""


class InvalidParams(DoubleIntError):
    """Observer parameters failed validation where valid ones are required."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class ConfigError(DoubleIntError):
    """A run configuration is malformed or violates a hard limit.

    Every config object (ObserverParams, SignalSpec, NoiseTerm, SimConfig,
    SweepConfig) raises it, and only it, when built with a field of the wrong
    type or out of range, its message led by the field name.  It is deliberately not a
    ValueError: cli.load_config reads a ValueError from json.load as
    malformed JSON, which a ConfigError raised while parsing is not.
    """


_SHAPES = {float: "a number", int: "an integer", str: "a string", dict: "an object"}


def _shown(value) -> str:
    """value as JSON, as a config file spells it, else its repr; 40 characters at most."""
    try:
        return json.dumps(value)[:40]
    except (TypeError, ValueError):
        return "an int of too many digits" if isinstance(value, int) else repr(value)[:40]


def config_value(path: str, tp, value, build=None):
    """value checked against the annotation tp and normalized to it; ConfigError led by path.

    tp is a key of _SHAPES, a dataclass, a NamedTuple, or tuple[T, ...] or tuple[T1, T2, ...]
    of these, given as a list or a tuple, item i at path[i].  A bool is no number, an
    integral float is an int, and a number too large for a float is refused.  A dataclass
    takes an instance, or a JSON object that build(tp, obj, path) makes into one.
    """
    if tp in _SHAPES:
        if tp is int and isinstance(value, float) and value.is_integer():
            value = int(value)
        if type(value) is bool or not isinstance(value, {float: Real, int: Integral}.get(tp, tp)):
            raise ConfigError(f"{path}: expected {_SHAPES[tp]}, got {_shown(value)}")
        try:
            return tp(value)
        except OverflowError:
            raise ConfigError(f"{path} is too large for a float") from None
    if dataclasses.is_dataclass(tp):
        if isinstance(value, tp):
            return value
        if build is None or not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object, got {_shown(value)}")
        return build(tp, value, path)
    if hasattr(tp, "_fields"):
        return tp(*config_value(path, tuple[tuple(tp.__annotations__.values())], value, build))
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list, got {_shown(value)}")
    items = tp.__args__
    if items[-1] is Ellipsis:
        items = items[:1] * len(value)
    if len(value) != len(items):
        raise ConfigError(f"{path}: expected {len(items)} items, got {len(value)}")
    return tuple(config_value(f"{path}[{i}]", t, v, build)
                 for i, (t, v) in enumerate(zip(items, value)))


def check_fields(cfg) -> None:
    """Set every init field of the frozen dataclass cfg to config_value of it, led by its name."""
    for f in dataclasses.fields(cfg):
        if f.init:
            object.__setattr__(cfg, f.name, config_value(f.name, f.type, getattr(cfg, f.name)))


class DivergedState(DoubleIntError):
    """A state component became non-finite during integration."""

    def __init__(self, time: float, message: str | None = None):
        self.time = time
        super().__init__(message or f"state diverged at t={time:.6g} s")


class SingularDenominator(DoubleIntError):
    """Transfer-function denominator vanished (cannot occur for valid params)."""


class SingularAtDC(DoubleIntError):
    """The ideal integrator response is unbounded at omega=0."""


class CutoffNotFound(DoubleIntError):
    """No cutoff crossing exists inside the search bracket."""


class IllConditioned(DoubleIntError):
    """The least-squares normal matrix is too ill-conditioned to solve."""
