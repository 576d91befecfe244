"""Exception types shared across the package, and the float-range check of every config."""

from numbers import Real


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
    SweepConfig) raises it, and only it, when built with a field out of
    range, its message led by the field name.  It is deliberately not a
    ValueError: cli.load_config reads a ValueError from json.load as
    malformed JSON, which a ConfigError raised while parsing is not.
    """


def _check_float_range(name: str, *values) -> None:
    """Raise ConfigError, led by name, when a real number among values is too large
    for a float, as a Python int can be; other values are left to the caller."""
    for value in values:
        if isinstance(value, Real):
            try:
                float(value)
            except OverflowError:
                raise ConfigError(f"{name} is too large for a float") from None


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
