"""Observer parameters, validity checks and right-hand-side dynamics.

Two observer variants estimate the onefold and double integrals of an input
signal a(t) while the third state tracks a(t) itself:

  nonlinear:  x1' = x2,  x2' = x3,
              eps^4 x3' = -k1 |eps x1|^a1 sign(x1) - k2 |eps^2 x2|^a2 sign(x2)
                          - k3 |x3 - a(t)|^a3 sign(x3 - a(t))

  linear:     x1' = x2,  x2' = x3,
              eps^4 x3' = -k1 eps x1 - k2 eps^2 x2 - k3 (x3 - a(t))

The exponent chain a2 = a3/(2-a3), a1 = a3/(3-2a3) is a hard constraint; at
a3 = 1 the nonlinear form degenerates exactly to the linear one.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DivergedState, DomainError

MODES = ("nonlinear", "linear")

# Practical floor on epsilon so that the 1/eps^4 feedback scale stays <= 1e12.
EPSILON_FLOOR = 1e-3


class ObserverState(NamedTuple):
    """State triple: double-integral estimate, onefold estimate, tracker."""

    x1: float
    x2: float
    x3: float


def power_sign(x: float, alpha: float) -> float:
    """|x|^alpha * sign(x) with sign(0) = 0; the identity map at alpha = 1."""
    if x > 0.0:
        return x**alpha
    if x < 0.0:
        return -((-x) ** alpha)
    return 0.0


def derive_alphas(alpha3: float) -> tuple[float, float]:
    """Exponents (alpha1, alpha2) derived from alpha3 in (0, 1]."""
    if not 0.0 < alpha3 <= 1.0:
        raise DomainError(f"alpha3 must lie in (0, 1], got {alpha3}")
    return alpha3 / (3.0 - 2.0 * alpha3), alpha3 / (2.0 - alpha3)


@dataclass(frozen=True)
class ObserverParams:
    """Gains, perturbation parameter, exponents and mode of an observer.

    alpha1/alpha2 are always derived from alpha3, never free: inconsistent
    exponents would silently void the convergence guarantees.  Out-of-range
    alpha3 yields NaN derived exponents and is reported by validate_params
    rather than raising, so invalid configurations can still be inspected.
    """

    k1: float
    k2: float
    k3: float
    epsilon: float
    alpha3: float = 1.0
    mode: str = "nonlinear"
    alpha1: float = field(init=False)
    alpha2: float = field(init=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if 0.0 < self.alpha3 <= 1.0:
            a1, a2 = derive_alphas(self.alpha3)
        else:
            a1 = a2 = math.nan
        object.__setattr__(self, "alpha1", a1)
        object.__setattr__(self, "alpha2", a2)

    @classmethod
    def from_rate(cls, k1, k2, k3, R, alpha3=1.0, mode="nonlinear"):
        """Build from the rate convention R = 1/epsilon used in configs."""
        return cls(k1, k2, k3, 1.0 / R, alpha3, mode)

    def gain_threshold(self) -> float:
        """Lower bound the middle gain k2 must strictly exceed.

        inf when k3 is zero or eps^expo overflows, nan when eps^expo is not
        real (a negative epsilon under a fractional power).
        """
        if self.k3 == 0:
            return math.inf
        expo = 3.0 * self.alpha3 if self.mode == "nonlinear" else 3.0
        try:
            scale = math.pow(self.epsilon, expo)
        except OverflowError:
            scale = math.inf
        except ValueError:
            scale = math.nan
        return scale * self.k1 / self.k3


@dataclass(frozen=True)
class Violation:
    name: str
    message: str

    def __str__(self):
        return f"{self.name} violated: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    params: ObserverParams
    violations: tuple[Violation, ...]
    gain_threshold: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        head = "valid" if self.ok else "invalid"
        lines = [
            f"{head}: k=({self.params.k1:g}, {self.params.k2:g}, {self.params.k3:g}), "
            f"epsilon={self.params.epsilon:g}, alpha3={self.params.alpha3:g}, "
            f"mode={self.params.mode}",
            f"gain threshold: k2 > {self.gain_threshold:.6g}",
        ]
        lines.extend(str(v) for v in self.violations)
        return "\n".join(lines)


def validate_params(p: ObserverParams) -> ValidationReport:
    """Check every parameter constraint; never raises.

    Reported violation names: positivity, epsilon range, alpha range,
    gain inequality.
    """
    violations = []
    if not p.k1 > 0.0:
        violations.append(Violation("positivity", f"k1 must be > 0, got {p.k1:g}"))
    if not p.k3 > 0.0:
        violations.append(Violation("positivity", f"k3 must be > 0, got {p.k3:g}"))
    if not 0.0 < p.epsilon < 1.0:
        violations.append(
            Violation("epsilon range", f"epsilon must lie in (0, 1), got {p.epsilon:g}")
        )
    elif p.epsilon < EPSILON_FLOOR:
        violations.append(
            Violation(
                "epsilon range",
                f"epsilon={p.epsilon:g} below practical floor {EPSILON_FLOOR:g} "
                f"(keeps 1/eps^4 bounded)",
            )
        )
    if not 0.0 < p.alpha3 <= 1.0:
        violations.append(
            Violation("alpha range", f"alpha3 must lie in (0, 1], got {p.alpha3:g}")
        )
    threshold = p.gain_threshold()
    if not p.k2 > threshold:
        violations.append(
            Violation(
                "gain inequality",
                f"k2={p.k2:g} must exceed eps^{'3*alpha3' if p.mode == 'nonlinear' else '3'}"
                f"*k1/k3 = {threshold:.6g}",
            )
        )
    return ValidationReport(p, tuple(violations), threshold)


def rhs(p: ObserverParams, state: ObserverState, a_t: float) -> tuple[float, float, float]:
    """Time derivative (dx1, dx2, dx3) of the observer at the given input value.

    The feedback law acts on x1 and x2 directly (not on errors) and on the
    tracking error x3 - a(t).  Raises DivergedState when any input or output
    component is non-finite.
    """
    x1, x2, x3 = state
    if not (math.isfinite(x1) and math.isfinite(x2) and math.isfinite(x3) and math.isfinite(a_t)):
        raise DivergedState(math.nan, "non-finite state or input passed to rhs")
    eps = p.epsilon
    inv = 1.0 / eps**4
    if p.mode == "linear":
        d3 = -(p.k1 * (eps * x1) + p.k2 * (eps * eps * x2) + p.k3 * (x3 - a_t)) * inv
    else:
        d3 = -(
            p.k1 * power_sign(eps * x1, p.alpha1)
            + p.k2 * power_sign(eps * eps * x2, p.alpha2)
            + p.k3 * power_sign(x3 - a_t, p.alpha3)
        ) * inv
    if not math.isfinite(d3):
        raise DivergedState(math.nan, "non-finite derivative")
    return x2, x3, d3
