"""Input signals, deterministic noise and closed-form ground-truth integrals.

A signal is a deterministic base waveform plus an optional sum of sinusoidal
noise terms.  Ground truth (the clean signal and its onefold and double
integrals) excludes the noise terms: the observers are judged on how well
they recover the integrals of the clean reference, not of the noise.
"""

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, UnsupportedTruth

# Reference waveform constants: a3(t) = -REF_COEF * REF_RATE^2 * sin(REF_RATE t),
# whose printed antiderivatives are a2 = REF_COEF*REF_RATE*cos(REF_RATE t) and
# a1 = REF_COEF*sin(REF_RATE t).  The rate is the literal 3.14, not pi: the
# closed forms above hold only for the literal constant.
REF_COEF = 0.1
REF_RATE = 3.14

# Phase |omega t| below which truth_arrays integrates a sinusoid by its Taylor
# series: the first dropped term is below 1e-18 of the value there.
SERIES_PHASE = 1e-4

# Largest phase omega*t a run may reach: half the float range, so that rounding
# in the last step's times cannot carry a phase to inf, where sin is undefined.
MAX_PHASE = sys.float_info.max / 2

KINDS = ("sinusoid", "paper_reference", "composite")
PHASE_KINDS = ("sine", "cosine")


def _check_term(amp_name: str, amp: float, omega: float) -> None:
    # an infinite amplitude is a run that diverges; NaN is no amplitude at all
    if not amp >= 0.0:
        raise ValueError(f"{amp_name} must be >= 0, got {amp!r}")
    if not 0.0 <= omega < math.inf:
        raise ValueError(f"omega must be finite and >= 0, got {omega!r}")


@dataclass(frozen=True)
class NoiseTerm:
    """One sinusoidal noise component, amp * sin(omega t) or amp * cos(omega t)."""

    amp: float
    omega: float
    phase: str = "sine"

    def __post_init__(self):
        if self.phase not in PHASE_KINDS:
            raise ValueError(f"phase must be one of {PHASE_KINDS}, got {self.phase!r}")
        _check_term("amp", self.amp, self.omega)


@dataclass(frozen=True)
class SignalSpec:
    """Deterministic input signal description.

    kind:
      - ``sinusoid``: amplitude * sin(omega t), closed-form truth available.
      - ``paper_reference``: the fixed reference -0.1*3.14^2*sin(3.14 t)
        with its printed antiderivatives as truth.  Evaluation reads the
        constants REF_COEF and REF_RATE, never the amplitude/omega fields
        (paper_reference_spec() fills them with the reference's values; a
        CLI config that sets them is rejected).
      - ``composite``: same evaluation as ``sinusoid`` but the noise terms
        count as part of the signal, so no ground truth is defined.

    make_input_fn(spec) evaluates a(t): the base waveform plus every noise
    term.  truth_arrays(spec, times) evaluates the ground truth, which always
    excludes the noise terms.
    """

    kind: str = "sinusoid"
    amplitude: float = 1.0
    omega: float = 1.0
    noise: tuple[NoiseTerm, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        _check_term("amplitude", self.amplitude, self.omega)


# Noise used by the reproduction scenarios:
# 0.1 sin(10t) + 0.1 cos(10t) + 0.05 sin(50t) + 0.05 cos(50t)
REFERENCE_NOISE = (
    NoiseTerm(0.1, 10.0, "sine"),
    NoiseTerm(0.1, 10.0, "cosine"),
    NoiseTerm(0.05, 50.0, "sine"),
    NoiseTerm(0.05, 50.0, "cosine"),
)


def paper_reference_spec(with_noise: bool = True) -> SignalSpec:
    """The reference signal of the simulation scenarios, optionally noisy."""
    noise = REFERENCE_NOISE if with_noise else ()
    return SignalSpec("paper_reference", REF_COEF * REF_RATE**2, REF_RATE, noise)


def _waveform(spec: SignalSpec) -> tuple[float, float]:
    """(amplitude, rate) of the base waveform amplitude * sin(rate t)."""
    if spec.kind == "paper_reference":
        return -REF_COEF * REF_RATE * REF_RATE, REF_RATE
    return spec.amplitude, spec.omega


def check_horizon(spec: SignalSpec, t_end: float) -> None:
    """Raise ConfigError, its message led by the field name, when a phase
    omega*t of the signal overflows before t_end."""
    rates = [("omega", _waveform(spec)[1])]
    rates += [(f"noise[{i}].omega", n.omega) for i, n in enumerate(spec.noise)]
    for name, w in rates:
        if w * t_end > MAX_PHASE:
            raise ConfigError(f"{name} {w:g} overflows the phase omega*t before t = {t_end:g}")


def truth_arrays(spec: SignalSpec, times: np.ndarray) -> np.ndarray:
    """Closed-form ground truth at times: shape (len(times), 3), columns (a1, a2, a3).

    a3 is the clean signal (noise excluded), a2 and a1 its onefold and double
    integrals.  Integrals follow the zero-at-zero convention for the sinusoid
    kind.  The paper_reference kind returns the printed antiderivatives
    verbatim, whose onefold integral does not vanish at t=0.

    Raises UnsupportedTruth for the composite kind.
    """
    if spec.kind == "composite":
        raise UnsupportedTruth("composite signals have no closed-form integrals")
    t = np.asarray(times, dtype=float)
    amp, w = _waveform(spec)
    if w == 0.0:
        return np.zeros((t.size, 3))
    s = np.sin(w * t)
    if spec.kind == "paper_reference":
        return np.column_stack([REF_COEF * s, REF_COEF * REF_RATE * np.cos(w * t), amp * s])
    x = w * t
    a1, a2 = np.empty_like(t), np.empty_like(t)
    # below |omega t| = SERIES_PHASE the closed forms cancel to rounding noise
    # (and t/omega overflows for a tiny omega); two Taylor terms are exact to
    # rounding there
    near = np.abs(x) < SERIES_PHASE
    far = ~near
    with np.errstate(over="ignore", invalid="ignore"):
        # an integral past the float range is inf; an infinite amplitude gives nan at t = 0
        xn, tn = x[near], t[near]
        a2[near] = amp * xn * tn / 2.0 * (1.0 - xn * xn / 12.0)
        a1[near] = amp * xn * tn * tn / 6.0 * (1.0 - xn * xn / 20.0)
        a2[far] = amp * (1.0 - np.cos(x[far])) / w
        a1[far] = amp * (t[far] - s[far] / w) / w
        return np.column_stack([a1, a2, amp * s])


def supports_truth(spec: SignalSpec) -> bool:
    return spec.kind != "composite"


def make_input_fn(spec: SignalSpec) -> Callable[[float], float]:
    """Scalar closure a(t), the base waveform plus every noise term, for use
    in integration hot loops."""
    amp, w = _waveform(spec)
    if not spec.noise:
        return lambda t: amp * math.sin(w * t)

    # noise terms unrolled into a flat tuple, added in their order after the base
    terms = tuple((n.amp, n.omega, n.phase == "sine") for n in spec.noise)
    sin, cos = math.sin, math.cos

    def noisy(t: float) -> float:
        v = amp * sin(w * t)
        for a_n, w_n, is_sin in terms:
            v += a_n * (sin(w_n * t) if is_sin else cos(w_n * t))
        return v

    return noisy
