"""Input signals, deterministic noise and closed-form ground-truth integrals.

A signal is a deterministic base waveform plus an optional sum of sinusoidal
noise terms.  Ground truth (the clean signal and its onefold and double
integrals) excludes the noise terms: the observers are judged on how well
they recover the integrals of the clean reference, not of the noise.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import UnsupportedTruth

# Reference waveform constants: a3(t) = -REF_COEF * REF_RATE^2 * sin(REF_RATE t),
# whose printed antiderivatives are a2 = REF_COEF*REF_RATE*cos(REF_RATE t) and
# a1 = REF_COEF*sin(REF_RATE t).  The rate is the literal 3.14, not pi: the
# closed forms above hold only for the literal constant.
REF_COEF = 0.1
REF_RATE = 3.14

KINDS = ("sinusoid", "paper_reference", "composite")
PHASE_KINDS = ("sine", "cosine")


@dataclass(frozen=True)
class NoiseTerm:
    """One sinusoidal noise component, amp * sin(omega t) or amp * cos(omega t)."""

    amp: float
    omega: float
    phase: str = "sine"

    def __post_init__(self):
        if self.phase not in PHASE_KINDS:
            raise ValueError(f"phase must be one of {PHASE_KINDS}, got {self.phase!r}")
        if self.amp < 0 or self.omega < 0:
            raise ValueError("amp and omega must be >= 0")

    def eval(self, t: float) -> float:
        if self.phase == "sine":
            return self.amp * math.sin(self.omega * t)
        return self.amp * math.cos(self.omega * t)


@dataclass(frozen=True)
class SignalSpec:
    """Deterministic input signal description.

    kind:
      - ``sinusoid``: amplitude * sin(omega t), closed-form truth available.
      - ``paper_reference``: the fixed reference -0.1*3.14^2*sin(3.14 t)
        with its printed antiderivatives as truth (amplitude/omega fields
        are ignored for this kind).
      - ``composite``: same evaluation as ``sinusoid`` but the noise terms
        count as part of the signal, so no ground truth is defined.

    Noise terms are added on top of the base waveform by eval_input and are
    always excluded from eval_truth.
    """

    kind: str = "sinusoid"
    amplitude: float = 1.0
    omega: float = 1.0
    noise: tuple[NoiseTerm, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.amplitude < 0 or self.omega < 0:
            raise ValueError("amplitude and omega must be >= 0")


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


def _base_value(spec: SignalSpec, t: float) -> float:
    if spec.kind == "paper_reference":
        return -REF_COEF * REF_RATE * REF_RATE * math.sin(REF_RATE * t)
    return spec.amplitude * math.sin(spec.omega * t)


def eval_input(spec: SignalSpec, t: float) -> float:
    """Signal value at time t: base waveform plus all noise terms."""
    v = _base_value(spec, t)
    for term in spec.noise:
        v += term.eval(t)
    return v


def eval_truth(spec: SignalSpec, t: float) -> tuple[float, float, float]:
    """Closed-form (double integral, onefold integral, clean value) at time t.

    Integrals follow the zero-at-zero convention for the sinusoid kind.  The
    paper_reference kind returns the printed antiderivatives verbatim, whose
    onefold integral does not vanish at t=0.

    Raises UnsupportedTruth for the composite kind.
    """
    if spec.kind == "composite":
        raise UnsupportedTruth("composite signals have no closed-form integrals")
    if spec.kind == "paper_reference":
        a3 = -REF_COEF * REF_RATE * REF_RATE * math.sin(REF_RATE * t)
        a2 = REF_COEF * REF_RATE * math.cos(REF_RATE * t)
        a1 = REF_COEF * math.sin(REF_RATE * t)
        return a1, a2, a3
    a, w = spec.amplitude, spec.omega
    if w == 0.0:
        return 0.0, 0.0, 0.0
    a3 = a * math.sin(w * t)
    a2 = a * (1.0 - math.cos(w * t)) / w
    a1 = a * (t - math.sin(w * t) / w) / w
    return a1, a2, a3


def truth_arrays(spec: SignalSpec, times: np.ndarray) -> np.ndarray:
    """Vectorized eval_truth: shape (len(times), 3) columns (a1, a2, a3)."""
    if spec.kind == "composite":
        raise UnsupportedTruth("composite signals have no closed-form integrals")
    t = np.asarray(times, dtype=float)
    if spec.kind == "paper_reference":
        a3 = -REF_COEF * REF_RATE * REF_RATE * np.sin(REF_RATE * t)
        a2 = REF_COEF * REF_RATE * np.cos(REF_RATE * t)
        a1 = REF_COEF * np.sin(REF_RATE * t)
    else:
        a, w = spec.amplitude, spec.omega
        if w == 0.0:
            return np.zeros((t.size, 3))
        a3 = a * np.sin(w * t)
        a2 = a * (1.0 - np.cos(w * t)) / w
        a1 = a * (t - np.sin(w * t) / w) / w
    return np.column_stack([a1, a2, a3])


def supports_truth(spec: SignalSpec) -> bool:
    return spec.kind != "composite"


def make_input_fn(spec: SignalSpec) -> Callable[[float], float]:
    """Scalar closure a(t) for use in integration hot loops."""
    if spec.kind == "paper_reference":
        amp, w = -REF_COEF * REF_RATE * REF_RATE, REF_RATE
    else:
        amp, w = spec.amplitude, spec.omega
    if not spec.noise:
        return lambda t: amp * math.sin(w * t)

    # noise terms unrolled into a flat tuple, summation order preserved so the
    # closure is bit-identical to eval_input
    terms = tuple((n.amp, n.omega, n.phase == "sine") for n in spec.noise)
    sin, cos = math.sin, math.cos

    def noisy(t: float) -> float:
        v = amp * sin(w * t)
        for a_n, w_n, is_sin in terms:
            v += a_n * (sin(w_n * t) if is_sin else cos(w_n * t))
        return v

    return noisy
