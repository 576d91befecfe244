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

from .errors import ConfigError, UnsupportedTruth, check_fields

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


def _check_term(amp_name: str, amp: float, omega: float, is_sine: bool) -> None:
    # an infinite amplitude is a run that diverges, but a sine at omega 0 is inf * sin(0) = nan
    # at every step, which the kernels read as no tracking error; NaN is no amplitude at all
    if not amp >= 0.0:
        raise ConfigError(f"{amp_name} must be >= 0, got {amp!r}")
    if not 0.0 <= omega < math.inf:
        raise ConfigError(f"omega must be finite and >= 0, got {omega!r}")
    if is_sine and amp == math.inf and omega == 0.0:
        raise ConfigError(f"{amp_name} must be finite on a sine at omega 0, got inf")


@dataclass(frozen=True)
class NoiseTerm:
    """One sinusoidal noise component, amp * sin(omega t) or amp * cos(omega t); building one
    with a field mistyped or out of range raises ConfigError, led by the field name."""

    amp: float
    omega: float
    phase: str = "sine"

    def __post_init__(self):
        check_fields(self)
        if self.phase not in PHASE_KINDS:
            raise ConfigError(f"phase must be one of {PHASE_KINDS}, got {self.phase!r}")
        _check_term("amp", self.amp, self.omega, self.phase == "sine")


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

    make_input_fn(spec) evaluates a(t), the base waveform plus every noise
    term, at one time, and input_values(spec, times) at an array of times.
    truth_arrays(spec, times) evaluates the ground truth, which always
    excludes the noise terms.  Building one with a field mistyped or out of
    range raises ConfigError, its message led by the field name.
    """

    kind: str = "sinusoid"
    amplitude: float = 1.0
    omega: float = 1.0
    noise: tuple[NoiseTerm, ...] = field(default_factory=tuple)

    def __post_init__(self):
        check_fields(self)
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        _check_term("amplitude", self.amplitude, self.omega, True)


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


def terms(spec: SignalSpec) -> tuple[tuple[float, float, bool], ...]:
    """The signal's sinusoidal terms in summation order, (amp, omega, is_sine)
    each: the base waveform first, then every noise term in the order given."""
    if spec.kind == "paper_reference":
        base = (-REF_COEF * REF_RATE * REF_RATE, REF_RATE, True)
    else:
        base = (spec.amplitude, spec.omega, True)
    return (base, *((n.amp, n.omega, n.phase == "sine") for n in spec.noise))


def check_horizon(spec: SignalSpec, t_end: float) -> None:
    """Raise ConfigError, its message led by the field name, when a phase
    omega*t of the signal overflows before t_end."""
    for i, (_, w, _) in enumerate(terms(spec)):
        if w * t_end > MAX_PHASE:
            name = f"noise[{i - 1}].omega" if i else "omega"
            raise ConfigError(f"{name} {w:g} overflows the phase omega*t before t = {t_end:g}")


def check_step(spec: SignalSpec, h: float) -> None:
    """Raise ConfigError, its message led by the amplitude's field name, when a sine term of
    infinite amplitude has a phase step omega*h that rounds to 0.

    Its input inf * sin(omega * t) is inf * sin(0) = nan at t = 0 and at every step after it
    until omega*t leaves 0, and the kernels read a nan input as no tracking error: the run
    would record nan inputs and truths where it should diverge.  This is the omega 0 rule of
    SignalSpec for the step the run takes.
    """
    for i, (amp, w, is_sine) in enumerate(terms(spec)):
        if is_sine and amp == math.inf and w * h == 0.0:
            name = f"noise[{i - 1}].amp" if i else "amplitude"
            raise ConfigError(f"{name} must be finite on a sine whose omega*step_h rounds to 0 "
                              f"({w!r} * {h!r}), got inf")


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
    amp, w, _ = terms(spec)[0]
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


def _sum_of_terms(spec: SignalSpec, sin, cos) -> Callable:
    """a(t) over terms(spec), with sin and cos as the functions it calls.

    It computes v = a0 * sin(w0 * t), then v += amp * sin|cos(omega * t) for
    each further term, left to right, and returns v: each product and each
    addition is one float operation, and every float (inf, nan, -0.0,
    subnormals) is used as given.
    """
    (a0, w0, _), *rest = terms(spec)
    further = [(amp, omega, sin if is_sine else cos) for amp, omega, is_sine in rest]

    def a(t):
        v = a0 * sin(w0 * t)
        for amp, omega, f in further:
            v += amp * f(omega * t)
        return v

    return a


def make_input_fn(spec: SignalSpec) -> Callable[[float], float]:
    """Scalar closure a(t), the base waveform plus every noise term: the
    reference input of step() and of the tests.

    It sums terms(spec) left to right over math.sin and math.cos, one float
    operation at a time (see _sum_of_terms).
    """
    return _sum_of_terms(spec, math.sin, math.cos)


def input_values(spec: SignalSpec, times) -> np.ndarray:
    """a(t) at each of times, as a float array: make_input_fn(spec) applied
    element by element, bit for bit.

    It is the same loop over np.sin and np.cos, which are math.sin and
    math.cos bit for bit on float64 (tests/test_signals.py pins that on the
    arguments the runs use), so each element takes the same float operations
    in the same order as the scalar closure.  An overflowing product and
    inf * 0 give inf and nan without a numpy warning, as the closure gives
    them without an exception.
    """
    a = _sum_of_terms(spec, np.sin, np.cos)
    with np.errstate(over="ignore", invalid="ignore"):
        return a(np.asarray(times, dtype=float))
