"""Exact frequency-domain characterization of the linear observer.

The linear observer has channel transfer functions

    H_j(s) = s^(j-1) k3 / (s^3 eps^4 + s^2 k3 + s k2 eps^2 + k1 eps),   j = 1..3

whose eps -> 0 limits are the ideal responses s^(j-3): double integrator,
integrator, unity.  These closed forms are the oracle the sweep pipeline is
validated against.

One fixed Euler or RK4 step of the linear observer is an affine map
(step_map).  Its forced orbit under e^(i omega t) has the phasor
discrete_response, the exact discrete-time counterpart of H_j, so the
response to any signal, a finite sum of sinusoids, has a closed form too
(signal_states), from which every linear run, simulated or swept, takes its
states.  It reads the run's step, method, start state and record grid from
the run's solver.SimConfig, whose construction is the one place they are
checked.  A steady_state sweep lane starts on that orbit (Im of the phasor),
so its rows are discrete_response to rounding.
"""

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import signals
from .errors import CutoffNotFound, DivergedState, DomainError, SingularAtDC, SingularDenominator
from .observers import ObserverParams

if TYPE_CHECKING:
    from .solver import SimConfig

# Rows per block of the transient M^k d: powers M^0..M^(BLOCK-1) are formed
# once and each block start M^(j BLOCK) d by repeated multiplication.
BLOCK = 256

CHANNELS = (1, 2, 3)


@dataclass(frozen=True)
class TransferEval:
    """One channel's exact response at a single frequency."""

    channel: int
    omega: float
    value: complex
    gain: float
    gain_db: float
    phase: float


def check_channel(channel: int) -> None:
    """Raise DomainError unless channel is one of CHANNELS."""
    if channel not in CHANNELS:
        raise DomainError(f"channel must be one of {CHANNELS}, got {channel}")


def decibels(ratio: float) -> float:
    """20 log10(ratio): -inf at 0, NaN for NaN."""
    return -math.inf if ratio == 0.0 else 20.0 * math.log10(ratio)


def _denominator(p: ObserverParams, s: complex) -> complex:
    # Horner form keeps the evaluation stable when s^3 eps^4 dominates.
    return ((p.epsilon**4 * s + p.k3) * s + p.k2 * p.epsilon**2) * s + p.k1 * p.epsilon


def transfer_eval(p: ObserverParams, channel: int, omega: float) -> TransferEval:
    """Evaluate H_channel(i omega) for a linear-mode parameter set."""
    if p.mode != "linear":
        raise DomainError("transfer_eval requires linear-mode parameters")
    check_channel(channel)
    s = 1j * omega
    den = _denominator(p, s)
    if abs(den) < 1e-300:
        raise SingularDenominator(f"denominator vanished at omega={omega:g}")
    try:
        value = s ** (channel - 1) * p.k3 / den
    except OverflowError:
        value = complex(math.nan, math.nan)
    if not (cmath.isfinite(den) and cmath.isfinite(value)):
        # s^(channel-1) or den overflowed at a huge omega: divide both by s^3,
        # which leaves powers of 1/s that shrink instead
        u = 1.0 / s
        eps = p.epsilon
        value = p.k3 * u ** (4 - channel) / (
            ((p.k1 * eps * u + p.k2 * eps**2) * u + p.k3) * u + eps**4)
    gain = abs(value)
    return TransferEval(channel, omega, value, gain, decibels(gain), cmath.phase(value))


def limit_transfer(channel: int, omega: float) -> complex:
    """Ideal response (i omega)^(channel-3): 1/s^2, 1/s or unity at s = i omega."""
    check_channel(channel)
    if channel == 3:
        return complex(1.0, 0.0)
    if omega == 0.0:
        raise SingularAtDC(f"ideal channel-{channel} response is unbounded at omega=0")
    s = 1j * omega
    try:
        value = s ** (channel - 3)
    except (OverflowError, ZeroDivisionError):
        # the power passes the float range at a tiny omega (or s^2 underflows
        # to 0): infinite, with the phase of the channel's finite values
        return complex(-math.inf, -0.0) if channel == 1 else complex(0.0, -math.inf)
    if not cmath.isfinite(value):
        # s^2 overflowed at a huge omega (and its reciprocal came out nan):
        # powers of 1/s shrink instead
        value = (1.0 / s) ** (3 - channel)
    return value


def is_hurwitz_cubic(c2: float, c1: float, c0: float) -> bool:
    """Routh-Hurwitz test for the monic cubic s^3 + c2 s^2 + c1 s + c0.

    All coefficients must be strictly positive and c2*c1 > c0; marginal
    cases are rejected.
    """
    return c2 > 0.0 and c1 > 0.0 and c0 > 0.0 and c2 * c1 > c0


def cutoff_frequency(p: ObserverParams, channel: int, drop_db: float = 3.0,
                     bracket: tuple[float, float] = (1e-3, 1e5)) -> float:
    """Bandwidth edge: largest omega where the channel stays within drop_db
    of the ideal integrator response.

    The reference level is |(i omega)^(channel-3)| rather than the channel's
    own peak: the slow resonance of the lightly damped pole pair dwarfs the
    useful passband, so a drop-from-peak rule would measure the resonance
    edge instead of the tracking bandwidth.  Every channel's ratio to it is
    k3 omega^2 / |D(i omega)|, D(s) = eps^4 s^3 + k3 s^2 + k2 eps^2 s + k1 eps,
    so channel is checked but does not change the result.  With u = omega^2
    and thr = 10^(-drop_db/20) the gain is within drop_db exactly where the
    cubic f(u) = thr^2 ((k1 eps - k3 u)^2 + u (k2 eps^2 - eps^4 u)^2) - k3^2 u^2
    is <= 0.  f(0) > 0 and its roots multiply to a negative number, so it has
    zero or two positive roots u1 <= u2: the band is [sqrt(u1), sqrt(u2)], and
    omega_c is the cutoff exactly when omega_c^2 is the larger root.

    Raises DomainError for a drop_db that is not positive (NaN included), a
    bracket that is not 0 < lo < hi, a channel outside CHANNELS or nonlinear
    p; CutoffNotFound when hi lies in the band or sqrt(u2) outside the bracket.
    """
    if not drop_db > 0.0:
        raise DomainError("drop_db must be positive")
    lo, hi = bracket
    if not 0.0 < lo < hi:
        raise DomainError("bracket must satisfy 0 < lo < hi")
    check_channel(channel)
    if p.mode != "linear":
        raise DomainError("cutoff_frequency requires linear-mode parameters")
    thr2 = 10.0 ** (-drop_db / 10.0)
    k1, k2, k3, eps = np.array([p.k1, p.k2, p.k3, p.epsilon])
    with np.errstate(all="ignore"):
        # f / k3^2 in a = k1 eps / k3, b = k2 eps^2 / k3, c = eps^4 / k3, which
        # keep huge gains in range
        a, b, c = k1 / k3 * eps, k2 / k3 * eps**2, eps**4 / k3
        f = np.array([thr2 * c * c, thr2 * (1.0 - 2.0 * b * c) - 1.0,
                      thr2 * (b * b - 2.0 * a), thr2 * a * a])
    # k3 = 0, an overflowing eps^4 or a NaN parameter leaves no gain within drop_db
    roots = np.roots(f) if np.isfinite(f).all() else np.empty(0)
    u = np.sort(roots.real[(roots.imag == 0.0) & (roots.real > 0.0)])
    # f <= 0 on [u1, u2]; u2 is past the float range, and missing, when c * c underflows
    if u.size and u[0] <= hi * hi <= (u[1] if u.size > 1 else math.inf):
        raise CutoffNotFound(f"gain still within {drop_db:g} dB at bracket end {hi:g} rad/s")
    if not (u.size and lo * lo <= u[-1] <= hi * hi):
        raise CutoffNotFound(f"gain never within {drop_db:g} dB of the ideal response in bracket")
    return math.sqrt(u[-1])


def step_map(p: ObserverParams, h: float, method: str = "rk4"):
    """One fixed step of the linear observer as the affine map (M, b0, b1, b2).

    x_{n+1} = M x_n + b0 a(t_n) + b1 a(t_n + h/2) + b2 a(t_n + h) for the
    step solver.step takes.  M is the method's stability polynomial of hA:
    I + hA for Euler, the degree-4 Taylor polynomial of exp(hA) for RK4.
    """
    if p.mode != "linear":
        raise DomainError("step_map requires linear-mode parameters")
    eps = p.epsilon
    inv = 1.0 / eps**4
    eye = np.eye(3)
    z = h * np.array([[0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0],
                      [-p.k1 * eps * inv, -p.k2 * eps * eps * inv, -p.k3 * inv]])
    g = np.array([0.0, 0.0, h * p.k3 * inv])
    if method == "euler":
        return eye + z, g, np.zeros(3), np.zeros(3)
    if method == "rk4":
        m = eye + z @ (eye + z @ (eye + z @ (eye + z / 4.0) / 3.0) / 2.0)
        b0 = (eye + z @ (eye + z @ (eye / 2.0 + z / 4.0))) @ g / 6.0
        b1 = (4.0 * eye + z @ (2.0 * eye + z / 2.0)) @ g / 6.0
        return m, b0, b1, g / 6.0
    raise DomainError(f"method must be rk4 or euler, got {method!r}")


def is_schur_stable(m: np.ndarray) -> bool:
    """Whether the spectral radius of the square matrix m is below 1.

    rho(m) < 1 exactly when some power of m has a norm below 1 (Gelfand's
    formula).  The powers m^(2^j), j < 64, come from squaring, so no LAPACK
    eigensolver is loaded (~1 MB of peak memory).  A non-finite m fails.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # an unstable m overflows to inf or nan, whose norm is never below 1
        for _ in range(64):
            if np.abs(m).sum(axis=1).max() < 1.0:
                return True
            m = m @ m
    return False


def _power_rows(m: np.ndarray, d: np.ndarray, rows: int) -> np.ndarray:
    """Rows M^k d for k = 0..rows-1, from blocked powers of M.

    Only products of M are formed (no eigendecomposition, which loses
    accuracy when M is near-defective).
    """
    powers = np.empty((BLOCK, 3, 3))
    powers[0] = np.eye(3)
    k = 1
    while k < BLOCK:
        hi = min(2 * k, BLOCK)
        powers[k:hi] = powers[:hi - k] @ (powers[k - 1] @ m)
        k = hi
    m_block = powers[-1] @ m
    starts = np.empty((-(-rows // BLOCK), 3))
    v = d
    for j in range(starts.shape[0]):
        starts[j] = v
        v = m_block @ v
    # einsum keeps to its own loops: no BLAS threads, the same sums everywhere
    return np.einsum("brc,jc->jbr", powers, starts).reshape(-1, 3)[:rows]


def discrete_response(p: ObserverParams, h: float, method: str, omega: float) -> np.ndarray:
    """Phasor P of the step map's forced orbit under e^(i omega t), per unit amplitude.

    P = (e^(i omega h) I - M)^-1 (b0 + b1 e^(i omega h/2) + b2 e^(i omega h)), the
    exact discrete-time counterpart of (H_1, H_2, H_3)(i omega): x_k = P e^(i omega k h)
    is an orbit of the step map under a(t) = e^(i omega t).  Needs e^(i omega h) I - M
    invertible, which rho(M) < 1 (solver.check_config) guarantees.
    """
    m, b0, b1, b2 = step_map(p, h, method)
    z = cmath.exp(1j * omega * h)
    forcing = b0 + b1 * cmath.exp(0.5j * omega * h) + b2 * z
    return np.linalg.solve(z * np.eye(3) - m, forcing)


def signal_states(p: ObserverParams, spec: signals.SignalSpec, cfg: "SimConfig") -> np.ndarray:
    """States at cfg.record_times() of cfg's run driven by spec's signal.

    The closed form of the orbit of the step map at h = cfg.step_h.  Each
    term amp sin|cos(omega t) of signals.terms(spec) is the imaginary or real
    part R of amp e^(i omega t), whose forced orbit is R(P e^(i omega k h))
    with P = amp * discrete_response(p, h, method, omega); the transient
    M^k (x0 - sum R(P)) takes the run from x0 = cfg.initial_state onto them.
    Row 0 is x0.  Raises DivergedState at the time of the first non-finite
    row.
    """
    h, x0 = cfg.step_h, cfg.initial_state
    m = step_map(p, h, cfg.method)[0]
    k_h = cfg.record_times()
    d = np.asarray(x0, dtype=float)
    forced = []
    with np.errstate(all="ignore"):
        # huge amplitudes overflow here: the non-finite rows are reported below
        for amp, omega, is_sine in signals.terms(spec):
            phasor = amp * discrete_response(p, h, cfg.method, omega)
            d = d - (phasor.imag if is_sine else phasor.real)
            forced.append((phasor, omega, is_sine))
        states = _power_rows(np.linalg.matrix_power(m, cfg.record_stride), d, k_h.size)
        for phasor, omega, is_sine in forced:
            theta = omega * k_h
            # Im(P e^(i theta)) = Re P sin + Im P cos; Re(P e^(i theta)) = Re P cos - Im P sin
            if is_sine:
                states += np.outer(np.sin(theta), phasor.real)
                states += np.outer(np.cos(theta), phasor.imag)
            else:
                states += np.outer(np.cos(theta), phasor.real)
                states -= np.outer(np.sin(theta), phasor.imag)
    states[0] = x0
    bad = ~np.isfinite(states).all(axis=1)
    if bad.any():
        raise DivergedState(float(k_h[bad.argmax()]))
    return states
