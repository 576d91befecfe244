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
(signal_states), from which every linear simulation takes its states.  It
reads the run's step, method, start state and record grid from the run's
solver.SimConfig, whose construction is the one place they are checked.  A
linear sweep lane's fit has a closed form too (sweep_row): its forced part
fits exactly, and its transient's sums over the fit window come from
doubling, so no sample is formed.  A steady_state sweep lane starts on the
forced orbit (Im of the phasor, which sweep_row solves once for the start
and the fit), so it has no transient: its rows are discrete_response to
rounding and its residual is exactly 0.
"""

import cmath
import math
from dataclasses import dataclass
from numbers import Real
from typing import TYPE_CHECKING

import numpy as np

from . import signals
from .errors import (CutoffNotFound, DivergedState, DomainError, IllConditioned, SingularAtDC,
                     SingularDenominator)
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


def check_channel(channel: int) -> int:
    """channel as an int; raises DomainError unless it is one of CHANNELS.

    As in errors.config_value, an integral float reads its channel and a bool is none.
    """
    if type(channel) is bool or not isinstance(channel, Real) or channel not in CHANNELS:
        raise DomainError(f"channel must be one of {CHANNELS}, got {channel}")
    return int(channel)


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
    channel = check_channel(channel)
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
    channel = check_channel(channel)
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
    # a float64, so that 1 / thr2 reads inf where thr2 underflows (drop_db past ~3240)
    thr2 = np.float64(10.0 ** (-drop_db / 10.0))
    k1, k2, k3, eps = np.array([p.k1, p.k2, p.k3, p.epsilon])
    with np.errstate(all="ignore"):
        # f / k3^2 in a = k1 eps / k3, b = k2 eps^2 / k3, c = eps^4 / k3, which
        # keep huge gains in range, and in v = u c^2, which keeps u2 near 1.  The
        # roots sum to (1 - thr2 (1 - 2 b c)) / thr2 > 0 there, so u2 is over half
        # the largest in magnitude, which np.roots gives to rounding; u1 can be
        # 1e-60 of it and lost, so the band test at hi reads the gain at hi
        a, b, c = k1 / k3 * eps, k2 / k3 * eps**2, eps**4 / k3
        g = np.array([thr2, thr2 * (1.0 - 2.0 * b * c) - 1.0, thr2 * (b * b - 2.0 * a) * c * c,
                      thr2 * a * a * c**4])
        # k3 = 0, an overflowing eps^4 or a NaN parameter leaves no gain within drop_db
        finite = np.isfinite(g).all()
        if finite and not np.isfinite(g[1] / thr2):
            # thr2 is (nearly) subnormal or 0, drop_db past ~3080, and np.roots would
            # overflow: the other roots multiply to -thr2 a^2 c^4, so v2 is -g[1] / thr2
            # to rounding, whose root is formed without v2, inf where thr2 is 0
            cut = float(np.sqrt(-g[1]) / np.sqrt(thr2) / c)
        else:
            roots = np.roots(g) if finite else np.empty(0)
            v = roots.real[(roots.imag == 0.0) & (roots.real > 0.0)]
            # sqrt(u2); inf when it passes the float range, nan when there is no band
            cut = float(np.sqrt(v.max()) / c) if v.size else math.nan
        # the gain at hi is within drop_db: |D(i hi) / (k3 (i hi)^2)|^2 <= 1 / thr2
        re, im = 1.0 - a / hi / hi, c * hi - b / hi
        hi_within = re * re + im * im <= 1.0 / thr2
    # f <= 0 on [u1, u2]: hi lies in the band when it is at most sqrt(u2) and the gain
    # there is within drop_db, or when it is inf and the band passes the float range
    if hi <= cut and (hi_within or hi == math.inf):
        raise CutoffNotFound(f"gain still within {drop_db:g} dB at bracket end {hi:g} rad/s")
    if not lo <= cut <= hi:
        raise CutoffNotFound(f"gain never within {drop_db:g} dB of the ideal response in bracket")
    return cut


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
            sin, cos = np.sin(theta), np.cos(theta)
            # Im(P e^(i theta)) = Re P sin + Im P cos; Re(P e^(i theta)) = Re P cos - Im P sin
            if is_sine:
                states += np.outer(sin, phasor.real)
                states += np.outer(cos, phasor.imag)
            else:
                states += np.outer(cos, phasor.real)
                states -= np.outer(sin, phasor.imag)
    states[0] = x0
    finite = np.isfinite(states)
    if not finite.all():
        raise DivergedState(float(k_h[finite.all(axis=1).argmin()]))
    return states


def check_normal_matrix(ss: float, cc: float, sc: float) -> None:
    """Raise IllConditioned when the normal matrix [[ss, sc], [sc, cc]] of a sinusoid fit is
    not finite or its condition number exceeds 1e8."""
    if not all(map(math.isfinite, (ss, cc, sc))):
        raise IllConditioned("normal matrix is not finite")
    # eigenvalues of the symmetric 2x2 normal matrix give its condition number
    mean = 0.5 * (ss + cc)
    half_gap = math.hypot(0.5 * (ss - cc), sc)
    lo_eig = mean - half_gap
    hi_eig = mean + half_gap
    if not (lo_eig > 0.0 and hi_eig / lo_eig <= 1e8):
        raise IllConditioned(
            f"normal matrix condition {math.inf if lo_eig <= 0 else hi_eig / lo_eig:.3g} "
            "exceeds 1e8"
        )


def _transient_sums(m: np.ndarray, theta: float, v: np.ndarray,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """(G, S) = (sum z^j M^j v, sum (M^j v)(M^j v)^T) over j = 0..n-1, z = e^(i theta).

    By doubling over the bits of n: G(2a) = G(a) + z^a M^a G(a), S(2a) = S(a) +
    M^a S(a) M^aT, and G(a+1) = G(a) + z^a w, S(a+1) = S(a) + w w^T with w = M^a v.  That
    is about 2 log2(n) products of 3x3 matrices, and no inverse of I - zM, which nears
    singular where an eigenvalue of M nears the unit circle (small h, a slow pole).
    """
    power = np.eye(3)
    g = np.zeros(3, dtype=complex)
    s = np.zeros((3, 3))
    a = 0
    for bit in f"{n:b}":
        if a:
            g = g + cmath.exp(1j * (theta * a)) * (power @ g)
            s = s + power @ s @ power.T
            power = power @ power
            a *= 2
        if bit == "1":
            w = power @ v
            g = g + cmath.exp(1j * (theta * a)) * w
            s = s + np.outer(w, w)
            power = power @ m
            a += 1
    return g, s


def sweep_row(p: ObserverParams, cfg: "SimConfig", amplitude: float, omega: float, lo: int,
              steady_state: bool) -> list[tuple[float, float, float]]:
    """(c1, c2, residual_rms) of channels 1..3 of the least-squares fit
    c1 sin(omega t) + c2 cos(omega t) to records lo..N, N = cfg.steps, of cfg's run (of
    stride 1) of linear p against amplitude * sin(omega t), from a zero start or, with
    steady_state, from its forced orbit: the fit of signal_states' columns, in closed form,
    with no record formed.  cfg's initial_state is not read.

    With z = e^(i omega h) and P = amplitude * discrete_response, the run is
    x_k = Im(P z^k) + M^k d, d = x0 - Im P, x0 = Im P on the forced orbit.  Its forced part
    Re P sin + Im P cos fits exactly, so (c1, c2) is (Re P, Im P) plus the transient's fit:
    the normal matrix, from e2 = sum z^(2k) over the window, solved against
    T = sum z^k M^k d, whose Im and Re are the transient's sine and cosine sums.  The
    residual is the transient's energy sum (M^k d)^2 less its fitted part: 0 on the forced
    orbit, where d is 0.  T and the energy come from _transient_sums from M^lo d.  Raises
    DivergedState(0.0) when P is not finite and IllConditioned when check_normal_matrix
    refuses the normal matrix.
    """
    m = step_map(p, cfg.step_h, cfg.method)[0]
    theta = omega * cfg.step_h
    n = cfg.steps - lo + 1
    response = discrete_response(p, cfg.step_h, cfg.method, omega)
    with np.errstate(over="ignore", invalid="ignore"):
        # an amplitude near the float range overflows P: the lane diverges
        re, im = amplitude * response.real, amplitude * response.imag
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise DivergedState(0.0)
    # e2 = sum of z^(2k), k = lo..N: the Dirichlet kernel sin(n theta) / sin(theta) turned
    # by the window's mid phase (lo + N) theta.  Within rounding of a multiple j pi both
    # sines lose every digit, so the kernel is read at phi = theta - j pi, where it is
    # (-1)^(j (n - 1)) sin(n phi) / sin(phi), and (-1)^(j (n - 1)) n where sin(phi) is 0
    j = round(theta / math.pi)
    phi = theta - j * math.pi
    sin_phi = math.sin(phi)
    kernel = math.sin(n * phi) / sin_phi if sin_phi else n
    e2 = cmath.exp(1j * (theta * (lo + cfg.steps))) * (-kernel if j * (n - 1) % 2 else kernel)
    ss, cc, sc = 0.5 * (n - e2.real), 0.5 * (n + e2.real), 0.5 * e2.imag
    check_normal_matrix(ss, cc, sc)
    det = ss * cc - sc * sc
    with np.errstate(over="ignore", invalid="ignore"):
        # a transient near the float range overflows its sums: the sweep flags the
        # non-finite coefficients or residual nonfinite_fit
        d = (im if steady_state else 0.0) - im
        t, energy = _transient_sums(m, theta, np.linalg.matrix_power(m, lo) @ d, n)
        t = cmath.exp(1j * (theta * lo)) * t
        sy, cy = t.imag, t.real
        c1 = (cc * sy - sc * cy) / det
        c2 = (ss * cy - sc * sy) / det
        resid = np.diagonal(energy) - (c1 * sy + c2 * cy)
        residual_rms = np.sqrt(np.where(resid < 0.0, 0.0, resid) / n)
    return list(zip((re + c1).tolist(), (im + c2).tolist(), residual_rms.tolist()))
