"""Frequency-sweep identification: drive, fit, assemble Bode curves.

For each grid frequency the observer is driven with A_m sin(2 pi f t), each
requested output channel is fitted with a single sinusoid at the drive
frequency by least squares, and the fitted amplitude/phase become one Bode
row.  Every frequency's lane is one solver.integrate run, so it steps or
takes the closed form exactly as a simulation of the same params would.
check_sweep_config is the only check that can refuse a sweep: a lane that
passed it ends in rows, flagged when its run diverges or its start state
overflows.
Frequencies are independent work items and may be computed in parallel;
output order is always by frequency.
"""

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat

import numpy as np

from . import analytic
from .errors import ConfigError, DivergedState, IllConditioned, InvalidParams
from .observers import ObserverParams, ObserverState, validate_params
from .signals import MAX_PHASE, SignalSpec
from .solver import MAX_RECORD_ROWS, SimConfig, check_config, integrate

TWO_PI = 2.0 * math.pi

INIT_KINDS = ("zero", "steady_state")


def default_grid() -> tuple[float, ...]:
    """Frequency grid 0.1, 0.6, 1.1, ... Hz: step 0.5, last value <= 100."""
    return tuple(0.1 + 0.5 * i for i in range(200))


@dataclass(frozen=True)
class SweepConfig:
    """Sweep settings; defaults reproduce the standard grid and horizons."""

    freqs_hz: tuple[float, ...] = field(default_factory=default_grid)
    amplitude: float = 1.0
    step_h: float = 0.001
    samples: int = 50000
    discard_fraction: float = 0.0
    channels: tuple[int, ...] = (1, 2, 3)
    method: str = "rk4"
    init_state: str = "zero"


@dataclass(frozen=True)
class SinusoidFit:
    """Least-squares fit y(t) ~ c1 sin(omega t) + c2 cos(omega t)."""

    c1: float
    c2: float
    amplitude: float
    phase: float
    residual_rms: float


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # einsum runs its own loop; a 1-D `@` goes to BLAS ddot, whose thread pool
    # took milliseconds per 50k-sample product (einsum: ~25 us) when BLAS
    # threads are left at their default
    return float(np.einsum("i,i->", a, b))


def fit_sinusoid(times: np.ndarray, values: np.ndarray, omega: float) -> SinusoidFit:
    """Fit a single sinusoid at a known angular rate.

    Solves the 2x2 normal equations in closed form; amplitude is
    sqrt(c1^2 + c2^2) and the phase is the quadrant-correct arctangent of
    (c2, c1).  Raises IllConditioned when the normal matrix has condition
    number above 1e8 (degenerate time span) or fewer than 2 samples.
    """
    if omega <= 0.0:
        raise ConfigError("omega must be positive")
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.size < 2 or t.size != y.size:
        raise IllConditioned("need at least 2 samples with matching times")
    s = np.sin(omega * t)
    c = np.cos(omega * t)
    ss = _dot(s, s)
    cc = _dot(c, c)
    sc = _dot(s, c)
    # eigenvalues of the symmetric 2x2 normal matrix give its condition number
    mean = 0.5 * (ss + cc)
    half_gap = math.hypot(0.5 * (ss - cc), sc)
    lo_eig = mean - half_gap
    hi_eig = mean + half_gap
    if lo_eig <= 0.0 or hi_eig / lo_eig > 1e8:
        raise IllConditioned(
            f"normal matrix condition {math.inf if lo_eig <= 0 else hi_eig / lo_eig:.3g} "
            "exceeds 1e8"
        )
    det = ss * cc - sc * sc
    with np.errstate(over="ignore", invalid="ignore"):
        # outputs near the float range overflow to an inf or nan coefficient or
        # residual, which the sweep flags nonfinite_fit
        sy = _dot(s, y)
        cy = _dot(c, y)
        c1 = (cc * sy - sc * cy) / det
        c2 = (ss * cy - sc * sy) / det
        resid = y - c1 * s - c2 * c
        residual_rms = math.sqrt(float(np.mean(resid**2)))
    return SinusoidFit(c1, c2, math.hypot(c1, c2), math.atan2(c2, c1), residual_rms)


@dataclass(frozen=True)
class BodeRow:
    f_hz: float
    omega: float
    channel: int
    magnitude_db: float
    phase_rad: float
    phase_unwrapped_rad: float | None
    residual_rms: float | None
    source: str
    flag: str


@dataclass(frozen=True)
class BodeCurve:
    """Bode rows sorted by (frequency, channel) plus reproducibility metadata."""

    rows: tuple[BodeRow, ...]
    params: dict
    config: dict
    source: str = "sweep"

    def channel_rows(self, channel: int) -> list[BodeRow]:
        return [r for r in self.rows if r.channel == channel]

    def channel_arrays(self, channel: int):
        """(f_hz, magnitude_db, phase, phase_unwrapped) arrays for one channel."""
        rows = self.channel_rows(channel)
        get = lambda attr: np.array(
            [math.nan if getattr(r, attr) is None else getattr(r, attr) for r in rows]
        )
        return (np.array([r.f_hz for r in rows]), get("magnitude_db"),
                get("phase_rad"), get("phase_unwrapped_rad"))

    @property
    def flagged_fraction(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.flag != "ok" for r in self.rows) / len(self.rows)


def check_sweep_config(p: ObserverParams, cfg: SweepConfig) -> None:
    """Raise ConfigError, its message led by the field name, when sweep_observer rejects cfg.

    Covers the integration settings every frequency's run uses, so a sweep
    that passes cannot fail on its configuration part-way through.  p must
    pass validate_params.
    """
    freqs = cfg.freqs_hz
    if not freqs:
        raise ConfigError("freqs_hz must not be empty")
    if any(not 0.0 < f < math.inf for f in freqs) or any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise ConfigError("freqs_hz must be finite, positive and strictly increasing")
    if not 0.0 < cfg.amplitude:
        raise ConfigError(f"amplitude must be positive, got {cfg.amplitude!r}")
    if not 1 <= cfg.samples < MAX_RECORD_ROWS:
        raise ConfigError(f"samples must lie in [1, {MAX_RECORD_ROWS - 1}], got {cfg.samples}")
    if not 0.0 <= cfg.discard_fraction < 1.0:
        raise ConfigError("discard_fraction must lie in [0, 1)")
    if any(ch not in (1, 2, 3) for ch in cfg.channels) or not cfg.channels:
        raise ConfigError("channels must be a non-empty subset of {1, 2, 3}")
    if cfg.init_state not in INIT_KINDS:
        raise ConfigError(f"init_state must be one of {INIT_KINDS}")
    if cfg.init_state == "steady_state" and p.mode != "linear" and p.alpha3 != 1.0:
        raise ConfigError("init_state steady_state needs a linear observer (or alpha3=1)")
    sim = _frequency_sim(cfg)
    check_config(p, sim)
    # the phase bound integrate's check_horizon applies to every lane
    t_end = sim.duration + sim.step_h
    if TWO_PI * freqs[-1] * t_end > MAX_PHASE:
        raise ConfigError(f"freqs_hz {freqs[-1]:g} Hz overflows the phase 2 pi f t "
                          f"within {t_end:g} s")


def _initial_state(p: ObserverParams, cfg: SweepConfig, omega: float) -> ObserverState:
    """The lane's start state; raises DivergedState(0.0) when it is not finite."""
    if cfg.init_state == "zero":
        return ObserverState(0.0, 0.0, 0.0)
    # exact forced steady state of the linear dynamics at the drive frequency;
    # the input A_m sin(omega t) is the imaginary part of A_m e^(i omega t)
    p_lin = replace(p, mode="linear")
    x0 = ObserverState(
        *(cfg.amplitude * analytic.transfer_eval(p_lin, j, omega).value.imag for j in (1, 2, 3))
    )
    if not all(map(math.isfinite, x0)):
        # an amplitude near the float range: the lane diverges before its first step
        raise DivergedState(0.0)
    return x0


def _frequency_sim(cfg: SweepConfig) -> SimConfig:
    """The integration settings of one grid frequency, from a zero state."""
    return SimConfig(step_h=cfg.step_h, duration=cfg.samples * cfg.step_h, method=cfg.method)


def _run_frequency(p: ObserverParams, cfg: SweepConfig, f_hz: float) -> list[BodeRow]:
    omega = TWO_PI * f_hz
    rows = []
    spec = SignalSpec("sinusoid", cfg.amplitude, omega)
    try:
        x0 = _initial_state(p, cfg, omega)
        times, states = integrate(p, spec, replace(_frequency_sim(cfg), initial_state=x0))
    except DivergedState:
        return [
            BodeRow(f_hz, omega, ch, math.nan, math.nan, None, None, "sweep", "diverged")
            for ch in cfg.channels
        ]
    lo = int(times.size * cfg.discard_fraction)
    t_fit = times[lo:]
    for ch in cfg.channels:
        try:
            fit = fit_sinusoid(t_fit, states[lo:, ch - 1], omega)
        except IllConditioned:
            rows.append(
                BodeRow(f_hz, omega, ch, math.nan, math.nan, None, None, "sweep",
                        "ill_conditioned")
            )
            continue
        # a zero amplitude is -inf dB; a NaN one, from an overflowed fit, stays NaN
        ratio = fit.amplitude / cfg.amplitude
        mag_db = -math.inf if ratio == 0.0 else 20.0 * math.log10(ratio)
        finite = all(map(math.isfinite, (mag_db, fit.phase, fit.residual_rms)))
        rows.append(
            BodeRow(f_hz, omega, ch, mag_db, fit.phase, None, fit.residual_rms, "sweep",
                    "ok" if finite else "nonfinite_fit")
        )
    return rows


def sweep_observer(p: ObserverParams, cfg: SweepConfig, workers: int = 1) -> BodeCurve:
    """Run the sweep over the whole grid and assemble the Bode curve.

    Divergence or an ill-conditioned fit at one frequency flags that row and
    the sweep continues.  With workers > 1 the frequencies are distributed
    over a process pool; results are identical to the sequential run.
    """
    report = validate_params(p)
    if not report.ok:
        raise InvalidParams(report)
    check_sweep_config(p, cfg)
    span = cfg.samples * cfg.step_h
    period = 1.0 / cfg.freqs_hz[0]
    if span < period:
        warnings.warn(
            f"run length {span:g} s is shorter than one period ({period:g} s) "
            f"of the lowest frequency",
            stacklevel=2,
        )
    if workers > 1 and len(cfg.freqs_hz) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_freq = list(pool.map(_run_frequency, repeat(p), repeat(cfg), cfg.freqs_hz))
    else:
        per_freq = list(map(_run_frequency, repeat(p), repeat(cfg), cfg.freqs_hz))
    rows = tuple(row for rows in per_freq for row in rows)
    return phase_unwrap(
        BodeCurve(rows, params_meta(p), asdict(cfg), "sweep")
    )


def params_meta(p: ObserverParams) -> dict:
    return {**asdict(p), "R": 1.0 / p.epsilon}


def phase_unwrap(curve: BodeCurve) -> BodeCurve:
    """Fill the unwrapped-phase column using the minimal-jump rule.

    Per channel, in frequency order, each phase is shifted by a multiple of
    2 pi so that consecutive valid values never jump by more than pi.  The
    raw phase column is preserved untouched; flagged rows stay NaN and do
    not break the chain.
    """
    unwrapped: dict[tuple[float, int], float] = {}
    for ch in sorted({r.channel for r in curve.rows}):
        prev = None
        offset = 0.0
        for row in curve.channel_rows(ch):
            ph = row.phase_rad
            if math.isnan(ph):
                continue
            if prev is not None:
                offset -= TWO_PI * round((ph + offset - prev) / TWO_PI)
            value = ph + offset
            unwrapped[(row.f_hz, ch)] = value
            prev = value
    rows = tuple(
        replace(r, phase_unwrapped_rad=unwrapped.get((r.f_hz, r.channel)))
        for r in curve.rows
    )
    return BodeCurve(rows, curve.params, curve.config, curve.source)


def bode_from_transfer(p: ObserverParams, cfg: SweepConfig) -> BodeCurve:
    """Exact Bode curve in the sweep schema (source=analytic) for diffing."""
    rows = []
    for f_hz in cfg.freqs_hz:
        omega = TWO_PI * f_hz
        for ch in cfg.channels:
            te = analytic.transfer_eval(p, ch, omega)
            rows.append(
                BodeRow(f_hz, omega, ch, te.gain_db, te.phase, None, None, "analytic", "ok")
            )
    return phase_unwrap(
        BodeCurve(tuple(rows), params_meta(p), asdict(cfg), "analytic")
    )
