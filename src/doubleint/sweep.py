"""Frequency-sweep identification: drive, fit, assemble Bode curves.

For each grid frequency the observer is driven with A_m sin(2 pi f t), each
requested output channel is fitted with a single sinusoid at the drive
frequency by least squares, and the fitted amplitude/phase become one Bode
row.  Building the SweepConfig and check_sweep_config, the one list of a
run's checks, are the only checks that can refuse a sweep: sweep_observers
runs them once per run, then run_sweep runs every (variant, frequency) lane
unchecked.  A nonlinear lane is one solver.orbit run, stepped exactly as a
simulation of the same params would be, and fitted.  A linear lane forms no
sample: analytic.sweep_row gives its fits in closed form, from the step
map's phasor and geometric sums over the fit window, the fits of its stepped
samples to rounding.  A lane ends in rows, flagged when its run diverges or
its start state overflows.  A sweep of several variants over one grid
(sweep_observers; sweep_observer is its one-variant call) runs
frequency-major: each frequency with a nonlinear lane computes the arrays of
the unit sine its steps read (solver.step_inputs, the rule a simulation's
inputs follow too), the cosine of its phases and its fit basis once, and
every nonlinear variant's lane at that frequency reads them, scaled by its
amplitude, to the bits it would compute alone.  Frequencies are independent
work items, computed in a process pool when some lane steps; output order is
always by frequency.
"""

import math
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat

import numpy as np

from . import analytic
from .errors import (ConfigError, DivergedState, IllConditioned, InvalidParams, check_fields,
                     config_value)
from .observers import ObserverParams, ObserverState, validate_params
from .signals import MAX_PHASE, SignalSpec, check_step
from .solver import (MAX_RECORD_ROWS, STABILITY_LIMIT, SimConfig, check_config,
                     nonlinear_kernel, orbit, step_inputs)

TWO_PI = 2.0 * math.pi

INIT_KINDS = ("zero", "steady_state")


def default_grid() -> tuple[float, ...]:
    """Frequency grid 0.1, 0.6, 1.1, ... Hz: step 0.5, last value <= 100."""
    return tuple(0.1 + 0.5 * i for i in range(200))


@dataclass(frozen=True)
class SweepConfig:
    """Sweep settings; defaults reproduce the standard grid and horizons.  Building one
    with a setting mistyped or out of range raises ConfigError, led by the field name."""

    freqs_hz: tuple[float, ...] = field(default_factory=default_grid)
    amplitude: float = 1.0
    step_h: float = 0.001
    samples: int = 50000
    discard_fraction: float = 0.0
    channels: tuple[int, ...] = (1, 2, 3)
    method: str = "rk4"
    init_state: str = "zero"

    def __post_init__(self):
        check_fields(self)
        freqs = self.freqs_hz
        if not freqs:
            raise ConfigError("freqs_hz must not be empty")
        if any(not 0.0 < f < math.inf for f in freqs) or any(
                b <= a for a, b in zip(freqs, freqs[1:])):
            raise ConfigError("freqs_hz must be finite, positive and strictly increasing")
        if not 0.0 < self.amplitude:
            raise ConfigError(f"amplitude must be positive, got {self.amplitude!r}")
        if not 1 <= self.samples < MAX_RECORD_ROWS:
            raise ConfigError(f"samples must lie in [1, {MAX_RECORD_ROWS - 1}], got {self.samples}")
        if not 0.0 <= self.discard_fraction < 1.0:
            raise ConfigError("discard_fraction must lie in [0, 1)")
        if not self.channels or any(ch not in (1, 2, 3) for ch in self.channels):
            raise ConfigError("channels must be a non-empty subset of {1, 2, 3}")
        if list(self.channels) != sorted(set(self.channels)):
            # a curve holds one row per (frequency, channel), in that order
            raise ConfigError(f"channels must be strictly increasing, got {list(self.channels)}")
        if self.init_state not in INIT_KINDS:
            raise ConfigError(f"init_state must be one of {INIT_KINDS}")
        if 0.0 < self.step_h < math.inf and self.samples * self.step_h == math.inf:
            raise ConfigError(f"samples {self.samples} at step_h {self.step_h:g} overflow the "
                              "run length samples*step_h")
        # the run every frequency makes: SimConfig refuses its step_h and method
        sim = _frequency_sim(self)
        # the phase bound solver.simulate's check_horizon would apply to every lane
        t_end = sim.duration + sim.step_h
        if TWO_PI * freqs[-1] * t_end > MAX_PHASE:
            raise ConfigError(f"freqs_hz {freqs[-1]:g} Hz overflows the phase 2 pi f t "
                              f"within {t_end:g} s")
        # and the phase step of its check_step, least at the lowest frequency
        check_step(SignalSpec("sinusoid", self.amplitude, TWO_PI * freqs[0]), self.step_h)


@dataclass(frozen=True)
class SinusoidFit:
    """Least-squares fit y(t) ~ c1 sin(omega t) + c2 cos(omega t)."""

    c1: float
    c2: float
    amplitude: float
    phase: float
    residual_rms: float

    @classmethod
    def of(cls, c1: float, c2: float, residual_rms: float) -> "SinusoidFit":
        """The fit of coefficients c1 and c2: amplitude hypot(c1, c2), phase atan2(c2, c1)."""
        return cls(c1, c2, math.hypot(c1, c2), math.atan2(c2, c1), residual_rms)


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
    number above 1e8 (degenerate time span) or is not finite (non-finite
    times), fewer than 2 samples, or times or values that are not 1-D;
    raises ConfigError when omega is not finite and positive.
    """
    # an int past the float range compares exactly, so it fails here too
    if not 0.0 < omega <= sys.float_info.max:
        raise ConfigError("omega must be finite and positive")
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim != 1 or y.ndim != 1:
        raise IllConditioned(f"times and values must be 1-D, got shapes {t.shape} and {y.shape}")
    if t.size < 2 or t.size != y.size:
        raise IllConditioned("need at least 2 samples with matching times")
    with np.errstate(over="ignore", invalid="ignore"):
        # a phase omega*t that is inf or nan has no sine: the nan it gives
        # makes the normal matrix non-finite, which _Basis refuses
        phases = omega * t
        s, c = np.sin(phases), np.cos(phases)
    return _Basis.of(s, c).fit(y)


@dataclass(frozen=True)
class _Basis:
    """The regressors s = sin(omega t) and c = cos(omega t) at a fit's sample times, and
    their normal matrix [[ss, sc], [sc, cc]]: what every channel fitted at those times
    shares, so a sweep builds it once per frequency."""

    s: np.ndarray
    c: np.ndarray
    ss: float
    cc: float
    sc: float

    @classmethod
    def of(cls, s: np.ndarray, c: np.ndarray) -> "_Basis":
        """The basis of s and c; raises IllConditioned when analytic.check_normal_matrix
        refuses their normal matrix."""
        ss = _dot(s, s)
        cc = _dot(c, c)
        sc = _dot(s, c)
        analytic.check_normal_matrix(ss, cc, sc)
        return cls(s, c, ss, cc, sc)

    def fit(self, y: np.ndarray) -> SinusoidFit:
        """The least-squares fit of y, 1-D at the basis's sample times."""
        s, c, ss, cc, sc = self.s, self.c, self.ss, self.cc, self.sc
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
        return SinusoidFit.of(c1, c2, residual_rms)


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
    """Every check of the sweep of p at cfg past building cfg, in this order: raise
    InvalidParams when validate_params rejects p, then ConfigError, its message led by the
    field name, from check_amplitude, the steady_state start or the step guard of every
    frequency's run.  With the checks cfg passed when built, a sweep that passes cannot
    fail on its configuration part-way through.
    """
    report = validate_params(p)
    if not report.ok:
        raise InvalidParams(report)
    check_amplitude(p, cfg)
    if cfg.init_state == "steady_state" and p.mode != "linear" and p.alpha3 != 1.0:
        raise ConfigError("init_state steady_state needs a linear observer (or alpha3=1)")
    check_config(p, _frequency_sim(cfg))


def check_amplitude(p: ObserverParams, cfg: SweepConfig) -> None:
    """Raise ConfigError, its message led by amplitude, when cfg's amplitude A takes a
    nonlinear step that passes the step guard at A = 1 past it.

    The nonlinear observer is homogeneous: with m = alpha3 - 1, its run at (A, omega, h) is,
    with state j scaled by A^r_j, r = (3 - 2 alpha3, 2 - alpha3, 1), the unit-amplitude run
    at (omega A^-m, h A^m) (Bhat & Bernstein, Math. Control Signals Systems 17, 2005).  So
    the step guard h*k3/eps^4 < STABILITY_LIMIT of solver.check_config applies to the step
    h * min(1, A)^m.  Below A = 1 that step grows: at alpha3 = 0.3 and R = 5, where h = 1e-3
    reads 0.625, A = 0.01 and 1e-6 read 15.7 and ~9900, and their rows were +3 to +49 dB
    artefacts.  Above A = 1 it shrinks, and rows were measured smooth up to A = 1e6,
    so A >= 1 keeps the unit-amplitude guard.  p must pass validate_params.
    """
    if p.mode != "nonlinear" or not cfg.amplitude < 1.0:
        return
    try:
        step = cfg.step_h * cfg.amplitude ** (p.alpha3 - 1.0)
    except OverflowError:
        # a subnormal amplitude at a small alpha3
        step = math.inf
    # the unit-amplitude guard of check_config at that step, the same float operations
    rate = step * p.k3 / p.epsilon**4
    if cfg.step_h * p.k3 / p.epsilon**4 < STABILITY_LIMIT and not rate < STABILITY_LIMIT:
        raise ConfigError(f"amplitude {cfg.amplitude:g} scales the nonlinear step to "
                          f"step_h*amplitude^(alpha3-1) = {step:.3g} at unit amplitude, where "
                          f"step_h*k3/eps^4 = {rate:.3g} exceeds the stability limit "
                          f"{STABILITY_LIMIT}")


def _initial_state(p: ObserverParams, cfg: SweepConfig, omega: float) -> ObserverState:
    """A nonlinear lane's start state (a linear lane's run starts inside analytic.sweep_row);
    raises DivergedState(0.0) when it is not finite."""
    if cfg.init_state == "zero":
        return ObserverState(0.0, 0.0, 0.0)
    # the lane's own orbit, with no transient: the linear step map's forced steady state
    # at the drive frequency; A_m sin(omega t) is the imaginary part of A_m e^(i omega t)
    p_lin = replace(p, mode="linear")
    with np.errstate(over="ignore", invalid="ignore"):
        x0 = ObserverState(*(cfg.amplitude * analytic.discrete_response(
            p_lin, cfg.step_h, cfg.method, omega).imag).tolist())
    if not all(map(math.isfinite, x0)):
        # an amplitude near the float range: the lane diverges before its first step
        raise DivergedState(0.0)
    return x0


def _frequency_sim(cfg: SweepConfig) -> SimConfig:
    """The integration settings of one grid frequency, from a zero state."""
    return SimConfig(step_h=cfg.step_h, duration=cfg.samples * cfg.step_h, method=cfg.method)


def _run_frequency(runs: list, f_hz: float) -> list[list[BodeRow]]:
    """The rows of each run's lane at f_hz.  Linear lanes take their fits in closed form
    (analytic.sweep_row); nonlinear ones step from the frequency's unit sine (_unit_sine)
    and are fitted on its one _Basis, which are built only when such a lane runs and are
    freed on return."""
    omega = TWO_PI * f_hz
    cfg = runs[0][1]
    sim = _frequency_sim(cfg)
    lo = int((sim.steps + 1) * cfg.discard_fraction)
    sine = basis = None
    if any(p.mode == "nonlinear" for p, _ in runs):
        sine, basis = _unit_sine(omega, sim, lo)
    return [_run_lane(p, run_cfg, f_hz, sim, lo, sine, basis) for p, run_cfg in runs]


def _unit_sine(omega: float, sim: SimConfig, lo: int) -> tuple[list[np.ndarray], _Basis | None]:
    """(the arrays of sin(omega t) the steps of sim's run read (solver.step_inputs), the fit
    basis of its records lo on, None when its normal matrix is ill-conditioned).  sim has
    stride 1, so its record times are its step times."""
    t = sim.record_times()
    sin, steps = step_inputs(lambda x: np.sin(omega * x), t, sim.step_h, sim.method)
    try:
        return steps, _Basis.of(sin[lo:], np.cos(omega * t[lo:]))
    except IllConditioned:
        return steps, None


def _scaled(sine: list[np.ndarray], amplitude: float):
    """inputs(lo, hi) of solver.orbit against amplitude * sin(omega t), from the unit sine's
    step arrays: the bits solver.signal_inputs gives them."""
    def inputs(lo, hi):
        with np.errstate(invalid="ignore"):
            # an infinite amplitude times sin(0) is nan, as input_values gives it
            return [amplitude * a[lo:hi] for a in sine]
    return inputs


def _run_lane(p: ObserverParams, cfg: SweepConfig, f_hz: float, sim: SimConfig, lo: int,
              sine: list[np.ndarray] | None, basis: _Basis | None) -> list[BodeRow]:
    """The rows of p's lane at f_hz, fitted from record lo of its run on.  A linear lane's
    fits are analytic.sweep_row's; a nonlinear one steps from sine, the unit sine's step
    arrays, and is fitted by basis, None when its normal matrix is ill-conditioned.  A lane
    that diverges is flagged so first, then an ill-conditioned one.  The run is unchecked:
    p and cfg passed check_sweep_config."""
    omega = TWO_PI * f_hz
    try:
        if p.mode == "linear":
            row = analytic.sweep_row(p, sim, cfg.amplitude, omega, lo,
                                     cfg.init_state == "steady_state")
            fits = [SinusoidFit.of(*row[ch - 1]) for ch in cfg.channels]
        else:
            run = replace(sim, initial_state=_initial_state(p, cfg, omega))
            states = orbit(p, run, _scaled(sine, cfg.amplitude))
            if basis is None:
                raise IllConditioned("the frequency's normal matrix is refused")
            fits = [basis.fit(states[lo:, ch - 1]) for ch in cfg.channels]
    except (DivergedState, IllConditioned) as exc:
        flag = "diverged" if isinstance(exc, DivergedState) else "ill_conditioned"
        return [BodeRow(f_hz, omega, ch, math.nan, math.nan, None, None, "sweep", flag)
                for ch in cfg.channels]
    rows = []
    for ch, fit in zip(cfg.channels, fits):
        mag_db = analytic.decibels(fit.amplitude / cfg.amplitude)
        finite = all(map(math.isfinite, (mag_db, fit.phase, fit.residual_rms)))
        rows.append(
            BodeRow(f_hz, omega, ch, mag_db, fit.phase, None, fit.residual_rms, "sweep",
                    "ok" if finite else "nonfinite_fit")
        )
    return rows


def sweep_observer(p: ObserverParams, cfg: SweepConfig, workers: int = 1) -> BodeCurve:
    """Run the sweep over the whole grid and assemble the Bode curve: sweep_observers of
    the one run (p, cfg).  Raises what sweep_observers raises."""
    return run_sweep([(p, cfg)], _checked([(p, cfg)], workers))[0]


def sweep_observers(runs: list[tuple[ObserverParams, SweepConfig]],
                    workers: int = 1) -> list[BodeCurve]:
    """The Bode curve of each (p, cfg) of runs, in order, swept over one shared grid.

    The cfgs may differ in amplitude only.  Each grid frequency is one work item
    that runs every variant's lane (_run_frequency).  Divergence or an
    ill-conditioned fit at one frequency flags that lane's rows and the sweep
    continues.  With workers > 1 and a nonlinear run the frequencies are
    distributed over one process pool of at most one process per frequency;
    results are identical to the sequential run, which a sweep of linear runs
    only always takes.  Raises ConfigError when workers is not an integer
    or is below 1, runs is empty or its cfgs differ in more than amplitude, and
    then what check_sweep_config raises for the first run it refuses.
    """
    return run_sweep(runs, _checked(runs, workers))


def _checked(runs: list, workers) -> int:
    """workers as an int, once sweep_observers' refusals pass runs and workers."""
    workers = config_value("workers", int, workers)
    if not workers >= 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if not runs:
        raise ConfigError("runs must not be empty")
    cfg = runs[0][1]
    if any(replace(other, amplitude=cfg.amplitude) != cfg for _, other in runs):
        raise ConfigError("runs must share every sweep setting but amplitude")
    for p, run_cfg in runs:
        check_sweep_config(p, run_cfg)
    return workers


def run_sweep(runs: list, workers: int) -> list[BodeCurve]:
    """The curves of sweep_observers(runs, workers), unchecked: runs passed its checks."""
    cfg = runs[0][1]
    span = cfg.samples * cfg.step_h
    period = 1.0 / cfg.freqs_hz[0]
    if span < period:
        # a subnormal frequency's period overflows to inf: its repr is named instead
        what = (f"one period ({period:g} s) of the lowest frequency" if math.isfinite(period)
                else f"one period of the lowest frequency ({cfg.freqs_hz[0]!r} Hz)")
        warnings.warn(f"run length {span:g} s is shorter than {what}", stacklevel=3)
    # a fork pool starts all max_workers processes at the first submit
    workers = min(workers, len(cfg.freqs_hz))
    # a linear lane takes ~0.3 ms in closed form, less than a pool takes to start
    if workers > 1 and any(p.mode == "nonlinear" for p, _ in runs):
        # the workers fork with the kernel loaded here: one load, and one warning without cc
        nonlinear_kernel(cfg.method)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_freq = list(pool.map(_run_frequency, repeat(runs), cfg.freqs_hz))
    else:
        per_freq = list(map(_run_frequency, repeat(runs), cfg.freqs_hz))
    return [phase_unwrap(BodeCurve(tuple(row for lanes in per_freq for row in lanes[i]),
                                   params_meta(p), asdict(run_cfg), "sweep"))
            for i, (p, run_cfg) in enumerate(runs)]


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
