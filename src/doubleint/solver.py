"""Fixed-step integration of an observer against a signal.

The public entry points are simulate(), integrate() (its times and states
alone) and step().  A linear run does not step: analytic.signal_states gives
the same discretization's orbit in closed form.  A nonlinear run steps
through a kernel per method, hand-inlined on plain floats: a nonlinear sweep
over the full frequency grid takes ~10^7 RK4 steps, which rules out
per-step calls into observers.rhs.  test_kernels_match_public_step pins both
kernels to step() bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, signals
from .errors import ConfigError, DivergedState, InvalidParams
from .observers import ObserverParams, ObserverState, power_sign, rhs, validate_params

METHODS = ("rk4", "euler")

# Step guard on the dominant rate k3/eps^4 of nonlinear params, a heuristic: the
# explicit methods' stability regions (Hairer & Wanner, Solving ODEs II, IV.2)
# bound h*lambda only for a linearization, which the non-Lipschitz feedback
# lacks.  Linear params are held to the exact rho(M) < 1 of their step map.
STABILITY_LIMIT = 2.0

# A recorded row takes about 11 float64 (time, input, states, truths, errors);
# runs whose record would exceed 1 GiB are refused before allocating it.
MAX_RECORD_ROWS = 2**30 // (11 * 8)

# Steps run in pure Python at ~10^5-10^6 per second, so 10^9 steps is about an
# hour of RK4; longer runs are refused before they start.
MAX_STEPS = 10**9


@dataclass(frozen=True)
class SimConfig:
    """Integration settings for one simulation run."""

    step_h: float = 0.001
    duration: float = 20.0
    initial_state: ObserverState = ObserverState(0.0, 0.0, 0.0)
    method: str = "rk4"
    record_stride: int = 1


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: times, states and, when ground truth exists, errors.

    All arrays share the first dimension; times form the exact grid
    j * record_stride * step_h.  errors = states - truths componentwise.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    truths: np.ndarray | None = None
    errors: np.ndarray | None = None

    def error(self, channel: int) -> np.ndarray:
        if self.errors is None:
            raise ValueError("trajectory has no ground truth")
        return self.errors[:, channel - 1]

    def window(self, t_lo: float, t_hi: float) -> np.ndarray:
        """Boolean mask selecting record times in [t_lo, t_hi]."""
        return (self.times >= t_lo) & (self.times <= t_hi)


def check_config(p: ObserverParams, cfg: SimConfig) -> None:
    """Raise ConfigError, its message led by the field name, when simulate rejects cfg.

    p must pass validate_params.
    """
    for name in ("step_h", "duration"):
        if not 0.0 < getattr(cfg, name) < math.inf:
            raise ConfigError(f"{name} must be finite and positive, got {getattr(cfg, name)!r}")
    if not all(map(math.isfinite, cfg.initial_state)):
        raise ConfigError(f"initial_state must be finite, got {tuple(cfg.initial_state)!r}")
    if cfg.method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {cfg.method!r}")
    if cfg.record_stride < 1:
        raise ConfigError("record_stride must be >= 1")
    if cfg.duration / cfg.step_h >= MAX_RECORD_ROWS * cfg.record_stride:
        raise ConfigError(f"record_stride {cfg.record_stride} keeps over {MAX_RECORD_ROWS} rows "
                          "(1 GiB): raise it or shorten duration")
    if cfg.duration / cfg.step_h >= MAX_STEPS:
        raise ConfigError(f"duration {cfg.duration:g} takes over {MAX_STEPS} steps of "
                          f"{cfg.step_h:g}: shorten it or raise step_h")
    if cfg.duration < cfg.step_h:
        raise ConfigError(f"duration {cfg.duration:g} is shorter than one step_h {cfg.step_h:g}")
    steps = round(cfg.duration / cfg.step_h)
    if cfg.record_stride > steps:
        raise ConfigError(f"record_stride {cfg.record_stride} exceeds the run's {steps} steps, "
                          "which would record only t = 0")
    if p.mode == "nonlinear":
        rate = cfg.step_h * p.k3 / p.epsilon**4
        if not rate < STABILITY_LIMIT:
            raise ConfigError(
                f"step_h*k3/eps^4 = {rate:.3g} exceeds the stability limit {STABILITY_LIMIT}"
            )
    else:
        # the closed form of a linear run needs e^(i omega h) I - M invertible
        # at every omega; gains near the float range overflow M to inf or nan
        with np.errstate(over="ignore", invalid="ignore"):
            m = analytic.step_map(p, cfg.step_h, cfg.method)[0]
        if not analytic.is_schur_stable(m):
            raise ConfigError(f"step_h {cfg.step_h:g} makes the linear {cfg.method} step "
                              "unstable: its step map's spectral radius is not below 1")


def step(p: ObserverParams, state: ObserverState, t: float, h: float, a_fn,
         method: str = "rk4") -> ObserverState:
    """One integration step from time t; a_fn(t) supplies the input signal."""
    if h <= 0.0:
        raise ConfigError("step size must be positive")
    if method == "euler":
        d1, d2, d3 = rhs(p, state, a_fn(t))
        out = ObserverState(state.x1 + h * d1, state.x2 + h * d2, state.x3 + h * d3)
    elif method == "rk4":
        x = state
        ka = rhs(p, x, a_fn(t))
        xb = ObserverState(x.x1 + 0.5 * h * ka[0], x.x2 + 0.5 * h * ka[1], x.x3 + 0.5 * h * ka[2])
        kb = rhs(p, xb, a_fn(t + 0.5 * h))
        xc = ObserverState(x.x1 + 0.5 * h * kb[0], x.x2 + 0.5 * h * kb[1], x.x3 + 0.5 * h * kb[2])
        kc = rhs(p, xc, a_fn(t + 0.5 * h))
        xd = ObserverState(x.x1 + h * kc[0], x.x2 + h * kc[1], x.x3 + h * kc[2])
        kd = rhs(p, xd, a_fn(t + h))
        out = ObserverState(
            x.x1 + h * (ka[0] + 2.0 * (kb[0] + kc[0]) + kd[0]) / 6.0,
            x.x2 + h * (ka[1] + 2.0 * (kb[1] + kc[1]) + kd[1]) / 6.0,
            x.x3 + h * (ka[2] + 2.0 * (kb[2] + kc[2]) + kd[2]) / 6.0,
        )
    else:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    if not all(map(math.isfinite, out)):
        raise DivergedState(t + h)
    return out


def _run_rk4_nonlinear(p, x0, a_fn, h, n, stride, out):
    k1, k2, k3 = p.k1, p.k2, p.k3
    a1, a2, a3 = p.alpha1, p.alpha2, p.alpha3
    eps = p.epsilon
    e2 = eps * eps
    inv = 1.0 / eps**4
    ps = power_sign
    x1, x2, x3 = x0
    out[0, 0], out[0, 1], out[0, 2] = x1, x2, x3
    isfinite = math.isfinite
    j = 0
    for i in range(n):
        t = i * h
        a_t = a_fn(t)
        a_m = a_fn(t + 0.5 * h)
        a_n = a_fn(t + h)
        d3a = -(k1 * ps(eps * x1, a1) + k2 * ps(e2 * x2, a2) + k3 * ps(x3 - a_t, a3)) * inv
        y1 = x1 + 0.5 * h * x2
        y2 = x2 + 0.5 * h * x3
        y3 = x3 + 0.5 * h * d3a
        d3b = -(k1 * ps(eps * y1, a1) + k2 * ps(e2 * y2, a2) + k3 * ps(y3 - a_m, a3)) * inv
        d1b, d2b = y2, y3
        y1 = x1 + 0.5 * h * d1b
        y2 = x2 + 0.5 * h * d2b
        y3 = x3 + 0.5 * h * d3b
        d3c = -(k1 * ps(eps * y1, a1) + k2 * ps(e2 * y2, a2) + k3 * ps(y3 - a_m, a3)) * inv
        d1c, d2c = y2, y3
        y1 = x1 + h * d1c
        y2 = x2 + h * d2c
        y3 = x3 + h * d3c
        d3d = -(k1 * ps(eps * y1, a1) + k2 * ps(e2 * y2, a2) + k3 * ps(y3 - a_n, a3)) * inv
        x1 += h * (x2 + 2.0 * (d1b + d1c) + y2) / 6.0
        x2 += h * (x3 + 2.0 * (d2b + d2c) + y3) / 6.0
        x3 += h * (d3a + 2.0 * (d3b + d3c) + d3d) / 6.0
        if (i + 1) % stride == 0:
            j += 1
            out[j, 0], out[j, 1], out[j, 2] = x1, x2, x3
            if not (isfinite(x1) and isfinite(x2) and isfinite(x3)):
                raise DivergedState((i + 1) * h)


def _run_euler_nonlinear(p, x0, a_fn, h, n, stride, out):
    k1, k2, k3 = p.k1, p.k2, p.k3
    a1, a2, a3 = p.alpha1, p.alpha2, p.alpha3
    eps = p.epsilon
    e2 = eps * eps
    inv = 1.0 / eps**4
    ps = power_sign
    x1, x2, x3 = x0
    out[0, 0], out[0, 1], out[0, 2] = x1, x2, x3
    isfinite = math.isfinite
    j = 0
    for i in range(n):
        a_t = a_fn(i * h)
        d3 = -(k1 * ps(eps * x1, a1) + k2 * ps(e2 * x2, a2) + k3 * ps(x3 - a_t, a3)) * inv
        x1 += h * x2
        x2 += h * x3
        x3 += h * d3
        if (i + 1) % stride == 0:
            j += 1
            out[j, 0], out[j, 1], out[j, 2] = x1, x2, x3
            if not (isfinite(x1) and isfinite(x2) and isfinite(x3)):
                raise DivergedState((i + 1) * h)


_KERNELS = {"rk4": _run_rk4_nonlinear, "euler": _run_euler_nonlinear}


def integrate(p: ObserverParams, spec: signals.SignalSpec,
              cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Record times and states of the run simulate records, without its other columns.

    Raises what simulate raises.
    """
    report = validate_params(p)
    if not report.ok:
        raise InvalidParams(report)
    check_config(p, cfg)
    signals.check_horizon(spec, cfg.duration + cfg.step_h)
    n = round(cfg.duration / cfg.step_h)
    stride = cfg.record_stride
    m = n // stride + 1
    if p.mode == "linear":
        states = analytic.signal_states(p, spec, cfg.step_h, cfg.method, cfg.initial_state, n,
                                        stride)
    else:
        states = np.empty((m, 3))
        _KERNELS[cfg.method](p, cfg.initial_state, signals.make_input_fn(spec), cfg.step_h, n,
                             stride, states)
    return np.arange(m) * (stride * cfg.step_h), states


def simulate(p: ObserverParams, spec: signals.SignalSpec, cfg: SimConfig) -> Trajectory:
    """Integrate the observer against the signal and record a trajectory.

    Raises InvalidParams when validate_params rejects p, ConfigError on bad
    settings or a step the stability guard refuses (rho(M) >= 1 for linear
    params, step_h*k3/eps^4 >= STABILITY_LIMIT for nonlinear), DivergedState
    (with the time of the first non-finite recorded sample) on numerical blowup.
    """
    times, states = integrate(p, spec, cfg)
    a_fn = signals.make_input_fn(spec)
    inputs = np.fromiter((a_fn(t) for t in times), dtype=float, count=times.size)
    truths = errors = None
    if signals.supports_truth(spec):
        truths = signals.truth_arrays(spec, times)
        errors = states - truths
    return Trajectory(times, states, inputs, truths, errors)


def settle_time(traj: Trajectory, threshold: float, channel: int = 1) -> float:
    """First recorded time after which |error| stays below threshold.

    Returns 0.0 when the error never reaches the threshold and math.inf when
    it is still at or above it at the final recorded sample.
    """
    e = np.abs(traj.error(channel))
    bad = np.nonzero(e >= threshold)[0]
    if bad.size == 0:
        return 0.0
    if bad[-1] == e.size - 1:
        return math.inf
    return float(traj.times[bad[-1] + 1])


def trajectory_metrics(traj: Trajectory, windows: list[tuple[float, float]] | None = None) -> dict:
    """Per-channel RMS/max error metrics plus the end-window drift ratio.

    The drift ratio is max|e1| over the last 10% of the run divided by
    max|e1| over the [50%, 60%] window (0/0 counts as 0: no drift); it is
    None when the [50%, 60%] window holds no recorded sample.
    """
    if traj.errors is None:
        return {"has_truth": False}
    t_end = float(traj.times[-1])
    if windows is None:
        windows = [(0.0, t_end)]
    out: dict = {"has_truth": True, "windows": []}
    for lo, hi in windows:
        m = traj.window(lo, hi)
        e = traj.errors[m]
        if e.size == 0:
            raise ConfigError(f"metrics_windows: [{lo:g}, {hi:g}] contains no samples")
        with np.errstate(over="ignore"):
            # an error past ~1e154 squares to inf: its rms is inf, without a numpy warning
            rms = np.sqrt(np.mean(e**2, axis=0))
        out["windows"].append(
            {
                "t_lo": lo,
                "t_hi": hi,
                "rms": [float(v) for v in rms],
                "max_abs": [float(v) for v in np.max(np.abs(e), axis=0)],
            }
        )
    e1 = np.abs(traj.errors[:, 0])
    mid_window = e1[traj.window(0.5 * t_end, 0.6 * t_end)]
    if mid_window.size == 0:
        # a record of a few samples can skip the window
        out["drift_ratio_e1"] = None
        return out
    tail = float(e1[traj.window(0.9 * t_end, t_end)].max())
    mid = float(mid_window.max())
    out["drift_ratio_e1"] = 0.0 if tail == 0.0 else tail / mid if mid > 0.0 else math.inf
    return out
