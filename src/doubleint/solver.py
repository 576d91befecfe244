"""Fixed-step integration of an observer against a signal.

The public entry points are simulate() and step().  simulate() holds the one
list of a run's checks (the signal's phase horizon and step, validate_params,
the step guard, in that order), then takes a linear run in closed form
(analytic.signal_states, the same discretization's orbit) and a nonlinear one
from orbit(), the one stepped run, unchecked.  orbit() steps through a chunk
function per method on plain floats: a full nonlinear sweep takes ~10^7-10^8
RK4 steps, which rules out per-step calls into observers.rhs or power_sign.
One step template (_steps) writes the feedback law once, with power_sign
inlined, and each method's chunk function is rendered from it: to Python at
import, or to C (_c_source, each step line ending in `;`), the C library of
this module, which native builds with the system cc at the first nonlinear
run, caches per user and loads.  Runs take the C chunk functions, ~5x faster,
and the Python ones when cc is missing or fails, after one warning.  A chunk
function, chunk(p, x, *arrays, m, c, j, stride, out), takes m steps from the
state x, which it updates, and records every stride-th state into out; orbit
hands it c, the steps to its next record, and j, the flat index in out of its
last recorded row, both known from its first step.  The input does not depend
on the state, so orbit reads the inputs of CHUNK steps at once from an input
source, inputs(lo, hi), at the float times step() takes them at and to the
same bits.  step_inputs is the one rule for those arrays: it reads a(t + h)
from a(t) at the next step time wherever t + h rounds to it, and
signal_inputs applies it to signals.input_values a chunk at a time.  With
the C kernels, simulate uses a second core: one worker thread computes the
inputs of two chunks in three, up to AHEAD chunks ahead, while the C chunk
function, which releases the GIL, steps the current one (_orbit_ahead).  The
caller computes the third in place, and any chunk the worker has not
finished, without waiting for it.  Sweep lanes, whose inputs are slices of
one unit sine, and the Python kernels, which hold the GIL, read theirs in
place.
rhs(), step() and power_sign stay the readable reference:
test_kernels_match_public_step pins every kernel to step() bit for bit.
"""

import bisect
import contextvars
import functools
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import analytic, native, signals
from .errors import (ConfigError, DivergedState, DomainError, InvalidParams, UnsupportedTruth,
                     check_fields, config_value)
from .observers import ObserverParams, ObserverState, rhs, validate_params

METHODS = ("rk4", "euler")

# Step guard on the dominant rate k3/eps^4 of nonlinear params, a heuristic: the
# explicit methods' stability regions (Hairer & Wanner, Solving ODEs II, IV.2)
# bound h*lambda only for a linearization, which the non-Lipschitz feedback
# lacks.  Linear params are held to the exact rho(M) < 1 of their step map.
STABILITY_LIMIT = 2.0

# A recorded row takes about 11 float64 (time, input, states, truths, errors);
# runs whose record would exceed 1 GiB are refused before allocating it.
MAX_RECORD_ROWS = 2**30 // (11 * 8)

# A simulation in the C kernels takes 0.3-0.5 us per RK4 step on the noisy reference, two
# chunks' inputs in three computed on a second core (0.4-0.6 us with all of them in place;
# 2-core x86-64), so 10^9 steps is 5-8 minutes of RK4, and about an hour in the Python
# kernels; longer runs are refused before they start.
MAX_STEPS = 10**9


@dataclass(frozen=True)
class SimConfig:
    """Settings of one simulation run and the windows its metrics summarize; building one
    with a setting mistyped or out of range raises ConfigError, led by the field name."""

    step_h: float = 0.001
    duration: float = 20.0
    initial_state: ObserverState = ObserverState(0.0, 0.0, 0.0)
    method: str = "rk4"
    record_stride: int = 1
    metrics_windows: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        check_fields(self)
        h, d, stride = self.step_h, self.duration, self.record_stride
        for name, value in (("step_h", h), ("duration", d)):
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and positive, got {value!r}")
        if not all(map(math.isfinite, self.initial_state)):
            raise ConfigError(f"initial_state must be finite, got {tuple(self.initial_state)!r}")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if stride < 1:
            raise ConfigError("record_stride must be >= 1")
        # no stride brings a run under MAX_STEPS, so that refusal comes first
        if d / h >= MAX_STEPS:
            raise ConfigError(f"duration {d:g} takes over {MAX_STEPS} steps of {h:g}: "
                              "shorten it or raise step_h")
        if d / h >= MAX_RECORD_ROWS * stride:
            raise ConfigError(f"record_stride {stride} keeps over {MAX_RECORD_ROWS} rows "
                              "(1 GiB): raise it or shorten duration")
        if d < h:
            raise ConfigError(f"duration {d:g} is shorter than one step_h {h:g}")
        if stride > self.steps:
            raise ConfigError(f"record_stride {stride} exceeds the run's {self.steps} steps, "
                              "which would record only t = 0")
        _check_windows(self.metrics_windows, self._holds_record_time)

    @property
    def steps(self) -> int:
        return round(self.duration / self.step_h)

    def record_times(self) -> np.ndarray:
        """The run's record grid: row j at (j * record_stride) * step_h, the time of its state."""
        return (np.arange(self.steps // self.record_stride + 1) * self.record_stride) * self.step_h

    def _holds_record_time(self, lo: float, hi: float) -> bool:
        """Whether [lo, hi] holds a time of record_times(), without building the grid.

        The grid never decreases, so the window holds a time exactly when its first
        time >= lo, found by bisection over the grid's own expression, is <= hi.
        """
        stride, h = self.record_stride, self.step_h
        rows = range(self.steps // stride + 1)
        j = bisect.bisect_left(rows, lo, key=lambda k: (k * stride) * h)
        return j < len(rows) and lo <= (j * stride) * h <= hi


def _check_windows(windows, holds) -> None:
    """Raise ConfigError, led by metrics_windows, at the first (lo, hi) window for which
    holds(lo, hi), whether it holds a record time, is false."""
    for lo, hi in windows:
        if not holds(lo, hi):
            raise ConfigError(f"metrics_windows: [{lo:g}, {hi:g}] contains no samples")


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: times, states and, when ground truth exists, errors.

    All arrays share the first dimension: row j holds the state, input and truths at
    times[j] = SimConfig.record_times()[j], where that state was computed; errors = states - truths.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    truths: np.ndarray | None = None
    errors: np.ndarray | None = None

    def error(self, channel: int) -> np.ndarray:
        """Column channel - 1 of errors; raises UnsupportedTruth without ground truth and
        DomainError for a channel outside analytic.CHANNELS."""
        if self.errors is None:
            raise UnsupportedTruth("trajectory has no ground truth")
        return self.errors[:, analytic.check_channel(channel) - 1]

    def window(self, t_lo: float, t_hi: float) -> np.ndarray:
        """Boolean mask selecting record times in [t_lo, t_hi]."""
        return (self.times >= t_lo) & (self.times <= t_hi)


def check_config(p: ObserverParams, cfg: SimConfig) -> None:
    """Raise ConfigError, its message led by step_h, when the step guard refuses cfg for p.

    Nonlinear params are held to step_h*k3/eps^4 < STABILITY_LIMIT; linear ones, and
    alpha3 = 1, whose nonlinear step is the linear one, to their step map's rho(M) < 1.
    p must pass validate_params.
    """
    nonlinear = p.mode == "nonlinear"
    if nonlinear:
        rate = cfg.step_h * p.k3 / p.epsilon**4
        if not rate < STABILITY_LIMIT:
            raise ConfigError(
                f"step_h*k3/eps^4 = {rate:.3g} exceeds the stability limit {STABILITY_LIMIT}"
            )
        if p.alpha3 != 1.0:
            return
        p = replace(p, mode="linear")
    if _schur_stable_step(p, cfg.step_h, cfg.method):
        return
    # valid linear params are Hurwitz, so their stable steps form an interval
    # (0, h_max): a larger step that passes shows this one is below float
    # resolution rather than unstable.  No step passes once h*k3/eps^4 >= 9:
    # trace(A) = -k3/eps^4, so some |h lambda| >= 3 there, outside both
    # methods' stability regions (within |z| <= 2 for Euler, 2.96 for RK4)
    h = cfg.step_h
    while (h := 2.0 * h) * p.k3 / p.epsilon**4 < 9.0:
        if _schur_stable_step(p, h, cfg.method):
            if nonlinear:
                # a stepped run never inverts e^(i omega h) I - M, as the closed form does
                return
            raise ConfigError(
                f"step_h {cfg.step_h:g} is below float resolution for the linear "
                f"{cfg.method} step: its step map's spectral radius rounds to 1 "
                f"(step_h {h:g} is accepted)")
    raise ConfigError(f"step_h {cfg.step_h:g} makes the linear {cfg.method} step "
                      "unstable: its step map's spectral radius is not below 1")


def _schur_stable_step(p: ObserverParams, h: float, method: str) -> bool:
    """Whether the linear step map at h has a spectral radius below 1."""
    # the closed form of a linear run needs e^(i omega h) I - M invertible
    # at every omega; gains near the float range overflow M to inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        m = analytic.step_map(p, h, method)[0]
    return analytic.is_schur_stable(m)


def step(p: ObserverParams, state: ObserverState, t: float, h: float, a_fn,
         method: str = "rk4") -> ObserverState:
    """One integration step from time t; a_fn(t) supplies the input signal.  A state or input
    it reads, or the state it gives, that is not finite raises DivergedState at t + h."""
    if not 0.0 < h < math.inf:
        raise ConfigError(f"h must be finite and positive, got {h!r}")
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    x = state
    try:
        ka = rhs(p, x, a_fn(t))
        if method == "euler":
            out = ObserverState(x.x1 + h * ka[0], x.x2 + h * ka[1], x.x3 + h * ka[2])
        else:
            hh = 0.5 * h
            xb = ObserverState(x.x1 + hh * ka[0], x.x2 + hh * ka[1], x.x3 + hh * ka[2])
            kb = rhs(p, xb, a_fn(t + hh))
            xc = ObserverState(x.x1 + hh * kb[0], x.x2 + hh * kb[1], x.x3 + hh * kb[2])
            kc = rhs(p, xc, a_fn(t + hh))
            xd = ObserverState(x.x1 + h * kc[0], x.x2 + h * kc[1], x.x3 + h * kc[2])
            kd = rhs(p, xd, a_fn(t + h))
            out = ObserverState(
                x.x1 + h * (ka[0] + 2.0 * (kb[0] + kc[0]) + kd[0]) / 6.0,
                x.x2 + h * (ka[1] + 2.0 * (kb[1] + kc[1]) + kd[1]) / 6.0,
                x.x3 + h * (ka[2] + 2.0 * (kb[2] + kc[2]) + kd[2]) / 6.0,
            )
    except DivergedState as exc:
        # rhs refuses a non-finite state or input without a time of its own
        raise DivergedState(t + h, f"state diverged at t={t + h:.6g} s: {exc}") from exc
    if not all(map(math.isfinite, out)):
        raise DivergedState(t + h)
    return out


# power_sign(v, e) as an expression on a name v: its comparisons and its power,
# without the call
_POWER_SIGN = "({v} ** {e} if {v} > 0.0 else -((-{v}) ** {e}) if {v} < 0.0 else 0.0)"

# The same expression in C.  For a finite positive base, CPython's float ** calls libm's pow,
# and every exponent lies in (0, 1] (derive_alphas), so pow neither overflows nor raises;
# +-inf takes the same branch to +-inf in both, and nan and +-0 take the last one to +0.0.
_C_POWER_SIGN = "({v} > 0.0 ? pow({v}, {e}) : {v} < 0.0 ? -pow(-{v}, {e}) : 0.0)"


def _feedback(d3: str, y1: str, y2: str, y3: str, a: str, power_sign: str) -> list[str]:
    """Source lines setting d3 to rhs()'s nonlinear d3 at state (y1, y2, y3) and input a,
    with power_sign rendered by the template power_sign (_POWER_SIGN or _C_POWER_SIGN)."""
    ps = [power_sign.format(v=f"u{c}", e=f"a{c}") for c in (1, 2, 3)]
    return [f"u1 = eps * {y1}", f"u2 = e2 * {y2}", f"u3 = {y3} - {a}",
            f"{d3} = -(k1 * {ps[0]} + k2 * {ps[1]} + k3 * {ps[2]}) * inv"]


def _steps(power_sign: str) -> dict[str, tuple[tuple[tuple[str, float], ...], list[str]]]:
    """One step of each method from (x1, x2, x3) at time t = i*h, in step()'s operation order:
    method -> (inputs, lines), where inputs names each a(t) value the lines read and the
    fraction f of h past t that step() takes it at, t + f * h (orbit).  power_sign is
    _POWER_SIGN or _C_POWER_SIGN; every other line is both Python and, with a `;` added, C
    (_c_source)."""
    feedback = functools.partial(_feedback, power_sign=power_sign)
    return {
        "rk4": ((("a_t", 0.0), ("a_m", 0.5), ("a_n", 1.0)), [
            *feedback("d3a", "x1", "x2", "x3", "a_t"),
            "y1 = x1 + hh * x2",
            "y2 = x2 + hh * x3",
            "y3 = x3 + hh * d3a",
            *feedback("d3b", "y1", "y2", "y3", "a_m"),
            "d1b = y2",
            "d2b = y3",
            "y1 = x1 + hh * d1b",
            "y2 = x2 + hh * d2b",
            "y3 = x3 + hh * d3b",
            *feedback("d3c", "y1", "y2", "y3", "a_m"),
            "d1c = y2",
            "d2c = y3",
            "y1 = x1 + h * d1c",
            "y2 = x2 + h * d2c",
            "y3 = x3 + h * d3c",
            *feedback("d3d", "y1", "y2", "y3", "a_n"),
            "x1 += h * (x2 + 2.0 * (d1b + d1c) + y2) / 6.0",
            "x2 += h * (x3 + 2.0 * (d2b + d2c) + y3) / 6.0",
            "x3 += h * (d3a + 2.0 * (d3b + d3c) + d3d) / 6.0",
        ]),
        "euler": ((("a_t", 0.0),), [
            *feedback("d3", "x1", "x2", "x3", "a_t"),
            "x1 += h * x2",
            "x2 += h * x3",
            "x3 += h * d3",
        ]),
    }


_STEPS = _steps(_POWER_SIGN)

# Steps per input evaluation: orbit evaluates the inputs of CHUNK steps at once.
CHUNK = 4096

# The values of p and h a chunk function reads, in the order of its vector p (_param_vector).
_PARAMS = ("k1", "k2", "k3", "a1", "a2", "a3", "eps", "e2", "inv", "h", "hh")


def _param_vector(p: ObserverParams, h: float) -> np.ndarray:
    """The _PARAMS of p and the step h, the vector p of a chunk function."""
    eps = p.epsilon
    values = dict(k1=p.k1, k2=p.k2, k3=p.k3, a1=p.alpha1, a2=p.alpha2, a3=p.alpha3, eps=eps,
                  e2=eps * eps, inv=1.0 / eps**4, h=h, hh=0.5 * h)
    return np.array([values[name] for name in _PARAMS])


# One chunk of m steps of a method, from _STEPS, in Python: p holds the _PARAMS, {arrays} the
# inputs and x the state, carried between chunks; c is the number of steps to the next record and
# j the flat index in out of the last recorded row.  It returns the first step whose recorded row
# is not finite, or -1.
_CHUNK = """\
def chunk(p, x, {arrays}, m, c, j, stride, out):
    {params} = p.tolist()
    x1, x2, x3 = x.tolist()
    rec = memoryview(out).cast("B").cast("d")
    for k, {inputs} in zip(range(m), *[v.tolist() for v in ({arrays},)]):
{step}
        c -= 1
        if not c:
            c = stride
            j += 3
            rec[j], rec[j + 1], rec[j + 2] = x1, x2, x3
            if not (isfinite(x1) and isfinite(x2) and isfinite(x3)):
                return k
    x[0], x[1], x[2] = x1, x2, x3
    return -1
"""

# The same chunk function in C, rendered by _c_source.
_C_CHUNK = """\
int64_t {method}_chunk(const double *p, double *x, {arrays}, int64_t m, int64_t c, int64_t j,
                       int64_t stride, double *out)
{{
    const double {constants};
    double x1 = x[0], x2 = x[1], x3 = x[2];
    double {temps};
    for (int64_t k = 0; k < m; k++) {{
{step}
        if (!--c) {{
            c = stride;
            j += 3;
            out[j] = x1; out[j + 1] = x2; out[j + 2] = x3;
            if (!(isfinite(x1) && isfinite(x2) && isfinite(x3)))
                return k;
        }}
    }}
    x[0] = x1; x[1] = x2; x[2] = x3;
    return -1;
}}
"""


def step_inputs(values, t, h: float, method: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """(values(t), [values(t[:-1] + f * h) for each input of method's step]), t the step times
    and the next, f the fraction of h past a step's time that step() reads the input at
    (_STEPS): the arrays method's kernel reads for those steps.

    values maps an array of times to an array of values, element by element.  f = 0 is
    values(t)[:-1], and f = 1 reads values(t)[1:] wherever t + h rounds to the next step time
    (about 2 steps in 3 at h = 1e-3) and evaluates values at the other times only: every
    value has the bits values(t[:-1] + f * h) would give it.
    """
    at = values(t)
    out = []
    for _, f in _STEPS[method][0]:
        if f == 0.0:
            out.append(at[:-1])
        elif f == 1.0:
            after = t[:-1] + h
            off = after != t[1:]
            a = at[1:].copy()
            a[off] = values(after[off])
            out.append(a)
        else:
            out.append(values(t[:-1] + f * h))
    return at, out


def signal_inputs(spec: signals.SignalSpec, h: float, method: str):
    """inputs(lo, hi) of method's kernel against spec: the arrays of a(t + f * h) its steps
    lo..hi-1 read, t = arange(lo, hi) * h, from signals.input_values a chunk at a time."""
    values = functools.partial(signals.input_values, spec)
    return lambda lo, hi: step_inputs(values, np.arange(lo, hi + 1, dtype=float) * h, h,
                                      method)[1]


def _python_kernel(method: str):
    """The chunk function of method, _CHUNK rendered to Python."""
    names = [name for name, _ in _STEPS[method][0]]
    source = _CHUNK.format(params=", ".join(_PARAMS), arrays=", ".join(f"{n}_v" for n in names),
                           inputs=", ".join(names),
                           step="".join(f"        {line}\n" for line in _STEPS[method][1]))
    namespace = {"isfinite": math.isfinite}
    exec(compile(source, f"<doubleint.solver {method} chunk>", "exec"), namespace)
    return namespace["chunk"]


_KERNELS = {method: _python_kernel(method) for method in METHODS}


@functools.cache
def _c_source() -> str:
    """C of every method's chunk function, from _steps(_C_POWER_SIGN): the C of this module's
    library.  Each step line gains a `;`, and the target of each ` = ` line is a temporary."""
    parts = ["#include <math.h>\n#include <stdint.h>\n"]
    for method, (inputs, lines) in _steps(_C_POWER_SIGN).items():
        statements = [f"const double {name} = {name}_v[k];" for name, _ in inputs]
        statements += [f"{line};" for line in lines]
        temps = list(dict.fromkeys(target for target, assign, _ in
                                   (line.partition(" = ") for line in lines) if assign))
        read = set(re.findall(r"\w+", " ".join(lines)))
        parts.append(_C_CHUNK.format(
            method=method, arrays=", ".join(f"const double *{name}_v" for name, _ in inputs),
            constants=", ".join(f"{name} = p[{i}]" for i, name in enumerate(_PARAMS)
                                if name in read),
            temps=", ".join(temps), step="".join(f"        {s}\n" for s in statements)))
    return "\n".join(parts)


def _c_bind(lib) -> dict:
    """The chunk functions by method of lib, a library built from _c_source()."""
    f64 = native.pointer(np.float64, 1, "C_CONTIGUOUS")
    return {method: native.function(lib, f"{method}_chunk", f64, native.pointer(np.float64, 1),
                                    *[f64] * len(_STEPS[method][0]), int, int, int, int,
                                    native.pointer(np.float64, 2)) for method in METHODS}


def _c_kernels() -> dict | None:
    """The C chunk functions by method (native.load), or None without cc, after one warning."""
    return native.load(_c_source(), _c_bind)


def nonlinear_kernel(method: str):
    """The chunk function of method: the C one, else the Python one."""
    return (_c_kernels() or _KERNELS)[method]


def orbit(p: ObserverParams, cfg: SimConfig, inputs) -> np.ndarray:
    """States at cfg.record_times() of cfg's stepped run of p, its steps lo..hi-1 reading the
    arrays inputs(lo, hi) (step_inputs), through the chunk function of cfg.method on at most
    CHUNK steps at a time.

    The run is unchecked: it passed simulate's checks, or a sweep's.  The first non-finite
    recorded row raises DivergedState at its time; no step follows.
    """
    h, n, stride = cfg.step_h, cfg.steps, cfg.record_stride
    chunk = nonlinear_kernel(cfg.method)
    params = _param_vector(p, h)
    x = np.array(cfg.initial_state, dtype=float)
    states = np.empty((n // stride + 1, 3))
    states[0] = x
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        k = chunk(params, x, *inputs(lo, hi), hi - lo, stride - lo % stride, 3 * (lo // stride),
                  stride, states)
        if k >= 0:
            raise DivergedState((lo + k + 1) * h)
    return states


# _orbit_ahead's worker computes the inputs of up to AHEAD chunks past the one being stepped,
# two chunks of every IN_PLACE; the rest are computed in place.  On a shared 2-vCPU x86-64 guest
# a 500 s fig4 run is only as fast as its second vCPU is free.  In two sessions of 10 alternating
# 20 s runs: with every chunk's inputs on the worker, simulate_long's wall_s read 0.65x the
# serial run's, and its steps per second spread from run to run by 0.8-1.0x the benchmark's
# bound (the serial run's by 0.30x); with one chunk in three in place, 0.82x and 0.09x (the
# serial run's 0.17x).  With one chunk ahead the worker had yet to finish up to half the
# chunks it was given when the kernel reached them.
AHEAD = 2
IN_PLACE = 3


def _orbit_ahead(p: ObserverParams, cfg: SimConfig, inputs) -> np.ndarray:
    """orbit(p, cfg, inputs), with the C kernels on a second core: as the kernel steps chunk i,
    one worker thread computes the arrays of each chunk j in i+1..i+AHEAD of the run, but every
    IN_PLACE-th, that it was not given yet.  Chunk i's arrays come from the worker if it has
    finished them, else they are computed in place, as the first chunk's always are.

    The caller never waits for the worker: a chunk the worker has not finished is cancelled,
    or left to run if it has started, and computed in place, so a worker whose core is busy
    elsewhere leaves the run about as fast as a serial one, not slower.  Each job runs in a copy
    of the caller's context, so its np.errstate holds there too, and a prefetched chunk's
    exception is raised by the call that asks for it.  No thread is left when the run ends or
    raises: pending jobs are cancelled and a running one waited for.  The worker starts at
    its first job, so a run of one chunk starts none.
    """
    if _c_kernels() is None:
        # the Python kernel holds the GIL, so a worker thread only contends with it: a 500 s
        # fig4 run took a median 1.31 s with one and 1.20 s without
        return orbit(p, cfg, inputs)
    n, pool, jobs = cfg.steps, ThreadPoolExecutor(1), {}

    def source(lo, hi):
        i = lo // CHUNK
        job = jobs.pop(i, None)
        if job is not None and job.done():
            arrays = job.result()
        else:
            if job is not None:
                job.cancel()
            arrays = inputs(lo, hi)
        for j in range(i + 1, i + AHEAD + 1):
            if j * CHUNK < n and j % IN_PLACE and j not in jobs:
                jobs[j] = pool.submit(contextvars.copy_context().run, inputs, j * CHUNK,
                                      min(j * CHUNK + CHUNK, n))
        return arrays

    try:
        return orbit(p, cfg, source)
    finally:
        pool.shutdown(cancel_futures=True)


def simulate(p: ObserverParams, spec: signals.SignalSpec, cfg: SimConfig) -> Trajectory:
    """Integrate the observer against the signal and record a trajectory: the closed form of a
    linear run (analytic.signal_states), the orbit of a nonlinear one.

    Raises, in this order: ConfigError on a signal whose phase omega*t overflows in the
    run or whose phase step check_step refuses; InvalidParams when validate_params
    rejects p; ConfigError on a step the guard refuses (check_config); DivergedState
    (at the first non-finite recorded sample) on blowup.
    """
    signals.check_horizon(spec, cfg.duration + cfg.step_h)
    signals.check_step(spec, cfg.step_h)
    report = validate_params(p)
    if not report.ok:
        raise InvalidParams(report)
    check_config(p, cfg)
    if p.mode == "linear":
        states = analytic.signal_states(p, spec, cfg)
    else:
        states = _orbit_ahead(p, cfg, signal_inputs(spec, cfg.step_h, cfg.method))
    times = cfg.record_times()
    inputs = signals.input_values(spec, times)
    truths = errors = None
    if signals.supports_truth(spec):
        truths = signals.truth_arrays(spec, times)
        errors = states - truths
    return Trajectory(times, states, inputs, truths, errors)


def settle_time(traj: Trajectory, threshold: float, channel: int = 1) -> float:
    """First recorded time after which |error| stays below threshold.

    Returns 0.0 when the error never reaches the threshold and math.inf when
    it is still at or above it at the final recorded sample.  Raises DomainError
    for a NaN threshold, which no error reaches, and what Trajectory.error raises.
    """
    if math.isnan(threshold):
        raise DomainError("threshold must not be NaN")
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
    max|e1| over the [50%, 60%] window (0/0 is taken as 0: no drift); it is
    None when the [50%, 60%] window holds no recorded sample.
    """
    if traj.errors is None:
        return {"has_truth": False}
    t_end = float(traj.times[-1])
    if windows is None:
        windows = [(0.0, t_end)]
    windows = config_value("metrics_windows", tuple[tuple[float, float], ...], windows)
    _check_windows(windows, lambda lo, hi: traj.window(lo, hi).any())
    out: dict = {"has_truth": True, "windows": []}
    for lo, hi in windows:
        e = traj.errors[traj.window(lo, hi)]
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
