"""Fixed-step integration of an observer against a signal.

The public entry points are simulate(), integrate() (its times and states
alone) and step().  A linear run does not step: analytic.signal_states gives
the same discretization's orbit in closed form.  A nonlinear run steps
through a kernel per method on plain floats: a nonlinear sweep over the full
frequency grid takes ~10^7-10^8 RK4 steps, which rules out per-step calls
into observers.rhs or power_sign.  Every kernel is rendered from one step
template (_steps), in which the feedback law is written once, with
power_sign inlined as its own comparisons and power.  It is rendered twice:
to Python, compiled at import, and to C, built with the system cc at the
first nonlinear run or trajectory write and cached per user (_c_kernels);
the C library also holds io's number formatters (_C_FORMAT).  Runs take the
C kernels, ~5x faster, and the Python ones when cc is missing or fails, after
one warning; io then formats in Python, to the same bytes.  The input does
not depend on the state, so a kernel evaluates it CHUNK steps at a time with
signals.input_values, at the float times step() takes it at and to the same
bits.  rhs(), step() and power_sign stay the readable reference:
test_kernels_match_public_step pins every kernel to step() bit for bit.
"""

import bisect
import contextlib
import ctypes
import functools
import math
import os
import re
import shutil
import subprocess
import tempfile
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from . import analytic, signals
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

# The C kernels run ~2x10^6 RK4 steps per second, inputs included (0.4-0.7 us per step
# on the noisy reference, 2-core x86-64), so 10^9 steps is 8-12 minutes of RK4, and about
# an hour in the Python kernels; longer runs are refused before they start.
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
        if d / h >= MAX_RECORD_ROWS * stride:
            raise ConfigError(f"record_stride {stride} keeps over {MAX_RECORD_ROWS} rows "
                              "(1 GiB): raise it or shorten duration")
        if d / h >= MAX_STEPS:
            raise ConfigError(f"duration {d:g} takes over {MAX_STEPS} steps of {h:g}: "
                              "shorten it or raise step_h")
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
        analytic.check_channel(channel)
        return self.errors[:, channel - 1]

    def window(self, t_lo: float, t_hi: float) -> np.ndarray:
        """Boolean mask selecting record times in [t_lo, t_hi]."""
        return (self.times >= t_lo) & (self.times <= t_hi)


def check_config(p: ObserverParams, cfg: SimConfig) -> None:
    """Raise ConfigError, its message led by step_h, when the step guard refuses cfg for p.

    p must pass validate_params.
    """
    if p.mode == "nonlinear":
        rate = cfg.step_h * p.k3 / p.epsilon**4
        if not rate < STABILITY_LIMIT:
            raise ConfigError(
                f"step_h*k3/eps^4 = {rate:.3g} exceeds the stability limit {STABILITY_LIMIT}"
            )
    elif not _schur_stable_step(p, cfg.step_h, cfg.method):
        # valid linear params are Hurwitz, so their stable steps form an interval
        # (0, h_max): a larger step that passes shows this one is below float
        # resolution rather than unstable.  No step passes once h*k3/eps^4 >= 9:
        # trace(A) = -k3/eps^4, so some |h lambda| >= 3 there, outside both
        # methods' stability regions (within |z| <= 2 for Euler, 2.96 for RK4)
        h = cfg.step_h
        while (h := 2.0 * h) * p.k3 / p.epsilon**4 < 9.0:
            if _schur_stable_step(p, h, cfg.method):
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
    """One integration step from time t; a_fn(t) supplies the input signal."""
    if not 0.0 < h < math.inf:
        raise ConfigError(f"h must be finite and positive, got {h!r}")
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


def _steps(power_sign: str) -> dict[str, tuple[tuple[tuple[str, str], ...], list[str]]]:
    """One step of each method from (x1, x2, x3) at time t = i*h, in step()'s operation order:
    method -> (inputs, lines), where inputs names each a(t) value the lines read and the time
    it is taken at, as step() takes it.  power_sign is _POWER_SIGN or _C_POWER_SIGN; every
    other line is both Python and, with a `;` added, C (_c_source)."""
    def feedback(*names):
        return _feedback(*names, power_sign)

    return {
        "rk4": ((("a_t", "t"), ("a_m", "t + hh"), ("a_n", "t + h")), [
            *feedback("d3a", "x1", "x2", "x3", "a_t"),
            "y1 = x1 + hh * x2",
            "y2 = x2 + hh * x3",
            "y3 = x3 + hh * d3a",
            *feedback("d3b", "y1", "y2", "y3", "a_m"),
            "d1b, d2b = y2, y3",
            "y1 = x1 + hh * d1b",
            "y2 = x2 + hh * d2b",
            "y3 = x3 + hh * d3b",
            *feedback("d3c", "y1", "y2", "y3", "a_m"),
            "d1c, d2c = y2, y3",
            "y1 = x1 + h * d1c",
            "y2 = x2 + h * d2c",
            "y3 = x3 + h * d3c",
            *feedback("d3d", "y1", "y2", "y3", "a_n"),
            "x1 += h * (x2 + 2.0 * (d1b + d1c) + y2) / 6.0",
            "x2 += h * (x3 + 2.0 * (d2b + d2c) + y3) / 6.0",
            "x3 += h * (d3a + 2.0 * (d3b + d3c) + d3d) / 6.0",
        ]),
        "euler": ((("a_t", "t"),), [
            *feedback("d3", "x1", "x2", "x3", "a_t"),
            "x1 += h * x2",
            "x2 += h * x3",
            "x3 += h * d3",
        ]),
    }


_STEPS = _steps(_POWER_SIGN)

# Steps per input evaluation: a kernel evaluates the input of CHUNK steps at once as arrays,
# before it runs them.
CHUNK = 4096

# kernel(p, x0, spec, h, n, stride, out) runs n steps of the nonlinear observer from x0 against
# the signal spec and writes every stride-th state into out, a C-contiguous float array of shape
# (n // stride + 1, 3) whose row 0 is x0.  Step i starts at t = i*h, computed for a chunk at once
# as arange(lo, hi) * h, the same floats.  The first non-finite recorded row raises DivergedState
# at its time; no step follows, and only the rest of its chunk's inputs were evaluated.
_KERNEL = """\
def kernel(p, x0, spec, h, n, stride, out):
    k1, k2, k3 = p.k1, p.k2, p.k3
    a1, a2, a3 = p.alpha1, p.alpha2, p.alpha3
    eps = p.epsilon
    e2 = eps * eps
    inv = 1.0 / eps**4
    hh = 0.5 * h
    x1, x2, x3 = x0
    rec = memoryview(out).cast("B").cast("d")
    rec[0], rec[1], rec[2] = x1, x2, x3
    j = 0
    c = stride
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        t = arange(lo, hi, dtype=float) * h
        for i, {inputs} in zip(range(lo, hi), {values}):
{step}
            c -= 1
            if not c:
                c = stride
                j += 3
                rec[j] = x1
                rec[j + 1] = x2
                rec[j + 2] = x3
                if not (isfinite(x1) and isfinite(x2) and isfinite(x3)):
                    raise DivergedState((i + 1) * h)
"""

# The same kernel over a C function that runs one chunk's steps.  Python forms the times and
# inputs of each chunk as _KERNEL does, and p's derived values with the same operations.
_C_DRIVER = """\
def kernel(p, x0, spec, h, n, stride, out):
    if out.shape != (n // stride + 1, 3):
        raise ValueError(f"out has shape {{out.shape}}, not ({{n // stride + 1}}, 3)")
    eps = p.epsilon
    hh = 0.5 * h
    params = array([p.k1, p.k2, p.k3, p.alpha1, p.alpha2, p.alpha3,
                    eps, eps * eps, 1.0 / eps**4, h, hh])
    x = array(x0, dtype=float)
    out[0] = x
    counts = array([stride, 0], dtype=int64)
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        t = arange(lo, hi, dtype=float) * h
        k = chunk(params, x, {values}, hi - lo, counts, stride, out)
        if k >= 0:
            raise DivergedState((lo + k + 1) * h)
"""

# The names of _C_DRIVER's params, in order: a chunk function declares those its method's
# lines read.
_C_PARAMS = ("k1", "k2", "k3", "a1", "a2", "a3", "eps", "e2", "inv", "h", "hh")

# C of one chunk of m steps of a method: p holds _C_DRIVER's params, x the state and counts the
# stride countdown and the index in out of the last recorded row, each carried from chunk to
# chunk.  It returns the index of the first step whose recorded row is not finite, after
# recording that row, or -1 after all m steps.
_C_CHUNK = """\
int64_t {method}_chunk(const double *p, double *x, {arrays}, int64_t m, int64_t *counts,
                       int64_t stride, double *out)
{{
    const double {constants};
    double x1 = x[0], x2 = x[1], x3 = x[2];
    double {temps};
    int64_t c = counts[0], j = counts[1];
    for (int64_t k = 0; k < m; k++) {{
{step}
        if (!--c) {{
            c = stride;
            j += 3;
            out[j] = x1;
            out[j + 1] = x2;
            out[j + 2] = x3;
            if (!(isfinite(x1) && isfinite(x2) && isfinite(x3)))
                return k;
        }}
    }}
    x[0] = x1;
    x[1] = x2;
    x[2] = x3;
    counts[0] = c;
    counts[1] = j;
    return -1;
}}
"""

# C of the trajectory writers' number text, byte for byte as Python writes it: csv_cells writes
# "%.8e" (9 digits, half to even) and json_items the shortest repr that reads back as the
# same double.  Each writes the cells v[i..stop) into buf from *end, with their separators, and
# returns the index of the first cell it does not cover, unwritten, or stop.  Both take their
# digits from one routine, shortest(), Schubfach (R. Giulietti, "The Schubfach way to render
# doubles", 2020): three 64x128-bit products with a table of 10^-k to 128 bits, rounding up
# (POW10, which _c_source renders from exact integers) give x and the ends of its rounding
# interval at 10^k to the precision their comparisons need, and of the decimals in the interval
# it keeps the one with the fewest digits, then the nearest to x, then the even one, as repr
# does, for every finite double.  csv_cells rounds those digits to 9 for every normal double and
# leaves a subnormal, whose interval is too wide for that, to Python.  Without 128-bit integers
# every cell is left to Python.
_C_FORMAT = """\
#include <string.h>

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* the p digits of c at s, most significant first */
static char *digits(uint64_t c, int p, char *s)
{
    for (int i = p - 1; i >= 0; i--, c /= 10)
        s[i] = (char)('0' + c % 10);
    return s + p;
}

/* 'e', the sign and at least two digits of x at s */
static char *exponent(int x, char *s)
{
    *s++ = 'e';
    *s++ = x < 0 ? '-' : '+';
    x = x < 0 ? -x : x;
    if (x >= 100)
        *s++ = (char)('0' + x / 100);
    *s++ = (char)('0' + x / 10 % 10);
    *s++ = (char)('0' + x % 10);
    return s;
}

/* Write v's sign at *s and return 1 with v = m * 2^e, m of 53 bits, or of fewer with e = -1074
   for a subnormal; or return 0 with *s past the whole text of a NaN (unsigned), an infinity or a
   zero, the token nan, inf or zero */
static int split(double v, char **s, const char *nan, const char *inf, const char *zero,
                 uint64_t *m, int *e)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    int ex = (int)(bits >> 52 & 0x7ff);
    uint64_t frac = bits & ((UINT64_C(1) << 52) - 1);
    const char *token = ex == 0x7ff ? (frac ? nan : inf) : ex == 0 && !frac ? zero : NULL;
    if (bits >> 63 && !(ex == 0x7ff && frac))
        *(*s)++ = '-';
    if (token) {
        memcpy(*s, token, strlen(token));
        *s += strlen(token);
        return 0;
    }
    *m = ex ? frac | UINT64_C(1) << 52 : frac;
    *e = (ex ? ex : 1) - 1075;
    return 1;
}

/* g = POW10[i] = {high, low 64 bits} of floor(10^j * 2^(127 - floor(log2 10^j))) + 1 for
   j = i + POW10_MIN, every 10^-k that shortest() takes */
#define POW10_MIN (@POW10_MIN@)
static const uint64_t POW10[][2] = {
@POW10@};

/* floor(g * cp / 2^128), its last bit set when the fraction dropped reaches 2^-63 (Schubfach's
   round to odd): with g, Giulietti shows, it orders against even integers as the exact
   x * 10^-k does */
static uint64_t round_to_odd(const uint64_t *g, uint64_t cp)
{
    u128 low = (u128)g[1] * cp;
    u128 mid = (u128)g[0] * cp + (low >> 64);
    return (uint64_t)(mid >> 64) | ((uint64_t)mid > 1);
}

/* The decimal f * 10^k that repr writes for x = m * 2^e > 0, by Schubfach: of the decimals that
   read back as x, the fewest digits, then the nearest to x, then the even last digit.  It returns
   the sign of x - f * 10^k, from vb against 4f at the scale of vb (an even integer) */
static int shortest(uint64_t m, int e, uint64_t *f, int *k)
{
    /* below a power of two the next double is half as far, except at the least normal one; the
       rounding interval's ends read back as x when m is even */
    int narrow = m == UINT64_C(1) << 52 && e > -1074, odd = (int)(m & 1);
    /* k = floor(log10(2^e)), or floor(log10(3/4 * 2^e)) when narrow: the interval times
       10^-k is 1 to 10 wide, so it holds at least one integer and at most one multiple of 10 */
    *k = (e * 1262611 - (narrow ? 524031 : 0)) >> 22;
    /* 4x * 10^-k is (4m << h) * g / 2^128 to g's precision, with h in 1..4: 4m << h fits 64
       bits */
    int h = e + (-*k * 1741647 >> 19) + 1;
    const uint64_t *g = POW10[-*k - POW10_MIN];
    uint64_t vb = round_to_odd(g, 4 * m << h);
    uint64_t lower = round_to_odd(g, (4 * m - 2 + narrow) << h) + odd;
    uint64_t upper = round_to_odd(g, (4 * m + 2) << h) - odd;
    uint64_t s = vb >> 2;
    /* one digit fewer: the multiple of 10 in the interval, if any; 1-digit s is as short */
    if (s >= 10) {
        uint64_t sp = s / 10;
        int up = lower <= 40 * sp, wp = 40 * sp + 40 <= upper;
        if (up != wp) {
            *f = sp + wp;
            ++*k;
            return (vb > 40 * *f) - (vb < 40 * *f);
        }
    }
    /* otherwise s or s + 1, whichever of the two lies in the interval, or the nearer of the two,
       ties to the even one */
    int u = lower <= 4 * s, w = 4 * s + 4 <= upper;
    *f = s + (u != w ? w : vb > 4 * s + 2 || (vb == 4 * s + 2 && (s & 1)));
    return (vb > 4 * *f) - (vb < 4 * *f);
}

/* "%.8e" of v at s: the end of its text, or NULL for a subnormal.  A normal x's rounding interval
   is under 2^-52 * x wide, narrower than the 1e-10 * x between 10-digit decimals, so a 10-digit
   decimal ending in 5, where 9 digits round, lies in it only as its shortest decimal d: x's 9
   digits are d's, to nearest, and where d is such a midpoint the sign of x - d decides, half to
   even when x == d */
static char *csv_cell(double v, char *s)
{
    uint64_t m, f;
    int e, k;
    if (!split(v, &s, "nan", "inf", "0.00000000e+00", &m, &e))
        return s;
    if (!(m >> 52))
        return NULL;
    int side = shortest(m, e, &f, &k);
    /* f has 15 to 17 digits; padded to 17, q is its first 9 and r the other 8 */
    for (; f < UINT64_C(10000000000000000); f *= 10)
        k--;
    uint64_t q = f / 100000000, r = f % 100000000;
    q += r > 50000000 || (r == 50000000 && (side > 0 || (side == 0 && (q & 1))));
    k += 16;
    if (q == 1000000000) {
        q = 100000000;
        k++;
    }
    digits(q, 9, s + 1);
    s[0] = s[1];
    s[1] = '.';
    return exponent(k, s + 10);
}

/* repr of v at s: the end of its text */
static char *json_item(double v, char *s)
{
    uint64_t m, f;
    char dig[17];
    int e, k, nd = 1;
    if (!split(v, &s, "NaN", "Infinity", "0.0", &m, &e))
        return s;
    shortest(m, e, &f, &k);
    for (uint64_t ten = 10; nd < 17 && f >= ten; ten *= 10)
        nd++;
    int decpt = nd + k;
    digits(f, nd, dig);
    while (nd > 1 && dig[nd - 1] == '0')
        nd--;
    if (decpt <= -4 || decpt > 16) {
        *s++ = dig[0];
        if (nd > 1) {
            *s++ = '.';
            memcpy(s, dig + 1, nd - 1);
            s += nd - 1;
        }
        return exponent(decpt - 1, s);
    }
    if (decpt <= 0) {
        memcpy(s, "0.", 2);
        memset(s + 2, '0', -decpt);
        s += 2 - decpt;
        memcpy(s, dig, nd);
        return s + nd;
    }
    if (decpt < nd) {
        memcpy(s, dig, decpt);
        s[decpt] = '.';
        memcpy(s + decpt + 1, dig + decpt, nd - decpt);
        return s + nd + 1;
    }
    memcpy(s, dig, nd);
    memset(s + nd, '0', decpt - nd);
    memcpy(s + decpt, ".0", 2);
    return s + decpt + 2;
}
#else
static char *csv_cell(double v, char *s)
{
    (void)v;
    (void)s;
    return NULL;
}

static char *json_item(double v, char *s)
{
    (void)v;
    (void)s;
    return NULL;
}
#endif

/* cells of a row-major table of cols columns: each followed by ',', or at a row's end by missing
   commas and '\\n' */
int64_t csv_cells(const double *v, int64_t i, int64_t stop, int64_t cols, int64_t missing,
                  char *buf, int64_t *end)
{
    char *s = buf + *end, *next;
    for (; i < stop && (next = csv_cell(v[i], s)); i++) {
        s = next;
        if ((i + 1) % cols)
            *s++ = ',';
        else {
            memset(s, ',', missing);
            s += missing;
            *s++ = '\\n';
        }
    }
    *end = s - buf;
    return i;
}

/* items of a JSON list: each after the first preceded by ",\\n    " */
int64_t json_items(const double *v, int64_t i, int64_t stop, char *buf, int64_t *end)
{
    char *s = buf + *end, *next;
    for (; i < stop; i++) {
        if (i)
            memcpy(s, ",\\n    ", 6);
        if (!(next = json_item(v[i], s + (i ? 6 : 0))))
            break;
        s = next;
    }
    *end = s - buf;
    return i;
}
"""

# -ffp-contract=off keeps every product and sum its own rounding, as in Python; -ffast-math
# would reorder sums and drop the nan and inf cases
_C_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _exec_kernel(method: str, template: str, values: str, **names):
    """kernel of the template rendered for method, values the source of its input arrays."""
    inputs, lines = _STEPS[method]
    source = template.format(
        inputs=", ".join(name for name, _ in inputs),
        values=", ".join(values.format(at=at) for _, at in inputs),
        step="".join(f"            {line}\n" for line in lines))
    namespace = {"isfinite": math.isfinite, "arange": np.arange, "CHUNK": CHUNK,
                 "input_values": signals.input_values, "DivergedState": DivergedState, **names}
    exec(compile(source, f"<doubleint.solver {method} kernel>", "exec"), namespace)
    return namespace["kernel"]


_KERNELS = {method: _exec_kernel(method, _KERNEL, "input_values(spec, {at}).tolist()")
            for method in METHODS}


def _pow10_rows() -> tuple[int, str]:
    """(POW10_MIN, rows) of _C_FORMAT's POW10 table, from exact integers: for each j from
    -floor(log10(2^971)) to -floor(log10(2^-1074)), the decimal exponents -k of the largest
    and the least positive double, the row {high, low} of the 128 bits of
    floor(10^j * 2^(127 - b)) + 1, b = floor(log2 10^j).  It takes ~1 ms."""
    lo, hi = 1 - len(str(2**971)), len(str(2**1074))
    powers = [1]
    while len(powers) <= max(-lo, hi):
        powers.append(powers[-1] * 10)
    rows = []
    for j in range(lo, hi + 1):
        p = powers[abs(j)]
        # 10^j has b + 1 bits for j >= 0, and 1 / 10^j has -b of them
        g = (p << 127 >> (p.bit_length() - 1) if j >= 0
             else (1 << (127 + p.bit_length())) // p) + 1
        digits = f"{g:032x}"
        rows.append(f"    {{0x{digits[:16]}, 0x{digits[16:]}}},\n")
    return lo, "".join(rows)


def _c_source() -> str:
    """C of every method's chunk function, from _steps(_C_POWER_SIGN), and _C_FORMAT with its
    POW10 table.  In a chunk function the one tuple assignment, which reads none of its
    targets, becomes a statement per target, and every other line only gains a `;`."""
    parts = ["#include <math.h>\n#include <stdint.h>\n"]
    for method, (inputs, lines) in _steps(_C_POWER_SIGN).items():
        statements = [f"const double {name} = {name}_v[k];" for name, _ in inputs]
        temps: list[str] = []
        for line in lines:
            target, assign, value = line.partition(" = ")
            names = target.split(", ")
            temps += [name for name in names if assign and name not in temps]
            if len(names) > 1:
                statements += [f"{n} = {v};" for n, v in zip(names, value.split(", "))]
            else:
                statements.append(f"{line};")
        read = set(re.findall(r"\w+", " ".join(lines)))
        parts.append(_C_CHUNK.format(
            method=method, arrays=", ".join(f"const double *{name}_v" for name, _ in inputs),
            constants=", ".join(f"{name} = p[{i}]" for i, name in enumerate(_C_PARAMS)
                                if name in read),
            temps=", ".join(temps), step="".join(f"        {s}\n" for s in statements)))
    pow10_min, rows = _pow10_rows()
    parts.append(_C_FORMAT.replace("@POW10_MIN@", str(pow10_min)).replace("@POW10@", rows))
    return "\n".join(parts)


def _c_build_dir() -> tuple[str, bool]:
    """(directory, temporary): the per-user cache $XDG_CACHE_HOME/doubleint (else
    ~/.cache/doubleint), made with mode 0700, or a fresh private temporary directory when the
    cache cannot be made, is not the user's own, or others may write to it."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "doubleint")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
        if st.st_uid == os.getuid() and not st.st_mode & 0o022 and os.access(path, os.W_OK):
            return path, False
    except OSError:
        pass
    return tempfile.mkdtemp(prefix="doubleint-"), True


def _read_text(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            return f.read()
    except FileNotFoundError:
        return None


def _load_c_library(source: str) -> ctypes.CDLL:
    """The library built from source by cc, from the cache when the build there has the same
    source, compiler and flags; raises OSError when cc is missing or fails."""
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler cc on PATH")
    cc = os.path.realpath(cc)
    st = os.stat(cc)
    key = zlib.crc32("\0".join((source, *_C_FLAGS, cc, str(st.st_size),
                                str(st.st_mtime_ns))).encode())
    directory, temporary = _c_build_dir()
    stem = os.path.join(directory, f"kernels-{key:08x}")
    try:
        # a stored source that differs (a crc32 collision, or a file changed in the cache)
        # is never trusted: the library is built again
        if _read_text(stem + ".c") != source or not os.path.exists(stem + ".so"):
            _build_c_library(cc, source, stem)
        return ctypes.CDLL(stem + ".so")
    finally:
        if temporary:
            shutil.rmtree(directory, ignore_errors=True)


def _build_c_library(cc: str, source: str, stem: str) -> None:
    """Build stem.so from source and store source as stem.c beside it.

    Both are written under temporary names in stem's directory and renamed into place, the
    library first, so a concurrent build or load never sees a partial file.
    """
    fd, c_tmp = tempfile.mkstemp(suffix=".c", dir=os.path.dirname(stem))
    so_tmp = c_tmp[:-2] + ".so"
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(source)
        proc = subprocess.run([cc, *_C_FLAGS, "-o", so_tmp, c_tmp, "-lm"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            raise OSError(f"{cc} exited with status {proc.returncode}: {last[0]}")
        os.replace(so_tmp, stem + ".so")
        os.replace(c_tmp, stem + ".c")
    finally:
        for path in (c_tmp, so_tmp):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


def _pointer(dtype, ndim: int, flags: str = "C_CONTIGUOUS,WRITEABLE"):
    # ctypes checks each array's dtype, dimensions and flags before passing its pointer
    return np.ctypeslib.ndpointer(dtype, ndim, flags=flags)


def _c_function(lib: ctypes.CDLL, name: str, *argtypes):
    """The library's function name, returning int64 and taking argtypes."""
    function = getattr(lib, name)
    function.restype = ctypes.c_int64
    function.argtypes = argtypes
    return function


def _c_kernel(lib: ctypes.CDLL, method: str):
    """kernel of _KERNEL's contract over the library's chunk function for method."""
    chunk = _c_function(
        lib, f"{method}_chunk", _pointer(np.float64, 1, "C_CONTIGUOUS"), _pointer(np.float64, 1),
        *[_pointer(np.float64, 1, "C_CONTIGUOUS")] * len(_STEPS[method][0]),
        ctypes.c_int64, _pointer(np.int64, 1), ctypes.c_int64, _pointer(np.float64, 2))
    return _exec_kernel(method, _C_DRIVER, "input_values(spec, {at})", chunk=chunk,
                        array=np.array, int64=np.int64)


def _c_formatter(lib: ctypes.CDLL, name: str, extra: int):
    """The library's formatter name (_C_FORMAT), taking extra int64 arguments after stop:
    name(values, i, stop, *extra, buf, end) with values a flat float array and buf a byte
    array large enough for the cells' text."""
    return _c_function(lib, name, _pointer(np.float64, 1, "C_CONTIGUOUS"), ctypes.c_int64,
                       ctypes.c_int64, *[ctypes.c_int64] * extra, _pointer(np.uint8, 1),
                       _pointer(np.int64, 1))


@functools.cache
def _c_kernels() -> dict | None:
    """The C library's entry points by name, built or loaded at the first use of any in the
    process: each method's kernel, and the writers' formatters csv_cells and json_items
    (io).  None, after one warning, when cc is missing or fails."""
    try:
        lib = _load_c_library(_c_source())
    except OSError as exc:
        warnings.warn(f"the C kernels are unavailable ({exc}): nonlinear runs step in Python, "
                      "4-6x slower, and trajectories are formatted in Python, to the same states "
                      "and bytes", stacklevel=3)
        return None
    return {**{method: _c_kernel(lib, method) for method in METHODS},
            "csv_cells": _c_formatter(lib, "csv_cells", 2),
            "json_items": _c_formatter(lib, "json_items", 0)}


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
    signals.check_step(spec, cfg.step_h)
    times = cfg.record_times()
    if p.mode == "linear":
        states = analytic.signal_states(p, spec, cfg)
    else:
        states = np.empty((times.size, 3))
        kernel = (_c_kernels() or _KERNELS)[cfg.method]
        kernel(p, cfg.initial_state, spec, cfg.step_h, cfg.steps, cfg.record_stride, states)
    return times, states


def simulate(p: ObserverParams, spec: signals.SignalSpec, cfg: SimConfig) -> Trajectory:
    """Integrate the observer against the signal and record a trajectory.

    Raises InvalidParams when validate_params rejects p, ConfigError on a step
    the stability guard refuses (rho(M) >= 1 for linear params, step_h*k3/eps^4
    >= STABILITY_LIMIT for nonlinear) or a phase omega*t that overflows in the
    run, DivergedState (at the first non-finite recorded sample) on blowup.
    """
    times, states = integrate(p, spec, cfg)
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
    max|e1| over the [50%, 60%] window (0/0 counts as 0: no drift); it is
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
