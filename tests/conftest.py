import cmath
import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from doubleint import (DivergedState, IllConditioned, ObserverParams, ObserverState, SignalSpec,
                       SimConfig, discrete_response, fit_sinusoid, paper_reference_spec, step,
                       step_map)
from doubleint.signals import make_input_fn
from doubleint.solver import CHUNK, _param_vector, orbit, signal_inputs
from doubleint.sweep import _initial_state

# Gains shared by every reproduction scenario.
K1, K2, K3 = 0.1, 0.1, 1.0

EPS = np.finfo(float).eps


@pytest.fixture
def nl_params():
    """Nonlinear observer of the simulation scenarios (R=5, alpha3=0.3)."""
    return ObserverParams(K1, K2, K3, 0.2, 0.3, "nonlinear")


@pytest.fixture
def lin_params():
    """Linear observer with the same gains and rate."""
    return ObserverParams(K1, K2, K3, 0.2, 1.0, "linear")


@pytest.fixture
def noisy_spec():
    return paper_reference_spec(with_noise=True)


@pytest.fixture
def scenario_x0():
    return ObserverState(0.0, 1.0, 0.0)


@functools.cache
def step_lane(p: ObserverParams, cfg, f_hz: float) -> np.ndarray:
    """States at every step of the sweep lane of p at f_hz (cfg a SweepConfig), from its start
    state by a loop of the public step(): the reference of a linear lane's closed-form rows,
    which never reads analytic.signal_states.  Raises DivergedState as the lane does: at
    t = 0 when its start state is not finite, else where step() diverges."""
    omega = 2.0 * math.pi * f_hz
    a_fn = make_input_fn(SignalSpec("sinusoid", cfg.amplitude, omega))
    h = cfg.step_h
    states = np.empty((cfg.samples + 1, 3))
    x = states[0] = _initial_state(p, cfg, omega)
    for i in range(cfg.samples):
        x = states[i + 1] = step(p, x, i * h, h, a_fn, cfg.method)
    return states


def kernel_lane(p: ObserverParams, cfg, f_hz: float) -> np.ndarray:
    """step_lane of linear p through solver.orbit of the nonlinear kernel at alpha3 = 1, whose
    step is the linear one: test_orbit_is_a_loop_of_step_in_either_kernel pins that kernel to
    step(), and it runs a lane of 50 000 samples in milliseconds."""
    omega = 2.0 * math.pi * f_hz
    run = SimConfig(cfg.step_h, cfg.samples * cfg.step_h, _initial_state(p, cfg, omega),
                    cfg.method)
    return orbit(replace(p, mode="nonlinear"), run,
                 signal_inputs(SignalSpec("sinusoid", cfg.amplitude, omega), cfg.step_h,
                               cfg.method))


def run_first_chunk(chunk, p: ObserverParams, x0, inputs, h: float, n: int,
                    stride: int) -> tuple[float | None, np.ndarray]:
    """(time, record) of one call of chunk, a method's chunk function in C or in Python, on
    the n <= CHUNK steps of orbit's first chunk: from x0 at step 0, reading the arrays
    inputs(0, n), every stride-th state written into a record of 7.25s whose row 0 is x0.
    time is when orbit would raise DivergedState, at the first non-finite recorded row, or
    None; the rows after it keep their 7.25s."""
    assert n <= CHUNK
    out = np.full((n // stride + 1, 3), 7.25)
    x = np.array(x0, dtype=float)
    out[0] = x
    k = chunk(_param_vector(p, h), x, *inputs(0, n), n, stride, 0, stride, out)
    return (None if k < 0 else (k + 1) * h), out


@functools.cache
def _power_bound(p: ObserverParams, h: float, method: str, steps: int) -> float:
    """max ||M^j|| (row-sum norm) over j = 0..steps of the step map M."""
    m = step_map(p, h, method)[0]
    power, bound = np.eye(3), 1.0
    for _ in range(steps):
        power = power @ m
        bound = max(bound, np.abs(power).sum(axis=1).max())
    return bound


def fit_tolerances(p: ObserverParams, cfg, omega: float, states: np.ndarray,
                   lo: int) -> tuple[float, float, float]:
    """(coefficient, residual, energy) bounds on how far the fit of a linear sweep lane in
    closed form (analytic.sweep_row) may lie from fit_sinusoid of its step() states
    (step_lane) from record lo on: assert_row_near_fit reads them.

    With N steps, n = N - lo + 1 fitted samples, B = max ||M^j|| (finite since rho(M) < 1,
    but above 1: 1.6 at h = 1e-5 and 7 at 1e-3 for R = 5) and x the larger of the run's
    peak |state| and its transient's start |d| = |x0 - Im P|, every rounding involved moves
    a fit's sums s.y and c.y (|s|, |c| <= 1) by at most n delta, delta = 16 N eps B x:
    - step() rounds each state to about 1 ulp, and M carries that forward with a gain of at
      most B, so a sample is off by at most ~N eps B x;
    - fit_sinusoid's sums of n products round by at most n eps of their n-term bound;
    - the closed form's doubling (analytic._transient_sums) rounds 2 log2(n) times partial
      sums of at most n B |d|; it inverts no I - zM, so cond(I - zM), 2.2e3 at the
      conditioning edge, does not enter.
    The factor 16 over the three leaves each a margin of 4 or more.  The normal matrix maps
    sums off by n delta to coefficients off by sqrt(2) n delta / lambda_min, lambda_min its
    least eigenvalue.  The residual rms moves by at most delta + sqrt(2) times that (the
    samples and the fitted sinusoid move), and the closed form's energy less its fitted
    part rounds by up to 4 (n + log2 n) eps (B x)^2 in the mean square.
    """
    n = cfg.samples - lo + 1
    phases = omega * (np.arange(cfg.samples + 1)[lo:] * cfg.step_h)
    s, c = np.sin(phases), np.cos(phases)
    lam_min = np.linalg.eigvalsh(np.array([[s @ s, s @ c], [s @ c, c @ c]]))[0]
    forced = cfg.amplitude * discrete_response(p, cfg.step_h, cfg.method, omega).imag
    x = max(np.abs(states).max(), np.abs(states[0] - forced).max())
    bound = _power_bound(p, cfg.step_h, cfg.method, cfg.samples)
    delta = 16.0 * cfg.samples * EPS * bound * x
    coef = math.sqrt(2.0) * n * delta / lam_min
    return coef, delta + math.sqrt(2.0) * coef, 4.0 * (n + math.log2(n)) * EPS * (bound * x)**2


def assert_row_near_fit(row, fit, amplitude: float,
                        tolerances: tuple[float, float, float]) -> None:
    """row, a closed-form sweep row, holds fit's coefficients c1 + i c2 and residual rms to
    within the fit_tolerances of its lane."""
    coef, resid, energy = tolerances
    got = amplitude * 10.0 ** (row.magnitude_db / 20.0) * cmath.exp(1j * row.phase_rad)
    want = complex(fit.c1, fit.c2)
    # forming row's dB and phase and reading them back rounds by a few dozen ulps of |want|
    assert abs(got - want) <= coef + 64.0 * EPS * abs(want), (row, fit)
    r, r_fit = row.residual_rms, fit.residual_rms
    # |r^2 - r_fit^2| = |r - r_fit| (r + r_fit), with the energy's rounding beside it
    assert abs(r * r - r_fit * r_fit) <= (2.0 * r_fit + resid) * resid + energy, (row, fit)


def check_linear_rows(p: ObserverParams, cfg, rows, stepped=step_lane) -> None:
    """Assert that rows, the curve of p's linear sweep at cfg (a SweepConfig), are the fits of
    its lanes' stepped states, stepped(p, cfg, f_hz) (step_lane or kernel_lane): a lane that
    diverges there, or whose window holds too few samples for fit_sinusoid, is flagged so,
    and every other row is ok and within the fit_tolerances of fit_sinusoid's fit."""
    assert [(r.f_hz, r.channel) for r in rows] == [(f, ch) for f in cfg.freqs_hz
                                                   for ch in cfg.channels]
    lo = int((cfg.samples + 1) * cfg.discard_fraction)
    times = np.arange(cfg.samples + 1) * cfg.step_h
    for i, f_hz in enumerate(cfg.freqs_hz):
        lane = rows[i * len(cfg.channels):(i + 1) * len(cfg.channels)]
        omega = 2.0 * math.pi * f_hz
        assert all(r.omega == omega for r in lane)
        try:
            states = stepped(p, cfg, f_hz)
            fits = [fit_sinusoid(times[lo:], states[lo:, ch - 1], omega) for ch in cfg.channels]
        except (DivergedState, IllConditioned) as exc:
            flag = "diverged" if isinstance(exc, DivergedState) else "ill_conditioned"
            assert all(r.flag == flag and math.isnan(r.magnitude_db) and math.isnan(r.phase_rad)
                       and r.residual_rms is None for r in lane), (lane, flag)
            continue
        tolerances = fit_tolerances(p, cfg, omega, states, lo)
        for row, fit in zip(lane, fits):
            assert row.flag == "ok", row
            assert_row_near_fit(row, fit, cfg.amplitude, tolerances)


@pytest.fixture
def linear_oracle():
    """check_linear_rows: a linear sweep curve against a loop of step() and fit_sinusoid."""
    return check_linear_rows


@pytest.fixture
def first_chunk():
    """run_first_chunk: what a chunk function, C or Python, records in orbit's first chunk."""
    return run_first_chunk


@pytest.fixture
def kernel_oracle():
    """check_linear_rows against the nonlinear kernel at alpha3 = 1 (kernel_lane), for runs
    too long for a loop of step()."""
    return functools.partial(check_linear_rows, stepped=kernel_lane)
