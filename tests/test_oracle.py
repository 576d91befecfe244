"""The exact discrete-time oracle of the linear observer against solver.step.

One fixed step is an affine map (analytic.step_map), so a run driven by any
signal, a finite sum of sinusoids, has a closed form (analytic.signal_states),
which is how every linear run is computed.  A loop of the public step()
follows the same discretization in floating point, so the two agree to
rounding.
"""

import functools
import math

import numpy as np
import pytest

from doubleint import (
    DivergedState,
    DomainError,
    NoiseTerm,
    ObserverParams,
    ObserverState,
    SignalSpec,
    SimConfig,
    SweepConfig,
    fit_sinusoid,
    integrate,
    paper_reference_spec,
    signal_states,
    step,
    step_map,
    sweep_observer,
    transfer_eval,
)
from doubleint.analytic import BLOCK, is_schur_stable
from doubleint.signals import REFERENCE_NOISE, make_input_fn

H = 0.001
# the sweep's default run length; neither it nor its row count fills whole blocks
SAMPLES = 50000
# the signal_states runs: no whole number of blocks at any tested stride, and
# more than one block of rows at stride 100
STEPS = 26001


def linear(R: float) -> ObserverParams:
    return ObserverParams.from_rate(0.1, 0.1, 1.0, R, 1.0, "linear")


def start(p: ObserverParams, init: str, amplitude: float, omega: float) -> ObserverState:
    if init == "zero":
        return ObserverState(0.0, 0.0, 0.0)
    return ObserverState(
        *(amplitude * transfer_eval(p, ch, omega).value.imag for ch in (1, 2, 3)))


def step_states(p: ObserverParams, spec: SignalSpec, method: str, x0, n: int) -> np.ndarray:
    """States at every step of n public step() calls from x0."""
    a_fn = make_input_fn(spec)
    states = np.empty((n + 1, 3))
    x = states[0] = ObserverState(*x0)
    for i in range(n):
        x = step(p, x, i * H, H, a_fn, method)
        states[i + 1] = x
    return states


def assert_matches_step(closed: np.ndarray, reference: np.ndarray) -> None:
    assert closed.shape == reference.shape
    peak = np.abs(reference).max(axis=0)
    assert np.all(np.abs(closed - reference) <= 1e-12 + 1e-9 * peak)


@functools.cache
def sine_lane(R: float, method: str, init: str, f_hz: float) -> np.ndarray:
    """step() states of one sweep lane, shared by the state and sweep-row tests."""
    p = linear(R)
    omega = 2.0 * math.pi * f_hz
    return step_states(p, SignalSpec("sinusoid", 1.0, omega), method,
                       start(p, init, 1.0, omega), SAMPLES)


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("R", [3.0, 5.0])
def test_step_map_is_one_public_step(method, R):
    p = linear(R)
    m, b0, b1, b2 = step_map(p, H, method)
    a_fn = make_input_fn(paper_reference_spec(with_noise=True))
    rng = np.random.default_rng(7)
    for t in (0.0, 0.37, 12.5):
        x = rng.uniform(-2.0, 2.0, 3)
        want = np.array(step(p, ObserverState(*x), t, H, a_fn, method))
        got = m @ x + b0 * a_fn(t) + b1 * a_fn(t + 0.5 * H) + b2 * a_fn(t + H)
        assert np.abs(got - want).max() <= 1e-14 * (1.0 + np.abs(want).max())


def test_schur_test_agrees_with_the_eigenvalues():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        m = rng.normal(size=(3, 3))
        m /= np.abs(np.linalg.eigvals(m)).max()
        m *= 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** -rng.uniform(1, 9)
        assert is_schur_stable(m) == (np.abs(np.linalg.eigvals(m)).max() < 1.0)
    # a step map's radius approaches 1 as h shrinks: 1 - 2e-12 at h = 1e-9
    for h in (1e-3, 1e-6, 1e-9):
        assert is_schur_stable(step_map(linear(5.0), h, "rk4")[0])
    assert not is_schur_stable(np.eye(3))
    assert not is_schur_stable(np.full((3, 3), np.nan))


def test_step_map_rejects_nonlinear_params_and_unknown_methods():
    with pytest.raises(DomainError):
        step_map(ObserverParams.from_rate(0.1, 0.1, 1.0, 5.0, 0.3), H)
    with pytest.raises(DomainError):
        step_map(linear(5.0), H, "midpoint")


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("init", ["zero", "steady_state"])
@pytest.mark.parametrize("f_hz", [0.1, 5.6, 99.6])
@pytest.mark.parametrize("R", [3.0, 5.0])
def test_closed_form_states_match_the_kernel(method, init, f_hz, R):
    # the kernel is the public step(), looped
    assert SAMPLES % BLOCK and (SAMPLES + 1) % BLOCK
    p = linear(R)
    omega = 2.0 * math.pi * f_hz
    x0 = start(p, init, 1.0, omega)
    closed = signal_states(p, SignalSpec("sinusoid", 1.0, omega), H, method, x0, SAMPLES)
    assert tuple(closed[0]) == x0
    assert_matches_step(closed, sine_lane(R, method, init, f_hz))


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("init", ["zero", "steady_state"])
def test_linear_sweep_rows_match_the_kernel_fit(method, init):
    # the kernel is the public step(), looped
    p = linear(5.0)
    cfg = SweepConfig(freqs_hz=(0.1, 5.6, 99.6), discard_fraction=0.5, method=method,
                      init_state=init)
    curve = sweep_observer(p, cfg)
    assert len(curve.rows) == 9
    times = np.arange(cfg.samples + 1) * H
    lo = int(times.size * cfg.discard_fraction)
    for row in curve.rows:
        states = sine_lane(5.0, method, init, row.f_hz)
        fit = fit_sinusoid(times[lo:], states[lo:, row.channel - 1], row.omega)
        assert row.flag == "ok"
        assert abs(row.magnitude_db - 20.0 * math.log10(fit.amplitude)) <= 1e-9
        assert abs(math.remainder(row.phase_rad - fit.phase, 2.0 * math.pi)) <= 1e-9


SIGNALS = {
    "noisy": paper_reference_spec(with_noise=True),
    "cosine": SignalSpec("sinusoid", 0.0, 1.0, (NoiseTerm(0.3, 7.0, "cosine"),)),
    "dc": SignalSpec("sinusoid", 0.5, 3.0, (NoiseTerm(0.2, 0.0, "sine"),
                                            NoiseTerm(0.4, 0.0, "cosine"))),
    "composite": SignalSpec("composite", 0.5, 2.0, REFERENCE_NOISE),
}
STARTS = {"zero": (0.0, 0.0, 0.0), "scenario": (0.0, 1.0, 0.0)}


@functools.cache
def signal_lane(signal: str, x0: str, method: str) -> np.ndarray:
    return step_states(linear(5.0), SIGNALS[signal], method, STARTS[x0], STEPS)


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("stride", [1, 7, 100])
@pytest.mark.parametrize("x0", sorted(STARTS))
@pytest.mark.parametrize("signal", list(SIGNALS))
def test_signal_states_match_public_step(signal, x0, stride, method):
    # cosine terms, omega = 0 terms of both phases and the 5-term reference;
    # integrate() takes every linear run from signal_states
    assert STEPS % BLOCK and (STEPS // stride + 1) % BLOCK
    times, closed = integrate(linear(5.0), SIGNALS[signal],
                              SimConfig(H, STEPS * H, STARTS[x0], method, stride))
    rows = STEPS // stride + 1
    assert np.array_equal(times, np.arange(rows) * (stride * H))
    assert tuple(closed[0]) == STARTS[x0]
    assert_matches_step(closed, signal_lane(signal, x0, method)[::stride][:rows])


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("stride", [1, 7, 100])
def test_signal_states_prefix_is_a_shorter_run(method, stride):
    # a short run's rows are the first rows of a longer one, bit for bit
    p, spec, x0 = linear(5.0), SIGNALS["noisy"], STARTS["scenario"]
    longest = signal_states(p, spec, H, method, x0, 500000, stride)
    for n in (stride, 7 * stride, BLOCK * stride, (BLOCK + 1) * stride + 3, 60000, 123457):
        short = signal_states(p, spec, H, method, x0, n, stride)
        assert np.array_equal(short, longest[:short.shape[0]])


def test_first_nonfinite_row_raises_at_its_time():
    spec = SignalSpec("sinusoid", math.inf, 2.0 * math.pi * 5.1)
    for stride in (1, 7, 100):
        with pytest.raises(DivergedState) as info:
            signal_states(linear(5.0), spec, H, "rk4", (0.0, 0.0, 0.0), 500, stride)
        assert info.value.time == stride * H
