"""The exact discrete-time oracle of the linear observer against the kernels.

One fixed step is an affine map (analytic.step_map), so a sinusoidally
driven run has a closed form (analytic.sinusoid_states).  The kernels follow
the same discretization in floating point, so the two agree to rounding.
"""

import math

import numpy as np
import pytest

from doubleint import (
    DivergedState,
    DomainError,
    ObserverParams,
    ObserverState,
    SignalSpec,
    SimConfig,
    SweepConfig,
    fit_sinusoid,
    integrate,
    paper_reference_spec,
    sinusoid_states,
    step,
    step_map,
    sweep_observer,
    transfer_eval,
)
from doubleint.analytic import BLOCK
from doubleint.signals import make_input_fn

H = 0.001
# the sweep's default run length; neither it nor its row count fills whole blocks
SAMPLES = 50000


def linear(R: float) -> ObserverParams:
    return ObserverParams.from_rate(0.1, 0.1, 1.0, R, 1.0, "linear")


def start(p: ObserverParams, init: str, amplitude: float, omega: float) -> ObserverState:
    if init == "zero":
        return ObserverState(0.0, 0.0, 0.0)
    return ObserverState(
        *(amplitude * transfer_eval(p, ch, omega).value.imag for ch in (1, 2, 3)))


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
    assert SAMPLES % BLOCK and (SAMPLES + 1) % BLOCK
    p = linear(R)
    omega = 2.0 * math.pi * f_hz
    x0 = start(p, init, 1.0, omega)
    times, kernel = integrate(p, SignalSpec("sinusoid", 1.0, omega),
                              SimConfig(H, SAMPLES * H, x0, method))
    closed = sinusoid_states(p, H, method, 1.0, omega, x0, SAMPLES)
    assert closed.shape == kernel.shape == (times.size, 3)
    assert tuple(closed[0]) == x0
    peak = np.abs(kernel).max(axis=0)
    assert np.all(np.abs(closed - kernel) <= 1e-12 + 1e-9 * peak)


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("init", ["zero", "steady_state"])
def test_linear_sweep_rows_match_the_kernel_fit(method, init):
    p = linear(5.0)
    cfg = SweepConfig(freqs_hz=(0.1, 5.6, 99.6), discard_fraction=0.5, method=method,
                      init_state=init)
    curve = sweep_observer(p, cfg)
    assert len(curve.rows) == 9
    for row in curve.rows:
        x0 = start(p, init, cfg.amplitude, row.omega)
        times, states = integrate(p, SignalSpec("sinusoid", cfg.amplitude, row.omega),
                                  SimConfig(H, cfg.samples * H, x0, method))
        lo = int(times.size * cfg.discard_fraction)
        fit = fit_sinusoid(times[lo:], states[lo:, row.channel - 1], row.omega)
        assert row.flag == "ok"
        assert abs(row.magnitude_db - 20.0 * math.log10(fit.amplitude)) <= 1e-9
        assert abs(math.remainder(row.phase_rad - fit.phase, 2.0 * math.pi)) <= 1e-9


def test_first_nonfinite_row_raises_at_its_time():
    with pytest.raises(DivergedState) as info:
        sinusoid_states(linear(5.0), H, "rk4", math.inf, 2.0 * math.pi * 5.1, (0.0, 0.0, 0.0),
                        500)
    assert info.value.time == H
