"""The exact discrete-time oracle of the linear observer against solver.step.

One fixed step is an affine map (analytic.step_map), so a run driven by any
signal, a finite sum of sinusoids, has a closed form (analytic.signal_states),
which is how every linear run is computed.  A loop of the public step()
follows the same discretization in floating point, so the two agree to
rounding.  A steady_state sweep lane starts on its own forced orbit, so its
fitted rows are the step map's frequency response, solved here from step_map.
"""

import cmath
import functools
import itertools
import math
from dataclasses import replace

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
    default_grid,
    fit_sinusoid,
    paper_reference_spec,
    signal_states,
    simulate,
    step,
    step_map,
    sweep_observer,
)
from doubleint.analytic import BLOCK, is_schur_stable
from doubleint.cli import _build_params, _build_sweep
from doubleint.scenarios import _fig1_variants, expand_scenario
from doubleint.signals import REFERENCE_NOISE, make_input_fn
from doubleint.sweep import _initial_state

H = 0.001
# the sweep's default run length; neither it nor its row count fills whole blocks
SAMPLES = 50000
# the signal_states runs: no whole number of blocks at any tested stride, and
# more than one block of rows at stride 100
STEPS = 26001


def linear(R: float) -> ObserverParams:
    return ObserverParams.from_rate(0.1, 0.1, 1.0, R, 1.0, "linear")


def start(p: ObserverParams, init: str, method: str, omega: float) -> ObserverState:
    """The start state of a unit-amplitude sweep lane at omega, as the sweep takes it."""
    return _initial_state(p, SweepConfig(method=method, init_state=init), omega)


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
                       start(p, init, method, omega), SAMPLES)


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
    x0 = start(p, init, method, omega)
    cfg = SimConfig(H, SAMPLES * H, x0, method)
    assert cfg.steps == SAMPLES
    closed = signal_states(p, SignalSpec("sinusoid", 1.0, omega), cfg)
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


# every 13th grid frequency, 0.1 to 97.6 Hz, and the last, 99.6 Hz
EXACT_FREQS = default_grid()[::13] + default_grid()[-1:]


def discrete_phasors(p: ObserverParams, method: str, omega: float) -> np.ndarray:
    """(z I - M)^-1 (b0 + b1 e^(i omega H/2) + b2 z) at z = e^(i omega H), solved from step_map."""
    m, b0, b1, b2 = step_map(p, H, method)
    z = cmath.exp(1j * omega * H)
    return np.linalg.solve(z * np.eye(3) - m, b0 + b1 * cmath.exp(0.5j * omega * H) + b2 * z)


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("R", [3.0, 4.0, 5.0])
def test_steady_state_sweep_rows_are_the_discrete_response(method, R):
    # a lane started on its own forced orbit carries no transient, so each row is
    # the step map's exact frequency response to rounding, down to channel 1's
    # -129 dB; a 1-sample shift of the fitted times moves the phase by omega*H
    assert len(EXACT_FREQS) >= 16 and (EXACT_FREQS[0], EXACT_FREQS[-1]) == (0.1, 99.6)
    p = linear(R)
    curve = sweep_observer(p, SweepConfig(freqs_hz=EXACT_FREQS, method=method,
                                          init_state="steady_state"))
    assert len(curve.rows) == 3 * len(EXACT_FREQS)
    for row in curve.rows:
        phasor = discrete_phasors(p, method, row.omega)[row.channel - 1]
        assert row.flag == "ok"
        assert abs(row.magnitude_db - 20.0 * math.log10(abs(phasor))) <= 1e-10
        assert abs(math.remainder(row.phase_rad - cmath.phase(phasor), 2.0 * math.pi)) <= 1e-10
        assert row.residual_rms <= 1e-12 * abs(phasor)


@pytest.mark.filterwarnings("ignore:run length")
@pytest.mark.parametrize("discard", [0.0, 0.3])
@pytest.mark.parametrize("init", ["zero", "steady_state"])
@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_closed_form_rows_are_a_step_loop_fit_at_the_conditioning_edge(method, init, discard,
                                                                       linear_oracle):
    # at h = 1e-5 the slow eigenvalues of M lie 2e-8 inside the unit circle, and at 0.1 Hz
    # z = e^(i omega h) lies 6e-6 from 1, so I - zM is near singular; the closed form sums
    # its powers by doubling and never inverts it, and its rows are a step() loop's fits
    # to the bound conftest.fit_tolerances derives
    p = linear(5.0)
    cfg = SweepConfig(freqs_hz=(0.1,), step_h=1e-5, method=method, init_state=init,
                      discard_fraction=discard)
    z = cmath.exp(2j * math.pi * 0.1 * cfg.step_h)
    assert np.linalg.cond(np.eye(3) - z * step_map(p, cfg.step_h, method)[0]) > 2e3
    linear_oracle(p, cfg, sweep_observer(p, cfg).rows)

@pytest.mark.parametrize("samples", [6, 33, 100])
@pytest.mark.parametrize("init", ["zero", "steady_state"])
@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_closed_form_rows_at_multiples_of_the_nyquist_frequency_are_flagged_as_stepped(
        method, init, samples, linear_oracle):
    # at h = 1e-3, 500, 1000 and 1500 Hz put omega h within rounding of pi, 2 pi and 3 pi,
    # where math.sin(omega h) is ~1e-16, not 0: sin(n omega h) / sin(omega h) keeps no digit
    # there.  Every sample then lies at a zero of the sine, so a step() loop's fit is
    # ill_conditioned, and the closed form's rows must be flagged so too
    p = linear(5.0)
    cfg = SweepConfig(freqs_hz=(500.0, 1000.0, 1500.0), samples=samples, method=method,
                      init_state=init)
    assert all(0.0 < abs(math.sin(2.0 * math.pi * f * H)) < 4e-16 for f in cfg.freqs_hz)
    rows = sweep_observer(p, cfg).rows
    linear_oracle(p, cfg, rows)
    assert {r.flag for r in rows} == {"ill_conditioned"}


# fig1's linear variants by either method from either start, in a fixed order
FIG1_LINEAR_CASES = [
    pytest.param(method, init, variant, i, id=f"{method}-{init}-R{variant['R']:g}")
    for i, (method, init, variant) in enumerate(itertools.product(
        ["rk4", "euler"], ["zero", "steady_state"],
        [v for v in _fig1_variants() if v["mode"] == "linear"]))]


@pytest.mark.parametrize("method, init, variant, i", FIG1_LINEAR_CASES)
def test_fig1_linear_rows_are_the_fits_of_the_kernel_at_alpha3_1(method, init, variant, i,
                                                                 kernel_oracle):
    # fig1's linear variants at its own settings, 50 000 samples, by either method from
    # either start: each closed-form row lies within conftest.fit_tolerances of the fit of
    # the nonlinear kernel's orbit at alpha3 = 1 (conftest.kernel_lane).  Case i checks every
    # 12th grid frequency from the i-th, so the cases together check each of the 200 once
    scenario = expand_scenario("fig1")
    cfg = _build_sweep(scenario["sweep"])[0]
    assert (cfg.samples, cfg.method, cfg.init_state, cfg.amplitude) == (50000, "rk4", "zero",
                                                                         1.0)
    cases = len(FIG1_LINEAR_CASES)
    cfg = replace(cfg, freqs_hz=cfg.freqs_hz[i::cases], method=method, init_state=init)
    assert len(cfg.freqs_hz) == (17 if i < 200 % cases else 16)
    p = _build_params(scenario, variant, "sweep.variants")
    kernel_oracle(p, cfg, sweep_observer(p, cfg).rows)


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
    # simulate() takes every linear run from signal_states
    assert STEPS % BLOCK and (STEPS // stride + 1) % BLOCK
    traj = simulate(linear(5.0), SIGNALS[signal],
                    SimConfig(H, STEPS * H, STARTS[x0], method, stride))
    times, closed = traj.times, traj.states
    rows = STEPS // stride + 1
    # row j is at the float time i * H that step i = j * stride starts at
    assert np.array_equal(times, (np.arange(rows) * stride) * H)
    assert times.tolist() == [i * H for i in range(0, STEPS + 1, stride)]
    assert tuple(closed[0]) == STARTS[x0]
    assert_matches_step(closed, signal_lane(signal, x0, method)[::stride][:rows])


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("stride", [1, 7, 100])
def test_signal_states_prefix_is_a_shorter_run(method, stride):
    # a short run's rows are the first rows of a longer one, bit for bit
    p, spec, x0 = linear(5.0), SIGNALS["noisy"], STARTS["scenario"]
    longest_cfg = SimConfig(H, 500000 * H, x0, method, stride)
    assert longest_cfg.steps == 500000
    longest = signal_states(p, spec, longest_cfg)
    for n in (stride, 7 * stride, BLOCK * stride, (BLOCK + 1) * stride + 3, 60000, 123457):
        cfg = SimConfig(H, n * H, x0, method, stride)
        assert cfg.steps == n
        short = signal_states(p, spec, cfg)
        assert np.array_equal(short, longest[:short.shape[0]])


def test_first_nonfinite_row_raises_at_its_time():
    spec = SignalSpec("sinusoid", math.inf, 2.0 * math.pi * 5.1)
    for stride in (1, 7, 100):
        cfg = SimConfig(H, 500 * H, (0.0, 0.0, 0.0), "rk4", stride)
        assert cfg.steps == 500
        with pytest.raises(DivergedState) as info:
            signal_states(linear(5.0), spec, cfg)
        assert info.value.time == stride * H
