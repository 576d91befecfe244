import math

import numpy as np
import pytest
from scipy.linalg import expm

from doubleint import (
    ConfigError,
    DivergedState,
    InvalidParams,
    ObserverParams,
    ObserverState,
    SignalSpec,
    SimConfig,
    Trajectory,
    integrate,
    rhs,
    settle_time,
    simulate,
    step,
    trajectory_metrics,
)
from doubleint.signals import make_input_fn, truth_arrays


def zero_spec():
    return SignalSpec("sinusoid", 0.0, 1.0)


def test_zero_signal_zero_state_stays_at_origin(lin_params):
    traj = simulate(lin_params, zero_spec(), SimConfig(0.001, 1.0))
    assert np.all(traj.states == 0.0)
    assert np.all(traj.inputs == 0.0)
    assert np.all(traj.errors == 0.0)


def test_euler_step_example(lin_params):
    # derivative at (1,1,1) with a=0 is (1, 1, -640)
    out = step(lin_params, ObserverState(1.0, 1.0, 1.0), 0.0, 0.001, lambda t: 0.0, "euler")
    assert out.x1 == pytest.approx(1.001, rel=1e-12)
    assert out.x2 == pytest.approx(1.001, rel=1e-12)
    assert out.x3 == pytest.approx(0.36, rel=1e-9)


def test_rk4_step_matches_matrix_exponential():
    # autonomous linear observer: one RK4 step vs expm to O(h^5)
    p = ObserverParams(0.1, 0.1, 1.0, 1.0 / 3.0, 1.0, "linear")
    eps = p.epsilon
    A = np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [-p.k1 / eps**3, -p.k2 / eps**2, -p.k3 / eps**4],
        ]
    )
    x0 = np.array([0.4, -1.2, 2.0])
    h = 0.001
    exact = expm(A * h) @ x0
    got = step(p, ObserverState(*x0), 0.0, h, lambda t: 0.0, "rk4")
    # h*|lambda_max| ~ 0.081, so the local error sits near (h L)^5/120 ~ 3e-8
    assert np.linalg.norm(np.array(got) - exact) < 1e-7
    coarse = step(p, ObserverState(*x0), 0.0, 2 * h, lambda t: 0.0, "rk4")
    exact2 = expm(A * 2 * h) @ x0
    ratio = np.linalg.norm(np.array(coarse) - exact2) / np.linalg.norm(np.array(got) - exact)
    assert 16.0 < ratio < 64.0  # local truncation order h^5


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("mode,alpha3", [("nonlinear", 0.3)])
def test_kernels_match_public_step(method, mode, alpha3, noisy_spec):
    # the inlined nonlinear kernels must agree bit-for-bit with step()/rhs();
    # linear runs are closed form, checked against step() in test_oracle.py
    p = ObserverParams(0.1, 0.1, 1.0, 0.2, alpha3, mode)
    h, n = 0.001, 50
    cfg = SimConfig(h, n * h, ObserverState(0.0, 1.0, 0.0), method, 1)
    traj = simulate(p, noisy_spec, cfg)
    a_fn = make_input_fn(noisy_spec)
    state = ObserverState(0.0, 1.0, 0.0)
    for i in range(n):
        state = step(p, state, i * h, h, a_fn, method)
        assert tuple(traj.states[i + 1]) == state


def test_time_grid_is_multiplicative(nl_params, noisy_spec):
    cfg = SimConfig(0.001, 50.0, ObserverState(0.0, 1.0, 0.0), "rk4", 100)
    traj = simulate(nl_params, noisy_spec, cfg)
    m = traj.times.size
    assert m == 501
    assert np.array_equal(traj.times, np.arange(m) * 0.1)
    # no floating drift against exact decimal times
    worst = max(abs(traj.times[j] - j / 10.0) for j in range(m))
    assert worst < 1e-9


def test_errors_match_states_minus_truths(nl_params, noisy_spec):
    traj = simulate(nl_params, noisy_spec, SimConfig(0.001, 2.0))
    assert np.array_equal(traj.errors, traj.states - traj.truths)


def test_inputs_and_truths_come_from_the_signal_evaluators(nl_params, noisy_spec):
    cfg = SimConfig(0.001, 2.0, ObserverState(0.0, 1.0, 0.0), "rk4", 7)
    traj = simulate(nl_params, noisy_spec, cfg)
    assert traj.times.size == 2000 // 7 + 1
    a_fn = make_input_fn(noisy_spec)
    assert np.array_equal(traj.inputs, [a_fn(t) for t in traj.times])
    assert np.array_equal(traj.truths, truth_arrays(noisy_spec, traj.times))


def test_composite_signal_has_no_truth_columns(nl_params):
    spec = SignalSpec("composite", 0.5, 2.0)
    traj = simulate(nl_params, spec, SimConfig(0.001, 0.5))
    assert traj.truths is None and traj.errors is None
    with pytest.raises(ValueError):
        traj.error(1)


def test_stability_guard(lin_params):
    # linear params are refused only when the step map is unstable: at R = 5 RK4 is
    # stable below h = 0.00446, and h = 0.0045 has rho(M) = 1.042
    with pytest.raises(ConfigError, match="^step_h 0.0045 makes the linear rk4 step unstable"):
        simulate(lin_params, zero_spec(), SimConfig(0.0045, 1.0))
    # h = 0.004: h*k3/eps^4 = 2.5 is past the nonlinear heuristic's 2, but rho(M) = 0.999992
    h, n = 0.004, 250
    spec = SignalSpec("sinusoid", 1.0, 3.0)
    x0 = ObserverState(0.0, 1.0, 0.0)
    states = simulate(lin_params, spec, SimConfig(h, n * h, x0)).states
    a_fn = make_input_fn(spec)
    stepped = [x0]
    for i in range(n):
        stepped.append(step(lin_params, stepped[-1], i * h, h, a_fn))
    stepped = np.array(stepped)
    # the oracle tests' tolerance: 1e-9 of each channel's peak
    assert np.all(np.abs(states - stepped) <= 1e-12 + 1e-9 * np.abs(stepped).max(axis=0))


@pytest.mark.parametrize("method, refused", [("euler", True), ("rk4", False)])
def test_linear_step_must_keep_its_spectral_radius_below_one(method, refused):
    # k = (1, 0.2, 1), R = 2, h = 0.1: h*k3/eps^4 = 1.6 passes the rate guard, but
    # Euler moves the lightly damped pole pair out of the unit disc (rho(M) = 1.0016)
    p = ObserverParams.from_rate(1.0, 0.2, 1.0, 2.0, 1.0, "linear")
    cfg = SimConfig(0.1, 1.0, method=method)
    if refused:
        with pytest.raises(ConfigError, match="^step_h 0.1 makes the linear euler step unstable"):
            integrate(p, zero_spec(), cfg)
    else:
        integrate(p, zero_spec(), cfg)
    # the nonlinear observer has no step map: only the rate guard applies
    integrate(ObserverParams.from_rate(1.0, 0.2, 1.0, 2.0, 0.9), zero_spec(), cfg)


def test_config_validation(lin_params):
    with pytest.raises(ConfigError):
        simulate(lin_params, zero_spec(), SimConfig(0.001, -1.0))
    with pytest.raises(ConfigError):
        simulate(lin_params, zero_spec(), SimConfig(0.001, 1.0, record_stride=0))
    with pytest.raises(ConfigError):
        simulate(lin_params, zero_spec(), SimConfig(0.001, 1.0, method="rk5"))


@pytest.mark.parametrize("duration, stride, field", [(0.0009, 1, "duration"),
                                                      (5e-324, 1, "duration"),
                                                      (0.003, 5, "record_stride"),
                                                      (0.0024, 3, "record_stride")])
def test_run_shorter_than_its_step_or_stride_rejected(lin_params, duration, stride, field):
    # 0.003 s at stride 5 would run 3 steps and record only t = 0
    cfg = SimConfig(0.001, duration, record_stride=stride)
    with pytest.raises(ConfigError, match=f"^{field} "):
        integrate(lin_params, zero_spec(), cfg)


def test_run_of_exactly_its_stride_records_both_ends(lin_params):
    times, _ = integrate(lin_params, zero_spec(), SimConfig(0.001, 0.003, record_stride=3))
    assert times.tolist() == [0.0, 0.003]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_initial_state_rejected(lin_params, bad):
    cfg = SimConfig(0.001, 1.0, ObserverState(0.0, bad, 0.0))
    with pytest.raises(ConfigError, match="^initial_state must be finite"):
        simulate(lin_params, zero_spec(), cfg)


def test_invalid_params_rejected():
    bad = ObserverParams(0.1, 0.0, 1.0, 0.2, 1.0, "linear")
    with pytest.raises(InvalidParams):
        simulate(bad, zero_spec(), SimConfig(0.001, 1.0))


def test_divergence_reports_time(lin_params):
    spec = SignalSpec("sinusoid", math.inf, 1.0)
    with pytest.raises(DivergedState) as err:
        simulate(lin_params, spec, SimConfig(0.001, 1.0))
    assert err.value.time == pytest.approx(0.001)


def test_step_nonfinite_raises(lin_params):
    with pytest.raises(DivergedState):
        step(lin_params, ObserverState(math.inf, 0.0, 0.0), 0.0, 0.001, lambda t: 0.0)


def test_rhs_consistency_with_kernel_formula(nl_params):
    # spot check: the public rhs drives step(), whose Euler form is x + h*f
    s = ObserverState(0.3, -0.7, 1.1)
    h = 1e-3
    d = rhs(nl_params, s, 0.25)
    out = step(nl_params, s, 0.0, h, lambda t: 0.25, "euler")
    assert out == ObserverState(s.x1 + h * d[0], s.x2 + h * d[1], s.x3 + h * d[2])


def test_metrics_zero_run(lin_params):
    traj = simulate(lin_params, zero_spec(), SimConfig(0.001, 1.0))
    metrics = trajectory_metrics(traj, [(0.0, 1.0)])
    assert metrics["windows"][0]["rms"] == [0.0, 0.0, 0.0]
    assert metrics["windows"][0]["max_abs"] == [0.0, 0.0, 0.0]
    assert metrics["drift_ratio_e1"] == 0.0


def test_metrics_empty_window(lin_params):
    traj = simulate(lin_params, zero_spec(), SimConfig(0.001, 1.0))
    with pytest.raises(ConfigError):
        trajectory_metrics(traj, [(5.0, 6.0)])


def test_metrics_drift_ratio_without_a_reference_sample(lin_params):
    # a one-step record, times (0, h), has no sample in [0.5 h, 0.6 h]
    traj = simulate(lin_params, SignalSpec("sinusoid", 1.0, 1.0), SimConfig(0.001, 0.001))
    assert traj.times.size == 2
    assert trajectory_metrics(traj)["drift_ratio_e1"] is None


def test_metrics_rms_overflows_to_inf():
    traj = _fake_traj([0.0, 1.0, 2.0], [1e200, -1e200, 0.0])
    window = trajectory_metrics(traj)["windows"][0]
    assert window["rms"][0] == math.inf and window["max_abs"][0] == 1e200


def _fake_traj(times, e1):
    n = len(times)
    zeros = np.zeros((n, 3))
    errors = np.column_stack([e1, np.zeros(n), np.zeros(n)])
    return Trajectory(np.asarray(times, float), zeros, np.zeros(n), zeros, errors)


def test_settle_time_semantics():
    t = np.arange(6) * 1.0
    assert settle_time(_fake_traj(t, [0.0, 0.01, 0.02, 0.0, 0.01, 0.0]), 0.05) == 0.0
    assert settle_time(_fake_traj(t, [0.0, 0.2, 0.1, 0.04, 0.01, 0.0]), 0.05) == 3.0
    assert settle_time(_fake_traj(t, [0.0, 0.2, 0.1, 0.04, 0.01, 0.06]), 0.05) == math.inf


def test_scenario_initial_onefold_error(noisy_spec, nl_params):
    # x2(0)=1 versus onefold-integral truth 0.314 leaves e2(0)=0.686
    traj = simulate(nl_params, noisy_spec, SimConfig(0.001, 0.01, ObserverState(0.0, 1.0, 0.0)))
    assert traj.errors[0, 1] == pytest.approx(0.686, rel=1e-12)
