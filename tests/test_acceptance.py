"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Expensive trajectories are shared through module-scoped fixtures.
Frozen constants were produced by first-run oracles (exact-arithmetic
evaluation, brute-force re-simulation, dense scans) and act as regression
pins; the derivations are reproduced in the comments.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import doubleint as di

GAINS = (0.1, 0.1, 1.0)
NL5 = di.ObserverParams(*GAINS, 0.2, 0.3, "nonlinear")
NL5_UNIT = di.ObserverParams(*GAINS, 0.2, 1.0, "nonlinear")
LIN5 = di.ObserverParams(*GAINS, 0.2, 1.0, "linear")
NL3 = di.ObserverParams(*GAINS, 1.0 / 3.0, 0.3, "nonlinear")
LIN3 = di.ObserverParams(*GAINS, 1.0 / 3.0, 1.0, "linear")
X0 = di.ObserverState(0.0, 1.0, 0.0)
NOISY = di.paper_reference_spec(with_noise=True)

# 2x the e1-RMS over t in [10,20] of the brute-force Euler h=1e-4 oracle
# (self-contained re-simulation below; value 10.397891496173408 frozen).
E1_RMS_LIMIT = 20.795782992346815

# tube-entry regression values, |e1| < 0.05 for good (0.01 s record grid)
NONLINEAR_SETTLE_S = 137.3
LINEAR_SETTLE_S = 2322.15

# bisected -3 dB bandwidth edges (rad/s) of the tracking channel, pinned by
# a dense-scan oracle on first run
CUTOFFS_RAD_S = {3: 80.81944623, 4: 255.39921940, 5: 623.52175741}


@pytest.fixture(scope="module")
def fig4_traj():
    """Long-horizon nonlinear run; 0.01 s record grid resolves the 50 rad/s line."""
    return di.simulate(NL5, NOISY, di.SimConfig(0.001, 2000.0, X0, "rk4", 10))


@pytest.fixture(scope="module")
def linear_long_traj():
    """Linear twin over 3000 s; it needs ~2300 s to enter the 0.05 tube."""
    return di.simulate(LIN5, NOISY, di.SimConfig(0.001, 3000.0, X0, "rk4", 10))


@pytest.fixture(scope="module")
def fig3_traj():
    return di.simulate(NL5, NOISY, di.SimConfig(0.001, 20.0, X0, "rk4", 1))


def test_c01_fit_exactness():
    start = time.perf_counter()
    t = np.arange(50001) * 0.001
    for amp in (0.5, 1.0, 5.0):
        for phase in (0.0, math.pi / 4.0, -math.pi / 3.0):
            for f_hz in (0.1, 1.0, 10.0):
                omega = 2.0 * math.pi * f_hz
                fit = di.fit_sinusoid(t, amp * np.sin(omega * t + phase), omega)
                assert abs(fit.amplitude - amp) <= 1e-9, (amp, phase, f_hz)
                assert abs(fit.phase - phase) <= 1e-9, (amp, phase, f_hz)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[PASS] C1 fit exactness: 27 fits within 1e-9 in {elapsed:.2f} s")


def test_c02_sweep_matches_transfer_oracle():
    start = time.perf_counter()
    cfg = di.SweepConfig(discard_fraction=0.5, init_state="steady_state")
    curve = di.sweep_observer(LIN5, cfg)
    ref = di.bode_from_transfer(LIN5, cfg)
    assert len(curve.rows) == 600
    checked = 0
    worst_mag = worst_phase = 0.0
    for got, want in zip(curve.rows, ref.rows):
        assert (got.f_hz, got.channel) == (want.f_hz, want.channel)
        assert got.flag == "ok"
        if want.magnitude_db <= -80.0:
            continue
        dmag = abs(got.magnitude_db - want.magnitude_db)
        dphase = math.degrees(abs(got.phase_unwrapped_rad - want.phase_unwrapped_rad))
        worst_mag = max(worst_mag, dmag)
        worst_phase = max(worst_phase, dphase)
        checked += 1
        assert dmag <= 0.5, (got.f_hz, got.channel, dmag)
        assert dphase <= 3.0, (got.f_hz, got.channel, dphase)
    elapsed = time.perf_counter() - start
    assert checked > 400
    assert elapsed < 120.0
    print(
        f"\n[PASS] C2 oracle agreement: {checked} rows above -80 dB, worst "
        f"{worst_mag:.4f} dB / {worst_phase:.4f} deg in {elapsed:.1f} s"
    )


def test_c03_degeneration_identity():
    cfg = di.SimConfig(0.001, 20.0, X0, "rk4", 1)
    nl = di.simulate(NL5_UNIT, NOISY, cfg)
    lin = di.simulate(LIN5, NOISY, cfg)
    worst = float(np.max(np.abs(nl.states - lin.states)))
    assert worst <= 1e-9
    print(f"\n[PASS] C3 degeneration: max state difference {worst:.3g}")


def test_c04_hurwitz_equivalence():
    rng = np.random.default_rng(2024)
    disagreements = 0
    for _ in range(10000):
        k1, k2, k3 = (float(v) for v in rng.uniform(1e-6, 10.0, size=3))
        eps = float(rng.uniform(0.01, 0.99))
        p = di.ObserverParams(k1, k2, k3, eps, 1.0, "linear")
        if di.validate_params(p).ok != di.is_hurwitz_cubic(k3 / eps**3, k2, k1):
            disagreements += 1
    assert disagreements == 0
    print("\n[PASS] C4 Hurwitz equivalence: 0 disagreements over 10000 tuples")


def test_c05_limit_convergence_strictly_monotone():
    # gains with k3/k1 large enough to keep the denominator resonance outside
    # the eps list at omega=0.1 (the shared-scenario gains put it at eps=0.1)
    k1, k2, k3 = 0.01, 0.5, 1.0
    eps_list = (0.3, 0.2, 0.1, 0.05, 0.01)
    for j in (1, 2, 3):
        for omega in (0.1, 1.0, 10.0):
            devs = [
                abs(
                    di.transfer_eval(di.ObserverParams(k1, k2, k3, e, 1.0, "linear"), j, omega).value
                    - di.limit_transfer(j, omega)
                )
                for e in eps_list
            ]
            assert all(b < a for a, b in zip(devs, devs[1:])), (j, omega, devs)
    print("\n[PASS] C5 limit convergence: deviations strictly decrease over eps "
          f"{eps_list} at all channels and frequencies")


def test_c06_bandwidth_monotone_in_rate():
    cuts = {}
    for rate in (3, 4, 5):
        p = di.ObserverParams(*GAINS, 1.0 / rate, 1.0, "linear")
        cuts[rate] = di.cutoff_frequency(p, 3, drop_db=3.0)
        assert cuts[rate] == pytest.approx(CUTOFFS_RAD_S[rate], rel=1e-6)
    assert cuts[3] < cuts[4] < cuts[5]
    print(f"\n[PASS] C6 bandwidth monotone: cutoffs {cuts[3]:.2f} < {cuts[4]:.2f} "
          f"< {cuts[5]:.2f} rad/s for R=3,4,5")


def _euler_oracle_rms() -> float:
    """Brute-force re-simulation: Euler, h=1e-4, fully self-contained."""
    h = 1e-4
    eps = 0.2
    k1 = k2 = 0.1
    k3 = 1.0
    al1, al2, al3 = 0.3 / 2.4, 0.3 / 1.7, 0.3
    inv = 1.0 / eps**4
    sin, cos = math.sin, math.cos

    def psg(v, al):
        if v > 0.0:
            return v**al
        if v < 0.0:
            return -((-v) ** al)
        return 0.0

    x1, x2, x3 = 0.0, 1.0, 0.0
    acc = 0.0
    count = 0
    for i in range(200000):
        t = i * h
        a_t = (-0.1 * 3.14 * 3.14 * sin(3.14 * t) + 0.1 * sin(10.0 * t)
               + 0.1 * cos(10.0 * t) + 0.05 * sin(50.0 * t) + 0.05 * cos(50.0 * t))
        d3 = -(k1 * psg(eps * x1, al1) + k2 * psg(eps * eps * x2, al2)
               + k3 * psg(x3 - a_t, al3)) * inv
        x1 += h * x2
        x2 += h * x3
        x3 += h * d3
        t = (i + 1) * h
        if t >= 10.0:
            e1 = x1 - 0.1 * sin(3.14 * t)
            acc += e1 * e1
            count += 1
    return math.sqrt(acc / count)


def test_c07_short_horizon_error_and_noise_attenuation(fig3_traj, fig4_traj):
    # RMS part: t in [10, 20] against the frozen 2x brute-force threshold
    oracle = _euler_oracle_rms()
    assert 2.0 * oracle == pytest.approx(E1_RMS_LIMIT, rel=1e-2)
    m = fig3_traj.window(10.0, 20.0)
    rms = math.sqrt(float(np.mean(fig3_traj.errors[m, 0] ** 2)))
    assert rms <= E1_RMS_LIMIT

    # attenuation part: measured where the run has actually settled
    # (tube entry is ~137 s, so the 20 s window is still mid-transient)
    mt = fig4_traj.window(1800.0, 2000.0)
    atten = {}
    for om, amp_in in ((10.0, math.hypot(0.1, 0.1)), (50.0, math.hypot(0.05, 0.05))):
        fit = di.fit_sinusoid(fig4_traj.times[mt], fig4_traj.states[mt, 0], om)
        atten[om] = 20.0 * math.log10(amp_in / fit.amplitude)
        assert atten[om] >= 20.0, (om, atten[om])
    # linear-observer analytic reference for comparison
    h1 = {om: di.transfer_eval(LIN5, 1, om).gain for om in (10.0, 50.0)}
    print(
        f"\n[PASS] C7 short horizon: RMS(e1,[10,20]) = {rms:.3f} <= {E1_RMS_LIMIT:.3f}; "
        f"noise lines attenuated {atten[10.0]:.1f} dB @10 rad/s, {atten[50.0]:.1f} dB "
        f"@50 rad/s (linear-observer analytic: "
        f"{-20 * math.log10(h1[10.0]):.1f} dB, {-20 * math.log10(h1[50.0]):.1f} dB)"
    )



def _fig3_rms(p: di.ObserverParams, h: float) -> float:
    """fig3's e1 RMS over [10, 20] s at step h (RK4), on a 0.01 s record grid."""
    traj = di.simulate(p, NOISY, di.SimConfig(h, 20.0, X0, "rk4", round(0.01 / h)))
    m = traj.window(10.0, 20.0)
    return math.sqrt(float(np.mean(traj.errors[m, 0] ** 2)))


# C7's limit is twice the converged RMS, which h = 1e-3 understates: the nonlinear e1 RMS over
# [10, 20] is 4.0274 at h = 1e-3, 8.4927 at 5e-4, 10.0146 at 2.5e-4, 10.4402 at 1e-4 and
# 10.4437 at 5e-5; the linear twin's is 3.8874 at 1e-3 and 1e-4 (README, "Nonlinear mode and
# step size")
def test_c07_rms_limit_is_the_converged_rms_not_that_of_h_1e3():
    coarse, fine, finer = (_fig3_rms(NL5, h) for h in (1e-3, 1e-4, 5e-5))
    linear = _fig3_rms(LIN5, 1e-3)
    assert fine == pytest.approx(finer, rel=1e-3)
    assert finer == pytest.approx(E1_RMS_LIMIT / 2.0, rel=1e-2)
    assert coarse < 0.5 * finer
    assert finer > 2.0 * linear
    print(f"\n[PASS] C7 step: RMS(e1,[10,20]) = {coarse:.3f} at h = 1e-3, {fine:.4f} at 1e-4, "
          f"{finer:.4f} at 5e-5 (limit / 2 = {E1_RMS_LIMIT / 2.0:.4f}); linear {linear:.3f}")

# C8 and C9 pin properties of the step h = 1e-3, not of the observer it discretizes: fig4's
# max|e1| over [1800, 2000] is 0.0069 at h = 1e-3 and 146.6 at 2.5e-4, and its settle_time(0.05)
# 137.3 s at 1e-3, 1036.6 s at 5e-4 and inf at 2.5e-4, where `late <= 2 * early` and
# `t_lin > t_nl` both fail (README, "Nonlinear mode and step size")
def test_c08_no_drift_long_horizon(fig4_traj):
    e1 = np.abs(fig4_traj.errors[:, 0])
    early = float(e1[fig4_traj.window(10.0, 20.0)].max())
    late = float(e1[fig4_traj.window(1800.0, 2000.0)].max())
    assert late <= 2.0 * early
    assert early == pytest.approx(4.301631697, rel=2e-2)
    assert late == pytest.approx(0.0069248147, rel=5e-2)
    print(f"\n[PASS] C8 no drift: max|e1| falls from {early:.3f} ([10,20]) to "
          f"{late:.4f} ([1800,2000]), ratio {late / early:.2e} <= 2")


# at h = 1e-3 only, as C8 (above): from h = 2.5e-4 down the nonlinear e1 never stays in the tube
def test_c09_linear_convergence_slower(fig4_traj, linear_long_traj):
    t_nl = di.settle_time(fig4_traj, 0.05)
    t_lin = di.settle_time(linear_long_traj, 0.05)
    assert t_lin > t_nl
    assert t_nl == pytest.approx(NONLINEAR_SETTLE_S, rel=2e-2)
    assert t_lin == pytest.approx(LINEAR_SETTLE_S, rel=2e-2)
    print(f"\n[PASS] C9 estimation delay: |e1| enters the 0.05 tube at "
          f"{t_nl:.1f} s (alpha3=0.3) vs {t_lin:.1f} s (alpha3=1)")



# C9's NONLINEAR_SETTLE_S is fig4's tube entry at h = 1e-3: at h = 5e-4 the nonlinear e1 enters
# the 0.05 tube at 1036.57 s, 7.55x later, and at 2.5e-4 not within 2000 s
def test_c09_nonlinear_settle_time_is_that_of_h_1e3(fig4_traj):
    t_nl = di.settle_time(fig4_traj, 0.05)
    half = di.simulate(NL5, NOISY, di.SimConfig(5e-4, 2000.0, X0, "rk4", 20))
    t_half = di.settle_time(half, 0.05)
    assert t_half >= 5.0 * t_nl
    print(f"\n[PASS] C9 step: |e1| enters the 0.05 tube at {t_nl:.1f} s at h = 1e-3 and "
          f"{t_half:.1f} s at 5e-4")

def test_c10_amplitude_dependence():
    freqs = (0.1, 0.35, 0.6, 1.1, 2.1, 3.6, 6.1, 10.1, 20.1)
    cfg = di.SweepConfig(freqs_hz=freqs, discard_fraction=0.5, channels=(3,))
    nonlinear = {}
    linear = {}
    for amp in (0.5, 1.0, 5.0):
        run = dataclasses.replace(cfg, amplitude=amp)
        nonlinear[amp] = di.sweep_observer(NL3, run).channel_arrays(3)[1]
        linear[amp] = di.sweep_observer(LIN3, run).channel_arrays(3)[1]
    spread_nl = max(
        float(np.max(np.abs(nonlinear[a] - nonlinear[1.0]))) for a in (0.5, 5.0)
    )
    spread_lin = max(
        float(np.max(np.abs(linear[a] - linear[1.0]))) for a in (0.5, 5.0)
    )
    assert spread_nl > 1.0
    assert spread_lin <= 1e-6
    print(f"\n[PASS] C10 amplitude dependence: nonlinear curves spread {spread_nl:.2f} dB "
          f"across A_m in (0.5, 1, 5); linear spread {spread_lin:.2e} dB")


def test_c11_solver_order():
    spec = di.SignalSpec("sinusoid", 1.0, 2.0 * math.pi)

    def end_state(h, method):
        cfg = di.SimConfig(h, 2.0, di.ObserverState(0.0, 0.0, 0.0), method,
                           record_stride=max(1, round(0.5 / h)))
        return di.simulate(LIN3, spec, cfg).states[-1]

    ref = end_state(1e-5, "rk4")
    ratios = {}
    for method, nominal in (("rk4", 16.0), ("euler", 2.0)):
        err_h = np.linalg.norm(end_state(4e-3, method) - ref)
        err_h2 = np.linalg.norm(end_state(2e-3, method) - ref)
        ratios[method] = err_h / err_h2
        assert nominal / 1.5 <= ratios[method] <= nominal * 1.5, (method, ratios[method])
    print(f"\n[PASS] C11 solver order: halving h shrinks the end-state error "
          f"{ratios['rk4']:.1f}x for RK4 (nominal 16) and {ratios['euler']:.2f}x "
          f"for Euler (nominal 2)")
