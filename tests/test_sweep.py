import math

import numpy as np
import pytest

from doubleint import (
    BodeCurve,
    BodeRow,
    ConfigError,
    IllConditioned,
    InvalidParams,
    ObserverParams,
    SweepConfig,
    bode_from_transfer,
    default_grid,
    fit_sinusoid,
    limit_transfer,
    phase_unwrap,
    sweep_observer,
    transfer_eval,
)

LIN = ObserverParams(0.1, 0.1, 1.0, 0.2, 1.0, "linear")
NL1 = ObserverParams(0.1, 0.1, 1.0, 0.2, 1.0, "nonlinear")
NL3 = ObserverParams(0.1, 0.1, 1.0, 1.0 / 3.0, 0.3, "nonlinear")


def sample_times(n=50000, h=0.001):
    return np.arange(n + 1) * h


def test_default_grid():
    grid = default_grid()
    assert len(grid) == 200
    assert grid[0] == pytest.approx(0.1)
    assert grid[-1] == pytest.approx(99.6)
    assert all(f <= 100.0 for f in grid)
    steps = np.diff(grid)
    assert np.allclose(steps, 0.5, atol=1e-12)


def test_fit_recovers_pure_regressor():
    t = sample_times()
    omega = 2.0 * math.pi
    fit = fit_sinusoid(t, np.sin(omega * t), omega)
    assert fit.c1 == pytest.approx(1.0, abs=1e-9)
    assert fit.c2 == pytest.approx(0.0, abs=1e-9)
    assert fit.amplitude == pytest.approx(1.0, abs=1e-9)
    assert fit.phase == pytest.approx(0.0, abs=1e-9)
    assert fit.residual_rms < 1e-12


def test_fit_recovers_phase_shift():
    t = sample_times()
    omega = 2.0 * math.pi
    fit = fit_sinusoid(t, 2.0 * np.sin(omega * t + math.pi / 4.0), omega)
    root2 = math.sqrt(2.0)
    assert fit.c1 == pytest.approx(root2, abs=1e-9)
    assert fit.c2 == pytest.approx(root2, abs=1e-9)
    assert fit.amplitude == pytest.approx(2.0, abs=1e-9)
    assert fit.phase == pytest.approx(math.pi / 4.0, abs=1e-9)


def test_fit_with_harmonic_matches_dense_solver():
    # independent oracle: numpy lstsq on the same two-regressor design
    t = sample_times(20000)
    omega = 2.0 * math.pi
    y = np.sin(omega * t) + 0.3 * np.sin(7.0 * omega * t)
    fit = fit_sinusoid(t, y, omega)
    design = np.column_stack([np.sin(omega * t), np.cos(omega * t)])
    (c1, c2), *_ = np.linalg.lstsq(design, y, rcond=None)
    assert fit.c1 == pytest.approx(float(c1), rel=1e-10, abs=1e-12)
    assert fit.c2 == pytest.approx(float(c2), rel=1e-10, abs=1e-12)
    assert fit.amplitude == pytest.approx(math.hypot(c1, c2), rel=1e-10)
    assert fit.residual_rms > 0.2  # the harmonic stays in the residual


def test_fit_exactness_over_amplitude_phase_grid():
    t = sample_times()
    for amp in (0.5, 1.0, 5.0):
        for phase in (0.0, math.pi / 4.0, -math.pi / 4.0,
                      math.pi / 2.0 - 1e-6, -math.pi / 2.0 + 1e-6):
            omega = 2.0 * math.pi
            fit = fit_sinusoid(t, amp * np.sin(omega * t + phase), omega)
            assert fit.amplitude == pytest.approx(amp, abs=1e-9)
            assert fit.phase == pytest.approx(phase, abs=1e-9)


def test_fit_ill_conditioned():
    with pytest.raises(IllConditioned):
        fit_sinusoid(np.zeros(10), np.ones(10), 1.0)
    with pytest.raises(IllConditioned):
        fit_sinusoid(np.array([1.0]), np.array([1.0]), 1.0)
    with pytest.raises(ConfigError):
        fit_sinusoid(sample_times(10), np.ones(11), 0.0)


def _curve_from_phases(phases, channel=1):
    rows = tuple(
        BodeRow(0.1 + 0.5 * i, 2.0 * math.pi * (0.1 + 0.5 * i), channel, 0.0, ph, None,
                None, "sweep", "ok")
        for i, ph in enumerate(phases)
    )
    return BodeCurve(rows, {}, {}, "sweep")


def test_phase_unwrap_constant_unchanged():
    curve = phase_unwrap(_curve_from_phases([0.5, 0.5, 0.5]))
    assert [r.phase_unwrapped_rad for r in curve.rows] == [0.5, 0.5, 0.5]


def test_phase_unwrap_minimal_jump():
    curve = phase_unwrap(_curve_from_phases([3.0, -3.0]))
    got = [r.phase_unwrapped_rad for r in curve.rows]
    assert got[0] == 3.0
    assert got[1] == pytest.approx(2.0 * math.pi - 3.0, rel=1e-12)
    # raw column untouched
    assert [r.phase_rad for r in curve.rows] == [3.0, -3.0]


def test_phase_unwrap_ideal_double_integrator_constant():
    freqs = [0.1, 0.6, 1.1, 5.1]
    phases = [math.atan2(limit_transfer(1, 2 * math.pi * f).imag,
                         limit_transfer(1, 2 * math.pi * f).real) for f in freqs]
    curve = phase_unwrap(_curve_from_phases(phases))
    for r in curve.rows:
        assert r.phase_unwrapped_rad == pytest.approx(-math.pi)


def test_single_frequency_sweep_matches_transfer():
    cfg = SweepConfig(freqs_hz=(1.0,), discard_fraction=0.5, init_state="steady_state")
    curve = sweep_observer(LIN, cfg)
    assert len(curve.rows) == 3
    for row in curve.rows:
        te = transfer_eval(LIN, row.channel, row.omega)
        assert row.flag == "ok"
        assert row.magnitude_db == pytest.approx(te.gain_db, abs=0.05)
        assert abs(row.phase_rad - te.phase) < math.radians(0.5)


def test_degeneration_sweep_rows_identical():
    cfg = SweepConfig(freqs_hz=(0.6, 5.1, 20.1), samples=20000, discard_fraction=0.25)
    a = sweep_observer(NL1, cfg)
    b = sweep_observer(LIN, cfg)
    for ra, rb in zip(a.rows, b.rows):
        assert abs(ra.magnitude_db - rb.magnitude_db) <= 1e-9
        assert abs(ra.phase_rad - rb.phase_rad) <= 1e-9


def test_linear_magnitude_amplitude_invariant():
    import dataclasses

    cfg = SweepConfig(freqs_hz=(0.6, 5.1), samples=20000, discard_fraction=0.5)
    base = sweep_observer(LIN, cfg)
    for amp in (0.5, 5.0):
        other = sweep_observer(LIN, dataclasses.replace(cfg, amplitude=amp))
        for ra, rb in zip(base.rows, other.rows):
            assert abs(ra.magnitude_db - rb.magnitude_db) <= 1e-6


def test_residual_sanity_steady_state():
    # relative residual budget applies above the -80 dB noise floor, the same
    # guard the oracle-agreement comparison uses
    cfg = SweepConfig(freqs_hz=(0.1, 1.1, 10.1, 99.6), discard_fraction=0.5,
                      init_state="steady_state")
    curve = sweep_observer(LIN, cfg)
    checked = 0
    for row in curve.rows:
        if row.magnitude_db <= -80.0:
            continue
        a_f = 10.0 ** (row.magnitude_db / 20.0) * 1.0
        assert row.residual_rms / a_f <= 1e-3, (row.f_hz, row.channel)
        checked += 1
    assert checked >= 10


OVERFLOWED_START = SweepConfig(freqs_hz=(0.1, 5.1), samples=200, amplitude=1.7e308,
                               init_state="steady_state")


@pytest.mark.filterwarnings("ignore:run length")
@pytest.mark.parametrize("p, cfg, flags", [
    (LIN, SweepConfig(freqs_hz=(5.1, 10.1), samples=500, amplitude=math.inf),
     ("diverged",) * 6),
    # the 0.1 Hz steady-state start overflows, so that lane diverges at t = 0 in
    # either mode; at 5.1 Hz the start is finite, and the linear closed form stays
    # finite while its fit overflows
    (LIN, OVERFLOWED_START, ("diverged",) * 3 + ("nonfinite_fit",) * 3),
    (NL1, OVERFLOWED_START, ("diverged",) * 6),
], ids=["infinite-amplitude", "overflowed-start-linear", "overflowed-start-nonlinear"])
def test_divergent_rows_flagged_not_fatal(p, cfg, flags):
    curve = sweep_observer(p, cfg)
    assert tuple(r.flag for r in curve.rows) == flags
    assert all(math.isnan(r.magnitude_db) for r in curve.rows if r.flag == "diverged")
    assert curve.flagged_fraction == 1.0
    # no fit amplitude here is zero, so no row reads -inf dB; a NaN fit amplitude
    # (channel 3 at 5.1 Hz of the linear overflowed start) reads nan
    assert -math.inf not in [r.magnitude_db for r in curve.rows]
    assert math.isnan(curve.rows[-1].magnitude_db)


@pytest.mark.parametrize("p", [LIN, NL3], ids=["linear", "nonlinear"])
def test_parallel_matches_sequential(p):
    cfg = SweepConfig(freqs_hz=(0.6, 1.1, 5.1, 10.1), samples=5000, discard_fraction=0.5)
    seq = sweep_observer(p, cfg, workers=1)
    par = sweep_observer(p, cfg, workers=2)
    assert seq.rows == par.rows


def test_sweep_rejects_invalid_params():
    bad = ObserverParams(0.1, 0.0, 1.0, 0.2, 1.0, "linear")
    with pytest.raises(InvalidParams):
        sweep_observer(bad, SweepConfig(freqs_hz=(1.0,), samples=100))


def test_sweep_config_validation():
    with pytest.raises(ConfigError):
        sweep_observer(LIN, SweepConfig(freqs_hz=(1.0, 0.5), samples=100))
    with pytest.raises(ConfigError):
        sweep_observer(LIN, SweepConfig(freqs_hz=(1.0,), discard_fraction=1.0, samples=100))
    with pytest.raises(ConfigError):
        sweep_observer(LIN, SweepConfig(freqs_hz=(1.0,), channels=(4,), samples=100))
    with pytest.raises(ConfigError):
        sweep_observer(NL3, SweepConfig(freqs_hz=(1.0,), init_state="steady_state",
                                        samples=100))
    with pytest.warns(UserWarning):
        sweep_observer(LIN, SweepConfig(freqs_hz=(0.1,), samples=100))
    # the phase bound covers the lane's last step, at (samples + 1) * step_h
    edge = SweepConfig(freqs_hz=(1.0729190571588854e307,), step_h=1.0, samples=1)
    for alpha3, mode in ((1.0, "linear"), (0.5, "nonlinear")):
        p = ObserverParams(0.001, 1.0, 0.01, 1.0 / 1.1, alpha3, mode)
        with pytest.raises(ConfigError, match="^freqs_hz"):
            sweep_observer(p, edge)


def _mag_crossing_hz(curve, level_db, channel=3):
    f, mag, _, _ = curve.channel_arrays(channel)
    below = np.nonzero(mag < level_db)[0]
    i = below[0]
    assert i > 0, "first grid point already below the level"
    # linear interpolation between the last point above and first below
    f0, f1, m0, m1 = f[i - 1], f[i], mag[i - 1], mag[i]
    return f0 + (level_db - m0) * (f1 - f0) / (m1 - m0)


def test_nonlinear_bandwidth_grows_with_rate():
    # -3 dB crossing of the tracking channel from measured sweep curves
    freqs = (1.1, 3.1, 6.1, 10.1, 20.1, 40.1, 60.1, 80.1)
    cfg = SweepConfig(freqs_hz=freqs, amplitude=5.0, discard_fraction=0.5, channels=(3,))
    p5 = ObserverParams(0.1, 0.1, 1.0, 0.2, 0.3, "nonlinear")
    cross3 = _mag_crossing_hz(sweep_observer(NL3, cfg), -3.0)
    cross5 = _mag_crossing_hz(sweep_observer(p5, cfg), -3.0)
    assert cross5 > cross3


def test_zero_init_long_horizon_agrees_with_analytic():
    # with the startup ring fully settled, the raw zero-init procedure
    # converges to the same curve the steady-state-seeded short run gives
    cfg = SweepConfig(freqs_hz=(0.1, 10.1), samples=4_000_000, discard_fraction=0.5,
                      init_state="zero")
    curve = sweep_observer(LIN, cfg)
    ref = bode_from_transfer(LIN, cfg)
    for row, expect in zip(curve.rows, ref.rows):
        assert row.magnitude_db == pytest.approx(expect.magnitude_db, abs=0.01)
        assert abs(row.phase_rad - expect.phase_rad) < math.radians(0.1)


def test_bode_from_transfer_metadata():
    cfg = SweepConfig(freqs_hz=(0.6, 1.1), samples=100)
    curve = bode_from_transfer(LIN, cfg)
    assert curve.source == "analytic"
    assert all(r.source == "analytic" for r in curve.rows)
    assert curve.params["mode"] == "linear"
    assert curve.config["samples"] == 100
    assert [r.f_hz for r in curve.rows] == [0.6, 0.6, 0.6, 1.1, 1.1, 1.1]
