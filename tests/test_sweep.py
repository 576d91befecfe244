import collections
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleint import (
    BodeCurve,
    BodeRow,
    ConfigError,
    DivergedState,
    IllConditioned,
    InvalidParams,
    ObserverParams,
    SignalSpec,
    SimConfig,
    SweepConfig,
    bode_from_transfer,
    default_grid,
    fit_sinusoid,
    limit_transfer,
    phase_unwrap,
    simulate,
    sweep_observer,
    sweep_observers,
    transfer_eval,
)
from doubleint import analytic, scenarios, solver, sweep
from doubleint.cli import _build_params, _build_sweep
from doubleint.solver import STABILITY_LIMIT
from doubleint.sweep import INIT_KINDS

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
    with pytest.raises(IllConditioned, match=r"^times and values must be 1-D, got shapes "
                                             r"\(4,\) and \(2, 2\)$"):
        fit_sinusoid(np.arange(4) * 0.1, np.ones((2, 2)), 1.0)
    with pytest.raises(ConfigError):
        fit_sinusoid(sample_times(10), np.ones(11), 0.0)
    # an int too large for a float is no finite omega either
    for bad in (math.nan, math.inf, 10**400):
        with pytest.raises(ConfigError, match="^omega must be finite and positive$"):
            fit_sinusoid(sample_times(10), np.ones(11), bad)
    for bad in (math.nan, math.inf):
        t = sample_times(10)
        t[3] = bad
        with pytest.raises(IllConditioned, match="^normal matrix is not finite$"):
            fit_sinusoid(t, np.ones(11), 1.0)



def test_a_lane_fits_every_channel_from_one_sine_and_cosine(monkeypatch):
    # a lane's fits are fit_sinusoid's per channel, bit for bit, from the one sin and cos of
    # its phases its frequency's basis holds: the per-channel solve takes none of its own.
    # Each channel is a strided column of the lane's states, as in a sweep
    t = sample_times(5000)[500:]
    omega = 2.0 * math.pi * 3.1
    states = np.column_stack([np.sin(omega * t + 0.3), 2.0 * np.cos(omega * t) + 0.1 * t,
                              1e-3 * np.sin(5.0 * omega * t)])
    columns = [states[:, k] for k in range(3)]
    expected = [fit_sinusoid(t, y, omega) for y in columns]
    basis = sweep._Basis.of(np.sin(omega * t), np.cos(omega * t))
    calls = []
    for name in ("sin", "cos"):
        def counted(x, fn=getattr(np, name), name=name):
            calls.append(name)
            return fn(x)
        monkeypatch.setattr(np, name, counted)
    assert [basis.fit(y) for y in columns] == expected
    assert calls == []


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
    for init_state in INIT_KINDS:
        cfg = SweepConfig(freqs_hz=(0.6, 5.1, 20.1), samples=20000, discard_fraction=0.25,
                          init_state=init_state)
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
    # either mode (the linear one: test_an_overflowed_linear_start_diverges_where_it_overflows)
    (NL1, OVERFLOWED_START, ("diverged",) * 6),
], ids=["infinite-amplitude", "overflowed-start-nonlinear"])
def test_divergent_rows_flagged_not_fatal(p, cfg, flags):
    curve = sweep_observer(p, cfg)
    assert tuple(r.flag for r in curve.rows) == flags
    assert all(math.isnan(r.magnitude_db) for r in curve.rows if r.flag == "diverged")
    assert curve.flagged_fraction == 1.0
    # no fit amplitude here is zero, so no row reads -inf dB
    assert -math.inf not in [r.magnitude_db for r in curve.rows]
    assert math.isnan(curve.rows[-1].magnitude_db)


@pytest.mark.filterwarnings("ignore:run length")
def test_an_overflowed_linear_start_diverges_where_it_overflows():
    # the 0.1 Hz steady-state start overflows, so that lane diverges at t = 0; at 5.1 Hz the
    # start is finite and the closed form fits its lane without summing a sample: (c1, c2)
    # is the amplitude times the unit-amplitude lane's, and the residual 0, where a fit of
    # the lane's samples overflowed its sums and flagged the rows nonfinite_fit
    curve = sweep_observer(LIN, OVERFLOWED_START)
    unit = sweep_observer(LIN, dataclasses.replace(OVERFLOWED_START, amplitude=1.0))
    assert [r.flag for r in curve.rows] == ["diverged"] * 3 + ["ok"] * 3
    assert all(math.isnan(r.magnitude_db) for r in curve.rows[:3])
    for row, ref in zip(curve.rows[3:], unit.rows[3:]):
        assert abs(row.magnitude_db - ref.magnitude_db) <= 1e-12
        assert abs(row.phase_rad - ref.phase_rad) <= 1e-12
        assert row.residual_rms == ref.residual_rms == 0.0


def test_too_few_fit_samples_flag_every_row_ill_conditioned():
    # 11 record times keep one after discarding 95 %: no fit, at any frequency or channel
    cfg = SweepConfig(freqs_hz=(0.1, 5.1), samples=10, discard_fraction=0.95)
    with pytest.warns(UserWarning, match="shorter than one period"):
        rows = sweep_observer(LIN, cfg).rows
    assert [(r.f_hz, r.channel) for r in rows] == [(f, ch) for f in (0.1, 5.1) for ch in (1, 2, 3)]
    assert all(r.flag == "ill_conditioned" and math.isnan(r.magnitude_db) for r in rows)


@pytest.mark.parametrize("p", [LIN, NL3], ids=["linear", "nonlinear"])
def test_parallel_matches_sequential(p):
    cfg = SweepConfig(freqs_hz=(0.6, 1.1, 5.1, 10.1), samples=5000, discard_fraction=0.5)
    seq = sweep_observer(p, cfg, workers=1)
    par = sweep_observer(p, cfg, workers=2)
    assert seq.rows == par.rows


def _record_pools(monkeypatch) -> list:
    """The max_workers of every pool a sweep starts from now on.  A fork pool starts every one
    of max_workers processes at the first submit; the fake executor records max_workers and
    maps serially, so no process is started."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr("doubleint.sweep.ProcessPoolExecutor", SerialPool)
    return started


@pytest.mark.parametrize("freqs_hz, workers, pools", [
    ((5.1, 10.1), 100_000, [2]),
    ((5.1, 10.1, 20.1), 2, [2]),
    ((5.1,), 8, []),
])
def test_pool_is_capped_at_the_lane_count(monkeypatch, freqs_hz, workers, pools):
    started = _record_pools(monkeypatch)
    cfg = SweepConfig(freqs_hz=freqs_hz, samples=200)
    assert sweep_observer(NL3, cfg, workers=workers).rows == sweep_observer(NL3, cfg).rows
    assert started == pools


@pytest.mark.parametrize("workers", [2, 100_000])
def test_a_sweep_of_closed_form_lanes_starts_no_pool(monkeypatch, workers):
    # a linear lane takes well under a millisecond, less than a pool takes to start; one
    # nonlinear lane among them starts the pool for all
    started = _record_pools(monkeypatch)
    cfg = SweepConfig(freqs_hz=(5.1, 10.1, 20.1), samples=200)
    runs = [(LIN, cfg), (LIN, dataclasses.replace(cfg, amplitude=2.0))]
    assert sweep_observers(runs, workers=workers) == sweep_observers(runs)
    assert started == []
    sweep_observers(runs + [(NL3, cfg)], workers=workers)
    assert started == [min(workers, 3)]


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_refuses_fewer_than_one_worker(workers):
    # as the CLI refuses --threads below 1, rather than running serially
    with pytest.raises(ConfigError, match=f"^workers must be >= 1, got {workers}$"):
        sweep_observer(LIN, SweepConfig(freqs_hz=(1.0,), samples=100), workers=workers)


@pytest.mark.parametrize("workers, message", [
    (2.5, "workers: expected an integer, got 2.5"),
    ("2", 'workers: expected an integer, got "2"'),
    (True, "workers: expected an integer, got true"),
])
def test_workers_that_is_not_an_integer_is_refused(workers, message):
    # no pool is started: the refusal comes before the first lane
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        sweep_observer(LIN, SweepConfig(freqs_hz=(5.1, 10.1), samples=200), workers=workers)


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
    # the phase bound covers the lane's last step, at (samples + 1) * step_h, in
    # either mode: it is refused before any params are given
    with pytest.raises(ConfigError, match="^freqs_hz"):
        SweepConfig(freqs_hz=(1.0729190571588854e307,), step_h=1.0, samples=1)
    SweepConfig(freqs_hz=(1.0729190571588854e307 / 2,), step_h=1.0, samples=1)
    # samples * step_h overflows: the refusal names samples, not the lane's duration
    with pytest.raises(ConfigError, match="^samples 10000 at step_h 1e\\+305 overflow"):
        SweepConfig(freqs_hz=(1e-300,), samples=10000, step_h=1e305)
    with pytest.raises(ConfigError, match=r"^samples: expected an integer, got 100\.5$"):
        SweepConfig(freqs_hz=(1.0,), samples=100.5)
    # a fractional channel indexes no state column; an integral float is that integer
    with pytest.raises(ConfigError, match=r"^channels\[1\]: expected an integer, got 2\.5$"):
        SweepConfig(freqs_hz=(1.0,), samples=100, channels=(1.0, 2.5))
    assert SweepConfig(freqs_hz=(1.0,), samples=100, channels=(1.0, 2.0)).channels == (1, 2)


@pytest.mark.parametrize("channels", [(1, 1), (3, 1)])
def test_channels_must_be_strictly_increasing(channels):
    # a curve holds one row per (frequency, channel), in that order: a repeated
    # channel would write its rows twice, a reversed pair out of order
    with pytest.raises(ConfigError, match=r"^channels must be strictly increasing, got \["):
        SweepConfig(freqs_hz=(5.1, 10.1), samples=200, channels=channels)


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


def _lane_by_lane(p, cfg):
    """The curve sweep_observer gave a nonlinear p before a sweep ran frequency-major: per
    frequency, one solver.simulate run on a fresh one-lane SimConfig, then fit_sinusoid per
    channel."""
    rows = []
    for f_hz in cfg.freqs_hz:
        omega = 2.0 * math.pi * f_hz
        try:
            x0 = sweep._initial_state(p, cfg, omega)
            traj = simulate(p, SignalSpec("sinusoid", cfg.amplitude, omega),
                            SimConfig(cfg.step_h, cfg.samples * cfg.step_h, x0, cfg.method))
            times, states = traj.times, traj.states
            lo = int(times.size * cfg.discard_fraction)
            fits = [fit_sinusoid(times[lo:], states[lo:, ch - 1], omega) for ch in cfg.channels]
        except (DivergedState, IllConditioned) as exc:
            flag = "diverged" if isinstance(exc, DivergedState) else "ill_conditioned"
            rows += [BodeRow(f_hz, omega, ch, math.nan, math.nan, None, None, "sweep", flag)
                     for ch in cfg.channels]
            continue
        for ch, fit in zip(cfg.channels, fits):
            mag_db = 20.0 * math.log10(fit.amplitude / cfg.amplitude)
            finite = all(map(math.isfinite, (mag_db, fit.phase, fit.residual_rms)))
            rows.append(BodeRow(f_hz, omega, ch, mag_db, fit.phase, None, fit.residual_rms,
                                "sweep", "ok" if finite else "nonfinite_fit"))
    return phase_unwrap(BodeCurve(tuple(rows), sweep.params_meta(p), dataclasses.asdict(cfg)))


NL5 = ObserverParams(0.1, 0.1, 1.0, 0.2, 0.5, "nonlinear")

# (params, amplitude) of a mixed lane list; math.inf diverges at the first step, beside
# healthy lanes at every frequency
MIXED = {
    "zero": [(LIN, 0.5), (NL3, 1.0), (LIN, 2.0), (NL5, 0.5), (NL3, 2.0), (LIN, math.inf),
             (NL5, 1.0)],
    "steady_state": [(LIN, 1.0), (NL1, 2.0), (LIN, 0.5), (NL1, math.inf), (LIN, 2.0)],
}


def _assert_lane_by_lane(runs, curves, linear_oracle):
    """Each curve is its run's own: a nonlinear one has the bits of _lane_by_lane (repr shows
    each float to the bit, nan too), a linear one the flags and, within the oracle's bound,
    the fits of a loop of step() (linear_oracle)."""
    assert len(curves) == len(runs)
    for (p, cfg), curve in zip(runs, curves):
        if p.mode == "nonlinear":
            assert repr(curve) == repr(_lane_by_lane(p, cfg))
            continue
        linear_oracle(p, cfg, curve.rows)
        assert (curve.params, curve.config, curve.source) == (
            sweep.params_meta(p), dataclasses.asdict(cfg), "sweep")
        assert repr(phase_unwrap(curve)) == repr(curve)


@pytest.mark.filterwarnings("ignore:run length")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("discard", [0.0, 0.3])
@pytest.mark.parametrize("init_state", INIT_KINDS)
def test_frequency_major_sweep_is_the_lane_by_lane_sweep(init_state, discard, method, workers,
                                                         linear_oracle):
    # every nonlinear lane of every variant, read from its frequency's one drive and fitted on
    # its one basis, has the bits of its own run and fits; every linear lane, in closed form,
    # is its own step() loop's fits
    cfg = SweepConfig(freqs_hz=(0.6, 7.1, 33.1), samples=3000, discard_fraction=discard,
                      method=method, init_state=init_state)
    runs = [(p, dataclasses.replace(cfg, amplitude=a)) for p, a in MIXED[init_state]]
    curves = sweep_observers(runs, workers=workers)
    _assert_lane_by_lane(runs, curves, linear_oracle)
    flags = {r.flag for c in curves for r in c.rows}
    assert flags == {"ok", "diverged"}


@pytest.mark.filterwarnings("ignore:run length")
def test_a_diverging_lane_is_flagged_before_its_frequencys_ill_conditioned_fit(linear_oracle):
    # one sample is kept after the discard, so no fit is possible at any frequency; a lane
    # that diverges is still flagged diverged, as its own run and fits flag it
    cfg = SweepConfig(freqs_hz=(0.1, 5.1), samples=10, discard_fraction=0.95)
    runs = [(p, dataclasses.replace(cfg, amplitude=a))
            for p, a in ((LIN, 1.0), (LIN, math.inf), (NL3, math.inf), (NL3, 1.0))]
    curves = sweep_observers(runs)
    _assert_lane_by_lane(runs, curves, linear_oracle)
    assert [{r.flag for r in c.rows} for c in curves] == [
        {"ill_conditioned"}, {"diverged"}, {"diverged"}, {"ill_conditioned"}]


def test_a_sweep_computes_each_frequencys_sines_once_for_all_its_variants(monkeypatch):
    # np.sin and np.cos run on a fixed number of arrays per frequency with a nonlinear lane,
    # whatever the number of variants: the sine and cosine of the grid phases, and for RK4
    # the sine at the half steps and at the t + h that miss the grid
    calls = []
    for name in ("sin", "cos"):
        def counted(x, fn=getattr(np, name), name=name):
            calls.append(name)
            return fn(x)
        monkeypatch.setattr(np, name, counted)
    freqs = (0.6, 7.1, 33.1)
    variants = [(NL3, 1.0), (LIN, 1.0), (NL5, 2.0), (LIN, 2.0), (NL3, 0.5), (NL1, 1.0)]
    for method, per_freq in (("rk4", ["sin", "sin", "sin", "cos"]), ("euler", ["sin", "cos"])):
        cfg = SweepConfig(freqs_hz=freqs, samples=2000, method=method)
        for count in (1, 2, 6):
            calls.clear()
            sweep_observers([(p, dataclasses.replace(cfg, amplitude=a))
                             for p, a in variants[:count]])
            assert sorted(calls) == sorted(per_freq * len(freqs)), (method, count)
    # lanes that only take the closed form compute no sine at all
    for method in ("rk4", "euler"):
        cfg = SweepConfig(freqs_hz=freqs, samples=2000, method=method)
        for count in (1, 3):
            calls.clear()
            sweep_observers([(LIN, dataclasses.replace(cfg, amplitude=a))
                             for a in (1.0, 2.0, 3.0)[:count]])
            assert calls == [], (method, count)


@pytest.mark.parametrize("init_state", INIT_KINDS)
def test_a_linear_lane_solves_its_discrete_response_once(monkeypatch, init_state):
    # a linear lane's closed form takes its start, zero or on its forced orbit, from its own
    # phasor: one solve of analytic.discrete_response per lane, whatever the start
    calls = []
    def counted(*args, fn=analytic.discrete_response):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(analytic, "discrete_response", counted)
    cfg = SweepConfig(freqs_hz=(0.6, 7.1, 33.1), samples=2000, init_state=init_state)
    sweep_observers([(LIN, cfg), (LIN, dataclasses.replace(cfg, amplitude=2.0))])
    assert len(calls) == 2 * len(cfg.freqs_hz)


def test_a_sweep_checks_each_run_once_whatever_its_frequencies(monkeypatch):
    # sweep_observers checks every run before any lane, and its lanes run unchecked and never
    # through solver.simulate: the checks run once per run at one frequency and at five
    calls = collections.Counter()
    for module, name in ((sweep, "validate_params"), (sweep, "check_config"),
                         (solver, "validate_params"), (solver, "check_config"),
                         (solver, "simulate")):
        def counted(*args, fn=getattr(module, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)
    for freqs in ((7.1,), (2.1, 7.1, 13.1, 21.1, 33.1)):
        cfg = SweepConfig(freqs_hz=freqs, samples=500)
        calls.clear()
        sweep_observers([(NL3, cfg), (LIN, dataclasses.replace(cfg, amplitude=2.0)),
                         (NL5, dataclasses.replace(cfg, amplitude=0.5))])
        assert calls == {"validate_params": 3, "check_config": 3}, freqs


def test_sweep_observers_refuses_runs_that_differ_beyond_amplitude():
    cfg = SweepConfig(freqs_hz=(5.1,), samples=200)
    with pytest.raises(ConfigError, match="^runs must share every sweep setting but amplitude$"):
        sweep_observers([(LIN, cfg), (NL3, dataclasses.replace(cfg, samples=300))])
    with pytest.raises(ConfigError, match="^runs must not be empty$"):
        sweep_observers([])
    # amplitudes may differ: one curve per run, in order
    curves = sweep_observers([(LIN, cfg), (LIN, dataclasses.replace(cfg, amplitude=2.0))])
    assert [c.config["amplitude"] for c in curves] == [1.0, 2.0]


@pytest.mark.parametrize("amplitude, rate", [(0.01, "15.7"), (1e-6, "9.91e+03")])
def test_small_amplitudes_of_a_nonlinear_sweep_are_refused(amplitude, rate):
    # the run at amplitude A and step h is the unit-amplitude run at step h * A^(alpha3 - 1):
    # at alpha3 = 0.3 and R = 5 these rows were +3 to +49 dB artefacts flagged ok
    p = ObserverParams.from_rate(0.1, 0.1, 1.0, 5.0, 0.3, "nonlinear")
    cfg = SweepConfig(freqs_hz=(0.6, 25.1), samples=500, amplitude=amplitude)
    message = f"^amplitude {amplitude:g} scales the nonlinear step .* = {re.escape(rate)} exceeds"
    with pytest.raises(ConfigError, match=message):
        sweep.check_sweep_config(p, cfg)
    with pytest.raises(ConfigError, match=message):
        sweep_observer(p, cfg)
    # check_sweep_config checks in the order the CLI reports: the amplitude comes before the
    # steady_state start, which this observer fails too
    with pytest.raises(ConfigError, match=message):
        sweep.check_sweep_config(p, dataclasses.replace(cfg, init_state="steady_state"))
    # the linear observer, and alpha3 = 1, take any amplitude
    for q in (dataclasses.replace(p, mode="linear", alpha3=1.0),
              dataclasses.replace(p, alpha3=1.0)):
        sweep.check_sweep_config(q, cfg)


def test_amplitudes_of_at_least_one_keep_the_unit_amplitude_guard():
    p = ObserverParams.from_rate(0.1, 0.1, 1.0, 5.0, 0.3, "nonlinear")
    for amplitude in (1.0, 5.0, 1e6, math.inf):
        sweep.check_sweep_config(p, SweepConfig(freqs_hz=(5.1,), amplitude=amplitude))
    # a step the unit-amplitude guard refuses is named as the step, at any amplitude
    for amplitude in (1e-6, 1.0, 1e6):
        with pytest.raises(ConfigError, match=r"^step_h\*k3/eps\^4 = 3.12 exceeds"):
            sweep.check_sweep_config(p, SweepConfig(freqs_hz=(5.1,), amplitude=amplitude,
                                                    step_h=0.005))


@pytest.mark.parametrize("name", ["fig1", "fig2"])
def test_the_amplitude_guard_passes_every_figure_sweep(name):
    cfg = scenarios.expand_scenario(name)
    sweep_cfg, variants = _build_sweep(cfg["sweep"])
    for i, variant in enumerate(variants):
        over = {k: v for k, v in variant.items() if k != "amplitude"}
        run = dataclasses.replace(sweep_cfg, amplitude=variant.get("amplitude",
                                                                   sweep_cfg.amplitude))
        sweep.check_sweep_config(_build_params(cfg, over, f"sweep.variants[{i}]"), run)


@settings(max_examples=300, deadline=None)
@given(amplitude=st.floats(min_value=5e-324, max_value=1e12),
       step_h=st.floats(min_value=1e-7, max_value=1e-2),
       alpha3=st.floats(min_value=1e-3, max_value=1.0),
       rate=st.sampled_from([3.0, 4.0, 5.0, 20.0]))
def test_an_accepted_amplitude_maps_to_an_accepted_unit_amplitude_step(amplitude, step_h,
                                                                      alpha3, rate):
    # homogeneity: the run at (A, h) is the unit-amplitude run at h * min(1, A)^(alpha3 - 1),
    # so the guard accepts (A, h) exactly when the unit-amplitude guard accepts that step
    p = ObserverParams.from_rate(0.1, 0.1, 1.0, rate, alpha3, "nonlinear")
    cfg = SweepConfig(freqs_hz=(1.0,), samples=10, step_h=step_h, amplitude=amplitude)
    try:
        scale = min(1.0, amplitude) ** (alpha3 - 1.0)
    except OverflowError:
        scale = math.inf
    accepted = (step_h * scale) * p.k3 / p.epsilon**4 < STABILITY_LIMIT
    try:
        sweep.check_sweep_config(p, cfg)
    except ConfigError as exc:
        assert not accepted, exc
    else:
        assert accepted
