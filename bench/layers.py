"""Per-layer probes: each module's public functions timed from outside.

Each probe is small (the whole set takes a few seconds) and uses the same
observer gains as the scenarios, k = (0.1, 0.1, 1) at R = 5.  Timings are the
median of a few repeats.  The workload-specific layer counts and self times
come from the traced pass, not from here.
"""

import math
import statistics
from collections import deque
from itertools import starmap
from pathlib import Path

import numpy as np
from doubleint import (ObserverParams, ObserverState, SignalSpec, SimConfig, SweepConfig, cli,
                       cutoff_frequency, default_grid, fit_sinusoid, io, make_input_fn,
                       paper_reference_spec, phase_unwrap, power_sign, rhs, scenarios, simulate,
                       step, sweep_observer, trajectory_metrics, transfer_eval, validate_params)
from doubleint.signals import truth_arrays
from doubleint.sweep import bode_from_transfer

from speed import SpeedSampler
from tracing import POWER_SIGN_ALPHA, ns_per_call
from worker import build_configs

TWO_PI = 2.0 * math.pi
# rk4 and euler probe lengths: roughly 0.1 s each at today's kernel speed
PROBE_STEPS = {"rk4": 10000, "euler": 20000}
# sweep lanes probed alone: the top of the default grid, where the linear
# rows' discretization error is largest
LANE_HZ = default_grid()[-1]
POOL_FREQS = default_grid()[40:44]


def _params(mode: str) -> ObserverParams:
    alpha3 = 1.0 if mode == "linear" else 0.3
    return ObserverParams.from_rate(0.1, 0.1, 1.0, 5.0, alpha3, mode)


def _median_s(s: SpeedSampler, fn, repeats: int = 3) -> float:
    """Median reference seconds of fn() over a few repeats."""
    return statistics.median(s.time(fn).reference_s for _ in range(repeats))


def _per_call(s: SpeedSampler, fn, args_list, repeats: int = 3) -> float:
    """Median reference seconds per call of fn over a list of argument tuples."""
    return _median_s(s, lambda: deque(starmap(fn, args_list), maxlen=0), repeats) / len(args_list)


def _solver(out: dict, s: SpeedSampler):
    spec = SignalSpec("sinusoid", 1.0, TWO_PI * 10.0)
    traj = None
    for method, steps in PROBE_STEPS.items():
        for mode in ("linear", "nonlinear"):
            cfg = SimConfig(0.001, steps * 0.001, ObserverState(0.0, 1.0, 0.0), method, 1)
            p = _params(mode)
            elapsed = _median_s(s, lambda: simulate(p, spec, cfg))
            out[f"solver.steps_per_s.{method}.{mode}"] = steps / elapsed
            if method == "rk4" and mode == "nonlinear":
                traj = simulate(p, spec, cfg)
    p = _params("nonlinear")
    a_fn = make_input_fn(spec)
    x = ObserverState(0.0, 1.0, 0.0)
    out["solver.step_us"] = _per_call(s, step, [(p, x, i * 1e-3, 1e-3, a_fn) for i in range(2000)]) * 1e6
    t_end = float(traj.times[-1])
    windows = [(0.0, t_end), (0.5 * t_end, 0.6 * t_end), (0.9 * t_end, t_end)]
    out["solver.trajectory_metrics_ms"] = _median_s(s, lambda: trajectory_metrics(traj, windows)) * 1e3
    return traj


def _signals(out: dict, s: SpeedSampler) -> None:
    for name, spec in (("sinusoid", SignalSpec("sinusoid", 1.0, TWO_PI * 10.0)),
                       ("noisy_reference", paper_reference_spec(with_noise=True))):
        out[f"signals.input_eval_ns.{name}"] = ns_per_call(s, make_input_fn(spec))
    arr = np.arange(100000) * 1e-3
    spec = paper_reference_spec(with_noise=True)
    out["signals.truth_arrays_ns_per_row"] = _median_s(s, lambda: truth_arrays(spec, arr)) / arr.size * 1e9


def _observers(out: dict, s: SpeedSampler) -> None:
    out["observers.power_sign_ns"] = ns_per_call(s, power_sign, POWER_SIGN_ALPHA)
    states = [(ObserverState(0.1 * i, -0.2, 0.3), 0.05) for i in range(-2500, 2500)]
    for mode in ("linear", "nonlinear"):
        p = _params(mode)
        out[f"observers.rhs_us.{mode}"] = _per_call(s, rhs, [(p, x, a) for x, a in states]) * 1e6
    p = _params("nonlinear")
    out["observers.validate_params_us"] = _per_call(s, validate_params, [(p,)] * 2000) * 1e6


def _sweep(out: dict, s: SpeedSampler) -> None:
    p_lin = _params("linear")
    lane = SweepConfig(freqs_hz=(LANE_HZ,), init_state="steady_state")
    curves = []
    out["sweep.lane_s.linear"] = s.time(
        lambda: curves.append(sweep_observer(p_lin, lane))).reference_s
    exact = bode_from_transfer(p_lin, lane)
    rows = list(zip(curves[0].rows, exact.rows))
    out["sweep.linear_db_err"] = max(abs(r.magnitude_db - e.magnitude_db) for r, e in rows)
    out["sweep.linear_phase_err_deg"] = max(
        abs(math.degrees(math.remainder(r.phase_rad - e.phase_rad, TWO_PI))) for r, e in rows)
    p_nl = _params("nonlinear")
    out["sweep.lane_s.nonlinear"] = s.time(
        lambda: sweep_observer(p_nl, SweepConfig(freqs_hz=(LANE_HZ,)))).reference_s

    t = np.arange(50001) * 1e-3
    y = np.sin(TWO_PI * 10.0 * t + 0.3)
    out["sweep.fit_ms_per_50k"] = _median_s(s, lambda: fit_sinusoid(t, y, TWO_PI * 10.0), 5) * 1e3
    grid = bode_from_transfer(p_lin, SweepConfig())
    out["sweep.phase_unwrap_us_per_row"] = (
        _median_s(s, lambda: phase_unwrap(grid), 5) / len(grid.rows) * 1e6)

    # raw seconds: the pool's workers run on both cores while this process
    # waits, so the sampler here would not see their speed
    pool_cfg = SweepConfig(freqs_hz=POOL_FREQS)
    serial = s.time(lambda: sweep_observer(p_lin, pool_cfg, workers=1)).raw_s
    pooled = s.time(lambda: sweep_observer(p_lin, pool_cfg, workers=2)).raw_s
    out["sweep.pool_speedup"] = serial / pooled


def _analytic(out: dict, s: SpeedSampler) -> None:
    p = _params("linear")
    omegas = [(p, 1 + i % 3, 0.1 * (i + 1)) for i in range(3000)]
    out["analytic.transfer_eval_us"] = _per_call(s, transfer_eval, omegas) * 1e6
    cfg = SweepConfig()
    rows = len(cfg.freqs_hz) * len(cfg.channels)
    out["analytic.bode_from_transfer_us_per_row"] = (
        _median_s(s, lambda: bode_from_transfer(p, cfg)) / rows * 1e6)
    out["analytic.cutoff_ms"] = _median_s(s, lambda: cutoff_frequency(p, 1)) * 1e3


def _io(out: dict, s: SpeedSampler, traj, scratch: Path) -> None:
    rows = traj.times.size
    csv_path = scratch / "probe_trajectory.csv"
    json_path = scratch / "probe_trajectory.json"
    out["io.trajectory_csv_us_per_row"] = (
        _median_s(s, lambda: io.write_trajectory_csv(csv_path, traj), 1) / rows * 1e6)
    out["io.trajectory_json_us_per_row"] = (
        _median_s(s, lambda: io.write_json(json_path, io.trajectory_to_dict(traj)), 1) / rows * 1e6)
    curve = bode_from_transfer(_params("linear"), SweepConfig())
    bode_path = scratch / "probe_bode.csv"
    out["io.bode_csv_us_per_row"] = (
        _median_s(s, lambda: io.write_bode_csv(bode_path, curve)) / len(curve.rows) * 1e6)
    for path in (csv_path, json_path, bode_path):
        path.unlink()


def _cli(out: dict, s: SpeedSampler, config_paths: list[str]) -> None:
    def parse_all():
        for path in config_paths:
            build_configs(cli.load_config(path))

    out["cli.config_parse_us"] = _median_s(s, parse_all, 21) / len(config_paths) * 1e6
    names = scenarios.SCENARIO_NAMES
    out["cli.expand_scenario_us"] = _per_call(s, scenarios.expand_scenario,
                                              [(n,) for n in names] * 50) * 1e6


def measure(config_paths: list[str], scratch: str, s: SpeedSampler) -> dict:
    """All workload-independent per-layer metrics, by name, in reference time."""
    out: dict = {}
    traj = _solver(out, s)
    _signals(out, s)
    _observers(out, s)
    _sweep(out, s)
    _analytic(out, s)
    _io(out, s, traj, Path(scratch))
    _cli(out, s, config_paths)
    return out
