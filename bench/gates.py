"""Correctness gates run on a workload's outputs, outside the timed region.

Each gate returns a list of failure messages; any message fails the run.
The references are independent of the CLI path that wrote the files: the
exact transfer function (``bode_from_transfer``), the public single-step
integrator ``solver.step`` with ``fit_sinusoid``, and an in-memory
``simulate`` run compared with the parsed CSV/JSON files.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from doubleint import (ObserverState, SignalSpec, SimConfig, fit_sinusoid, make_input_fn,
                       simulate, step)
from doubleint.sweep import bode_from_transfer

from worker import build_configs
from workloads import rows_of

TWO_PI = 2.0 * math.pi
# Linear sweep rows from a steady-state start against the exact transfer
# function.  Today's worst row on the default grid is ~0.009 dB / 0.06 deg
# (RK4, h = 1 ms); doubling h multiplies that by ~16 and fails.
LINEAR_DB_TOL = 0.05
LINEAR_PHASE_TOL_DEG = 0.5
# Recomputed points and trajectories agree bit for bit today; the tolerance
# leaves room for a reordered but equally exact floating-point sum.
RECOMPUTE_REL_TOL = 1e-9
# Absolute floor for those comparisons, far below the O(0.01..10) scale of
# states, dB and radians.
RECOMPUTE_ABS_FLOOR = 1e-12
# A value written with 9 significant digits is within half a unit of the
# 9th digit of the in-memory value.
WRITER_REL_TOL = 5e-9
# How much of each simulate trajectory is recomputed: in memory through
# simulate(), and step by step through solver.step.
MEMORY_PREFIX_S = 60.0
STEP_PREFIX = 2000


def variant_tag(params, amplitude: float) -> str:
    """Stem the CLI gives a variant's Bode files: bode_<tag>.csv, analytic_<tag>.csv."""
    return f"{params.mode}_a{params.alpha3:g}_R{1.0 / params.epsilon:g}_Am{amplitude:g}"


def read_bode_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _close(a: float, b: float, rel: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def identical_outputs(dir_a: Path, dir_b: Path) -> list[str]:
    """Two passes with the same seed must write byte-identical files."""

    def digests(root: Path) -> dict:
        return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*")) if p.is_file()}

    a, b = digests(dir_a), digests(dir_b)
    if a.keys() != b.keys():
        return [f"passes wrote different file sets: {sorted(a.keys() ^ b.keys())}"]
    return [f"{name} differs between passes" for name in a if a[name] != b[name]]


def sweep_outputs(spec: dict, call_dirs: dict[str, Path]) -> tuple[list[str], dict]:
    """Gates on a sweep workload's Bode files.

    Returns (failures, accuracy), accuracy being the worst linear-row errors
    against the transfer function.
    """
    failures = []
    db_err = phase_err = 0.0
    for call in spec["calls"]:
        cfg = spec["configs"][call["config"]]
        built = build_configs(cfg)
        sweep_cfg = built["sweep"]
        for params in built["params"]:
            tag = variant_tag(params, sweep_cfg.amplitude)
            path = call_dirs[call["name"]] / f"bode_{tag}.csv"
            if not path.exists():
                failures.append(f"{path.name} was not written")
                continue
            rows = read_bode_csv(path)
            expected = len(sweep_cfg.freqs_hz) * len(sweep_cfg.channels)
            if len(rows) != expected:
                failures.append(f"{path.name}: {len(rows)} rows, expected {expected}")
                continue
            if params.mode != "linear":
                continue
            exact = bode_from_transfer(params, sweep_cfg)
            failures += _analytic_file(call_dirs[call["name"]] / f"analytic_{tag}.csv", exact)
            for row, ref in zip(rows, exact.rows):
                d_db = abs(float(row["magnitude_db"]) - ref.magnitude_db)
                d_ph = abs(math.degrees(math.remainder(float(row["phase_rad"]) - ref.phase_rad,
                                                       TWO_PI)))
                db_err, phase_err = max(db_err, d_db), max(phase_err, d_ph)
                if not (d_db <= LINEAR_DB_TOL and d_ph <= LINEAR_PHASE_TOL_DEG):
                    failures.append(
                        f"{path.name} f={row['f_hz']} ch={row['channel']}: "
                        f"{d_db:.3g} dB / {d_ph:.3g} deg off the transfer function")
    failures += _nonlinear_point(spec, call_dirs)
    accuracy = {"linear_max_db_err": db_err, "linear_max_phase_err_deg": phase_err}
    return failures, accuracy


def _analytic_file(path: Path, exact) -> list[str]:
    if not path.exists():
        return [f"{path.name} was not written"]
    rows = read_bode_csv(path)
    if len(rows) != len(exact.rows):
        return [f"{path.name}: {len(rows)} rows, expected {len(exact.rows)}"]
    for row, ref in zip(rows, exact.rows):
        for col, value in (("magnitude_db", ref.magnitude_db), ("phase_rad", ref.phase_rad)):
            if not _close(float(row[col]), value, WRITER_REL_TOL):
                return [f"{path.name} f={row['f_hz']}: {col} {row[col]} != {value!r}"]
    return []


def _nonlinear_point(spec: dict, call_dirs: dict[str, Path]) -> list[str]:
    """Recompute the seeded nonlinear (variant, frequency) point with solver.step."""
    pick = spec["nonlinear_check"]
    call = spec["calls"][0]
    built = build_configs(spec["configs"][call["config"]])
    params, cfg = built["params"][pick["variant"]], built["sweep"]
    f_hz = cfg.freqs_hz[pick["freq_index"]]
    omega = TWO_PI * f_hz
    a_fn = make_input_fn(SignalSpec("sinusoid", cfg.amplitude, omega))
    h = cfg.step_h
    states = np.empty((cfg.samples + 1, 3))
    x = states[0] = ObserverState(0.0, 0.0, 0.0)
    for i in range(cfg.samples):
        x = step(params, x, i * h, h, a_fn, cfg.method)
        states[i + 1] = x
    times = np.arange(cfg.samples + 1) * h
    lo = int(times.size * cfg.discard_fraction)
    path = call_dirs[call["name"]] / f"bode_{variant_tag(params, cfg.amplitude)}.csv"
    # rows are ordered by frequency, then channel
    per_freq = len(cfg.channels)
    rows = read_bode_csv(path)[pick["freq_index"] * per_freq:(pick["freq_index"] + 1) * per_freq]
    failures = []
    for row in rows:
        fit = fit_sinusoid(times[lo:], states[lo:, int(row["channel"]) - 1], omega)
        mag_db = 20.0 * math.log10(fit.amplitude / cfg.amplitude)
        for col, value in (("magnitude_db", mag_db), ("phase_rad", fit.phase)):
            written = float(row[col])
            if not _close(written, value, RECOMPUTE_REL_TOL + WRITER_REL_TOL,
                          RECOMPUTE_ABS_FLOOR):
                failures.append(f"{path.name} f={f_hz} ch={row['channel']}: {col} "
                                f"{written!r} != step()-recomputed {value!r}")
    if len(rows) != len(cfg.channels):
        failures.append(f"{path.name}: no rows at the checked frequency {f_hz}")
    return failures


def simulate_outputs(spec: dict, call_dirs: dict[str, Path]) -> list[str]:
    """Gates on a simulate workload's trajectory files.

    Each config's trajectory is recomputed in memory for its first
    MEMORY_PREFIX_S seconds; the first STEP_PREFIX steps are recomputed
    again through solver.step.  Every CSV/JSON file written from that config
    is parsed back and must match the in-memory values at 9 digits.
    """
    failures = []
    memory = {}
    for name, cfg in spec["configs"].items():
        built = build_configs(cfg)
        sim = built["sim"]
        short = SimConfig(sim.step_h, min(sim.duration, MEMORY_PREFIX_S), sim.initial_state,
                          sim.method, sim.record_stride)
        traj = simulate(built["params"][0], built["signal"], short)
        memory[name] = traj
        failures += _step_prefix(name, built, traj)
    for call in spec["calls"]:
        traj = memory[call["config"]]
        expected_rows = rows_of(spec["configs"][call["config"]]["sim"])
        fmt = call["argv"][call["argv"].index("--format") + 1]
        path = call_dirs[call["name"]] / f"trajectory.{fmt}"
        if not path.exists():
            failures.append(f"{call['name']}: {path.name} was not written")
            continue
        columns = _read_trajectory(path, fmt)
        if len(columns["t"]) != expected_rows:
            failures.append(f"{call['name']}: {len(columns['t'])} rows, expected {expected_rows}")
            continue
        failures += _match_memory(call["name"], columns, traj)
    return failures


def _step_prefix(name: str, built: dict, traj) -> list[str]:
    sim = built["sim"]
    a_fn = make_input_fn(built["signal"])
    x = sim.initial_state
    h, stride = sim.step_h, sim.record_stride
    for i in range(min(STEP_PREFIX, (traj.times.size - 1) * stride)):
        x = step(built["params"][0], x, i * h, h, a_fn, sim.method)
        if (i + 1) % stride == 0:
            row = traj.states[(i + 1) // stride]
            if not all(_close(a, b, RECOMPUTE_REL_TOL, RECOMPUTE_ABS_FLOOR)
                       for a, b in zip(x, row)):
                return [f"{name}: step {i + 1} of solver.step gives {tuple(x)}, "
                        f"simulate gives {tuple(map(float, row))}"]
    return []


def _read_trajectory(path: Path, fmt: str) -> dict[str, list]:
    if fmt == "json":
        with open(path) as f:
            return json.load(f)
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        cols = list(zip(*reader))
    return {name: [float(v) if v else None for v in col] for name, col in zip(header, cols)}


def _match_memory(name: str, columns: dict, traj) -> list[str]:
    """The first rows of each written column against the in-memory trajectory."""
    n = traj.times.size
    reference = {"t": traj.times, "a": traj.inputs}
    for j in range(3):
        reference[f"x{j + 1}"] = traj.states[:, j]
        if traj.truths is not None:
            reference[f"a{j + 1}"] = traj.truths[:, j]
            reference[f"e{j + 1}"] = traj.errors[:, j]
    failures = []
    for col, ref in reference.items():
        if col not in columns:
            failures.append(f"{name}: column {col} missing")
            continue
        written = np.array([math.nan if v is None else v for v in columns[col][:n]])
        bad = ~(np.abs(written - ref) <= WRITER_REL_TOL * np.maximum(np.abs(written), np.abs(ref)))
        if bad.any():
            i = int(np.argmax(bad))
            failures.append(f"{name}: {col}[{i}] = {float(written[i])!r}, "
                            f"in memory {float(ref[i])!r}")
    return failures


def sweep_flags(pass_dir: Path) -> list[str]:
    """Flag of every sweep row a pass wrote (analytic curves excluded)."""
    return [row["flag"] for path in sorted(pass_dir.glob("*/bode_*.csv"))
            for row in read_bode_csv(path)]
