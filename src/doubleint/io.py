"""CSV/JSON serialization of trajectories and Bode curves.

Each table has one column list, which names the CSV header cells and the
JSON keys alike.  CSV files use '.' decimals, '\\n' line endings and fixed
9-significant-digit scientific formatting, unconditionally, so outputs diff
cleanly across platforms.  Unavailable cells (no ground truth, flagged rows)
are empty in CSV; in JSON a trajectory without ground truth has no truth or
error keys, and a non-finite Bode value is null.
"""

import json
import math
from pathlib import Path

import numpy as np

from .solver import Trajectory
from .sweep import BodeCurve, BodeRow

TRAJECTORY_COLUMNS = ("t", "x1", "x2", "x3", "a", "a1", "a2", "a3", "e1", "e2", "e3")
BODE_COLUMNS = ("f_hz", "omega_rad_s", "channel", "magnitude_db", "phase_rad",
                "phase_unwrapped_rad", "residual_rms", "source", "flag")
TRAJECTORY_HEADER = ",".join(TRAJECTORY_COLUMNS)
BODE_HEADER = ",".join(BODE_COLUMNS)


def _columns(traj: Trajectory) -> list[np.ndarray]:
    """1-D views of traj in TRAJECTORY_COLUMNS order; truth and errors only if present."""
    cols = [traj.times, *traj.states.T, traj.inputs]
    if traj.truths is not None:
        cols += [*traj.truths.T, *traj.errors.T]
    return cols


def write_trajectory_csv(path, traj: Trajectory) -> None:
    cols = _columns(traj)
    missing = len(TRAJECTORY_COLUMNS) - len(cols)
    row = ",".join(["%.8e"] * len(cols)) + "," * missing + "\n"
    with open(path, "w", newline="") as f:
        f.write(TRAJECTORY_HEADER + "\n")
        # one row at a time: a whole-table tolist() holds every cell as a Python float
        f.writelines(row % tuple(r.tolist()) for r in np.column_stack(cols))


def trajectory_to_dict(traj: Trajectory) -> dict:
    return {name: col.tolist() for name, col in zip(TRAJECTORY_COLUMNS, _columns(traj))}


def _bode_values(r: BodeRow) -> tuple:
    """The cells of one Bode row in BODE_COLUMNS order."""
    return (r.f_hz, r.omega, r.channel, r.magnitude_db, r.phase_rad, r.phase_unwrapped_rad,
            r.residual_rms, r.source, r.flag)


def _num(v) -> str:
    if v is None:
        return ""
    return f"{v:.8e}" if isinstance(v, float) else str(v)


def write_bode_csv(path, curve: BodeCurve) -> None:
    with open(path, "w", newline="") as f:
        f.write(BODE_HEADER + "\n")
        for r in curve.rows:
            f.write(",".join(map(_num, _bode_values(r))) + "\n")


def bode_to_dict(curve: BodeCurve) -> dict:
    """JSON form with params and config echoed for reproducibility."""
    return {
        "source": curve.source,
        "params": curve.params,
        "config": curve.config,
        "rows": [dict(zip(BODE_COLUMNS, map(_json_float, _bode_values(r))))
                 for r in curve.rows],
    }


def _json_float(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def write_json(path, obj) -> None:
    # streaming dump: json.dumps would hold the whole text of a long trajectory
    with open(path, "w", newline="") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
