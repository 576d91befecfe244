"""CSV/JSON serialization of trajectories and Bode curves.

Each table has one column list, which names the CSV header cells and the
JSON keys alike.  CSV files use '.' decimals, '\\n' line endings and fixed
9-significant-digit scientific formatting, unconditionally, so outputs diff
cleanly across platforms.  JSON files are the text of
json.dump(obj, f, indent=2, sort_keys=True) plus a newline: numbers are
Python's shortest round-trip repr, and a non-finite trajectory value is the
NaN/Infinity/-Infinity token.  Unavailable cells (no ground truth, flagged
rows) are empty in CSV; in JSON a trajectory without ground truth has no
truth or error keys, and a non-finite Bode value is null.
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


# items per json.dumps call on a number list: bounds the text held at once
JSON_CHUNK = 4096


def write_json(path, obj) -> None:
    """Write exactly the text of json.dump(obj, f, indent=2, sort_keys=True) and a newline.

    The indented encoder is pure Python and writes one item at a time, so a
    dict with str keys is laid out here, key by key, and each of its values
    that is a list of plain numbers goes through json's C encoder in chunks.
    Number text holds no ", ", so the C encoder's item separator marks the
    indented layout's line breaks.
    """
    with open(path, "w", newline="") as f:
        if type(obj) is dict and obj and all(type(k) is str for k in obj):
            sep = "{\n  "
            for key in sorted(obj):
                f.write(f"{sep}{json.dumps(key)}: ")
                _write_value(f, obj[key])
                sep = ",\n  "
            f.write("\n}")
        else:
            json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_value(f, v) -> None:
    """v as an indented value one level into the top-level dict."""
    # every item is checked: bool is an int subclass, and anything else needs the full encoder
    if not (type(v) is list and v and set(map(type, v)) <= {float, int}):
        f.write(json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n  "))
        return
    f.write("[\n    ")
    for i in range(0, len(v), JSON_CHUNK):
        if i:
            f.write(",\n    ")
        f.write(json.dumps(v[i:i + JSON_CHUNK])[1:-1].replace(", ", ",\n    "))
    f.write("\n  ]")


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
