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

trajectory_to_dict gives a trajectory's columns as 1-D float arrays, which
write_json writes as the JSON lists of their tolist().  The C library
(solver._c_kernels) formats numbers in chunks, to the bytes Python gives,
from one digit engine, Schubfach's shortest round-trip digits: json_items
writes the items of a float array as those digits, for every double, and
csv_cells the cells of a trajectory CSV as "%.8e", those digits cut to 9
with correct rounding, for every normal double; it leaves a subnormal cell
to Python in its place.  Without the library the same text comes from
Python alone.
"""

import json
import math
from pathlib import Path

import numpy as np

from . import solver
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
    row_end = "," * missing + "\n"
    table = np.column_stack(cols)
    kernels = solver._c_kernels()
    with open(path, "w", newline="") as f:
        f.write(TRAJECTORY_HEADER + "\n")
        if kernels is None:
            row = ",".join(["%.8e"] * len(cols)) + row_end
            # in Python, one row at a time: a whole-table tolist() holds every cell as a float
            f.writelines(row % tuple(r.tolist()) for r in table)
            return

        def cell(i, v):
            return "%.8e" % v + ("," if (i + 1) % len(cols) else row_end)

        f.writelines(_c_text(kernels["csv_cells"], table.ravel(), CSV_CHUNK * len(cols),
                             CSV_CELL + len(row_end), cell, len(cols), missing))


def trajectory_to_dict(traj: Trajectory) -> dict:
    """traj's 1-D float columns by name, views of its arrays; write_json writes each as a
    list."""
    return dict(zip(TRAJECTORY_COLUMNS, _columns(traj)))


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


# rows of a CSV table, and items of a JSON number list, formatted at once: each bounds the text
# held at once (1024 CSV rows, ~170 kB, wrote as fast as 4096 with ~1.8 MB less peak memory)
CSV_CHUNK = 1024
JSON_CHUNK = 4096
# characters of a cell's number: "%.8e" of a float takes at most 16, its repr at most 24
CSV_CELL, JSON_ITEM = 16, 24
JSON_SEP = ",\n    "


def _c_text(formatter, values: np.ndarray, step: int, width: int, python_cell, *args):
    """The text of the flat float array values, step cells at a time, by a C formatter of
    solver._c_kernels() (name(values, i, stop, *args, buf, end)) into one reused buffer of
    step * width bytes, width bounding a cell's text and its separator.  The formatter stops
    at each cell its exact path does not cover, and python_cell(i, v) gives that cell's text
    and separator in Python."""
    buf = np.empty(min(step, values.size) * width, np.uint8)
    end = np.zeros(1, np.int64)
    for lo in range(0, values.size, step):
        stop = min(lo + step, values.size)
        end[0] = 0
        i = formatter(values, lo, stop, *args, buf, end)
        while i < stop:
            cell = python_cell(i, values.item(i)).encode()
            buf[end[0]:end[0] + len(cell)] = np.frombuffer(cell, np.uint8)
            end[0] += len(cell)
            i = formatter(values, i + 1, stop, *args, buf, end)
        yield str(buf[:end[0]], "ascii")


def write_json(path, obj) -> None:
    """Write exactly the text of json.dump(obj, f, indent=2, sort_keys=True) and a newline,
    where a value of a top-level dict may be a 1-D float64 array, written as its tolist().

    The indented encoder is pure Python and writes one item at a time, so a
    dict with str keys is laid out here, key by key, and each of its values
    that is a 1-D float64 array is written in chunks: by the C library's
    json_items, or without it by json's C encoder.  Number text holds no ", ",
    so that encoder's item separator marks the indented layout's line breaks.
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
    if not (type(v) is np.ndarray and v.dtype == np.float64 and v.ndim == 1):
        f.write(json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n  "))
        return
    if not v.size:
        f.write("[]")
        return
    kernels = solver._c_kernels()
    f.write("[\n    ")
    if kernels is None:
        for i in range(0, v.size, JSON_CHUNK):
            if i:
                f.write(JSON_SEP)
            f.write(json.dumps(v[i:i + JSON_CHUNK].tolist())[1:-1].replace(", ", JSON_SEP))
    else:
        f.writelines(_c_text(kernels["json_items"], np.ascontiguousarray(v), JSON_CHUNK,
                             JSON_ITEM + len(JSON_SEP),
                             lambda i, x: (JSON_SEP if i else "") + json.dumps(x)))
    f.write("\n  ]")


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
