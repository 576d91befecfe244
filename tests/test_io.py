"""Literal output of the CSV/JSON writers on edge-case values, the JSON
writer's bytes against json.dump's, and the C number formatters' text against
Python's "%.8e" and repr."""

import json
import math
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleint import cli, io, scenarios, signals, solver
from doubleint.solver import Trajectory, simulate
from doubleint.sweep import BodeCurve, BodeRow

NAN, INF = math.nan, math.inf


def _trajectory(with_truth: bool) -> Trajectory:
    states = np.array([[NAN, INF, -INF], [-0.0, 1e300, 1.5]])
    truths = np.array([[0.5, -0.25, 2.0], [1.0, 0.0, -3.0]]) if with_truth else None
    return Trajectory(np.array([0.0, 0.001]), states, np.array([0.25, -2.0]),
                      truths, None if truths is None else states - truths)


def test_trajectory_csv_special_values(tmp_path):
    path = tmp_path / "t.csv"
    io.write_trajectory_csv(path, _trajectory(with_truth=True))
    assert path.read_text() == (
        "t,x1,x2,x3,a,a1,a2,a3,e1,e2,e3\n"
        "0.00000000e+00,nan,inf,-inf,2.50000000e-01,"
        "5.00000000e-01,-2.50000000e-01,2.00000000e+00,nan,inf,-inf\n"
        "1.00000000e-03,-0.00000000e+00,1.00000000e+300,1.50000000e+00,-2.00000000e+00,"
        "1.00000000e+00,0.00000000e+00,-3.00000000e+00,-1.00000000e+00,1.00000000e+300,"
        "4.50000000e+00\n"
    )


def test_trajectory_without_truth(tmp_path):
    traj = _trajectory(with_truth=False)
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
    io.write_trajectory_csv(csv_path, traj)
    assert csv_path.read_text().splitlines()[2] == (
        "1.00000000e-03,-0.00000000e+00,1.00000000e+300,1.50000000e+00,-2.00000000e+00,,,,,,"
    )
    io.write_json(json_path, io.trajectory_to_dict(traj))
    doc = json.loads(json_path.read_text())
    assert sorted(doc) == ["a", "t", "x1", "x2", "x3"]
    assert doc["x2"] == [INF, 1e300] and doc["a"] == [0.25, -2.0]


def test_flagged_bode_row(tmp_path):
    rows = (BodeRow(5.0, 32.0, 2, NAN, NAN, None, None, "sweep", "diverged"),
            BodeRow(5.0, 32.0, 3, -INF, 0.5, 0.5, INF, "sweep", "nonfinite_fit"))
    curve = BodeCurve(rows, {"R": 5.0}, {"amplitude": 1.0})
    csv_path, json_path = tmp_path / "b.csv", tmp_path / "b.json"
    io.write_bode_csv(csv_path, curve)
    assert csv_path.read_text() == (
        "f_hz,omega_rad_s,channel,magnitude_db,phase_rad,phase_unwrapped_rad,residual_rms,"
        "source,flag\n"
        "5.00000000e+00,3.20000000e+01,2,nan,nan,,,sweep,diverged\n"
        "5.00000000e+00,3.20000000e+01,3,-inf,5.00000000e-01,5.00000000e-01,inf,sweep,"
        "nonfinite_fit\n"
    )
    io.write_json(json_path, io.bode_to_dict(curve))
    text = json_path.read_text()
    assert "NaN" not in text and "Infinity" not in text
    assert json.loads(text) == {
        "source": "sweep", "params": {"R": 5.0}, "config": {"amplitude": 1.0},
        "rows": [
            {"f_hz": 5.0, "omega_rad_s": 32.0, "channel": 2, "magnitude_db": None,
             "phase_rad": None, "phase_unwrapped_rad": None, "residual_rms": None,
             "source": "sweep", "flag": "diverged"},
            {"f_hz": 5.0, "omega_rad_s": 32.0, "channel": 3, "magnitude_db": None,
             "phase_rad": 0.5, "phase_unwrapped_rad": 0.5, "residual_rms": None,
             "source": "sweep", "flag": "nonfinite_fit"},
        ],
    }


# Values whose text is easy to get wrong: the indented layout, key escapes and number tokens.
_KEYS = st.sampled_from(["", "a", ", ", "a, b", "\n", "é", "snow ☃, \n", '"q"']) | st.text(max_size=4)
_NUMBERS = (st.sampled_from([NAN, INF, -INF, -0.0, 0.0, 5e-324, 1e300, 2**70, -(2**200)])
            | st.floats() | st.integers(min_value=-(2**200), max_value=2**200))
_SCALARS = _NUMBERS | st.booleans() | st.none() | st.text(max_size=4)
_VALUES = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(_KEYS, kids, max_size=4),
    max_leaves=20)
# a list of numbers past one chunk whose last item may be anything
_SPOILED = st.builds(lambda nums, last: nums + [last], st.lists(_NUMBERS, min_size=3, max_size=8),
                     st.booleans() | st.none() | st.text(max_size=2) | _VALUES)
_DOCS = (st.dictionaries(_KEYS, st.lists(_NUMBERS, max_size=10) | _SPOILED | _VALUES, max_size=6)
         | st.dictionaries(st.integers(-3, 3), _VALUES, max_size=3)
         | _VALUES)


def _json_text(obj) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        io.write_json(path, obj)
        return path.read_bytes().decode()


@settings(max_examples=200, deadline=None)
@given(_DOCS)
def test_write_json_matches_indented_json_dump(obj):
    with pytest.MonkeyPatch.context() as mp:
        # 3-item chunks: lists longer than one chunk are common
        mp.setattr(io, "JSON_CHUNK", 3)
        assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_write_json_long_columns_match_indented_json_dump():
    floats = (np.arange(10_000) * 0.1 - 7.3).tolist()
    doc = {"t": floats, "x1": floats[:4097], "tail": floats[:5000] + [True], "n": list(range(9000))}
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler cc on PATH")

# The magnitudes whose every normal float each C formatter writes itself, [lo, hi); outside
# them a cell may be left to Python.
_COVERED = {"csv_cells": (1e-24, 1e51), "json_items": (1e-16, 1e48)}


def _c_cell(name: str, v: float) -> str | None:
    """v's text from the C formatter name alone, without a separator; None where it leaves v
    to Python."""
    formatter = solver._c_kernels()[name]
    buf, end = np.empty(64, np.uint8), np.zeros(1, np.int64)
    args = (1, 0) if name == "csv_cells" else ()
    if formatter(np.array([v]), 0, 1, *args, buf, end) == 0:
        return None
    return buf[:end[0]].tobytes().decode().removesuffix("\n")


def _python_cell(name: str, v: float) -> str:
    return "%.8e" % v if name == "csv_cells" else json.dumps(v)


_RAW_FLOATS = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])


@needs_cc
@pytest.mark.parametrize("name", sorted(_COVERED))
@settings(max_examples=1000, deadline=None)
@given(v=st.floats() | _RAW_FLOATS | st.floats(1e-16, 1e17) | st.integers(-2**53, 2**53).map(float))
def test_c_formatters_write_python_text(name, v):
    if _c_cell(name, 1.0) is None:
        pytest.skip("the C library was built without 128-bit integers: Python formats every cell")
    text = _c_cell(name, v)
    lo, hi = _COVERED[name]
    if not math.isfinite(v) or v == 0.0 or lo <= abs(v) < hi:
        assert text is not None
    assert text is None or text == _python_cell(name, v)


def _sweep_values() -> np.ndarray:
    """Over 10^6 floats on which the formatters are easy to get wrong, with negations."""
    rng = np.random.default_rng(23)
    q = rng.integers(10**8, 10**9, 20_000).astype(float)
    # exact ties of 9 digits: a 10-digit integer ending in 5, times 1 to 1e5, and 9 digits + 1/2
    ties = np.concatenate([(10.0 * q + 5.0) * 10.0 ** rng.integers(0, 6, q.size), q + 0.5])
    twos = 2.0 ** np.arange(-90, 170)
    decades = 10.0 ** np.arange(-25, 53)
    special = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
                        math.inf, math.nan, 0.1, 0.3, 1e23, 9007199254740993.0])
    grid = np.arange(20_001) * 0.001
    logs = 10.0 ** rng.uniform(-16, 10, 60_000)
    wide = 10.0 ** rng.uniform(-26, 53, 20_000)
    # the layout's edges: decpt -4/-3 and 16/17
    edges = np.concatenate([10.0 ** rng.uniform(e - 0.5, e + 0.5, 5_000) for e in (-4, 16)])
    rounded = np.round(rng.uniform(-1000.0, 1000.0, 20_000), 3)
    subnormals = rng.integers(1, 2**52, 1000).view(np.float64)
    base = np.concatenate([ties, twos, decades, special, grid, logs, wide, edges, rounded,
                           subnormals])
    with np.errstate(over="ignore"):
        # the largest float's next one up is inf
        near = np.concatenate([base, np.nextafter(base, 0.0), np.nextafter(base, math.inf)])
    return np.concatenate([near, -near])


@needs_cc
def test_c_formatters_write_python_text_on_a_million_values():
    values = _sweep_values()
    assert values.size >= 10**6 and np.signbit(values[np.isnan(values)]).any()
    kernels = solver._c_kernels()
    csv = io._c_text(kernels["csv_cells"], values, io.CSV_CHUNK, io.CSV_CELL + 1,
                     lambda i, v: "%.8e\n" % v, 1, 0)
    assert "".join(csv) == "".join("%.8e\n" % v for v in values.tolist())
    items = io._c_text(kernels["json_items"], values, io.JSON_CHUNK,
                       io.JSON_ITEM + len(io.JSON_SEP),
                       lambda i, v: (io.JSON_SEP if i else "") + json.dumps(v))
    assert "".join(items) == json.dumps(values.tolist())[1:-1].replace(", ", io.JSON_SEP)


@pytest.mark.parametrize("scenario", ["fig3", "fig5"])
def test_trajectory_files_are_the_python_writers_bytes(tmp_path, monkeypatch, scenario):
    cfg = scenarios.expand_scenario(scenario)
    traj = simulate(cli._build_params(cfg, {}, "params"),
                    cli._build(signals.SignalSpec, cfg["signal"], "signal"),
                    cli._build_sim(cfg["sim"]))
    files = []
    for which in ("c", "python"):
        if which == "python":
            monkeypatch.setattr(solver, "_c_kernels", lambda: None)
        io.write_trajectory_csv(tmp_path / f"{which}.csv", traj)
        io.write_json(tmp_path / f"{which}.json", io.trajectory_to_dict(traj))
        files.append([(tmp_path / f"{which}.{ext}").read_bytes() for ext in ("csv", "json")])
    assert files[0] == files[1]
