"""Literal output of the CSV/JSON writers on edge-case values, and the JSON
writer's bytes against json.dump's."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleint import io
from doubleint.solver import Trajectory
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
