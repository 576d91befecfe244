"""Literal output of the CSV/JSON writers on edge-case values."""

import json
import math

import numpy as np

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
