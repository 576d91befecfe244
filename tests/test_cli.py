import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import doubleint
from doubleint import SignalSpec, SimConfig, SweepConfig
from doubleint.cli import _build, _build_sim, _build_sweep, main
from doubleint.io import BODE_HEADER, TRAJECTORY_HEADER, write_json
from doubleint.scenarios import SCENARIO_NAMES, expand_scenario
from doubleint.signals import REFERENCE_NOISE

SCENARIO_PARAMS = {
    "params": {"k1": 0.1, "k2": 0.1, "k3": 1.0, "R": 5, "alpha3": 0.3, "mode": "linear"}
}

LINEAR_PARAMS = {"k1": 0.1, "k2": 0.1, "k3": 1.0, "R": 5, "alpha3": 1.0, "mode": "linear"}


def write_cfg(tmp_path, cfg, name="cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    code = main(["validate", "--config", write_cfg(tmp_path, SCENARIO_PARAMS)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.0008" in out
    assert "valid" in out


def test_validate_gain_violation(tmp_path, capsys):
    cfg = {"params": {**SCENARIO_PARAMS["params"], "k2": 0.0}}
    code = main(["validate", "--config", write_cfg(tmp_path, cfg)])
    assert code == 1
    assert "gain inequality violated" in capsys.readouterr().out


def test_validate_alpha_violation(tmp_path, capsys):
    cfg = {"params": {**SCENARIO_PARAMS["params"], "alpha3": 1.5, "mode": "nonlinear"}}
    code = main(["validate", "--config", write_cfg(tmp_path, cfg)])
    assert code == 1
    assert "alpha range violated" in capsys.readouterr().out


def test_validate_reads_only_params(tmp_path, capsys):
    cfg = {**SMALL_CONFIGS["simulate"], "sweep": SMALL_CONFIGS["sweep"]["sweep"]}
    assert main(["validate", "--config", write_cfg(tmp_path, cfg)]) == 0
    assert "valid" in capsys.readouterr().out


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = {**SCENARIO_PARAMS, "outpt_dir": "typo"}
    assert main(["validate", "--config", write_cfg(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "unknown config keys" in err and "outpt_dir" in err


def test_unknown_nested_key_exits_2(tmp_path):
    cfg = {"params": {**SCENARIO_PARAMS["params"], "k4": 1.0}}
    assert main(["validate", "--config", write_cfg(tmp_path, cfg)]) == 2


def test_r_and_epsilon_conflict(tmp_path):
    cfg = {"params": {**SCENARIO_PARAMS["params"], "epsilon": 0.2}}
    assert main(["validate", "--config", write_cfg(tmp_path, cfg)]) == 2


def test_command_mismatch(tmp_path):
    cfg = {**SCENARIO_PARAMS, "command": "sweep"}
    assert main(["validate", "--config", write_cfg(tmp_path, cfg)]) == 2


def test_simulate_zero_signal(tmp_path, capsys):
    cfg = {
        "params": SCENARIO_PARAMS["params"],
        "signal": {"kind": "sinusoid", "amplitude": 0.0, "omega": 1.0},
        "sim": {"step_h": 0.001, "duration": 0.5},
    }
    out_dir = tmp_path / "run"
    code = main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out_dir)])
    assert code == 0
    lines = (out_dir / "trajectory.csv").read_text().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == 502
    body = np.loadtxt(out_dir / "trajectory.csv", delimiter=",", skiprows=1)
    assert np.all(body[:, 1:4] == 0.0)
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert metrics["windows"][0]["rms"] == [0.0, 0.0, 0.0]
    assert metrics["drift_ratio_e1"] == 0.0
    assert json.loads((out_dir / "config.json").read_text())["command"] == "simulate"


def test_simulate_json_format(tmp_path):
    cfg = {
        "params": SCENARIO_PARAMS["params"],
        "signal": {"kind": "sinusoid", "amplitude": 1.0, "omega": 6.28},
        "sim": {"step_h": 0.001, "duration": 0.2},
        "format": "json",
    }
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out_dir)]) == 0
    doc = json.loads((out_dir / "trajectory.json").read_text())
    assert len(doc["t"]) == 201
    assert set(doc) >= {"t", "x1", "x2", "x3", "a", "a1", "e1"}


def test_simulate_long_coarse_run_keeps_every_step(tmp_path):
    # 61 steps of 1 s: the default stride of 100 for long runs would record only t = 0
    cfg = {
        "params": {"k1": 0.01, "k2": 0.1, "k3": 0.1, "R": 1.1},
        "signal": {"kind": "sinusoid", "amplitude": 1.0, "omega": 0.5},
        "sim": {"duration": 61.0, "step_h": 1.0},
        "format": "json",
    }
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out_dir)]) == 0
    times = json.loads((out_dir / "trajectory.json").read_text())["t"]
    assert times == [float(j) for j in range(62)]


@pytest.mark.parametrize("sim, stride", [({"duration": 61.0, "step_h": 1.0}, 1),
                                         ({"duration": 100.0, "step_h": 1.0}, 100),
                                         ({"duration": 60.0}, 1),
                                         ({"duration": 61.0}, 100),
                                         ({"duration": 61.0, "record_stride": 3}, 3)])
def test_long_runs_of_100_steps_default_to_stride_100(sim, stride):
    assert _build_sim(sim).record_stride == stride


def test_simulate_divergence_exit_3(tmp_path, capsys):
    cfg = {
        "params": SCENARIO_PARAMS["params"],
        "signal": {"kind": "sinusoid", "amplitude": 1e400, "omega": 1.0},
        "sim": {"step_h": 0.001, "duration": 0.5},
    }
    code = main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "d")])
    assert code == 3
    assert "diverged" in capsys.readouterr().err


def test_simulate_invalid_params_exit_1(tmp_path, capsys):
    cfg = {
        "params": {**SCENARIO_PARAMS["params"], "k1": -1.0},
        "signal": {"kind": "sinusoid", "amplitude": 0.0, "omega": 1.0},
        "sim": {"duration": 0.5},
    }
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 1


def test_method_override_changes_result(tmp_path):
    cfg = {
        "params": SCENARIO_PARAMS["params"],
        "signal": {"kind": "sinusoid", "amplitude": 1.0, "omega": 6.28},
        "sim": {"step_h": 0.001, "duration": 0.2},
    }
    path = write_cfg(tmp_path, cfg)
    main(["simulate", "--config", path, "--out", str(tmp_path / "rk4")])
    main(["simulate", "--config", path, "--out", str(tmp_path / "euler"), "--method", "euler"])
    a = (tmp_path / "rk4" / "trajectory.csv").read_text()
    b = (tmp_path / "euler" / "trajectory.csv").read_text()
    assert a != b


def test_reproduce_fig3_matches_explicit_config(tmp_path):
    explicit = write_cfg(tmp_path, expand_scenario("fig3"))
    out_a = tmp_path / "reproduce"
    out_b = tmp_path / "explicit"
    assert main(["reproduce", "--scenario", "fig3", "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", explicit, "--out", str(out_b)]) == 0
    for name in ("trajectory.csv", "metrics.json", "config.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


NONLINEAR_PARAMS = {**LINEAR_PARAMS, "alpha3": 0.3, "mode": "nonlinear"}

ROUND_TRIP_CONFIGS = {
    "simulate": {"params": NONLINEAR_PARAMS,
                 "signal": {"kind": "sinusoid", "amplitude": 1.0, "omega": 6.28},
                 "sim": {"duration": 0.5}},
    "sweep": {"params": NONLINEAR_PARAMS,
              "sweep": {"freqs_hz": [1.1, 5.1], "samples": 2000,
                        "variants": [{"alpha3": 1.0, "mode": "linear"}, {"R": 4}]}},
}

JSON_EULER = ["--format", "json", "--method", "euler"]


@pytest.mark.parametrize("source, flags", [
    ("simulate", []), ("simulate", JSON_EULER),
    ("sweep", []), ("sweep", JSON_EULER), ("sweep", ["--discard", "0.5"]),
    ("fig5", []), ("fig5", JSON_EULER),
], ids=lambda v: (" ".join(v) or "no-flags") if isinstance(v, list) else v)
def test_config_json_reruns_the_same_files(tmp_path, source, flags):
    if source in ROUND_TRIP_CONFIGS:
        argv = [source, "--config", write_cfg(tmp_path, ROUND_TRIP_CONFIGS[source])]
    else:
        argv = ["reproduce", "--scenario", source]
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([*argv, *flags, "--out", str(first)]) == 0
    echo = json.loads((first / "config.json").read_text())
    # each flag is in the echo, so a byte-equal rerun shows that the first run used it
    read = echo["sim" if echo["command"] == "simulate" else "sweep"]
    for flag, value in zip(flags[::2], flags[1::2]):
        where, key = {"--format": (echo, "format"), "--method": (read, "method"),
                      "--discard": (read, "discard_fraction")}[flag]
        assert str(where[key]) == value
    assert main([echo["command"], "--config", str(first / "config.json"),
                 "--out", str(again)]) == 0
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_flag_the_command_does_not_read_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["reproduce", "--scenario", "fig3", "--discard", "0.5",
                 "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == (
        "config error: --discard: flag is not read by simulate; remove it\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("scenario, threads, message", [
    ("fig3", "2", "--threads: flag is not read by simulate; remove it"),
    ("fig2", "0", "--threads must be >= 1, got 0"),
    ("fig1", "-1", "--threads must be >= 1, got -1"),
])
def test_threads_flag_not_read_or_below_one_exits_2(tmp_path, capsys, scenario, threads,
                                                     message):
    out_dir = tmp_path / "out"
    assert main(["reproduce", "--scenario", scenario, "--threads", threads,
                 "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out_dir.exists()


def test_sweep_single_frequency_linear(tmp_path):
    cfg = {
        "params": LINEAR_PARAMS,
        "sweep": {
            "freqs_hz": [1.0],
            "samples": 50000,
            "discard_fraction": 0.5,
            "init_state": "steady_state",
        },
    }
    out_dir = tmp_path / "sweep"
    code = main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out_dir)])
    assert code == 0
    bode = out_dir / "bode_linear_a1_R5_Am1.csv"
    ref = out_dir / "analytic_linear_a1_R5_Am1.csv"
    assert bode.exists() and ref.exists()
    rows = bode.read_text().splitlines()
    assert rows[0] == BODE_HEADER
    assert len(rows) == 4
    got = {int(r.split(",")[2]): float(r.split(",")[3]) for r in rows[1:]}
    want = {int(r.split(",")[2]): float(r.split(",")[3])
            for r in ref.read_text().splitlines()[1:]}
    for ch in (1, 2, 3):
        assert got[ch] == pytest.approx(want[ch], abs=0.05)


def test_sweep_threads_deterministic(tmp_path):
    cfg = {
        "params": LINEAR_PARAMS,
        "sweep": {"freqs_hz": [5.1, 10.1, 20.1], "samples": 4000, "discard_fraction": 0.5},
    }
    path = write_cfg(tmp_path, cfg)
    main(["sweep", "--config", path, "--out", str(tmp_path / "t1"), "--threads", "1"])
    main(["sweep", "--config", path, "--out", str(tmp_path / "t2"), "--threads", "2"])
    a = (tmp_path / "t1" / "bode_linear_a1_R5_Am1.csv").read_bytes()
    b = (tmp_path / "t2" / "bode_linear_a1_R5_Am1.csv").read_bytes()
    assert a == b


def test_sweep_discard_flag_override(tmp_path):
    cfg = {
        "params": LINEAR_PARAMS,
        "sweep": {"freqs_hz": [5.1], "samples": 4000, "discard_fraction": 0.0},
    }
    path = write_cfg(tmp_path, cfg)
    main(["sweep", "--config", path, "--out", str(tmp_path / "d0")])
    main(["sweep", "--config", path, "--out", str(tmp_path / "d5"), "--discard", "0.5"])
    a = (tmp_path / "d0" / "bode_linear_a1_R5_Am1.csv").read_bytes()
    b = (tmp_path / "d5" / "bode_linear_a1_R5_Am1.csv").read_bytes()
    assert a != b
    cfg_echo = json.loads((tmp_path / "d5" / "config.json").read_text())
    assert cfg_echo["command"] == "sweep"


def test_sweep_flagged_rows_exit_3(tmp_path, capsys):
    cfg = {
        "params": LINEAR_PARAMS,
        "sweep": {"freqs_hz": [5.1, 10.1], "samples": 500, "amplitude": 1e400},
    }
    code = main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "f")])
    assert code == 3
    assert "flagged rows: 6/6" in capsys.readouterr().out


def test_scenario_expansions():
    assert set(SCENARIO_NAMES) == {"fig1", "fig2", "fig3", "fig4", "fig5", "fig6"}
    fig1 = expand_scenario("fig1")
    variants = fig1["sweep"]["variants"]
    assert len(variants) == 9
    assert {(v["alpha3"], v["R"]) for v in variants} == {
        (a, r) for a in (0.3, 0.5, 1.0) for r in (3.0, 4.0, 5.0)
    }
    assert all(v["mode"] == ("linear" if v["alpha3"] == 1.0 else "nonlinear")
               for v in variants)
    fig2 = expand_scenario("fig2")
    assert [v["amplitude"] for v in fig2["sweep"]["variants"]] == [5.0, 1.0, 0.5]
    assert fig2["params"]["R"] == 3.0
    fig4 = expand_scenario("fig4")
    assert fig4["sim"]["duration"] == 2000.0
    assert fig4["sim"]["record_stride"] == 100
    fig6 = expand_scenario("fig6")
    assert fig6["params"]["mode"] == "linear"
    assert fig6["params"]["alpha3"] == 1.0


# sha256 of each scenario's config.json, as written when the scenarios spelled out
# the reference noise as dicts of their own
SCENARIO_CONFIG_SHA256 = {
    "fig1": "ee08fc913e39c32ec0f1bdd9ceacec56787ab5abd6810281c77f62c7dd3d681f",
    "fig2": "902c5082d2b1eab48d32cbe929d6682854bbae6b48c1f426f36e0064909dc96c",
    "fig3": "93b27148fe801712c022f9fdbb1f1617ad2c4d2c7a8c385d80d11770e37a874c",
    "fig4": "aef0600499014c7462f1bfa41c384414fc80682eb806236a802e843d33967aa9",
    "fig5": "ebb78d99529d6f76e40ef9d2c8277d77fdf47958b1003f35f6fea0a5bd24d7fa",
    "fig6": "db0779b30f4cb56b578ccddc22a3e03253d962c860ad16dc8d344eeabd1422a5",
}


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_noise_is_the_reference_noise(tmp_path, name):
    cfg = expand_scenario(name)
    if "signal" in cfg:
        noise = cfg["signal"]["noise"]
        assert noise == [dataclasses.asdict(term) for term in REFERENCE_NOISE]
        assert _build(SignalSpec, cfg["signal"], "signal").noise == REFERENCE_NOISE
    write_json(tmp_path / "config.json", cfg)
    digest = hashlib.sha256((tmp_path / "config.json").read_bytes()).hexdigest()
    assert digest == SCENARIO_CONFIG_SHA256[name]


def test_trajectory_csv_number_format(tmp_path):
    cfg = {
        "params": SCENARIO_PARAMS["params"],
        "signal": {"kind": "paper_reference",
                   "noise": [{"amp": 0.1, "omega": 10.0, "phase": "cosine"}]},
        "sim": {"step_h": 0.001, "duration": 0.01},
    }
    out_dir = tmp_path / "fmt"
    main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out_dir)])
    lines = (out_dir / "trajectory.csv").read_text().split("\n")
    first = lines[1].split(",")
    assert len(first) == 11
    # fixed 9-significant-digit scientific formatting
    assert all("e" in cell for cell in first if cell)
    assert first[0] == "0.00000000e+00"


# Small valid configs, one per config-reading command; each runs in milliseconds.
SMALL_CONFIGS = {
    "validate": {"command": "validate", "params": SCENARIO_PARAMS["params"]},
    "simulate": {
        "params": SCENARIO_PARAMS["params"],
        "signal": {"kind": "paper_reference",
                   "noise": [{"amp": 0.1, "omega": 10.0, "phase": "sine"}]},
        "sim": {"step_h": 0.001, "duration": 0.02, "initial_state": [0.0, 1.0, 0.0],
                "record_stride": 2, "metrics_windows": [[0.0, 0.02]]},
        "format": "json",
    },
    "sweep": {
        "params": LINEAR_PARAMS,
        "sweep": {"freqs_hz": [5.1], "samples": 200, "amplitude": 2.0, "channels": [1, 3],
                  "variants": [{"R": 4.0}, {"epsilon": 0.3, "amplitude": 0.5}]},
    },
}


def _run(command, cfg_path, out_dir):
    argv = [command, "--config", str(cfg_path)]
    return main(argv if command == "validate" else argv + ["--out", str(out_dir)])


def _edit(command, section, key, value):
    cfg = copy.deepcopy(SMALL_CONFIGS[command])
    if key is None:
        cfg.update(value)
    else:
        (cfg if section is None else cfg.setdefault(section, {}))[key] = value
    return cfg


# (command, section or None for the top level, key, bad value, JSON path the error names);
# a row with no key gives whole top-level sections to replace
MALFORMED = [
    ("simulate", "sim", "duration", "abc", "sim.duration"),
    ("simulate", "sim", "duration", "nan", "sim.duration"),
    ("simulate", "sim", "duration", math.nan, "sim.duration"),
    ("simulate", "sim", "duration", math.inf, "sim.duration"),
    ("simulate", "sim", "duration", 1e300, "sim.record_stride"),
    ("simulate", "signal", "noise", [{"omega": 10.0}], "signal.noise[0].amp"),
    ("simulate", "params", "R", 0, "params.R"),
    ("validate", "params", "k1", None, "params.k1"),
    ("validate", None, "params", 5, "params"),
    ("simulate", "sim", "initial_state", 5, "sim.initial_state"),
    ("sweep", "sweep", "channels", ["a"], "sweep.channels[0]"),
    ("sweep", "sweep", "freqs_hz", 5, "sweep.freqs_hz"),
    ("simulate", "sim", "metrics_windows", [[0.0]], "sim.metrics_windows[0]"),
    ("sweep", "sweep", "variants", 3, "sweep.variants"),
    ("sweep", "sweep", "amplitude", -1, "sweep.amplitude"),
    ("simulate", "sim", "record_stride", 1.5, "sim.record_stride"),
    ("simulate", "sim", "duration", True, "sim.duration"),
    ("simulate", None, "output_dir", "runs", "output_dir"),
    ("simulate", "sim", "metrics_windows", [[100.0, 200.0]], "sim.metrics_windows"),
    ("simulate", None, "sim", {"duration": 1e9, "record_stride": 1000000}, "sim.duration"),
    ("simulate", "signal", "omega", math.inf, "signal.omega"),
    ("simulate", "signal", "omega", math.nan, "signal.omega"),
    ("simulate", "signal", "amplitude", math.nan, "signal.amplitude"),
    ("simulate", "signal", "noise", [{"amp": 0.1, "omega": math.inf}], "signal.noise[0].omega"),
    ("simulate", "signal", "noise", [{"amp": math.nan, "omega": 1.0}], "signal.noise[0].amp"),
    ("simulate", "sim", "initial_state", [math.nan, 0.0, 0.0], "sim.initial_state"),
    # the small simulate config's signal is the paper_reference kind, whose waveform is fixed
    ("simulate", "signal", "amplitude", 7.0, "signal.amplitude"),
    ("simulate", "signal", "omega", 50.0, "signal.omega"),
    # omega*t overflows once t passes ~18 s
    ("simulate", None, None, {"signal": {"kind": "sinusoid", "omega": 1e307},
                              "sim": {"duration": 20.0, "record_stride": 100}}, "signal.omega"),
    ("simulate", None, None, {"signal": {"noise": [{"amp": 0.1, "omega": 1e307}]},
                              "sim": {"duration": 20.0, "record_stride": 100}},
     "signal.noise[0].omega"),
    # the horizon is a range error of the signal against the sim section: it comes before
    # the params are validated (k1 = -1) and before the step guard (step_h*k3/eps^4 = 6.25)
    ("simulate", None, None, {"params": {**LINEAR_PARAMS, "k1": -1},
                              "signal": {"kind": "sinusoid", "omega": 1e307},
                              "sim": {"duration": 20.0, "record_stride": 100}},
     "signal.omega 1e+307 overflows the phase"),
    ("simulate", None, None, {"params": NONLINEAR_PARAMS,
                              "signal": {"kind": "sinusoid", "omega": 1e307},
                              "sim": {"duration": 20.0, "record_stride": 100, "step_h": 0.01}},
     "signal.omega 1e+307 overflows the phase"),
    # a run shorter than one step, or than one record stride
    ("simulate", "sim", "duration", 0.0005, "sim.duration"),
    ("simulate", None, "sim", {"duration": 0.003, "record_stride": 5}, "sim.record_stride"),
    # a section the command does not read is refused, not ignored
    ("sweep", None, "signal", {"kind": "sinusoid", "omega": 50.0, "amplitude": 7.0}, "signal"),
    ("sweep", None, "sim", {"duration": 1.0}, "sim"),
    ("simulate", None, "sweep", {"samples": 100}, "sweep"),
    # linear params are held to their step map's rho(M) < 1, not to the nonlinear rate
    # guard (h*k3/eps^4 = 1.6 would pass it): Euler's rho(M) here is 1.0016
    ("simulate", None, None, {"params": {"k1": 1.0, "k2": 0.2, "k3": 1.0, "R": 2.0,
                                         "alpha3": 1.0, "mode": "linear"},
                              "sim": {"step_h": 0.1, "duration": 1.0, "method": "euler"}},
     "sim.step_h 0.1 makes the linear euler step unstable"),
    # steps over 2^900 times below the smallest stable one are too small, not unstable:
    # the search for a stable step ends only at the stability radius
    ("simulate", None, None, {"params": LINEAR_PARAMS,
                              "sim": {"step_h": 1e-300, "duration": 1e-297}},
     "sim.step_h 1e-300 is below float resolution for the linear rk4 step"),
    ("simulate", None, None, {"params": LINEAR_PARAMS,
                              "sim": {"step_h": 5e-324, "duration": 1e-321}},
     "sim.step_h 4.94066e-324 is below float resolution for the linear rk4 step"),
    ("sweep", "sweep", "freqs_hz", [5.1, math.nan], "sweep.freqs_hz"),
    ("sweep", "sweep", "freqs_hz", [5.1, math.inf], "sweep.freqs_hz"),
    # 2 pi f overflows
    ("sweep", "sweep", "freqs_hz", [5.1, 1e308], "sweep.freqs_hz"),
    # 2 pi f t overflows within the 50 s run
    ("sweep", None, None, {"params": {**LINEAR_PARAMS, "mode": "nonlinear", "alpha3": 0.5},
                           "sweep": {"freqs_hz": [1.0, 1e307], "samples": 50000}},
     "sweep.freqs_hz"),
    # a repeated channel would write every row twice
    ("sweep", "sweep", "channels", [1, 1], "sweep.channels must be strictly increasing"),
    # samples * step_h overflows: the sweep section has no duration to name
    ("sweep", None, "sweep", {"freqs_hz": [1e-300], "samples": 10000, "step_h": 1e305},
     "sweep.samples"),
]


@pytest.mark.parametrize("command, section, key, value, path", MALFORMED,
                         ids=[f"{case[2] or ''}={json.dumps(case[3])}" for case in MALFORMED])
def test_malformed_config_names_path(tmp_path, capsys, command, section, key, value, path):
    cfg = write_cfg(tmp_path, _edit(command, section, key, value))
    assert _run(command, cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error:" in err and path in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000,
                                  '{"params": {"k1": 1%s}}' % ("0" * 5000)],
                         ids=["deep_nesting", "5001_digit_int"])
def test_unparsable_config_exits_2(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 2
    assert "config error: config is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    ('{"params": {"k1": 0.1, "k2": 0.1, "k3": 1, "R": 5, "R": 500}}', "R"),
    ('{"params": {"k1": 0.1, "k2": 0.1, "k3": 1, "R": 500},\n'
     ' "params": {"k1": 0.1, "k2": 0.1, "k3": 1, "R": 5}}', "params"),
], ids=["in-params", "top-level-section"])
def test_duplicate_key_exits_2(tmp_path, capsys, text, key):
    # json.load alone keeps the last value of a repeated key, without a word
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f'config error: duplicate key "{key}": each key may appear once\n')


@pytest.mark.parametrize("text, shown", [("[1, 2]", "[1, 2]"), ("5", "5")],
                         ids=["list", "number"])
def test_config_root_that_is_not_an_object_exits_2(tmp_path, capsys, text, shown):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: config: expected an object, got {shown}\n"


@pytest.mark.parametrize("command, cfg, expected", [
    ("validate", {"params": {**LINEAR_PARAMS, "R": 0}}, "params.R must be nonzero"),
    ("sweep", {"params": LINEAR_PARAMS,
               "sweep": {"freqs_hz": [5.1], "samples": 200, "variants": [{}, {"R": 0.0}]}},
     "sweep.variants[1].R must be nonzero"),
    # the required gains are named before the rate is read
    ("validate", {"params": {"k2": 0.1, "k3": 1.0, "R": 0}}, "params.k1 is required"),
], ids=["params", "variant", "k1-missing"])
def test_rate_is_read_by_from_rate(tmp_path, capsys, command, cfg, expected):
    # the CLI turns R into epsilon through ObserverParams.from_rate, whose refusal it leads by path
    assert _run(command, write_cfg(tmp_path, cfg), tmp_path / "out") == 2
    assert capsys.readouterr().err == f"config error: {expected}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("under", [False, True], ids=["existing-file", "path-under-a-file"])
def test_out_that_cannot_be_created_exits_2(tmp_path, capsys, command, under):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = blocker / "sub" if under else blocker
    assert _run(command, write_cfg(tmp_path, SMALL_CONFIGS[command]), out_dir) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out: [Errno ") and f"'{out_dir}'" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def _paths(obj, path=()):
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _paths(value, path + (key,))


# Replacement values by JSON type; none of them is valid anywhere in a config,
# and a number is never generated, so no swapped config starts a long run.
_SWAPS = {
    type(None): st.none(),
    bool: st.booleans(),
    str: st.text(max_size=4),
    list: st.lists(st.none() | st.booleans() | st.text(max_size=2), max_size=3),
    dict: st.dictionaries(st.text(max_size=3), st.none(), min_size=1, max_size=2),
}


@st.composite
def type_swapped_configs(draw):
    command = draw(st.sampled_from(sorted(SMALL_CONFIGS)))
    cfg = copy.deepcopy(SMALL_CONFIGS[command])
    path = draw(st.sampled_from(list(_paths(cfg))[1:]))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    kind = type(parent[path[-1]])
    parent[path[-1]] = draw(st.one_of(*(s for k, s in _SWAPS.items() if k is not kind)))
    return command, cfg


def _assert_documented_exit(command, cfg):
    """The command on cfg ends with a documented exit code and prints no traceback."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = _run(command, path, Path(tmp) / "out")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=150, deadline=None)
@given(type_swapped_configs())
def test_type_swapped_config_never_tracebacks(case):
    _assert_documented_exit(*case)


# Numbers that reach the edges of every range check: non-finite, signed zeros,
# negatives, subnormals and the ends of the float range.
_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-300,
                           1e-3, 0.5, 3.0, 1e300, 1.7e308]) | st.floats()
_INTS = st.sampled_from([0, -1, 1, 2, 3, 2**63]) | st.integers(-(10**9), 10**9)
# the strategy, not the library, keeps each drawn run short
MAX_DRAWN_STEPS = 20_000

# The numeric fields of the small configs' sim, signal and sweep sections, by number type.
_NUMERIC_FIELDS = {
    "simulate": {
        ("sim", "step_h"): float, ("sim", "duration"): float, ("sim", "record_stride"): int,
        ("sim", "initial_state", 0): float, ("sim", "initial_state", 2): float,
        ("sim", "metrics_windows", 0, 0): float, ("sim", "metrics_windows", 0, 1): float,
        ("signal", "amplitude"): float, ("signal", "omega"): float,
        ("signal", "noise", 0, "amp"): float, ("signal", "noise", 0, "omega"): float,
    },
    "sweep": {
        ("sweep", "freqs_hz", 0): float, ("sweep", "samples"): int,
        ("sweep", "amplitude"): float, ("sweep", "step_h"): float,
        ("sweep", "discard_fraction"): float, ("sweep", "channels", 1): int,
        ("sweep", "variants", 0, "R"): float, ("sweep", "variants", 1, "epsilon"): float,
        ("sweep", "variants", 1, "amplitude"): float,
    },
}


@st.composite
def numeric_range_configs(draw):
    command = draw(st.sampled_from(sorted(_NUMERIC_FIELDS)))
    cfg = copy.deepcopy(SMALL_CONFIGS[command])
    fields = _NUMERIC_FIELDS[command]
    for path in draw(st.lists(st.sampled_from(list(fields)), min_size=1, max_size=4, unique=True)):
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(_INTS if fields[path] is int else _FLOATS)
    if command == "simulate":
        cfg["signal"]["kind"] = draw(st.sampled_from(["paper_reference", "sinusoid", "composite"]))
        sim = cfg["sim"]
        if 0.0 < sim["step_h"] < math.inf and 0.0 < sim["duration"] < math.inf:
            sim["duration"] = min(sim["duration"], sim["step_h"] * MAX_DRAWN_STEPS)
    else:
        cfg["sweep"]["samples"] = min(cfg["sweep"]["samples"], MAX_DRAWN_STEPS)
    return command, cfg


@settings(max_examples=150, deadline=None)
@given(numeric_range_configs())
def test_numeric_range_config_never_tracebacks(case):
    _assert_documented_exit(*case)


def test_empty_sections_build_dataclass_defaults():
    assert _build_sweep({}) == (SweepConfig(), ({},))
    assert _build_sim({}) == SimConfig(metrics_windows=((0.0, SimConfig().duration),))
    assert _build(SignalSpec, {}, "signal") == SignalSpec()


def test_sweep_nonfinite_fit_flagged_exit_3(tmp_path, capsys):
    cfg = {
        "params": LINEAR_PARAMS,
        "sweep": {"freqs_hz": [5.1, 10.1], "samples": 500, "amplitude": 1e300},
    }
    out_dir = tmp_path / "f"
    assert main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out_dir)]) == 3
    assert "flagged rows: 6/6" in capsys.readouterr().out
    rows = (out_dir / "bode_linear_a1_R5_Am1e+300.csv").read_text().splitlines()[1:]
    assert {r.split(",")[-1] for r in rows} == {"nonfinite_fit"}


SHORT_SWEEP = {"params": LINEAR_PARAMS, "sweep": {"freqs_hz": [5.1], "samples": 200}}


def _euler_sweep(k2: float) -> dict:
    # k = (1, k2, 1), R = 2, Euler at h = 0.1: rho(M) is 1.0016 at k2 = 0.2, 1.0003 at
    # k2 = 0.3 and 0.99906 at k2 = 0.4
    return {"params": {"k1": 1, "k2": k2, "k3": 1, "R": 2, "mode": "linear"},
            "sweep": {"freqs_hz": [1.0], "samples": 100, "step_h": 0.1, "method": "euler"}}


@pytest.mark.parametrize("base, variants, message", [
    (SHORT_SWEEP, [{}, {"amplitude": -1}], "sweep.variants[1].amplitude must be positive"),
    # rho(M) = 5.6 at R = 8 (R = 5: 0.999998)
    (SHORT_SWEEP, [{}, {"R": 8}],
     "sweep.variants[1].step_h 0.001 makes the linear rk4 step unstable"),
    (SHORT_SWEEP, [{"R": 8}, {}],
     "sweep.variants[0].step_h 0.001 makes the linear rk4 step unstable"),
    (_euler_sweep(0.4), [{}, {"k2": 0.2}],
     "sweep.variants[1].step_h 0.1 makes the linear euler step unstable"),
    # the params section alone is unstable, so the variant {} names the sweep; a
    # variant after a stable one names itself
    (_euler_sweep(0.3), [{}, {"k2": 0.2}],
     "sweep.step_h 0.1 makes the linear euler step unstable"),
    (_euler_sweep(0.3), [{"k2": 0.4}, {"k2": 0.2}],
     "sweep.variants[1].step_h 0.1 makes the linear euler step unstable"),
    # a variant that sets params names itself, though the params section alone
    # (here without R) cannot be built
    ({**SHORT_SWEEP, "params": {k: v for k, v in LINEAR_PARAMS.items() if k != "R"}},
     [{"R": 8}, {"R": 5}], "sweep.variants[0].step_h 0.001 makes the linear rk4 step unstable"),
    # the sweep section is built, and refused, before any variant's amplitude
    ({**SHORT_SWEEP, "sweep": {**SHORT_SWEEP["sweep"], "amplitude": -1}},
     [{"amplitude": 1}, {"k2": 0.2}], "sweep.amplitude must be positive, got -1.0"),
], ids=["amplitude", "stability", "first-variant-unstable", "variant-params-unstable",
        "params-unstable", "after-a-stable-variant", "params-without-rate",
        "section-amplitude"])
def test_sweep_checks_every_variant_before_running(tmp_path, capsys, base, variants, message):
    cfg = {**base, "sweep": {**base["sweep"], "variants": variants}}
    out_dir = tmp_path / "v"
    assert main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out_dir)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not list(out_dir.glob("bode_*")) and not list(out_dir.glob("analytic_*"))


@pytest.mark.parametrize("variants, tag", [
    ([{"k2": 0.2}, {"k2": 0.3}], "linear_a1_R5_Am1"),
    # 1 / (1 / 3.0000001) prints as 3 under :g, as 3 does
    ([{"R": 3}, {"R": 3.0000001}], "linear_a1_R3_Am1"),
], ids=["k2", "R-equal-under-g"])
def test_sweep_variants_writing_the_same_files_exit_2(tmp_path, capsys, variants, tag):
    cfg = {**SHORT_SWEEP, "sweep": {**SHORT_SWEEP["sweep"], "variants": variants}}
    out_dir = tmp_path / "v"
    assert main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == ("config error: sweep.variants[1] writes the same files "
                                       f"as sweep.variants[0] (bode_{tag})\n")
    assert not out_dir.exists()


def test_out_of_range_sim_field_exits_2_before_invalid_params(tmp_path, capsys):
    # a range error comes when its section is built, as a type error does, so it
    # wins over params that validate_params rejects
    cfg = {**SMALL_CONFIGS["simulate"], "params": {**SCENARIO_PARAMS["params"], "k1": -1.0},
           "sim": {"duration": -1.0}}
    assert _run("simulate", write_cfg(tmp_path, cfg), tmp_path / "out") == 2
    assert "config error: sim.duration must be finite and positive, got -1.0" in (
        capsys.readouterr().err)


def test_empty_metrics_window_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    cfg = expand_scenario("fig4")
    cfg["sim"]["metrics_windows"] = [[2500.0, 3000.0]]

    def no_run(*args):
        raise AssertionError("simulate ran")

    monkeypatch.setattr("doubleint.cli.simulate", no_run)
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == (
        "config error: sim.metrics_windows: [2500, 3000] contains no samples\n")
    assert not out_dir.exists()


def test_empty_metrics_windows_list_writes_no_windows(tmp_path):
    cfg = _edit("simulate", "sim", "metrics_windows", [])
    out_dir = tmp_path / "out"
    assert _run("simulate", write_cfg(tmp_path, cfg), out_dir) == 0
    assert json.loads((out_dir / "metrics.json").read_text())["windows"] == []


def test_sweep_overflowing_fit_exits_3_without_runtime_warning(tmp_path):
    cfg = {
        "params": LINEAR_PARAMS,
        "sweep": {"freqs_hz": [5.1, 10.1], "samples": 500, "amplitude": 1e300},
    }
    env = {"PYTHONPATH": str(Path(doubleint.__file__).parents[1]), "PATH": ""}
    done = subprocess.run(
        [sys.executable, "-m", "doubleint.cli", "sweep", "--config", write_cfg(tmp_path, cfg),
         "--out", str(tmp_path / "f")],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 3
    assert "flagged rows: 6/6" in done.stdout
    assert done.stderr == ""


def test_sweep_variant_invalid_params_names_the_variant(tmp_path, capsys):
    cfg = {"params": LINEAR_PARAMS,
           "sweep": {"freqs_hz": [5.1], "samples": 200, "variants": [{}, {"k1": -1}]}}
    out_dir = tmp_path / "v"
    assert main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith("sweep.variants[1]: invalid: k=(-1, ")
    assert not list(out_dir.glob("bode_*"))


def test_sweep_short_span_warning_is_one_plain_line(tmp_path, capsys):
    cfg = {"params": LINEAR_PARAMS,
           "sweep": {"freqs_hz": [0.1], "samples": 100, "variants": [{}, {"amplitude": 2}]}}
    assert main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: run length 0.1 s is shorter than one period (10 s) of the lowest frequency"]
