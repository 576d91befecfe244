"""Tests of the benchmark's own logic: seeding, statistics, failure counting,
tracing and the correctness gates.  Run with ``python -m pytest bench/tests``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gates
import speed
import stats
import tracing
import workloads
from doubleint import cli, scenarios
from doubleint.sweep import default_grid
from speed import SpeedSampler

BENCH = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_configs(workload):
    assert json.dumps(workloads.generate(workload, 7)) == json.dumps(workloads.generate(workload, 7))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seeds_differ(workload):
    a, b = workloads.generate(workload, 1), workloads.generate(workload, 2)
    assert a["configs"] != b["configs"]


def test_sweep_picks_one_frequency_per_grid_quarter():
    grid = default_grid()
    size = len(grid) // workloads.GRID_QUARTERS
    for seed in range(20):
        freqs = workloads.generate("sweep_fig1", seed)["configs"]["sweep_linear"]["sweep"]["freqs_hz"]
        assert [grid.index(f) // size for f in freqs] == [0, 1, 2, 3]


def test_sweep_fig1_splits_fig1_by_mode():
    spec = workloads.generate("sweep_fig1", 0)
    fig1 = scenarios.expand_scenario("fig1")["sweep"]["variants"]
    nonlinear = spec["configs"]["sweep_nonlinear"]["sweep"]
    linear = spec["configs"]["sweep_linear"]["sweep"]
    assert nonlinear["variants"] + linear["variants"] == fig1
    assert nonlinear["init_state"] == "zero" and linear["init_state"] == "steady_state"
    assert workloads.work_counts(spec) == {
        "lanes": 36, "steps": 36 * 50000, "rows": 6 * 4 * 3 + 2 * 3 * 4 * 3}


def test_simulate_workloads_keep_windows_inside_the_run():
    for name in ("simulate_long", "simulate_write"):
        for cfg in workloads.generate(name, 3)["configs"].values():
            sim = cfg["sim"]
            assert all(0.0 <= lo < hi <= sim["duration"] for lo, hi in sim["metrics_windows"])
            assert all(abs(a - b) <= workloads.X0_SPREAD
                       for a, b in zip(sim["initial_state"], (0.0, 1.0, 0.0)))


def test_summary_median_and_quartiles():
    s = stats.summary([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (3.0, 2.0, 4.0, 5)
    assert stats.summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}
    two = stats.summary([1.0, 3.0])
    assert two["q1"] < two["median"] < two["q3"]
    with pytest.raises(ValueError):
        stats.summary([])


def test_flagged_rows_and_nonzero_exits_count_as_failures():
    assert stats.count_failures([0, 0], ["ok"] * 6) == (8, 0)
    assert stats.count_failures([0, 0], ["ok", "diverged", "ok"]) == (5, 1)
    assert stats.count_failures([0, 3], ["ok", "ill_conditioned"]) == (4, 2)


def test_sweep_flags_reads_a_forced_flag(tmp_path):
    run = tmp_path / "pass0" / "call"
    run.mkdir(parents=True)
    header = "f_hz,omega_rad_s,channel,magnitude_db,phase_rad,phase_unwrapped_rad,residual_rms,source,flag"
    (run / "bode_x.csv").write_text(
        f"{header}\n1,6.28,1,0,0,0,0,sweep,ok\n1,6.28,2,nan,nan,,,sweep,diverged\n")
    (run / "analytic_x.csv").write_text(f"{header}\n1,6.28,1,0,0,0,,analytic,ok\n")
    flags = gates.sweep_flags(tmp_path / "pass0")
    assert flags == ["ok", "diverged"]
    attempted, failed = stats.count_failures([0], flags)
    assert failed / attempted == 1 / 3


def test_self_times_subtract_children():
    spans = [
        (0, "cli.main", "cli", 0.0, 10.0, None, 0),
        (1, "sweep.sweep_observer", "sweep", 1.0, 9.0, 0, 0),
        (2, "solver.simulate", "solver", 1.5, 7.5, 1, 0),
        (3, "sweep.fit_sinusoid", "sweep", 7.5, 8.0, 1, 0),
        (4, "io.write_bode_csv", "io", 9.0, 9.5, 0, 0),
    ]
    self_s = tracing.self_times(spans)
    assert self_s["cli"] == pytest.approx(1.5)
    assert self_s["sweep"] == pytest.approx(1.5 + 0.5)
    assert self_s["solver"] == pytest.approx(6.0)
    assert self_s["io"] == pytest.approx(0.5)
    assert sum(self_s.values()) == pytest.approx(tracing.root_time(spans))


@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("mode", ["linear", "nonlinear"])
def test_inner_call_model_matches_the_kernels(monkeypatch, method, mode):
    """The computed inner-loop shares assume the kernels' call pattern; count it."""
    from doubleint import ObserverParams, ObserverState, SimConfig, paper_reference_spec, solver

    calls = {"power_sign": 0, "input": 0}
    power_sign = solver.power_sign
    make_input_fn = solver.signals.make_input_fn

    def counted_power_sign(x, a):
        calls["power_sign"] += 1
        return power_sign(x, a)

    def counted_make_input_fn(spec):
        fn = make_input_fn(spec)

        def counted(t):
            calls["input"] += 1
            return fn(t)

        return counted

    monkeypatch.setattr(solver, "power_sign", counted_power_sign)
    monkeypatch.setattr(solver.signals, "make_input_fn", counted_make_input_fn)
    p = ObserverParams.from_rate(0.1, 0.1, 1.0, 5.0, 0.3 if mode == "nonlinear" else 1.0, mode)
    cfg = SimConfig(0.001, 0.05, ObserverState(0.0, 1.0, 0.0), method, 7)
    traj = solver.simulate(p, paper_reference_spec(), cfg)
    assert tracing.inner_calls(p, cfg, traj.times.size) == (calls["input"], calls["power_sign"])


def test_sampler_excludes_its_own_time_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as sampler:
        ref_s, raw_s, sampled_s = sampler.time(lambda: time.sleep(0.3))
        inside = len(sampler.samples)
        short_ref, short_raw, short_sampled = sampler.time(lambda: None)
    assert signal.getsignal(signal.SIGALRM) is before
    assert inside >= 3
    assert sampled_s == sum(dt for _, dt in sampler.samples[:inside]) > 0
    assert 0.3 <= raw_s + sampled_s <= 0.4
    assert ref_s > 0 and 0 <= short_raw < 0.01 and short_sampled == 0
    assert len(sampler.samples) > inside  # the short call was scaled by a fresh sample
    assert short_ref == pytest.approx(short_raw * speed.REFERENCE_S / sampler.samples[-1][1])


def _tiny_simulate_spec(duration: float = 0.5) -> dict:
    cfg = workloads._retimed("fig3", duration, [0.01, 1.0, -0.02])
    return {"configs": {"fig3": cfg},
            "calls": [{"name": f"fig3_{fmt}", "config": "fig3",
                       "argv": ["simulate", "--format", fmt]} for fmt in ("csv", "json")]}


def _run_calls(spec: dict, root: Path) -> dict[str, Path]:
    dirs = {}
    for call in spec["calls"]:
        cfg_path = root / f"{call['config']}.json"
        cfg_path.write_text(json.dumps(spec["configs"][call["config"]]))
        dirs[call["name"]] = root / call["name"]
        assert cli.main([*call["argv"], "--config", str(cfg_path),
                         "--out", str(dirs[call["name"]])]) == 0
    return dirs


def test_tracer_records_nested_spans_and_restores_the_package(tmp_path):
    spec = _tiny_simulate_spec()
    tracer = tracing.Tracer(pass_id=3)
    undo = tracer.install()
    try:
        _run_calls(spec, tmp_path)
    finally:
        tracer.uninstall(undo)
    from doubleint import solver

    assert cli.simulate is solver.simulate
    names = {s[1]: s for s in tracer.spans}
    assert names["solver.simulate"][5] == names["cli.cmd_simulate"][0]
    assert names["cli.cmd_simulate"][5] == names["cli.main"][0]
    assert {s[6] for s in tracer.spans} == {3}
    assert tracer.counts["solver.steps"] == 2 * 500
    assert tracer.counts["io.rows_written"] == 2 * 501
    assert tracer.counts["observers.power_sign_calls"] == 2 * 500 * 12
    with SpeedSampler() as sampler:
        computed = tracer.computed_inner_s(sampler)
    assert computed["signals"] > 0 and computed["observers"] > 0


def test_simulate_gate_accepts_outputs_and_catches_a_changed_digit(tmp_path):
    spec = _tiny_simulate_spec()
    dirs = _run_calls(spec, tmp_path)
    assert gates.simulate_outputs(spec, dirs) == []
    path = dirs["fig3_csv"] / "trajectory.csv"
    lines = path.read_text().splitlines()
    cells = lines[200].split(",")
    cells[1] = f"{float(cells[1]) * (1 + 1e-7):.8e}"
    lines[200] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    failures = gates.simulate_outputs(spec, dirs)
    assert len(failures) == 1 and "x1[199]" in failures[0]


def test_identical_outputs_detects_one_changed_byte(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name / "run").mkdir(parents=True)
        (tmp_path / name / "run" / "trajectory.csv").write_text("t,x1\n0,1\n")
    assert gates.identical_outputs(tmp_path / "a", tmp_path / "b") == []
    (tmp_path / "b" / "run" / "trajectory.csv").write_text("t,x1\n0,2\n")
    assert gates.identical_outputs(tmp_path / "a", tmp_path / "b") == [
        "run/trajectory.csv differs between passes"]


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep_fig1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
