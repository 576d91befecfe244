"""doubleint benchmark: seeded CLI workloads, correctness gates, per-layer trace.

    python3 bench/run.py --workload sweep_fig1 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports doubleint from its
``src`` only.  Each pass runs the workload's CLI calls through
``doubleint.cli.main`` in a fresh subprocess (bench/worker.py) with BLAS and
OpenMP pinned to one thread.  Passes repeat until the next one would end
after ``--seconds`` (at least two, whose outputs must be byte-identical).

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` one untraced and one traced pass plus the per-layer probes give
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A result file with provenance goes to
bench/out/results/.  Exit code 0 when every gate passes, 1 when a gate
fails, 2 when the checkout has no doubleint sources.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import stats
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 2
SETUP_PROBES = 7
JOB_TIMEOUT_S = 170
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "NUMEXPR_NUM_THREADS": "1"}

ACCURACY_UNITS = {"linear_max_db_err": "dB", "linear_max_phase_err_deg": "deg"}


class JobFailed(RuntimeError):
    pass


def _job(args: list[str]) -> dict:
    env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0:
        raise JobFailed(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def provenance(seed: int) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        sha = git.stdout.strip() or None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "thread_pins": THREAD_PINS, "seed": seed}


class Workload:
    """One workload's generated configs and the passes run over them."""

    def __init__(self, name: str, seed: int, trace: bool):
        import workloads

        self.name = name
        self.spec = spec = workloads.generate(name, seed)
        self.counts = workloads.work_counts(spec)
        self.per_call = {c["name"]: workloads.call_counts(spec, c) for c in spec["calls"]}
        self.work = OUT / "work" / name
        self.results = OUT / "results"
        self.tag = f"{name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "configs").mkdir(parents=True)
        self.results.mkdir(parents=True, exist_ok=True)
        self.config_paths = {}
        for cfg_name, cfg in spec["configs"].items():
            path = self.work / "configs" / f"{cfg_name}.json"
            path.write_text(json.dumps(cfg, indent=2))
            self.config_paths[cfg_name] = str(path)
        self.pass_dirs: list[Path] = []

    def call_dirs(self, k: int) -> dict[str, Path]:
        return {c["name"]: self.pass_dirs[k] / c["name"] for c in self.spec["calls"]}

    def run_pass(self, spans: Path | None = None) -> dict:
        k = len(self.pass_dirs)
        pass_dir = self.work / f"pass{k}"
        self.pass_dirs.append(pass_dir)
        calls = [[*c["argv"], "--config", self.config_paths[c["config"]],
                  "--out", str(pass_dir / c["name"])] for c in self.spec["calls"]]
        plan = self.work / f"plan{k}.json"
        plan.write_text(json.dumps({"calls": calls}))
        args = ["pass", str(plan), "--pass-id", str(k)]
        if spans is not None:
            args += ["--trace", str(spans)]
        return _job(args)

    def setup_probe(self) -> dict:
        return _job(["setup", *self.config_paths.values()])

    def layer_probes(self) -> dict:
        return _job(["layers", *self.config_paths.values(), "--scratch", str(self.work)])

    def gates(self) -> tuple[list[str], dict]:
        """Correctness gates on the first two passes; returns (failures, accuracy)."""
        import gates

        failures = gates.identical_outputs(self.pass_dirs[0], self.pass_dirs[1])
        accuracy = {}
        if self.name.startswith("sweep"):
            more, accuracy = gates.sweep_outputs(self.spec, self.call_dirs(0))
        else:
            more = gates.simulate_outputs(self.spec, self.call_dirs(0))
        return failures + more, accuracy

    def failures(self, passes: list[dict]) -> tuple[int, int]:
        import gates

        codes = [rc for p in passes for rc in p["exit_codes"]]
        flags = [f for d in self.pass_dirs for f in gates.sweep_flags(d)]
        return stats.count_failures(codes, flags)

    def bytes_per_row(self) -> dict[str, float]:
        """Output bytes per data row, by format, from the first pass's files."""
        size = {"csv": 0, "json": 0}
        rows = {"csv": 0, "json": 0}
        for call in self.spec["calls"]:
            argv = call["argv"]
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
            data = [p for p in (self.pass_dirs[0] / call["name"]).iterdir()
                    if p.name not in ("config.json", "metrics.json")]
            size[fmt] += sum(p.stat().st_size for p in data)
            rows[fmt] += self.per_call[call["name"]]["rows"]
        return {fmt: size[fmt] / rows[fmt] if rows[fmt] else 0.0 for fmt in size}

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def end_to_end(w: Workload, seconds: float) -> tuple[dict, dict]:
    """Untraced passes for about ``seconds``; returns (metric summaries, extras)."""
    setup = [w.setup_probe() for _ in range(SETUP_PROBES)]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(w.run_pass())
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    walls = [p["wall_s"] for p in passes]
    summaries = {
        "setup_s": stats.summary([p["setup_s"] for p in setup]),
        "wall_s": stats.summary(walls),
        "steps_per_s": stats.summary([w.counts["steps"] / t for t in walls]),
        "lanes_per_s": stats.summary([w.counts["lanes"] / t for t in walls]),
        "rows_per_s": stats.summary([w.counts["rows"] / t for t in walls]),
        "peak_rss_mb": stats.summary([p["peak_rss_mb"] for p in passes]),
    }
    raw = {"raw_setup_s": stats.summary([p["raw_setup_s"] for p in setup]),
           "raw_wall_s": stats.summary([p["raw_wall_s"] for p in passes])}
    return summaries, {"passes": passes, "setup_probes": setup, "raw": raw}


def per_layer(w: Workload) -> tuple[dict, dict]:
    """One untraced and one traced pass plus the layer probes."""
    untraced = w.run_pass()
    spans_path = w.results / f"{w.tag}-spans.json"
    traced = w.run_pass(spans=spans_path)
    trace = json.loads(spans_path.read_text())
    metrics = dict(w.layer_probes())
    counts = trace["counts"]
    get = lambda key: counts.get(key, 0)
    metrics["solver.steps"] = get("solver.steps")
    metrics["solver.recorded_ratio"] = get("solver.recorded") / max(1, get("solver.steps"))
    metrics["sweep.lanes"] = get("sweep.lanes")
    metrics["sweep.rows_flagged"] = get("sweep.rows_flagged")
    metrics["sweep.fit_sample_ratio"] = (
        get("sweep.fitted_samples") / get("sweep.recorded_samples")
        if get("sweep.recorded_samples") else 0.0)
    metrics["io.rows_written"] = get("io.rows_written")
    for fmt, value in w.bytes_per_row().items():
        metrics[f"io.bytes_per_row.{fmt}"] = value
    metrics["cli.exit_nonzero"] = get("cli.exit_nonzero")
    spans = trace["spans"]
    # spans hold elapsed seconds, sampling included; the traced pass's own
    # speed converts them to reference seconds
    elapsed = traced["raw_wall_s"] + traced["sampled_s"]
    to_reference = traced["wall_s"] / elapsed
    for layer, seconds in tracing.self_times(spans).items():
        metrics[f"{layer}.self_s"] = seconds * to_reference
    for layer, seconds in trace["computed_inner_s"].items():
        metrics[f"{layer}.computed_inner_s"] = seconds
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    metrics["trace.uncovered_share"] = (elapsed - tracing.root_time(spans)) / elapsed
    extras = {"passes": [untraced, traced], "spans_file": str(spans_path.relative_to(ROOT)),
              "span_count": len(spans)}
    return metrics, extras


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    w = Workload(name, seed, trace)
    if trace:
        summaries = None
        metrics, extras = per_layer(w)
        units = declared_units("per_layer")
    else:
        summaries, extras = end_to_end(w, seconds)
        metrics = {k: s["median"] for k, s in summaries.items()}
        units = declared_units("end_to_end")
    if metrics.keys() != units.keys():
        raise JobFailed(f"metrics {sorted(metrics.keys() ^ units.keys())} are measured "
                        "but not declared in BENCHMARK.json, or declared but not measured")
    failures, accuracy = w.gates()
    attempted, failed = w.failures(extras["passes"])
    correct = not failures and failed == 0
    result = {
        "workload": name, "trace": int(trace), "seconds": seconds,
        "provenance": provenance(seed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "summaries": summaries,
        "accuracy": accuracy,
        "gate_failures": failures,
        "attempted": attempted, "failed": failed, "failed_fraction": failed / attempted,
        **extras,
    }
    result_path = w.results / f"{w.tag}.json"
    result_path.write_text(json.dumps(result, indent=2))
    w.cleanup()

    print(f"{name} (seed {seed}, trace {int(trace)}): {len(extras['passes'])} passes; "
          "times in reference seconds (bench/speed.py)")
    for key, value in metrics.items():
        line = f"  {key:<38} {value:.6g} {units[key]}"
        if summaries:
            s = summaries[key]
            line += f"  (median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
        print(line)
    for key, s in extras.get("raw", {}).items():
        print(f"  {key:<38} {s['median']:.6g} s  (median of {s['n']}; real seconds)")
    for key, value in accuracy.items():
        print(f"  {key:<38} {value:.6g} {ACCURACY_UNITS[key]}  (gate)")
    print(f"  {'failed_fraction':<38} {failed / attempted:.6g} 1  ({failed} of {attempted})")
    for msg in failures:
        print(f"  GATE FAILED: {msg}")
    print(f"  result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="sweep_fig1, simulate_long, simulate_write or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "doubleint" / "__init__.py").is_file():
        print(f"bench: no doubleint sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import doubleint
    import workloads

    if SRC not in Path(doubleint.__file__).resolve().parents:
        print(f"bench: doubleint imported from {doubleint.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"--workload must be one of {workloads.WORKLOADS} or all")
    code = 0
    for name in names:
        try:
            code = max(code, run_workload(name, args.seed, args.seconds, bool(args.trace)))
        except (JobFailed, subprocess.TimeoutExpired) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
