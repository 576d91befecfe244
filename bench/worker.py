"""One fresh-interpreter job of the benchmark: a set-up probe, a pass, or the layer probes.

    python bench/worker.py setup CONFIG...
    python bench/worker.py pass PLAN [--trace SPANS --pass-id N]
    python bench/worker.py layers CONFIG... --scratch DIR

run.py starts each job as its own subprocess with ``PYTHONPATH`` set to the
checkout's ``src`` and BLAS/OpenMP pinned to one thread, so every pass starts
from a fresh interpreter and ``ru_maxrss`` belongs to that pass alone.
Nothing from doubleint is imported at module level: ``setup`` times that
import.  Each job prints one JSON object on its last line of standard output.
"""

import argparse
import contextlib
import io
import json
import resource
import sys

from speed import SpeedSampler


def build_configs(cfg: dict) -> dict:
    """The params/signal/sim/sweep objects a config describes, via the public API."""
    from doubleint import (NoiseTerm, ObserverParams, ObserverState, SignalSpec, SimConfig,
                           SweepConfig, validate_params)

    base = cfg.get("params", {})
    out = {"params": []}
    for variant in cfg.get("sweep", {}).get("variants", [{}]):
        d = {**base, **{k: v for k, v in variant.items() if k != "amplitude"}}
        p = ObserverParams.from_rate(d["k1"], d["k2"], d["k3"], d["R"],
                                     d.get("alpha3", 1.0), d.get("mode", "nonlinear"))
        validate_params(p)
        out["params"].append(p)
    if "signal" in cfg:
        sig = cfg["signal"]
        out["signal"] = SignalSpec(sig.get("kind", "sinusoid"), sig.get("amplitude", 1.0),
                                   sig.get("omega", 1.0),
                                   tuple(NoiseTerm(**term) for term in sig.get("noise", [])))
    if "sim" in cfg:
        sim = cfg["sim"]
        out["sim"] = SimConfig(sim["step_h"], sim["duration"], ObserverState(*sim["initial_state"]),
                               sim["method"], sim["record_stride"])
    if "sweep" in cfg:
        sw = cfg["sweep"]
        out["sweep"] = SweepConfig(tuple(sw["freqs_hz"]), sw["amplitude"], sw["step_h"],
                                   sw["samples"], sw["discard_fraction"], tuple(sw["channels"]),
                                   sw.get("method", "rk4"), sw["init_state"])
    return out


def run_setup(paths: list[str], sampler: SpeedSampler) -> dict:
    """Import doubleint (first import in this interpreter) and parse every config."""

    def setup():
        from doubleint import cli

        for path in paths:
            build_configs(cli.load_config(path))

    timing = sampler.time(setup)
    return {"setup_s": timing.reference_s, "raw_setup_s": timing.raw_s}


def run_pass(plan_path: str, spans_path: str | None, pass_id: int,
             sampler: SpeedSampler) -> dict:
    """Run the plan's CLI calls; wall time spans the first call to the last return."""
    from doubleint import cli

    with open(plan_path) as f:
        calls = json.load(f)["calls"]
    tracer = None
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer(pass_id)
        tracer.install()
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        timing = sampler.time(lambda: codes.extend(cli.main(argv) for argv in calls))
    if tracer is not None:
        with open(spans_path, "w") as f:
            json.dump(tracer.dump(sampler), f)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"wall_s": timing.reference_s, "raw_wall_s": timing.raw_s,
            "sampled_s": timing.sampled_s, "exit_codes": codes, "peak_rss_mb": rss_kb / 1024.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="job", required=True)
    p = sub.add_parser("setup")
    p.add_argument("configs", nargs="+")
    p = sub.add_parser("pass")
    p.add_argument("plan")
    p.add_argument("--trace", default=None, help="write spans to this file")
    p.add_argument("--pass-id", type=int, default=0)
    p = sub.add_parser("layers")
    p.add_argument("configs", nargs="+")
    p.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)
    with SpeedSampler() as sampler:
        if args.job == "setup":
            out = run_setup(args.configs, sampler)
        elif args.job == "pass":
            out = run_pass(args.plan, args.trace, args.pass_id, sampler)
        else:
            import layers

            out = layers.measure(args.configs, args.scratch, sampler)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
