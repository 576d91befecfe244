"""Command-line entry point: validate, simulate, sweep, reproduce.

Exit codes: 0 success, 1 invalid observer parameters, 2 malformed
configuration, 3 diverged simulation (or a sweep with more than 5% of rows
flagged).  Config files are JSON; the keys, types and defaults of each
section are the fields of its dataclass, plus the two keys no dataclass
holds (R, variants).  Unknown keys are a hard error so typos never pass
silently; a malformed config names the bad field's path.
"""

import argparse
import dataclasses
import inspect
import json
import sys
import warnings
from pathlib import Path

from . import io, scenarios, signals
from .errors import ConfigError, DivergedState, DoubleIntError, InvalidParams, config_value
from .observers import ObserverParams, validate_params
from .solver import SimConfig, simulate, trajectory_metrics
from .sweep import SweepConfig, bode_from_transfer, check_sweep_config, sweep_observer

EXIT_OK = 0
EXIT_INVALID_PARAMS = 1
EXIT_BAD_CONFIG = 2
EXIT_DIVERGED = 3

MAX_FLAGGED_FRACTION = 0.05


_TOP_TYPES = {"command": str, "format": str, "params": dict, "signal": dict, "sim": dict,
              "sweep": dict}
# sections a command does not read, refused so that no setting is silently ignored;
# validate reads only params and accepts a simulate or sweep config whole
_UNREAD = {"simulate": ("sweep",), "sweep": ("signal", "sim")}


def _fields(cls) -> dict:
    return {f.name: f.type for f in dataclasses.fields(cls) if f.init}


# params keys: the ObserverParams fields, and R = 1/epsilon in place of epsilon
_PARAM_TYPES = {**_fields(ObserverParams), "R": float}


def _typed(types: dict, obj, path: str) -> dict:
    """The keys of the JSON object obj at path, each config_value of its type in types."""
    config_value(path or "config", dict, obj)
    unknown = obj.keys() - types.keys()
    if unknown:
        raise ConfigError(f"unknown {path or 'config'} keys: {sorted(unknown)}")
    return {k: config_value(f"{path}.{k}" if path else k, types[k], v, _build)
            for k, v in obj.items()}


def _build(cls, obj: dict, path: str):
    """The dataclass cls from the JSON object obj at path: the build hook of config_value."""
    return _new(cls, _typed(_fields(cls), obj, path), path)


def _at(path: str, fn, /, *args, **kwargs):
    """fn(*args, **kwargs), a ConfigError it raises led by path, the field's config path."""
    try:
        return fn(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


def _new(make, kwargs: dict, path: str):
    """make(**kwargs), absent arguments taking make's defaults; make's refusals name path."""
    for name, arg in inspect.signature(make).parameters.items():
        if arg.default is arg.empty and name not in kwargs:
            raise ConfigError(f"{path}.{name} is required")
    return _at(path, make, **kwargs)


def _build_params(cfg: dict, over: dict, path: str) -> ObserverParams:
    """The params section with a variant's typed keys (whose R or epsilon wins) laid over it."""
    kwargs = _typed(_PARAM_TYPES, cfg.get("params", {}), "params")
    if over.keys() & {"R", "epsilon"}:
        kwargs = {k: v for k, v in kwargs.items() if k not in ("R", "epsilon")}
    kwargs.update(over)
    if ("R" in kwargs) == ("epsilon" in kwargs):
        raise ConfigError(f"{path} needs exactly one of R or epsilon")
    return _new(ObserverParams.from_rate if "R" in kwargs else ObserverParams, kwargs, path)


def _build_sim(obj: dict) -> SimConfig:
    kwargs = _typed(_fields(SimConfig), obj, "sim")
    # long runs of at least 100 steps default to a sparser record grid to bound memory
    d, h = kwargs.get("duration", SimConfig.duration), kwargs.get("step_h", SimConfig.step_h)
    if "record_stride" not in kwargs and d > 60.0 and d >= 100 * h:
        kwargs["record_stride"] = 100
    # the metrics summarize the whole run unless the config names windows ([] names none)
    kwargs.setdefault("metrics_windows", ((0.0, d),))
    return _new(SimConfig, kwargs, "sim")


def _build_sweep(obj: dict) -> tuple[SweepConfig, tuple]:
    kwargs = _typed({**_fields(SweepConfig), "variants": tuple[dict, ...]}, obj, "sweep")
    variants = kwargs.pop("variants", ({},))
    return _new(SweepConfig, kwargs, "sweep"), variants


def _unique_keys(pairs: list) -> dict:
    """One JSON object's pairs as a dict; a key given twice raises ConfigError naming it."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {json.dumps(key)}: each key may appear once")
        obj[key] = value
    return obj


def load_config(path) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return cfg


def _effective(cfg: dict, command: str, args: argparse.Namespace) -> dict:
    """cfg, checked at the top level, with the command and the CLI flags set.

    This is all the command reads and what config.json echoes.  A flag lands in
    the section the command reads; a section or flag it does not read is refused.
    """
    _typed(_TOP_TYPES, cfg, "")
    unread = _UNREAD.get(command, ())
    for section in unread:
        if section in cfg:
            raise ConfigError(f"{section}: section is not read by {command}; remove it")
    stated = cfg.get("command", command)
    if stated != command:
        raise ConfigError(f"config command {stated!r} does not match subcommand {command!r}")
    fmt = cfg.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    out = {**cfg, "command": command}
    if getattr(args, "format", None):
        out["format"] = args.format
    read = "sim" if command == "simulate" else "sweep"
    for flag, section, key in (("method", read, "method"),
                               ("discard", "sweep", "discard_fraction")):
        value = getattr(args, flag, None)
        if value is not None:
            if section in unread:
                raise ConfigError(f"--{flag}: flag is not read by {command}; remove it")
            out[section] = {**out.get(section, {}), key: value}
    # --threads sets how a sweep runs, not what it computes: it stays out of the config
    threads = getattr(args, "threads", None)
    if threads is not None:
        if "sweep" in unread:
            raise ConfigError(f"--threads: flag is not read by {command}; remove it")
        if threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {threads}")
    return out


def cmd_validate(cfg: dict) -> int:
    params = _build_params(cfg, {}, "params")
    report = validate_params(params)
    print(report)
    return EXIT_OK if report.ok else EXIT_INVALID_PARAMS


def _out(action, *args):
    """action(*args), which creates or writes under --out; an OSError is a ConfigError."""
    try:
        return action(*args)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from exc


def cmd_simulate(cfg: dict, out_dir) -> int:
    params = _build_params(cfg, {}, "params")
    signal = cfg.get("signal", {})
    spec = _build(signals.SignalSpec, signal, "signal")
    # the reference's amplitude and rate are fixed constants: a value given here would be ignored
    for key in ("amplitude", "omega"):
        if spec.kind == "paper_reference" and key in signal:
            raise ConfigError(f"signal.{key} is fixed for kind paper_reference; remove it")
    sim_cfg = _build_sim(cfg.get("sim", {}))
    _at("signal", signals.check_horizon, spec, sim_cfg.duration + sim_cfg.step_h)
    # with the horizon checked, simulate's one ConfigError is the step guard
    traj = _at("sim", simulate, params, spec, sim_cfg)
    metrics = trajectory_metrics(traj, sim_cfg.metrics_windows)
    out = _out(io.ensure_dir, out_dir)
    if cfg.get("format", "csv") == "csv":
        _out(io.write_trajectory_csv, out / "trajectory.csv", traj)
    else:
        _out(io.write_json, out / "trajectory.json", io.trajectory_to_dict(traj))
    _out(io.write_json, out / "metrics.json", metrics)
    _out(io.write_json, out / "config.json", cfg)
    print(f"wrote trajectory ({traj.times.size} samples) to {out}")
    return EXIT_OK


def cmd_sweep(cfg: dict, out_dir, workers: int = 1) -> int:
    sweep_cfg, variants = _build_sweep(cfg.get("sweep", {}))
    runs = {}
    # every variant is checked before the first one runs, so a bad one writes nothing
    for i, variant in enumerate(variants):
        path = f"sweep.variants[{i}]"
        over = _typed({**_PARAM_TYPES, "amplitude": float}, variant, path)
        run_cfg = sweep_cfg
        if "amplitude" in over:
            run_cfg = _at(path, dataclasses.replace, sweep_cfg, amplitude=over.pop("amplitude"))
        params = _build_params(cfg, over, path if over else "params")
        report = validate_params(params)
        if not report.ok:
            # the report names no path: lead with the variant's when its keys set params
            print(f"{path}: {report}" if over else report, file=sys.stderr)
            return EXIT_INVALID_PARAMS
        # every such error depends on the params: the variant's when it sets any
        _at(path if over else "sweep", check_sweep_config, params, run_cfg)
        # the stem names mode, alpha3, R and amplitude only: a clash would overwrite files
        tag = f"{params.mode}_a{params.alpha3:g}_R{1.0 / params.epsilon:g}_Am{run_cfg.amplitude:g}"
        if tag in runs:
            raise ConfigError(f"{path} writes the same files as "
                              f"sweep.variants[{list(runs).index(tag)}] (bode_{tag})")
        runs[tag] = params, run_cfg
    fmt = cfg.get("format", "csv")
    out = _out(io.ensure_dir, out_dir)
    total = flagged = 0
    written = []
    for tag, (params, run_cfg) in runs.items():
        curve = sweep_observer(params, run_cfg, workers=workers)
        written.append(_write_curve(out, f"bode_{tag}", curve, fmt))
        total += len(curve.rows)
        flagged += sum(r.flag != "ok" for r in curve.rows)
        if params.mode == "linear":
            ref = bode_from_transfer(params, run_cfg)
            written.append(_write_curve(out, f"analytic_{tag}", ref, fmt))
    _out(io.write_json, out / "config.json", cfg)
    print(f"wrote {len(written)} curves to {out}; flagged rows: {flagged}/{total}")
    if total and flagged / total > MAX_FLAGGED_FRACTION:
        return EXIT_DIVERGED
    return EXIT_OK


def _write_curve(out: Path, stem: str, curve, fmt: str):
    if fmt == "csv":
        path = out / f"{stem}.csv"
        _out(io.write_bode_csv, path, curve)
    else:
        path = out / f"{stem}.json"
        _out(io.write_json, path, io.bode_to_dict(curve))
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doubleint",
        description="Double-integrator observers: validation, simulation and "
                    "frequency-sweep characterization.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_run(p, sweeps: bool):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--method", choices=("rk4", "euler"), default=None)
        if sweeps:
            p.add_argument("--discard", type=float, default=None,
                           help="override discard fraction before fitting")
            p.add_argument("--threads", type=int, default=None,
                           help="parallel sweep workers (default 1)")

    p = sub.add_parser("validate", help="check observer parameters")
    p.add_argument("--config", required=True)
    for name, text in (("simulate", "integrate the observer against a signal"),
                       ("sweep", "frequency-sweep Bode characterization")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        add_run(p, sweeps=name == "sweep")

    p = sub.add_parser("reproduce", help="run a canned scenario (fig1..fig6)")
    p.add_argument("--scenario", required=True, choices=scenarios.SCENARIO_NAMES)
    add_run(p, sweeps=True)
    return parser


def _plain_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # library warnings reach CLI users as one plain line, without source location
        warnings.showwarning = _plain_warning
        try:
            if args.cmd == "reproduce":
                cfg = scenarios.expand_scenario(args.scenario)
                command = cfg["command"]
            else:
                cfg, command = load_config(args.config), args.cmd
            cfg = _effective(cfg, command, args)
            if command == "validate":
                return cmd_validate(cfg)
            if command == "simulate":
                return cmd_simulate(cfg, args.out)
            return cmd_sweep(cfg, args.out, args.threads or 1)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_BAD_CONFIG
        except InvalidParams as exc:
            print(exc.report, file=sys.stderr)
            return EXIT_INVALID_PARAMS
        except DivergedState as exc:
            print(f"simulation diverged at t={exc.time:.6g} s", file=sys.stderr)
            return EXIT_DIVERGED
        except DoubleIntError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
