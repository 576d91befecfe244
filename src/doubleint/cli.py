"""Command-line entry point: validate, simulate, sweep, reproduce.

Exit codes: 0 success, 1 invalid observer parameters, 2 malformed
configuration, 3 diverged simulation (or a sweep with more than 5% of rows
flagged).  Config files are JSON; the keys, types and defaults of each
section are the fields of its dataclass, plus the few keys no dataclass
holds (R, metrics_windows, variants).  Unknown keys are a hard error so
typos never pass silently; a malformed config names the bad field's path.
"""

import argparse
import dataclasses
import json
import sys
import typing
import warnings
from pathlib import Path

from . import io, scenarios
from .errors import ConfigError, DivergedState, DoubleIntError, InvalidParams
from .observers import ObserverParams, validate_params
from .signals import SignalSpec
from .solver import SimConfig, simulate, trajectory_metrics
from .sweep import SweepConfig, bode_from_transfer, check_sweep_config, sweep_observer

EXIT_OK = 0
EXIT_INVALID_PARAMS = 1
EXIT_BAD_CONFIG = 2
EXIT_DIVERGED = 3

MAX_FLAGGED_FRACTION = 0.05


_TOP_TYPES = {"command": str, "format": str, "params": dict, "signal": dict, "sim": dict,
              "sweep": dict}
_SHAPES = {float: "a number", int: "an integer", str: "a string", dict: "an object"}
# sections a command does not read, refused so that no setting is silently ignored;
# validate reads only params and accepts a simulate or sweep config whole
_UNREAD = {"simulate": ("sweep",), "sweep": ("signal", "sim")}


def _fields(cls) -> dict:
    return {f.name: f.type for f in dataclasses.fields(cls) if f.init}


# params keys: the ObserverParams fields, and R = 1/epsilon in place of epsilon
_PARAM_TYPES = {**_fields(ObserverParams), "R": float}


def _convert(tp, value, path: str):
    """value, checked for the JSON shape of type tp and converted to it.

    tp is a key of _SHAPES, a dataclass, a NamedTuple, or tuple[T, ...] or
    tuple[T1, T2, ...] of these.  Ranges are left to the library validators.
    """
    if tp is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if tp in _SHAPES:
        if isinstance(value, bool) or not isinstance(value, (int, float) if tp is float else tp):
            raise ConfigError(f"{path}: expected {_SHAPES[tp]}, got {json.dumps(value)[:40]}")
        try:
            return float(value) if tp is float else value
        except OverflowError:
            raise ConfigError(f"{path}: number out of range") from None
    if dataclasses.is_dataclass(tp):
        return _new(tp, _typed(_fields(tp), value, path), path)
    if hasattr(tp, "_fields"):
        return tp(*_convert(tuple[tuple(tp.__annotations__.values())], value, path))
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list, got {json.dumps(value)[:40]}")
    items = typing.get_args(tp)
    if items[-1] is Ellipsis:
        items = items[:1] * len(value)
    if len(value) != len(items):
        raise ConfigError(f"{path}: expected {len(items)} items, got {len(value)}")
    return tuple(_convert(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(items, value)))


def _typed(types: dict, obj, path: str) -> dict:
    """The keys of the JSON object obj at path, each converted to its type in types."""
    _convert(dict, obj, path or "config")
    unknown = obj.keys() - types.keys()
    if unknown:
        raise ConfigError(f"unknown {path or 'config'} keys: {sorted(unknown)}")
    return {k: _convert(types[k], v, f"{path}.{k}" if path else k) for k, v in obj.items()}


def _new(cls, kwargs: dict, path: str):
    """cls(**kwargs): absent fields take the dataclass defaults."""
    for f in dataclasses.fields(cls):
        required = f.default is f.default_factory is dataclasses.MISSING
        if f.init and required and f.name not in kwargs:
            raise ConfigError(f"{path}.{f.name} is required")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


def _build_params(cfg: dict, over: dict, path: str) -> ObserverParams:
    """The params section with a variant's typed keys (whose R or epsilon wins) laid over it."""
    kwargs = _typed(_PARAM_TYPES, cfg.get("params", {}), "params")
    if over.keys() & {"R", "epsilon"}:
        kwargs = {k: v for k, v in kwargs.items() if k not in ("R", "epsilon")}
    kwargs.update(over)
    if ("R" in kwargs) == ("epsilon" in kwargs):
        raise ConfigError(f"{path} needs exactly one of R or epsilon")
    if "R" in kwargs:
        rate = kwargs.pop("R")
        if rate == 0.0:
            raise ConfigError(f"{path}.R must be nonzero")
        kwargs["epsilon"] = 1.0 / rate
    return _new(ObserverParams, kwargs, path)


def _build_sim(obj: dict) -> tuple[SimConfig, tuple]:
    kwargs = _typed({**_fields(SimConfig), "metrics_windows": tuple[tuple[float, float], ...]},
                    obj, "sim")
    windows = kwargs.pop("metrics_windows", None)
    cfg = _new(SimConfig, kwargs, "sim")
    # long runs of at least 100 steps default to a sparser record grid to bound memory
    if "record_stride" not in kwargs and cfg.duration > 60.0 and cfg.duration >= 100 * cfg.step_h:
        cfg = dataclasses.replace(cfg, record_stride=100)
    return cfg, ((0.0, cfg.duration),) if windows is None else windows


def _build_sweep(obj: dict) -> tuple[SweepConfig, tuple]:
    kwargs = _typed({**_fields(SweepConfig), "variants": tuple[dict, ...]}, obj, "sweep")
    variants = kwargs.pop("variants", ({},))
    return _new(SweepConfig, kwargs, "sweep"), variants


def load_config(path) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
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
    return out


def cmd_validate(cfg: dict) -> int:
    params = _build_params(cfg, {}, "params")
    report = validate_params(params)
    print(report)
    return EXIT_OK if report.ok else EXIT_INVALID_PARAMS


def cmd_simulate(cfg: dict, out_dir) -> int:
    params = _build_params(cfg, {}, "params")
    signal = cfg.get("signal", {})
    spec = _convert(SignalSpec, signal, "signal")
    # the reference's amplitude and rate are fixed constants: a value given here would be ignored
    for key in ("amplitude", "omega"):
        if spec.kind == "paper_reference" and key in signal:
            raise ConfigError(f"signal.{key} is fixed for kind paper_reference; remove it")
    sim_cfg, windows = _build_sim(cfg.get("sim", {}))
    try:
        traj = simulate(params, spec, sim_cfg)
        metrics = trajectory_metrics(traj, windows)
    except ConfigError as exc:
        # messages lead with the field name, which is the signal's or the sim's
        field = str(exc).split()[0].split("[")[0]
        raise ConfigError(f"{'signal' if field in _fields(SignalSpec) else 'sim'}.{exc}") from exc
    out = io.ensure_dir(out_dir)
    if cfg.get("format", "csv") == "csv":
        io.write_trajectory_csv(out / "trajectory.csv", traj)
    else:
        io.write_json(out / "trajectory.json", io.trajectory_to_dict(traj))
    io.write_json(out / "metrics.json", metrics)
    io.write_json(out / "config.json", cfg)
    print(f"wrote trajectory ({traj.times.size} samples) to {out}")
    return EXIT_OK


def _passes(cfg: dict, run_cfg: SweepConfig) -> bool:
    """Whether the params section alone builds, is valid and passes check_sweep_config."""
    try:
        base = _build_params(cfg, {}, "params")
        if validate_params(base).ok:
            check_sweep_config(base, run_cfg)
            return True
    except ConfigError:
        pass
    return False


def _variant_tag(params: ObserverParams, amplitude: float) -> str:
    return (f"{params.mode}_a{params.alpha3:g}_R{1.0 / params.epsilon:g}"
            f"_Am{amplitude:g}")


def cmd_sweep(cfg: dict, out_dir, workers: int = 1) -> int:
    sweep_cfg, variants = _build_sweep(cfg.get("sweep", {}))
    runs = []
    # every variant is checked before the first one runs, so a bad one writes nothing
    for i, variant in enumerate(variants):
        path = f"sweep.variants[{i}]"
        over = _typed({**_PARAM_TYPES, "amplitude": float}, variant, path)
        run_cfg = sweep_cfg
        if "amplitude" in over:
            run_cfg = dataclasses.replace(sweep_cfg, amplitude=over.pop("amplitude"))
        params = _build_params(cfg, over, path if over else "params")
        report = validate_params(params)
        if not report.ok:
            # the report names no path: lead with the variant's when its keys set params
            print(f"{path}: {report}" if over else report, file=sys.stderr)
            return EXIT_INVALID_PARAMS
        try:
            check_sweep_config(params, run_cfg)
        except ConfigError as exc:
            # messages lead with the field name: the error is the variant's when it sets
            # that field, or sets params that fail where an earlier variant or the
            # params section alone passes
            own = str(exc).split()[0] in variant or over and (runs or _passes(cfg, run_cfg))
            raise ConfigError(f"{path if own else 'sweep'}.{exc}") from exc
        runs.append((params, run_cfg))
    fmt = cfg.get("format", "csv")
    out = io.ensure_dir(out_dir)
    total = flagged = 0
    written = []
    for params, run_cfg in runs:
        curve = sweep_observer(params, run_cfg, workers=workers)
        tag = _variant_tag(params, run_cfg.amplitude)
        written.append(_write_curve(out, f"bode_{tag}", curve, fmt))
        total += len(curve.rows)
        flagged += sum(r.flag != "ok" for r in curve.rows)
        if params.mode == "linear":
            ref = bode_from_transfer(params, run_cfg)
            written.append(_write_curve(out, f"analytic_{tag}", ref, fmt))
    io.write_json(out / "config.json", cfg)
    print(f"wrote {len(written)} curves to {out}; flagged rows: {flagged}/{total}")
    if total and flagged / total > MAX_FLAGGED_FRACTION:
        return EXIT_DIVERGED
    return EXIT_OK


def _write_curve(out: Path, stem: str, curve, fmt: str):
    if fmt == "csv":
        path = out / f"{stem}.csv"
        io.write_bode_csv(path, curve)
    else:
        path = out / f"{stem}.json"
        io.write_json(path, io.bode_to_dict(curve))
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
            p.add_argument("--threads", type=int, default=1, help="parallel sweep workers")

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
            return cmd_sweep(cfg, args.out, args.threads)
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
