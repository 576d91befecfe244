"""Spans around the public functions of each doubleint module, from outside.

The package imports names with ``from ... import``, so a function is looked up
in several module namespaces (``doubleint.cli.simulate`` and
``doubleint.sweep.simulate`` are both ``solver.simulate``).  ``install``
replaces every such binding of a traced function with one wrapper, so each
call records a span however it was looked up.

Two functions run inside the integrator's inner loop: ``observers.power_sign``
and the input closure from ``signals.make_input_fn``.  A span, or even a
counting wrapper, per call would more than double the pass, so their calls
are computed from each ``simulate`` call's arguments with the kernels' call
pattern (``INNER_CALLS``) and multiplied by a per-call cost measured alone.
Those shares are reported as ``<layer>.computed_inner_s``; they lie inside
the measured ``solver.self_s``, which is span time minus child spans only.
Span times are raw seconds; run.py scales them to reference seconds with the
traced pass's speed (see speed.py).
"""

import importlib
import statistics
import sys
import time
from collections import Counter, deque
from itertools import repeat

# layer -> public functions ("module.attr") recorded as spans
TRACED = {
    "cli": ("cli.main", "cli.cmd_simulate", "cli.cmd_sweep", "cli.load_config",
            "scenarios.expand_scenario"),
    "sweep": ("sweep.sweep_observer", "sweep.fit_sinusoid", "sweep.phase_unwrap",
              "sweep.bode_from_transfer"),
    "solver": ("solver.simulate", "solver.trajectory_metrics"),
    "observers": ("observers.validate_params",),
    "signals": ("signals.make_input_fn", "signals.truth_arrays"),
    "analytic": ("analytic.transfer_eval", "analytic.cutoff_frequency"),
    "io": ("io.write_trajectory_csv", "io.trajectory_to_dict", "io.write_bode_csv",
           "io.bode_to_dict", "io.write_json", "io.ensure_dir"),
}
LAYERS = tuple(TRACED)

# Inner-loop calls per integrator step of the solver's kernels, by method:
# (input evaluations, power_sign calls when nonlinear).  RK4 evaluates the
# input at t, t + h/2 and t + h and power_sign three times in each of its four
# stages; Euler once and three times.  simulate() also evaluates the input
# once per recorded sample.
INNER_CALLS = {"rk4": (3, 12), "euler": (1, 3)}
POWER_SIGN_ALPHA = 0.6


def inner_calls(p, cfg, recorded: int) -> tuple[int, int]:
    """(input evaluations, power_sign calls) one simulate call makes."""
    steps = max(1, round(cfg.duration / cfg.step_h))
    per_input, per_power = INNER_CALLS[cfg.method]
    return steps * per_input + recorded, steps * per_power if p.mode == "nonlinear" else 0


class Tracer:
    """In-memory span recorder for one pass; spans are written out at the end.

    A span is ``(id, name, layer, start, end, parent, pass_id)``.
    """

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list = []
        self.counts: Counter = Counter()
        self.input_calls: Counter = Counter()
        self.specs: dict = {}
        self._stack: list[int] = []
        self._originals: dict = {}

    # Counts taken at a span boundary from the call's positional arguments
    # (the package passes these positionally) and its result.
    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name == "solver.simulate":
            p, spec, cfg = args[:3]
            inputs, powers = inner_calls(p, cfg, result.times.size)
            self.input_calls[repr(spec)] += inputs
            self.specs[repr(spec)] = spec
            c["observers.power_sign_calls"] += powers
            c["solver.steps"] += max(1, round(cfg.duration / cfg.step_h))
            c["solver.recorded"] += result.times.size
        elif name == "sweep.sweep_observer":
            cfg = args[1]
            c["sweep.lanes"] += len(cfg.freqs_hz)
            c["sweep.recorded_samples"] += len(cfg.freqs_hz) * (cfg.samples + 1) * len(cfg.channels)
            c["sweep.rows_flagged"] += sum(r.flag != "ok" for r in result.rows)
        elif name == "sweep.fit_sinusoid":
            c["sweep.fitted_samples"] += len(args[0])
        elif name in ("io.write_trajectory_csv", "io.trajectory_to_dict"):
            c["io.rows_written"] += args[-1].times.size
        elif name in ("io.write_bode_csv", "io.bode_to_dict"):
            c["io.rows_written"] += len(args[-1].rows)
        elif name == "cli.main":
            c["cli.exit_nonzero"] += result != 0

    def span(self, name: str, layer: str, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[span_id] = (span_id, name, layer, start, end, parent, self.pass_id)
            self._count(name, args, result)
            return result

        return traced

    def install(self) -> list[tuple]:
        """Patch every binding of the traced functions; returns undo records."""
        replace = {}
        for layer, names in TRACED.items():
            for qualified in names:
                mod, attr = qualified.split(".")
                fn = getattr(importlib.import_module(f"doubleint.{mod}"), attr)
                self._originals[qualified] = fn
                replace[id(fn)] = (fn, self.span(qualified, layer, fn))
        undo = []
        for name, module in list(sys.modules.items()):
            if name != "doubleint" and not name.startswith("doubleint."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    undo.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return undo

    @staticmethod
    def uninstall(undo: list[tuple]) -> None:
        for module, attr, value in undo:
            setattr(module, attr, value)

    def computed_inner_s(self, sampler) -> dict[str, float]:
        """Computed reference seconds of the inner-loop calls, by layer."""
        from doubleint.observers import power_sign

        make_input_fn = self._originals["signals.make_input_fn"]
        signals_ns = sum(n * ns_per_call(sampler, make_input_fn(self.specs[k]))
                         for k, n in self.input_calls.items())
        observers_ns = (self.counts["observers.power_sign_calls"]
                        * ns_per_call(sampler, power_sign, POWER_SIGN_ALPHA))
        return {"signals": signals_ns * 1e-9, "observers": observers_ns * 1e-9}

    def dump(self, sampler) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "computed_inner_s": self.computed_inner_s(sampler)}


def ns_per_call(sampler, fn, *extra, calls: int = 20000, repeats: int = 3) -> float:
    """Median reference nanoseconds of fn(x, *extra) over varied x, with the
    loop around the calls kept minimal."""
    xs = [(-1.0) ** i * (0.5 + i * 1e-3) for i in range(calls)]
    args = [xs, *(repeat(e) for e in extra)]
    runs = [sampler.time(lambda: deque(map(fn, *args), maxlen=0)).reference_s
            for _ in range(repeats)]
    return statistics.median(runs) / calls * 1e9


def self_times(spans: list) -> dict[str, float]:
    """Self seconds per layer: each span's time minus its child spans."""
    child_time: dict[int, float] = {}
    for _, _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {layer: 0.0 for layer in LAYERS}
    for span_id, _, layer, start, end, _, _ in spans:
        out[layer] += (end - start) - child_time.get(span_id, 0.0)
    return out


def root_time(spans: list) -> float:
    """Seconds covered by spans that have no parent."""
    return sum(end - start for _, _, _, start, end, parent, _ in spans if parent is None)
