"""Seeded workload definitions: config files and CLI calls for one pass.

Every workload starts from the package's own fig scenarios
(``scenarios.expand_scenario``) and changes only what the seed picks and what
keeps one pass near ten seconds on a 2-core machine.  The program receives
nothing but the generated config files and CLI arguments.
"""

import random

from doubleint import scenarios
from doubleint.sweep import default_grid

WORKLOADS = ("sweep_fig1", "simulate_long", "simulate_write")

# Quarters of default_grid() from which sweep_fig1 takes one frequency each.
GRID_QUARTERS = 4
# simulate_long shortens fig4/fig6 from 2000 s so one pass stays near 10 s.
LONG_DURATION_S = 500.0
# simulate_write lengthens fig3/fig5 to 60 s at record_stride 1: 60001 rows each.
WRITE_DURATION_S = 60.0
# Seeded initial states lie within this distance of the scenarios' (0, 1, 0).
X0_SPREAD = 0.1


def steps_of(sim: dict) -> int:
    """Integrator steps of one simulate run, as solver.simulate counts them."""
    return max(1, round(sim["duration"] / sim["step_h"]))


def rows_of(sim: dict) -> int:
    """Recorded trajectory rows of one simulate run (t = 0 included)."""
    return steps_of(sim) // sim["record_stride"] + 1


def _seeded_x0(rng: random.Random) -> list[float]:
    return [round(c + rng.uniform(-X0_SPREAD, X0_SPREAD), 6) for c in (0.0, 1.0, 0.0)]


def _retimed(name: str, duration: float, x0: list[float]) -> dict:
    """A simulate scenario with a new duration (windows scaled with it) and x0."""
    cfg = scenarios.expand_scenario(name)
    sim = cfg["sim"]
    scale = duration / sim["duration"]
    sim["metrics_windows"] = [[lo * scale, hi * scale] for lo, hi in sim["metrics_windows"]]
    sim["duration"] = duration
    sim["initial_state"] = x0
    return cfg


def _pick_freqs(rng: random.Random) -> list[float]:
    grid = default_grid()
    size = len(grid) // GRID_QUARTERS
    return [grid[rng.randrange(q * size, (q + 1) * size)] for q in range(GRID_QUARTERS)]


def _sweep_fig1(rng: random.Random) -> dict:
    freqs = _pick_freqs(rng)
    nonlinear = scenarios.expand_scenario("fig1")
    linear = scenarios.expand_scenario("fig1")
    nonlinear["sweep"]["variants"] = [
        v for v in nonlinear["sweep"]["variants"] if v["mode"] == "nonlinear"]
    linear["sweep"]["variants"] = [
        v for v in linear["sweep"]["variants"] if v["mode"] == "linear"]
    # steady-state start gives the linear rows an exact oracle; zero-init rows
    # sit ~1.3 dB high over a 50 s window, a property of the window
    linear["sweep"]["init_state"] = "steady_state"
    for cfg in (nonlinear, linear):
        cfg["sweep"]["freqs_hz"] = freqs
    check_variant = rng.randrange(len(nonlinear["sweep"]["variants"]))
    check_freq = rng.randrange(len(freqs))
    return {
        "configs": {"sweep_nonlinear": nonlinear, "sweep_linear": linear},
        "calls": [
            {"name": "sweep_nonlinear", "argv": ["sweep", "--threads", "1"]},
            {"name": "sweep_linear", "argv": ["sweep", "--threads", "1"]},
        ],
        "nonlinear_check": {"variant": check_variant, "freq_index": check_freq},
    }


def _simulate(pairs: list[tuple[str, str]], duration: float, formats: tuple[str, ...],
              rng: random.Random) -> dict:
    configs = {name: _retimed(scenario, duration, _seeded_x0(rng)) for name, scenario in pairs}
    calls = [
        {"name": f"{name}_{fmt}", "config": name, "argv": ["simulate", "--format", fmt]}
        for name, _ in pairs for fmt in formats
    ]
    return {"configs": configs, "calls": calls}


def generate(workload: str, seed: int) -> dict:
    """Configs and CLI calls of one workload pass; the seed alone fixes them.

    Returns ``configs`` (name -> config dict), ``calls`` (each a name, the
    config it reads, and CLI arguments without --config/--out) and, for
    sweep_fig1, the seeded nonlinear point the correctness gate recomputes.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep_fig1":
        spec = _sweep_fig1(rng)
    elif workload == "simulate_long":
        spec = _simulate([("fig4_nonlinear", "fig4"), ("fig6_linear", "fig6")],
                         LONG_DURATION_S, ("csv",), rng)
    elif workload == "simulate_write":
        spec = _simulate([("fig3_nonlinear", "fig3"), ("fig5_linear", "fig5")],
                         WRITE_DURATION_S, ("csv", "json"), rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    for call in spec["calls"]:
        call.setdefault("config", call["name"])
    return spec


def call_counts(spec: dict, call: dict) -> dict:
    """Lanes, integrator steps and output rows of one CLI call of a pass.

    A lane is one integration: a (variant, frequency) point of a sweep or one
    simulate call.  Rows are Bode rows (sweep and analytic) or trajectory rows.
    """
    cfg = spec["configs"][call["config"]]
    if call["argv"][0] != "sweep":
        return {"lanes": 1, "steps": steps_of(cfg["sim"]), "rows": rows_of(cfg["sim"])}
    sw = cfg["sweep"]
    points = len(sw["freqs_hz"])
    out = {"lanes": 0, "steps": 0, "rows": 0}
    for variant in sw["variants"]:
        out["lanes"] += points
        out["steps"] += points * sw["samples"]
        # linear variants also get their analytic_* curve written
        curves = 2 if variant.get("mode", cfg["params"]["mode"]) == "linear" else 1
        out["rows"] += curves * points * len(sw["channels"])
    return out


def work_counts(spec: dict) -> dict:
    """Lanes, integrator steps and output rows of one whole pass."""
    total = {"lanes": 0, "steps": 0, "rows": 0}
    for call in spec["calls"]:
        for key, n in call_counts(spec, call).items():
            total[key] += n
    return total
