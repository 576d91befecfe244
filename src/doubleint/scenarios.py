"""Canned reproduction scenarios, expanded to explicit run configurations.

Each scenario is pure config expansion: running ``reproduce <name>`` is
byte-identical to running the equivalent explicit config file.

  fig1   sweep, 9 curves: alpha3 in {0.3, 0.5, 1} x R in {3, 4, 5}, A_m = 1
  fig2   sweep, 3 curves: A_m in {5, 1, 0.5}, alpha3 = 0.3, R = 3
  fig3   simulate 20 s, nonlinear alpha3 = 0.3, R = 5, noisy reference input
  fig4   simulate 2000 s, same observer as fig3
  fig5   simulate 20 s, linear (alpha3 = 1), same gains and input
  fig6   simulate 2000 s, linear

All scenarios share the gains k = (0.1, 0.1, 1) and, for simulations, the
initial state (0, 1, 0).  Note the onefold-integral truth at t = 0 is
0.1*3.14 = 0.314, so the simulations start with e2(0) = 0.686.
"""

from dataclasses import asdict

from .errors import ConfigError
from .signals import REFERENCE_NOISE

_GAINS = {"k1": 0.1, "k2": 0.1, "k3": 1.0}

_NOISE = [asdict(term) for term in REFERENCE_NOISE]


def _simulate_scenario(alpha3: float, mode: str, duration: float, stride: int) -> dict:
    return {
        "command": "simulate",
        "params": {**_GAINS, "R": 5.0, "alpha3": alpha3, "mode": mode},
        "signal": {"kind": "paper_reference", "noise": list(_NOISE)},
        "sim": {
            "step_h": 0.001,
            "duration": duration,
            "initial_state": [0.0, 1.0, 0.0],
            "method": "rk4",
            "record_stride": stride,
            "metrics_windows": [[0.0, duration], [0.5 * duration, 0.6 * duration],
                                [0.9 * duration, duration]],
        },
        "format": "csv",
    }


def _sweep_scenario(variants: list[dict]) -> dict:
    return {
        "command": "sweep",
        "params": {**_GAINS, "R": 5.0, "alpha3": 0.3, "mode": "nonlinear"},
        "sweep": {
            "amplitude": 1.0,
            "step_h": 0.001,
            "samples": 50000,
            "discard_fraction": 0.0,
            "channels": [1, 2, 3],
            "init_state": "zero",
            "variants": variants,
        },
        "format": "csv",
    }


def _fig1_variants() -> list[dict]:
    out = []
    for alpha3 in (0.3, 0.5, 1.0):
        for rate in (3.0, 4.0, 5.0):
            mode = "linear" if alpha3 == 1.0 else "nonlinear"
            out.append({"alpha3": alpha3, "R": rate, "mode": mode})
    return out


SCENARIO_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")


def expand_scenario(name: str) -> dict:
    """Full explicit run configuration for a scenario name."""
    if name == "fig1":
        return _sweep_scenario(_fig1_variants())
    if name == "fig2":
        cfg = _sweep_scenario(
            [{"amplitude": 5.0}, {"amplitude": 1.0}, {"amplitude": 0.5}]
        )
        cfg["params"].update({"R": 3.0, "alpha3": 0.3, "mode": "nonlinear"})
        return cfg
    if name == "fig3":
        return _simulate_scenario(0.3, "nonlinear", 20.0, 1)
    if name == "fig4":
        return _simulate_scenario(0.3, "nonlinear", 2000.0, 100)
    if name == "fig5":
        return _simulate_scenario(1.0, "linear", 20.0, 1)
    if name == "fig6":
        return _simulate_scenario(1.0, "linear", 2000.0, 100)
    raise ConfigError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
