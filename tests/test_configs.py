"""Every config object refuses a field out of range with ConfigError, and only with it.

The config objects are ObserverParams, SignalSpec, NoiseTerm, SimConfig and
SweepConfig; each checks its own fields when built, and the CLI labels a
refusal with the field's config path by catching ConfigError alone.
"""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleint import ConfigError, NoiseTerm, ObserverParams, SignalSpec, SimConfig, SweepConfig
from doubleint.observers import MODES
from doubleint.signals import KINDS, PHASE_KINDS, REFERENCE_NOISE
from doubleint.solver import METHODS
from doubleint.sweep import INIT_KINDS

EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e308, -1e308)
# Python ints too large for a float, which a library caller may pass: 2**1024 is the
# smallest power of two that float() refuses
HUGE = 10**400
HUGE_INTS = (HUGE, -HUGE, 2**1024)
numbers = st.one_of(st.sampled_from(EDGE_FLOATS), st.sampled_from(HUGE_INTS), st.floats())
integers = st.one_of(st.sampled_from((0, -1, 1, 3, 2**63, 10**30)), st.integers())
# an integer field given a float, as a library caller may
counts = st.one_of(integers, numbers)


def tuples(items):
    """Tuples of 0 to 4 items: the right length for a field and wrong ones."""
    return st.lists(items, max_size=4).map(tuple)


def words(valid):
    return st.sampled_from((*valid, "saw", ""))


# a run's step and length: any float, or one from a moderate range, where runs
# are valid more often (SimConfig checks windows without building their grid)
sim_step = st.one_of(numbers, st.floats(1e-4, 10.0))
sim_duration = st.one_of(numbers, st.floats(0.0, 100.0))

CONFIGS = {
    "ObserverParams": st.builds(ObserverParams, numbers, numbers, numbers, numbers, numbers,
                                words(MODES)),
    "NoiseTerm": st.builds(NoiseTerm, numbers, numbers, words(PHASE_KINDS)),
    "SignalSpec": st.builds(SignalSpec, words(KINDS), numbers, numbers,
                            tuples(st.sampled_from(REFERENCE_NOISE))),
    "SimConfig": st.builds(SimConfig, sim_step, sim_duration, tuples(numbers), words(METHODS),
                           counts, tuples(tuples(numbers))),
    "SweepConfig": st.builds(SweepConfig, tuples(numbers), numbers, numbers, counts, numbers,
                             tuples(counts), words(METHODS), words(INIT_KINDS)),
}


@pytest.mark.parametrize("name", list(CONFIGS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_builds_or_raises_config_error(name, data):
    try:
        data.draw(CONFIGS[name])
    except ConfigError:
        pass


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: ObserverParams(0.1, 0.1, 1.0, 0.2, 1.0, "quadratic"),
                 f"mode must be one of {MODES}, got 'quadratic'", id="params.mode"),
    pytest.param(lambda: SignalSpec("saw"), f"kind must be one of {KINDS}, got 'saw'",
                 id="signal.kind"),
    pytest.param(lambda: SignalSpec("sinusoid", -1.0), "amplitude must be >= 0, got -1.0",
                 id="signal.amplitude"),
    pytest.param(lambda: SignalSpec("sinusoid", 1.0, -2.0),
                 "omega must be finite and >= 0, got -2.0", id="signal.omega"),
    pytest.param(lambda: NoiseTerm(0.1, 1.0, "square"),
                 f"phase must be one of {PHASE_KINDS}, got 'square'", id="noise.phase"),
    pytest.param(lambda: NoiseTerm(-0.1, 1.0), "amp must be >= 0, got -0.1", id="noise.amp"),
    pytest.param(lambda: NoiseTerm(0.1, math.inf), "omega must be finite and >= 0, got inf",
                 id="noise.omega"),
])
def test_refusal_is_a_config_error_with_its_message(build, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: ObserverParams(HUGE, 0.1, 1.0, 0.2), "k1", id="params.k1"),
    pytest.param(lambda: ObserverParams(0.1, 0.1, 1.0, 0.2, HUGE), "alpha3", id="params.alpha3"),
    pytest.param(lambda: ObserverParams.from_rate(0.1, 0.1, 1.0, HUGE), "R", id="params.R"),
    pytest.param(lambda: SignalSpec("sinusoid", HUGE), "amplitude", id="signal.amplitude"),
    pytest.param(lambda: SignalSpec("sinusoid", 1.0, HUGE), "omega", id="signal.omega"),
    pytest.param(lambda: NoiseTerm(HUGE, 1.0), "amp", id="noise.amp"),
    pytest.param(lambda: SimConfig(HUGE, 1.0), "step_h", id="sim.step_h"),
    pytest.param(lambda: SimConfig(0.001, 1.0, (HUGE, 0, 0)), "initial_state",
                 id="sim.initial_state"),
    pytest.param(lambda: SimConfig(0.001, 1.0, metrics_windows=((0.0, HUGE),)),
                 "metrics_windows", id="sim.metrics_windows"),
    pytest.param(lambda: SweepConfig(freqs_hz=(HUGE,)), "freqs_hz", id="sweep.freqs_hz"),
    pytest.param(lambda: SweepConfig(amplitude=HUGE), "amplitude", id="sweep.amplitude"),
    pytest.param(lambda: SweepConfig(step_h=HUGE), "step_h", id="sweep.step_h"),
])
def test_int_too_large_for_a_float_is_refused_by_field(build, field):
    # float() of such an int raises OverflowError; the field is refused like any other
    with pytest.raises(ConfigError, match=f"^{field} is too large for a float$"):
        build()
