"""Every config object refuses a field mistyped or out of range with ConfigError, and only it.

The config objects are ObserverParams, SignalSpec, NoiseTerm, SimConfig and
SweepConfig; each checks its own fields when built, and the CLI labels a
refusal with the field's config path by catching ConfigError alone.  A config
that builds holds every field as its annotated type.
"""

import dataclasses
import math
import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleint import (ConfigError, NoiseTerm, ObserverParams, ObserverState, SignalSpec,
                       SimConfig, SweepConfig, validate_params)
from doubleint.observers import MODES
from doubleint.signals import KINDS, PHASE_KINDS, REFERENCE_NOISE
from doubleint.solver import METHODS
from doubleint.sweep import INIT_KINDS

EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e308, -1e308)
# Python ints too large for a float, which a library caller may pass: 2**1024 is the
# smallest power of two that float() refuses
HUGE = 10**400
HUGE_INTS = (HUGE, -HUGE, 2**1024)
# values of no field's type, or of the wrong one: a JSON config can give each of them
junk = st.one_of(st.text(max_size=5), st.booleans(), st.none(),
                 st.lists(st.one_of(st.floats(), st.text(max_size=2)), max_size=3),
                 st.dictionaries(st.text(max_size=3), st.floats(), max_size=2))
numbers = st.one_of(st.sampled_from(EDGE_FLOATS), st.sampled_from(HUGE_INTS), st.floats(), junk)
integers = st.one_of(st.sampled_from((0, -1, 1, 3, 2**63, 10**30)), st.integers(), junk)
# an integer field given a float, as a library caller may
counts = st.one_of(integers, numbers)


def tuples(items):
    """Tuples or lists of 0 to 4 items, the right length for a field and wrong ones, or junk."""
    return st.one_of(st.lists(items, max_size=4).map(tuple), st.lists(items, max_size=4), junk)


def words(valid):
    return st.one_of(st.sampled_from((*valid, "saw", "")), junk)


# a run's step and length: any float, or one from a moderate range, where runs
# are valid more often (SimConfig checks windows without building their grid)
sim_step = st.one_of(numbers, st.floats(1e-4, 10.0))
sim_duration = st.one_of(numbers, st.floats(0.0, 100.0))

CONFIGS = {
    "ObserverParams": st.builds(ObserverParams, numbers, numbers, numbers, numbers, numbers,
                                words(MODES)),
    "NoiseTerm": st.builds(NoiseTerm, numbers, numbers, words(PHASE_KINDS)),
    "SignalSpec": st.builds(SignalSpec, words(KINDS), numbers, numbers,
                            tuples(st.one_of(st.sampled_from(REFERENCE_NOISE), junk))),
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


def has_type(value, tp) -> bool:
    """Whether value is exactly of annotation tp's runtime type, its items and fields too."""
    if typing.get_origin(tp) is tuple:
        items = typing.get_args(tp)
        if type(value) is not tuple:
            return False
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        return len(value) == len(items) and all(map(has_type, value, items))
    if type(value) is not tp:
        return False
    if dataclasses.is_dataclass(tp):
        return all(has_type(getattr(value, f.name), f.type) for f in dataclasses.fields(tp))
    if hasattr(tp, "_fields"):
        return all(map(has_type, value, tp.__annotations__.values()))
    return True


@pytest.mark.parametrize("name", list(CONFIGS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_that_builds_is_hashable_and_holds_its_annotated_types(name, data):
    try:
        config = data.draw(CONFIGS[name])
    except ConfigError:
        return
    hash(config)
    assert has_type(config, type(config)), config
    if name == "ObserverParams":
        # documented as never raising, for every params object that exists
        validate_params(config)


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
    pytest.param(lambda: SimConfig(0.001, 1.0, (HUGE, 0, 0)), "initial_state[0]",
                 id="sim.initial_state"),
    pytest.param(lambda: SimConfig(0.001, 1.0, metrics_windows=((0.0, HUGE),)),
                 "metrics_windows[0][1]", id="sim.metrics_windows"),
    pytest.param(lambda: SweepConfig(freqs_hz=(HUGE,)), "freqs_hz[0]", id="sweep.freqs_hz"),
    pytest.param(lambda: SweepConfig(amplitude=HUGE), "amplitude", id="sweep.amplitude"),
    pytest.param(lambda: SweepConfig(step_h=HUGE), "step_h", id="sweep.step_h"),
])
def test_int_too_large_for_a_float_is_refused_by_field(build, field):
    # float() of such an int raises OverflowError; the field is refused like any other
    with pytest.raises(ConfigError, match=f"^{re.escape(field)} is too large for a float$"):
        build()


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: SimConfig("0.001", 1.0), 'step_h: expected a number, got "0.001"',
                 id="sim.step_h=str"),
    pytest.param(lambda: SweepConfig(amplitude="1"), 'amplitude: expected a number, got "1"',
                 id="sweep.amplitude=str"),
    pytest.param(lambda: SignalSpec("sinusoid", "1"), 'amplitude: expected a number, got "1"',
                 id="signal.amplitude=str"),
    pytest.param(lambda: NoiseTerm("0.1", 1.0), 'amp: expected a number, got "0.1"',
                 id="noise.amp=str"),
    pytest.param(lambda: ObserverParams("0.1", 0.1, 1.0, 0.2), 'k1: expected a number, got "0.1"',
                 id="params.k1=str"),
    pytest.param(lambda: SimConfig(record_stride=True),
                 "record_stride: expected an integer, got true", id="sim.record_stride=bool"),
    pytest.param(lambda: SweepConfig(samples=True), "samples: expected an integer, got true",
                 id="sweep.samples=bool"),
    pytest.param(lambda: SweepConfig(channels=(True,)),
                 "channels[0]: expected an integer, got true", id="sweep.channels=bool"),
    pytest.param(lambda: ObserverParams(True, 0.1, 1.0, 0.2), "k1: expected a number, got true",
                 id="params.k1=bool"),
    pytest.param(lambda: SignalSpec(noise=((0.1, 1.0),)),
                 "noise[0]: expected an object, got [0.1, 1.0]", id="signal.noise=tuple"),
    pytest.param(lambda: SimConfig(method=None), "method: expected a string, got null",
                 id="sim.method=None"),
    pytest.param(lambda: ObserverParams.from_rate(0.1, 0.1, 1.0, "5"),
                 'R: expected a number, got "5"', id="params.R=str"),
    # an int past the interpreter's digit limit has no JSON or repr to show
    pytest.param(lambda: SimConfig(0.001, 1.0, 10**5000),
                 "initial_state: expected a list, got an int of too many digits",
                 id="sim.initial_state=long_int"),
])
def test_wrong_type_is_refused_by_field(build, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build()


def test_fields_are_stored_as_their_annotated_types():
    sweep = SweepConfig(freqs_hz=[1, 2.5], amplitude=1, samples=100.0, channels=[1.0, 3])
    assert (sweep.freqs_hz, sweep.amplitude, sweep.samples, sweep.channels) == (
        (1.0, 2.5), 1.0, 100, (1, 3))
    assert has_type(sweep, SweepConfig)
    hash(sweep)
    sim = SimConfig(1, 20, [0, 1, 0], record_stride=2.0, metrics_windows=[[0, 1]])
    assert sim.initial_state == ObserverState(0.0, 1.0, 0.0)
    assert has_type(sim, SimConfig)
    assert has_type(ObserverParams(1, 1, 1, 0.5, 1), ObserverParams)


def test_numpy_scalars_build_as_python_numbers():
    sim = SimConfig(np.float64(0.001), np.float32(1.0), record_stride=np.int64(2))
    assert has_type(sim, SimConfig)
    assert sim == SimConfig(0.001, 1.0, record_stride=2)
