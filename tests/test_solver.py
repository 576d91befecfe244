import contextlib
import io
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from doubleint import (
    ConfigError,
    DivergedState,
    DomainError,
    InvalidParams,
    ObserverParams,
    ObserverState,
    SignalSpec,
    SimConfig,
    SweepConfig,
    Trajectory,
    UnsupportedTruth,
    rhs,
    settle_time,
    simulate,
    step,
    solver,
    trajectory_metrics,
    validate_params,
)
from doubleint import cli, native, sweep
from doubleint import io as writers
from doubleint.signals import NoiseTerm, make_input_fn, paper_reference_spec, truth_arrays
from doubleint.sweep import _frequency_sim


def zero_spec():
    return SignalSpec("sinusoid", 0.0, 1.0)


def test_zero_signal_zero_state_stays_at_origin(lin_params):
    traj = simulate(lin_params, zero_spec(), SimConfig(0.001, 1.0))
    assert np.all(traj.states == 0.0)
    assert np.all(traj.inputs == 0.0)
    assert np.all(traj.errors == 0.0)


def test_euler_step_example(lin_params):
    # derivative at (1,1,1) with a=0 is (1, 1, -640)
    out = step(lin_params, ObserverState(1.0, 1.0, 1.0), 0.0, 0.001, lambda t: 0.0, "euler")
    assert out.x1 == pytest.approx(1.001, rel=1e-12)
    assert out.x2 == pytest.approx(1.001, rel=1e-12)
    assert out.x3 == pytest.approx(0.36, rel=1e-9)


def test_rk4_step_matches_matrix_exponential():
    # autonomous linear observer: one RK4 step vs expm to O(h^5)
    p = ObserverParams(0.1, 0.1, 1.0, 1.0 / 3.0, 1.0, "linear")
    eps = p.epsilon
    A = np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [-p.k1 / eps**3, -p.k2 / eps**2, -p.k3 / eps**4],
        ]
    )
    x0 = np.array([0.4, -1.2, 2.0])
    h = 0.001
    exact = expm(A * h) @ x0
    got = step(p, ObserverState(*x0), 0.0, h, lambda t: 0.0, "rk4")
    # h*|lambda_max| ~ 0.081, so the local error sits near (h L)^5/120 ~ 3e-8
    assert np.linalg.norm(np.array(got) - exact) < 1e-7
    coarse = step(p, ObserverState(*x0), 0.0, 2 * h, lambda t: 0.0, "rk4")
    exact2 = expm(A * 2 * h) @ x0
    ratio = np.linalg.norm(np.array(coarse) - exact2) / np.linalg.norm(np.array(got) - exact)
    assert 16.0 < ratio < 64.0  # local truncation order h^5


def kernels(which: str) -> dict:
    """The nonlinear chunk functions by method: "python", the template rendered to Python, or
    "c", the C rendering, which must build wherever cc is on PATH."""
    if which == "python":
        return solver._KERNELS
    if shutil.which("cc") is None:
        pytest.skip("no C compiler cc on PATH")
    built = solver._c_kernels()
    assert built is not None, "cc is on PATH, yet the C kernels did not build"
    return built


def kernel_runs(which: str):
    """A context in which orbit, and so simulate, steps through the chunk functions of which
    (kernels)."""
    chunks = kernels(which)
    return mock.patch.object(solver, "_c_kernels", lambda: chunks)


# each case once per kernel, the C kernel's id ending in -c
def each_kernel(cases: list[tuple]) -> list:
    return [pytest.param(*case, which, id="-".join(map(str, case)) + ("-c" if which == "c" else ""))
            for which in ("python", "c") for case in cases]


NOISY_STEPS = 2 * solver.CHUNK + 37


@pytest.mark.parametrize("method, which", each_kernel([("rk4",), ("euler",)]))
@pytest.mark.parametrize("mode,alpha3", [("nonlinear", 0.3)])
@pytest.mark.parametrize("spec, n, strides", [
    (paper_reference_spec(with_noise=True), NOISY_STEPS,
     (1, 7, solver.CHUNK, solver.CHUNK + 3, NOISY_STEPS)),
    (SignalSpec("composite", 0.7, 3.0, (NoiseTerm(0.2, 20.0, "cosine"),
                                        NoiseTerm(0.05, 200.0, "sine"))),
     4 * solver.CHUNK + 37, (1, 7))], ids=["noisy", "composite"])
def test_kernels_match_public_step(method, which, mode, alpha3, spec, n, strides):
    # the nonlinear kernels, and simulate(), must agree bit for bit with step()/rhs();
    # linear runs are closed form, checked against step() in test_oracle.py.  The noisy run
    # crosses two chunk edges, and stride CHUNK + 3 records across each of them; at stride
    # CHUNK the last chunk starts after the last record and writes no row, and stride n
    # records the last step alone.  The composite run reaches the second in-place chunk and
    # the worker's chunk after it
    p = ObserverParams(0.1, 0.1, 1.0, 0.2, alpha3, mode)
    h = 0.001
    a_fn = make_input_fn(spec)
    for x0 in ((0.0, 1.0, 0.0), (0.0, -0.0, 0.0)):
        stepped = [ObserverState(*x0)]
        for i in range(n):
            stepped.append(step(p, stepped[-1], i * h, h, a_fn, method))
        for stride in strides:
            expected = np.array(stepped[::stride])
            cfg = SimConfig(h, n * h, ObserverState(*x0), method, stride)
            with kernel_runs(which):
                out = solver.orbit(p, cfg, solver.signal_inputs(spec, h, method))
                states = simulate(p, spec, cfg).states
            assert np.array_equal(out.view(np.int64), expected.view(np.int64)), (x0, stride)
            assert np.array_equal(states.view(np.int64), expected.view(np.int64)), (x0, stride)


# alpha3 = 0.999, whose step is close to the linear observer's, at a step the nonlinear guard
# accepts and the linear one would refuse (at alpha3 = 1 the guard refuses it): step() raises
# at step 39.  With Euler at rate 0.003 it raises after 9 483 steps, and orbit at stride 7 in
# its third chunk, at the record of step 9 485
DIVERGING = dict(k1=2.0, k3=0.03125, eps=0.875, alpha3=0.999, margin=2.0, rate=1.5,
                 x0=(0.0, 3.0, 0.0), amplitude=0.0, omega=0.0, method="rk4")


@settings(max_examples=200, deadline=None)
@given(k1=st.floats(0.01, 100.0), k3=st.floats(0.01, 100.0), eps=st.floats(0.05, 0.99),
       alpha3=st.floats(0.05, 1.0), margin=st.floats(1.001, 100.0), rate=st.floats(1e-3, 1.9),
       x0=st.tuples(*[st.floats(-10.0, 10.0)] * 3), amplitude=st.floats(0.0, 10.0),
       omega=st.floats(0.0, 100.0), method=st.sampled_from(solver.METHODS),
       n=st.integers(1, 300), stride=st.integers(1, 300))
@example(**DIVERGING, n=40, stride=1)
@example(**DIVERGING, n=40, stride=7)
@example(**DIVERGING, n=40, stride=30)
@example(**{**DIVERGING, "rate": 0.003, "method": "euler"}, n=10000, stride=7)
def test_orbit_is_a_loop_of_step_in_either_kernel(k1, k3, eps, alpha3, margin, rate, x0,
                                                   amplitude, omega, method, n, stride):
    # valid nonlinear params at a step the guard accepts, from any start state and at any
    # stride: orbit's states, through the C kernel and through the Python one, are every
    # stride-th state of a loop of step(), bit for bit
    p = ObserverParams(k1, 1.0, k3, eps, alpha3)
    p = replace(p, k2=margin * p.gain_threshold())
    assert validate_params(p).ok
    h = rate * eps**4 / k3
    cfg = SimConfig(h, n * h, ObserverState(*x0), method, min(stride, n))
    try:
        solver.check_config(p, cfg)
    except ConfigError:
        # at alpha3 = 1 the guard also holds the step to the linear step map's rho(M) < 1
        assume(False)
    spec = SignalSpec("sinusoid", amplitude, omega)
    a_fn = make_input_fn(spec)
    stepped = [cfg.initial_state]
    with contextlib.suppress(DivergedState):
        while len(stepped) <= cfg.steps:
            stepped.append(step(p, stepped[-1], (len(stepped) - 1) * h, h, a_fn, method))
    # the guard is a heuristic, so some of these runs diverge: a non-finite state stays so,
    # and orbit raises at the first recorded row at or past the step where step() raised
    late = [k for k in range(0, cfg.steps + 1, cfg.record_stride) if k >= len(stepped)]
    inputs = solver.signal_inputs(spec, h, method)
    for c_kernels in (solver._c_kernels, lambda: None):
        # the C kernel wherever cc builds it, then the Python one
        with mock.patch.object(solver, "_c_kernels", c_kernels):
            if late:
                with pytest.raises(DivergedState) as err:
                    solver.orbit(p, cfg, inputs)
                assert err.value.time == late[0] * h
            else:
                expected = np.array(stepped[::cfg.record_stride])
                assert _bits(solver.orbit(p, cfg, inputs)) == _bits(expected)


@pytest.mark.parametrize("method, stride, steps, which", each_kernel(
    [("rk4", 1, 1), ("rk4", 7, 7), ("euler", 1, 2), ("euler", 7, 7)]))
def test_nonlinear_divergence_stops_at_the_first_nonfinite_record(method, stride, steps, which,
                                                                  first_chunk):
    # a(0) = inf * sin(0) is nan, which power_sign maps to 0, and a(t > 0) is inf: RK4's
    # state is non-finite after one step, Euler's x3 alone after two.  The run stops at
    # the first recorded row that is not finite, that of step `steps`
    p = ObserverParams(0.1, 0.1, 1.0, 0.2, 0.3, "nonlinear")
    h, n = 0.001, 1000
    spec = SignalSpec("sinusoid", math.inf, 1.0)
    cfg = SimConfig(h, n * h, ObserverState(0.0, 1.0, 0.0), method, stride)
    with kernel_runs(which), pytest.raises(DivergedState) as err:
        simulate(p, spec, cfg)
    assert err.value.time == steps * h
    # the chunk function records nothing after the raising row: no later step reaches a record
    time, out = first_chunk(kernels(which)[method], p, cfg.initial_state,
                            solver.signal_inputs(spec, h, method), h, n, stride)
    assert time == steps * h
    row = steps // stride
    assert not np.isfinite(out[row]).all()
    assert np.all(out[row + 1:] == 7.25)


# a(t) = inf * sin(5e-324 * t), nan at every step up to t = 0.5, where 5e-324 * t rounds to 0;
# inf * sin(t), nan at t = 0 and +-inf after
NAN_INPUT = SignalSpec("sinusoid", math.inf, 5e-324)
INF_INPUT = SignalSpec("sinusoid", math.inf, 1.0)
TINY = 5e-324


@pytest.mark.parametrize("method", solver.METHODS)
@pytest.mark.parametrize("alpha3", [0.3, 1.0])
@pytest.mark.parametrize("spec", [NAN_INPUT, INF_INPUT, paper_reference_spec()],
                         ids=["nan_input", "inf_input", "noisy_reference"])
@pytest.mark.parametrize("x0", [(0.0, -0.0, 0.0), (-0.0, -0.0, -0.0), (TINY, -TINY, 1e-310),
                                (-2.2250738585072014e-308, 1e-320, -TINY)],
                         ids=["zeros", "negative_zeros", "subnormals", "subnormals_2"])
def test_c_kernel_is_the_python_kernel_on_special_inputs(method, alpha3, spec, x0, first_chunk):
    # nan inputs take power_sign's 0.0 branch and keep the state finite; inf inputs take
    # its pow branches to inf, and the state passes through inf and nan between records;
    # +-0 and subnormal states start it.  Each recorded row, the non-finite one included,
    # has the same bits, and so has the raise; a NaN only compares as a NaN, since its sign is
    # the compiler's choice and no output shows it
    p = ObserverParams(0.1, 0.1, 1.0, 0.2, alpha3, "nonlinear")
    h, n = 0.001, 300
    runs = []
    for which in ("c", "python"):
        for stride in (1, 50):
            raised, out = first_chunk(kernels(which)[method], p, x0,
                                      solver.signal_inputs(spec, h, method), h, n, stride)
            runs.append((raised, _bits(out)))
    assert runs[:2] == runs[2:]
    assert (runs[0][0] is None) == (spec is not INF_INPUT)
    if spec.kind == "paper_reference":
        # step() refuses a non-finite input; on finite ones it takes the same bits
        a_fn = make_input_fn(spec)
        stepped = [ObserverState(*x0)]
        for i in range(n):
            stepped.append(step(p, stepped[-1], i * h, h, a_fn, method))
        assert runs[0][1] == _bits(np.array(stepped))


@pytest.mark.parametrize("which", ["python", "c"])
@pytest.mark.parametrize("h", [0.3, 7e-4])
def test_rk4_inputs_at_t_plus_h_are_step_s_on_and_off_the_grid(which, h):
    # a(t + h) comes from a(t) at the next step time wherever t + h rounds to it, and is
    # evaluated where it does not (solver.step_inputs); both input sources, signal_inputs
    # and a sweep's scaled unit sine, must give the states step() gives, across chunk
    # edges.  At these steps t + h misses the grid on many steps (counted below)
    p = ObserverParams(0.1, 0.1, 1.0, 1.0, 0.3, "nonlinear")
    n = solver.CHUNK + 517
    t = np.arange(n + 1) * h
    assert 0.1 < np.mean(t[:-1] + h != t[1:]) < 0.9
    sine = SignalSpec("sinusoid", 2.0, 2.0 * math.pi * 0.37)
    cfg = SimConfig(h, n * h, ObserverState(0.0, 1.0, 0.0))
    noisy = paper_reference_spec()
    unit_sine = sweep._unit_sine(sine.omega, cfg, 0)[0]
    for spec, inputs in ((noisy, solver.signal_inputs(noisy, h, "rk4")),
                         (sine, sweep._scaled(unit_sine, sine.amplitude))):
        a_fn = make_input_fn(spec)
        stepped = [cfg.initial_state]
        for i in range(n):
            stepped.append(step(p, stepped[-1], i * h, h, a_fn))
        for stride in (1, solver.CHUNK + 3):
            expected = np.array(stepped[::stride])
            with kernel_runs(which):
                out = solver.orbit(p, replace(cfg, record_stride=stride), inputs)
            assert _bits(out) == _bits(expected), (spec.kind, stride)


def test_orbit_from_a_drive_is_simulate_bit_for_bit(nl_params):
    # orbit from a sweep's drive, the unit sine of its frequency scaled by the amplitude,
    # gives the states simulate gives for the run's sinusoid, for any amplitude (infinite:
    # nan at t = 0, then inf), and diverges at the same time
    cfg = SimConfig(0.001, 7.0, ObserverState(0.0, 1.0, 0.0))
    omega = 2.0 * math.pi * 3.1
    unit_sine = sweep._unit_sine(omega, cfg, 0)[0]
    diverged = []
    for p in (nl_params, replace(nl_params, alpha3=1.0)):
        for amplitude in (1.0, 0.5, 2.0, 1e-6, math.inf):
            spec = SignalSpec("sinusoid", amplitude, omega)
            inputs = sweep._scaled(unit_sine, amplitude)
            try:
                expected = simulate(p, spec, cfg).states
            except DivergedState as exc:
                with pytest.raises(DivergedState) as err:
                    solver.orbit(p, cfg, inputs)
                assert err.value.time == exc.time
                diverged.append((p.mode, amplitude))
                continue
            assert _bits(solver.orbit(p, cfg, inputs)) == _bits(expected), (p.mode, amplitude)
    assert diverged == [("nonlinear", math.inf)] * 2


def simulate_runs(which: str):
    """A context in which simulate steps as with cc ("c": the C kernels, each chunk's head
    computed while the chunk before steps) or without it ("python": _c_kernels() is None, so
    the Python kernels, each chunk's inputs computed in place)."""
    if which == "c":
        return kernel_runs("c")
    return mock.patch.object(solver, "_c_kernels", lambda: None)


@contextlib.contextmanager
def spied_inputs(fail_at: int | None = None):
    """A context in which simulate's input source records, in the list it yields, each call's
    (lo, hi), whether it ran on the main thread and np.geterr()["under"] there, and releases
    the semaphore it yields as each call off the main thread ends.  The call at lo == fail_at
    raises RuntimeError."""
    calls, ended = [], threading.Semaphore(0)
    signal_inputs = solver.signal_inputs

    def spy(spec, h, method):
        inputs = signal_inputs(spec, h, method)

        def source(lo, hi):
            main = threading.current_thread() is threading.main_thread()
            calls.append((lo, hi, main, np.geterr()["under"]))
            try:
                if lo == fail_at:
                    raise RuntimeError(f"no inputs for steps {lo}..{hi - 1}")
                return inputs(lo, hi)
            finally:
                if not main:
                    ended.release()
        return source

    with mock.patch.object(solver, "signal_inputs", spy):
        yield calls, ended


def paced_runs(which: str, method: str, chunks: int, ended: threading.Semaphore):
    """simulate_runs(which), where with cc the C chunk function of method steps chunk k of a
    run of chunks only once a call off the main thread has ended for each chunk the worker
    was given up to k + AHEAD: the worker has then finished (or failed) every chunk submitted
    so far, as it does when its core is free."""
    if which == "python":
        return simulate_runs(which)
    chunk, count, waited = kernels("c")[method], itertools.count(), [0]
    given = [j for j in range(1, chunks) if j % solver.IN_PLACE]

    def paced(*args):
        k = next(count)
        due = sum(j <= k + solver.AHEAD for j in given)
        while waited[0] < due:
            assert ended.acquire(timeout=10.0)
            waited[0] += 1
        return chunk(*args)
    return mock.patch.object(solver, "_c_kernels", lambda: {method: paced})


@pytest.mark.parametrize("which", ["python", "c"])
@pytest.mark.parametrize("method", solver.METHODS)
def test_simulate_is_the_serial_orbit_bit_for_bit(method, which, nl_params, noisy_spec):
    # with cc simulate computes the inputs of the next chunks while the kernel steps one, and
    # a chunk's in place when the worker has not finished it; its states are those of orbit
    # reading the same source in place, for a run of one chunk, of exactly one, of one step
    # more and of several, at every stride
    h = 0.001
    for n in (1000, solver.CHUNK, solver.CHUNK + 1, 3 * solver.CHUNK + 17):
        for stride in (1, 7, 100):
            cfg = SimConfig(h, n * h, ObserverState(0.0, 1.0, 0.0), method, stride)
            with simulate_runs(which):
                states = simulate(nl_params, noisy_spec, cfg).states
                expected = solver.orbit(nl_params, cfg,
                                        solver.signal_inputs(noisy_spec, h, method))
            assert np.array_equal(states.view(np.int64), expected.view(np.int64)), (n, stride)


@pytest.mark.parametrize("which", ["python", "c"])
@pytest.mark.parametrize("n", [3 * solver.CHUNK + 17, 6 * solver.CHUNK, 6 * solver.CHUNK + 17,
                               7 * solver.CHUNK, 7 * solver.CHUNK + 17],
                         ids=["3C+17", "6C", "6C+17", "7C", "7C+17"])
def test_inputs_are_computed_ahead_off_the_main_thread_only_with_the_c_kernels(
        n, which, nl_params, noisy_spec):
    # with cc the inputs of every IN_PLACE-th chunk (the first included) are computed in place
    # and those of the rest on the worker thread, in the caller's np.errstate; without it,
    # where the Python kernel holds the GIL, every chunk's are computed in place.
    # Runs ending on a chunk edge and past one: no span past the run is computed.  The worker
    # computes chunk 4 before the caller computes chunk 3, so the calls are sorted by span.
    # No thread is left after the run
    h, c = 0.001, solver.CHUNK
    chunks = -(-n // c)
    cfg = SimConfig(h, n * h, ObserverState(0.0, 1.0, 0.0), "rk4", 7)
    threads = threading.active_count()
    with spied_inputs() as (calls, ended), paced_runs(which, "rk4", chunks, ended), \
            np.errstate(under="raise"):
        simulate(nl_params, noisy_spec, cfg)
    assert threading.active_count() == threads
    calls.sort()
    assert [(lo, hi) for lo, hi, _, _ in calls] == [(j * c, min(j * c + c, n))
                                                    for j in range(chunks)]
    on_main = [main for _, _, main, _ in calls]
    assert on_main == [which == "python" or j % solver.IN_PLACE == 0 for j in range(chunks)]
    assert [under for *_, under in calls] == ["raise"] * chunks
    # a run of one chunk has no next chunk to compute, and starts no thread
    with simulate_runs(which), spied_inputs() as (calls, _), \
            mock.patch.object(threading.Thread, "start", side_effect=AssertionError):
        simulate(nl_params, noisy_spec, replace(cfg, duration=c * h))
    assert [(lo, hi, main) for lo, hi, main, _ in calls] == [(0, c, True)]


def test_the_caller_never_waits_for_the_worker(nl_params, noisy_spec):
    # the worker is held on the second chunk until the kernel reaches the last: the caller
    # computes that chunk and the rest in place meanwhile, the chunks queued behind the held
    # one are cancelled unrun, and the states are the serial run's
    h, n, c = 0.001, 3 * solver.CHUNK + 17, solver.CHUNK
    cfg = SimConfig(h, n * h, ObserverState(0.0, 1.0, 0.0), "rk4", 7)
    calls, started, hold = [], threading.Event(), threading.Event()
    signal_inputs, chunk, count = solver.signal_inputs, kernels("c")["rk4"], itertools.count()

    def spy(spec, h, method):
        inputs = signal_inputs(spec, h, method)

        def source(lo, hi):
            calls.append((lo, hi, threading.current_thread() is threading.main_thread()))
            if not calls[-1][2]:
                started.set()
                assert hold.wait(10.0)
            return inputs(lo, hi)
        return source

    def held(*args):
        k = next(count)
        if k == 0:
            assert started.wait(10.0)
        if k == 3:
            hold.set()
        return chunk(*args)
    threads = threading.active_count()
    with mock.patch.object(solver, "signal_inputs", spy), \
            mock.patch.object(solver, "_c_kernels", lambda: {"rk4": held}):
        states = simulate(nl_params, noisy_spec, cfg).states
    assert threading.active_count() == threads
    assert calls == [(0, c, True), (c, 2 * c, False), (c, 2 * c, True), (2 * c, 3 * c, True),
                     (3 * c, n, True)]
    with kernel_runs("c"):
        expected = solver.orbit(nl_params, cfg, signal_inputs(noisy_spec, h, "rk4"))
    assert np.array_equal(states.view(np.int64), expected.view(np.int64))


def diverging_run(n: int) -> tuple[ObserverParams, SignalSpec, SimConfig]:
    """DIVERGING's late case as a simulate run of n steps: Euler at rate 0.003 on zero input
    from (0, 3, 0) at stride 7, whose record of step 9 485, in its third chunk, is the first
    that is not finite."""
    p = ObserverParams(DIVERGING["k1"], 1.0, DIVERGING["k3"], DIVERGING["eps"],
                       DIVERGING["alpha3"])
    p = replace(p, k2=DIVERGING["margin"] * p.gain_threshold())
    h = 0.003 * DIVERGING["eps"]**4 / DIVERGING["k3"]
    cfg = SimConfig(h, n * h, ObserverState(*DIVERGING["x0"]), "euler", 7)
    return p, SignalSpec("sinusoid", 0.0, 0.0), cfg


@pytest.mark.parametrize("which", ["python", "c"])
def test_simulate_raises_a_late_divergence_at_its_record(which):
    p, spec, cfg = diverging_run(10_000)
    threads = threading.active_count()
    with simulate_runs(which), pytest.raises(DivergedState) as err:
        simulate(p, spec, cfg)
    assert err.value.time == 9485 * cfg.step_h
    assert threading.active_count() == threads


@pytest.mark.parametrize("which", ["python", "c"])
def test_divergence_is_raised_before_the_next_chunks_failure(which):
    # the inputs of the fifth chunk, the first the worker is given after the diverging third,
    # fail.  With cc the worker raises RuntimeError on them while the kernel steps the third
    # chunk, which waits for it here, and the caller sees DivergedState as without cc, where
    # those inputs are never computed
    p, spec, cfg = diverging_run(5 * solver.CHUNK + 17)
    c = solver.CHUNK
    threads = threading.active_count()
    with spied_inputs(fail_at=4 * c) as (calls, ended), paced_runs(which, "euler", 6, ended):
        with pytest.raises(DivergedState) as err:
            simulate(p, spec, cfg)
    assert err.value.time == 9485 * cfg.step_h
    spans = [(lo, hi) for lo, hi, _, _ in calls]
    assert spans == ([(0, c), (c, 2 * c), (2 * c, 3 * c), (4 * c, 5 * c)] if which == "c" else
                     [(0, c), (c, 2 * c), (2 * c, 3 * c)])
    assert threading.active_count() == threads


def _bits(a: np.ndarray) -> tuple[list, list]:
    """Where a is NaN, and the bits of every other value."""
    nan = np.isnan(a)
    return nan.tolist(), np.where(nan, 0.0, a).view(np.int64).tolist()


def _reproduce_fig3(out, method: str) -> tuple[str, dict]:
    """stdout, with out replaced by OUT, and the output files of reproduce fig3."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert cli.main(["reproduce", "--scenario", "fig3", "--method", method,
                         "--out", str(out)]) == 0
    return (stdout.getvalue().replace(str(out), "OUT"),
            {f.name: f.read_bytes() for f in sorted(out.iterdir())})


def test_without_a_compiler_the_python_kernels_run_after_one_warning(
        tmp_path, capsys, monkeypatch, nl_params, noisy_spec):
    cfg = SimConfig(0.001, 2.0, ObserverState(0.0, 1.0, 0.0), "rk4", 7)
    runs = []
    for which in ("c", "python"):
        if which == "python":
            # the compiler lookup finds nothing, and no library is loaded yet
            monkeypatch.setattr(shutil, "which", lambda *args, **kwargs: None)
            monkeypatch.setattr(native, "_LOADED", {})
        capsys.readouterr()
        outputs = [_reproduce_fig3(tmp_path / f"{which}-{m}", m) for m in solver.METHODS]
        states = simulate(nl_params, noisy_spec, cfg).states
        runs.append((outputs, states.view(np.int64).tolist(), capsys.readouterr().err))
    (c_outputs, c_states, _), (outputs, states, err) = runs
    assert outputs == c_outputs
    assert states == c_states
    assert err.splitlines() == ["warning: the C kernels are unavailable (no C compiler cc on "
                                "PATH): nonlinear runs step in Python, 4-6x slower, and "
                                "trajectories are formatted in Python, to the same states and "
                                "bytes"]


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler cc on PATH")


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """The kernels' cache directory under an empty XDG_CACHE_HOME."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "doubleint"


@needs_cc
def test_c_library_is_cached_by_its_source(cache_dir, monkeypatch):
    source = solver._c_source()
    native._load_c_library(source)
    assert cache_dir.stat().st_mode & 0o777 == 0o700
    [so] = cache_dir.glob("*.so")
    assert so.with_suffix(".c").read_text() == source
    with monkeypatch.context() as mp:
        # a hit loads the stored library without running the compiler
        mp.setattr(subprocess, "run", lambda *args, **kwargs: pytest.fail("cc ran on a hit"))
        assert native._load_c_library(source).rk4_chunk
    changed = source + "/* changed */\n"
    assert native._load_c_library(changed).rk4_chunk
    assert len(list(cache_dir.glob("*.so"))) == 2
    assert sorted(c.read_text() for c in cache_dir.glob("*.c")) == sorted([source, changed])


@needs_cc
def test_c_source_compiles_without_warnings(tmp_path):
    # the kernels' library and the formatters'
    for name, text in (("kernels", solver._c_source()), ("formatters", writers._c_source())):
        source = tmp_path / f"{name}.c"
        source.write_text(text)
        proc = subprocess.run(["cc", "-Wall", "-Wextra", "-Werror", *native._C_FLAGS,
                               "-o", str(tmp_path / f"{name}.so"), str(source), "-lm"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, (name, proc.stderr)


@needs_cc
def test_c_library_whose_stored_source_differs_is_built_again(cache_dir):
    source = solver._c_source()
    native._load_c_library(source)
    [so] = cache_dir.glob("*.so")
    # a library under the key whose stored source is not the source asked for; written to
    # a new file, as the loaded one stays mapped
    so.with_suffix(".c").write_text(source.replace("pow(", "powf("))
    garbage = so.with_suffix(".tmp")
    garbage.write_bytes(b"not a library")
    os.replace(garbage, so)
    assert native._load_c_library(source).rk4_chunk
    assert so.with_suffix(".c").read_text() == source
    assert so.read_bytes() != b"not a library"


@needs_cc
@pytest.mark.parametrize("cache", ["a_file", "group_writable", "world_writable"])
def test_unusable_or_shared_cache_builds_in_a_private_temporary_dir(cache_dir, monkeypatch, cache):
    if cache == "a_file":
        cache_dir.parent.mkdir()
        cache_dir.write_text("")
    else:
        cache_dir.mkdir(parents=True)
        cache_dir.chmod(0o770 if cache == "group_writable" else 0o707)
    made = []
    mkdtemp = tempfile.mkdtemp

    def recorded_mkdtemp(*args, **kwargs):
        path = mkdtemp(*args, **kwargs)
        made.append((path, os.stat(path).st_mode & 0o777))
        return path

    monkeypatch.setattr(tempfile, "mkdtemp", recorded_mkdtemp)
    assert native._load_c_library(solver._c_source()).rk4_chunk
    [(path, mode)] = made
    assert mode == 0o700
    assert not os.path.exists(path)  # removed once the library is loaded
    if cache != "a_file":
        assert list(cache_dir.iterdir()) == []


def test_importing_the_cli_builds_and_loads_no_kernel(tmp_path):
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(sys.path)}
    # neither C source is rendered, and native has loaded no library
    code = ("import doubleint.cli, doubleint.io as io, doubleint.native as native, "
            "doubleint.solver as s; assert not native._LOADED; "
            "assert s._c_source.cache_info().misses == io._c_source.cache_info().misses == 0")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert list(tmp_path.iterdir()) == []


def test_time_grid_is_multiplicative(nl_params, noisy_spec):
    cfg = SimConfig(0.001, 50.0, ObserverState(0.0, 1.0, 0.0), "rk4", 100)
    traj = simulate(nl_params, noisy_spec, cfg)
    m = traj.times.size
    assert m == 501
    assert np.array_equal(traj.times, (np.arange(m) * 100) * 0.001)
    assert traj.times.tolist() == [i * 0.001 for i in range(0, 50001, 100)]
    # no floating drift against exact decimal times
    worst = max(abs(traj.times[j] - j / 10.0) for j in range(m))
    assert worst < 1e-9


@pytest.mark.parametrize("method", solver.METHODS)
def test_rows_are_recorded_where_their_steps_start(nl_params, noisy_spec, method):
    # row j holds the state after i = j*100 steps: it is recorded at the float time
    # i*h at which step i starts, and its input and truths are taken there
    h, n = 0.001, 50000
    a_fn = make_input_fn(noisy_spec)
    cfg = SimConfig(h, n * h, ObserverState(0.0, 1.0, 0.0), method, 100)
    traj = simulate(nl_params, noisy_spec, cfg)
    grid = [i * h for i in range(0, n + 1, 100)]
    assert traj.times.tolist() == grid
    assert traj.inputs.tolist() == [a_fn(t) for t in grid]
    assert np.array_equal(traj.truths, truth_arrays(noisy_spec, np.array(grid)))


def test_errors_match_states_minus_truths(nl_params, noisy_spec):
    traj = simulate(nl_params, noisy_spec, SimConfig(0.001, 2.0))
    assert np.array_equal(traj.errors, traj.states - traj.truths)


def test_inputs_and_truths_come_from_the_signal_evaluators(nl_params, noisy_spec):
    cfg = SimConfig(0.001, 2.0, ObserverState(0.0, 1.0, 0.0), "rk4", 7)
    traj = simulate(nl_params, noisy_spec, cfg)
    assert traj.times.size == 2000 // 7 + 1
    a_fn = make_input_fn(noisy_spec)
    assert np.array_equal(traj.inputs, [a_fn(t) for t in traj.times])
    assert np.array_equal(traj.truths, truth_arrays(noisy_spec, traj.times))


def test_composite_signal_has_no_truth_columns(nl_params):
    spec = SignalSpec("composite", 0.5, 2.0)
    traj = simulate(nl_params, spec, SimConfig(0.001, 0.5))
    assert traj.truths is None and traj.errors is None
    with pytest.raises(UnsupportedTruth):
        traj.error(1)


def test_stability_guard(lin_params):
    # linear params are refused only when the step map is unstable: at R = 5 RK4 is
    # stable below h = 0.00446, and h = 0.0045 has rho(M) = 1.042
    with pytest.raises(ConfigError, match="^step_h 0.0045 makes the linear rk4 step unstable"):
        simulate(lin_params, zero_spec(), SimConfig(0.0045, 1.0))
    # h = 0.004: h*k3/eps^4 = 2.5 is past the nonlinear heuristic's 2, but rho(M) = 0.999992
    h, n = 0.004, 250
    spec = SignalSpec("sinusoid", 1.0, 3.0)
    x0 = ObserverState(0.0, 1.0, 0.0)
    states = simulate(lin_params, spec, SimConfig(h, n * h, x0)).states
    a_fn = make_input_fn(spec)
    stepped = [x0]
    for i in range(n):
        stepped.append(step(lin_params, stepped[-1], i * h, h, a_fn))
    stepped = np.array(stepped)
    # the oracle tests' tolerance: 1e-9 of each channel's peak
    assert np.all(np.abs(states - stepped) <= 1e-12 + 1e-9 * np.abs(stepped).max(axis=0))


@pytest.mark.parametrize("method, refused", [("euler", True), ("rk4", False)])
def test_linear_step_must_keep_its_spectral_radius_below_one(method, refused):
    # k = (1, 0.2, 1), R = 2, h = 0.1: linear params are held to rho(M) < 1 alone, and
    # Euler moves the lightly damped pole pair out of the unit disc (rho(M) = 1.0016),
    # though h*k3/eps^4 = 1.6 is below the nonlinear rate guard's 2
    p = ObserverParams.from_rate(1.0, 0.2, 1.0, 2.0, 1.0, "linear")
    cfg = SimConfig(0.1, 1.0, method=method)
    # at alpha3 = 1 the nonlinear step is the linear one: it is held to rho(M) < 1 too
    for q in (p, replace(p, mode="nonlinear")):
        if refused:
            with pytest.raises(ConfigError,
                               match="^step_h 0.1 makes the linear euler step unstable"):
                simulate(q, zero_spec(), cfg)
        else:
            simulate(q, zero_spec(), cfg)
    # at h = 1e-20 the step map rounds to a spectral radius of 1, yet 2^11 h is stable:
    # the step is below float resolution, not unstable
    with pytest.raises(ConfigError, match=(
            f"^step_h 1e-20 is below float resolution for the linear {method} step: its step "
            r"map's spectral radius rounds to 1 \(step_h 2\.048e-17 is accepted\)$")):
        simulate(p, zero_spec(), SimConfig(1e-20, 1e-19, method=method))
    # so are steps over 2^900 times too small: the search stops at the stability radius,
    # not after a fixed number of doublings
    for h, shown in ((1e-300, "1e-300"), (5e-324, "4.94066e-324")):
        with pytest.raises(ConfigError, match=(
                f"^step_h {shown} is below float resolution for the linear {method} step: "
                r".* \(step_h \S+ is accepted\)$")):
            simulate(p, zero_spec(), SimConfig(h, 2 * h, method=method))
        # a nonlinear run steps, and never inverts the closed form's e^(i omega h) I - M:
        # at alpha3 = 1 such a step is accepted
        simulate(replace(p, mode="nonlinear"), zero_spec(), SimConfig(h, 2 * h, method=method))
    # away from alpha3 = 1 the nonlinear observer has no step map: only the rate guard applies
    simulate(ObserverParams.from_rate(1.0, 0.2, 1.0, 2.0, 0.9), zero_spec(), cfg)


@pytest.mark.parametrize("method", solver.METHODS)
@settings(max_examples=300, deadline=None)
@given(k1=st.floats(1e-3, 1e3), k3=st.floats(1e-3, 1e3), eps=st.floats(1e-3, 0.999),
       margin=st.floats(1e-6, 1e6))
def test_no_linear_step_passes_past_the_stability_radius(method, k1, k3, eps, margin):
    # trace(A) = -k3/eps^4, so at h*k3/eps^4 >= 9 some |h lambda| >= 3 lies outside both
    # methods' stability regions: check_config's below-resolution search stops there
    p = ObserverParams(k1, eps**3 * k1 / k3 * (1.0 + margin), k3, eps, 1.0, "linear")
    assume(validate_params(p).ok)
    bound = 9.0 * eps**4 / k3
    while bound * k3 / eps**4 < 9.0:
        bound = math.nextafter(bound, math.inf)
    for factor in (1.0, 1.5, 4.0, 1000.0):
        assert not solver._schur_stable_step(p, factor * bound, method), factor


def test_config_validation(lin_params):
    with pytest.raises(ConfigError):
        simulate(lin_params, zero_spec(), SimConfig(0.001, -1.0))
    with pytest.raises(ConfigError):
        simulate(lin_params, zero_spec(), SimConfig(0.001, 1.0, record_stride=0))
    with pytest.raises(ConfigError):
        simulate(lin_params, zero_spec(), SimConfig(0.001, 1.0, method="rk5"))


@pytest.mark.parametrize("duration, stride, field", [(0.0009, 1, "duration"),
                                                      (5e-324, 1, "duration"),
                                                      (0.003, 5, "record_stride"),
                                                      (0.0024, 3, "record_stride"),
                                                      (2e6, 1, "duration"),
                                                      (2e6, 100, "duration"),
                                                      (1e300, 1, "duration"),
                                                      (2e4, 1, "record_stride")])
def test_run_too_short_or_too_long_rejected_by_the_field_to_change(duration, stride, field):
    # 0.003 s at stride 5 would run 3 steps and record only t = 0.  No stride brings a run
    # under MAX_STEPS, so 2e6 s is refused by its duration at any stride; 2e4 s is under it,
    # and a larger stride does keep its rows under MAX_RECORD_ROWS
    with pytest.raises(ConfigError, match=f"^{field} "):
        SimConfig(0.001, duration, record_stride=stride)


def test_run_of_exactly_its_stride_records_both_ends(lin_params):
    times = simulate(lin_params, zero_spec(), SimConfig(0.001, 0.003, record_stride=3)).times
    assert times.tolist() == [0.0, 0.003]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_initial_state_rejected(bad):
    with pytest.raises(ConfigError, match="^initial_state must be finite"):
        SimConfig(0.001, 1.0, ObserverState(0.0, bad, 0.0))


@pytest.mark.parametrize("bad, message", [
    pytest.param((0.0, 0.0), "initial_state: expected 3 items, got 2", id="bad0"),
    pytest.param((0.0, 0.0, 0.0, 0.0), "initial_state: expected 3 items, got 4", id="bad1"),
    pytest.param((0.0, "1", 0.0), 'initial_state[1]: expected a number, got "1"', id="bad2"),
    pytest.param(0.0, "initial_state: expected a list, got 0.0", id="0.0"),
])
def test_initial_state_that_is_not_three_numbers_rejected(bad, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        SimConfig(0.001, 1.0, bad)


@pytest.mark.parametrize("bad, message", [
    pytest.param(1.5, "record_stride: expected an integer, got 1.5", id="1.5"),
    pytest.param(math.nan, "record_stride: expected an integer, got NaN", id="nan"),
])
def test_record_stride_that_is_not_an_integer_rejected(bad, message):
    # a fractional stride never brought the nonlinear kernel's countdown to 0
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        SimConfig(0.001, 1.0, record_stride=bad)


@pytest.mark.parametrize("bad, message", [
    pytest.param(((0.0,),), "metrics_windows[0]: expected 2 items, got 1", id="bad0"),
    pytest.param(((0.0, 1.0, 2.0),), "metrics_windows[0]: expected 2 items, got 3", id="bad1"),
    pytest.param(((0.0, "1"),), 'metrics_windows[0][1]: expected a number, got "1"', id="bad2"),
    pytest.param((0.5,), "metrics_windows[0]: expected a list, got 0.5", id="bad3"),
])
def test_window_that_is_not_a_pair_rejected(bad, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        SimConfig(0.001, 1.0, metrics_windows=bad)


def test_invalid_params_rejected():
    bad = ObserverParams(0.1, 0.0, 1.0, 0.2, 1.0, "linear")
    with pytest.raises(InvalidParams):
        simulate(bad, zero_spec(), SimConfig(0.001, 1.0))
    # simulate checks in the order the CLI reports: the signal's phase horizon and phase
    # step come before validate_params
    spec = SignalSpec("sinusoid", 1.0, 1e307)
    with pytest.raises(ConfigError, match="^omega 1e[+]307 overflows the phase omega[*]t"):
        simulate(replace(bad, k1=-1.0), spec, SimConfig(0.001, 20.0))


def test_divergence_reports_time(lin_params):
    spec = SignalSpec("sinusoid", math.inf, 1.0)
    with pytest.raises(DivergedState) as err:
        simulate(lin_params, spec, SimConfig(0.001, 1.0))
    assert err.value.time == pytest.approx(0.001)


def test_step_nonfinite_raises(lin_params):
    with pytest.raises(DivergedState):
        step(lin_params, ObserverState(math.inf, 0.0, 0.0), 0.0, 0.001, lambda t: 0.0)
    # rhs refuses a non-finite input, here nan at t = 0 and inf after, with no time of its
    # own: step() raises at the time of the state it would give, with rhs's reason
    a_fn = make_input_fn(INF_INPUT)
    for method in solver.METHODS:
        for t in (0.0, 0.25):
            with pytest.raises(DivergedState, match=f"^state diverged at t={t + 0.001:g} s: "
                               "non-finite state or input passed to rhs$") as err:
                step(lin_params, ObserverState(0.0, 1.0, 0.0), t, 0.001, a_fn, method)
            assert err.value.time == t + 0.001


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
def test_step_refuses_a_step_size_that_is_not_finite_and_positive(lin_params, method, h):
    # a malformed step is a ConfigError, not a DivergedState of the state it gives
    with pytest.raises(ConfigError, match=f"^h must be finite and positive, got {h!r}$"):
        step(lin_params, ObserverState(0.0, 0.0, 0.0), 0.0, h, lambda t: 0.0, method)


def test_rhs_consistency_with_kernel_formula(nl_params):
    # spot check: the public rhs drives step(), whose Euler form is x + h*f
    s = ObserverState(0.3, -0.7, 1.1)
    h = 1e-3
    d = rhs(nl_params, s, 0.25)
    out = step(nl_params, s, 0.0, h, lambda t: 0.25, "euler")
    assert out == ObserverState(s.x1 + h * d[0], s.x2 + h * d[1], s.x3 + h * d[2])


def test_metrics_zero_run(lin_params):
    traj = simulate(lin_params, zero_spec(), SimConfig(0.001, 1.0))
    metrics = trajectory_metrics(traj, [(0.0, 1.0)])
    assert metrics["windows"][0]["rms"] == [0.0, 0.0, 0.0]
    assert metrics["windows"][0]["max_abs"] == [0.0, 0.0, 0.0]
    assert metrics["drift_ratio_e1"] == 0.0


@pytest.mark.parametrize("windows, message", [
    ([(0.0,)], "metrics_windows[0]: expected 2 items, got 1"),
    ([(0.0, "1")], 'metrics_windows[0][1]: expected a number, got "1"'),
    ([(0.0, 10**400)], "metrics_windows[0][1] is too large for a float"),
    (5, "metrics_windows: expected a list, got 5"),
])
def test_metrics_refuse_a_window_of_the_wrong_type(lin_params, windows, message):
    traj = simulate(lin_params, zero_spec(), SimConfig(0.001, 1.0))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        trajectory_metrics(traj, windows)


def test_metrics_windows_are_read_as_floats(lin_params):
    traj = simulate(lin_params, zero_spec(), SimConfig(0.001, 1.0))
    window = trajectory_metrics(traj, [[0, 1]])["windows"][0]
    assert (window["t_lo"], window["t_hi"]) == (0.0, 1.0)
    assert type(window["t_lo"]) is float


def test_metrics_empty_window(lin_params):
    traj = simulate(lin_params, zero_spec(), SimConfig(0.001, 1.0))
    with pytest.raises(ConfigError):
        trajectory_metrics(traj, [(5.0, 6.0)])


@pytest.mark.parametrize("duration, window", [(2000.0, (2500.0, 3000.0)),
                                               (1.0, (0.05, 0.07))])
def test_window_without_a_record_time_refused_when_built(duration, window):
    # at stride 100 and h = 0.001 the record times are 0, 0.1, 0.2, ...: the second
    # window lies between two of them
    with pytest.raises(ConfigError, match=r"^metrics_windows: \[.*\] contains no samples$"):
        SimConfig(0.001, duration, record_stride=100, metrics_windows=(window,))


def test_window_holding_only_the_last_record_time_builds(lin_params):
    t_end = SimConfig(0.001, 1.0, record_stride=100).record_times()[-1]
    cfg = SimConfig(0.001, 1.0, record_stride=100, metrics_windows=((t_end, t_end),))
    traj = simulate(lin_params, zero_spec(), cfg)
    # simulate records on the grid the config was checked against
    assert np.array_equal(traj.times, cfg.record_times())
    assert trajectory_metrics(traj, cfg.metrics_windows)["windows"][0]["t_lo"] == t_end


@settings(max_examples=400, deadline=None)
# steps h in [2^-20, 8) with a random 53-bit mantissa, whose grid times round often
@given(h=st.builds(math.ldexp, st.integers(2**52, 2**53 - 1), st.integers(-72, -50)),
       steps=st.integers(1, 300), stride=st.integers(1, 300), data=st.data())
def test_window_check_agrees_with_the_record_grid(h, steps, stride, data):
    # SimConfig checks a window without building its grid; the grid gives the answer.
    # Bounds are a record time, the floats one ulp to either side of it, and any floats
    try:
        cfg = SimConfig(h, steps * h, record_stride=min(stride, steps))
    except ConfigError:
        assume(False)
    times = cfg.record_times()
    t = data.draw(st.sampled_from(times.tolist()))
    bounds = (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf),
              data.draw(st.floats()), data.draw(st.floats()))
    for lo, hi in itertools.product(bounds, bounds):
        if np.any((times >= lo) & (times <= hi)):
            replace(cfg, metrics_windows=((lo, hi),))
        else:
            with pytest.raises(ConfigError, match=r"^metrics_windows: \[.*\] contains no samples$"):
                replace(cfg, metrics_windows=((lo, hi),))


def test_window_check_builds_no_record_grid():
    # the check needs none of this run's 12 million record times (96 MB)
    tracemalloc.start()
    try:
        SimConfig(1e-6, 12.0, metrics_windows=((0.0, 1.0),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sweep_lanes_carry_no_windows():
    assert _frequency_sim(SweepConfig()).metrics_windows == ()


def test_metrics_drift_ratio_without_a_reference_sample(lin_params):
    # a one-step record, times (0, h), has no sample in [0.5 h, 0.6 h]
    traj = simulate(lin_params, SignalSpec("sinusoid", 1.0, 1.0), SimConfig(0.001, 0.001))
    assert traj.times.size == 2
    assert trajectory_metrics(traj)["drift_ratio_e1"] is None


def test_metrics_rms_overflows_to_inf():
    traj = _fake_traj([0.0, 1.0, 2.0], [1e200, -1e200, 0.0])
    window = trajectory_metrics(traj)["windows"][0]
    assert window["rms"][0] == math.inf and window["max_abs"][0] == 1e200


def _fake_traj(times, e1):
    n = len(times)
    zeros = np.zeros((n, 3))
    errors = np.column_stack([e1, np.zeros(n), np.zeros(n)])
    return Trajectory(np.asarray(times, float), zeros, np.zeros(n), zeros, errors)


@pytest.mark.parametrize("channel", [0, -1, 4, 1.5, True, "1"])
def test_channel_outside_one_to_three_rejected(channel):
    # errors[:, channel - 1] would read channel 3 at 0 and channel 2 at -1
    traj = _fake_traj([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(DomainError, match=r"^channel must be one of \(1, 2, 3\), got"):
        traj.error(channel)
    with pytest.raises(DomainError, match=r"^channel must be one of \(1, 2, 3\), got"):
        settle_time(traj, 0.05, channel)


def test_an_integral_float_channel_reads_its_channel():
    # as a config reads a number: 1.0 is channel 1, where errors[:, 0.0] would raise
    traj = _fake_traj(np.arange(6) * 1.0, [0.0, 0.2, 0.1, 0.04, 0.01, 0.0])
    assert np.array_equal(traj.error(1.0), traj.error(1))
    assert settle_time(traj, 0.05, 1.0) == settle_time(traj, 0.05, 1) == 3.0
    assert np.array_equal(traj.error(np.float64(3.0)), np.zeros(6))


def test_settle_time_semantics():
    t = np.arange(6) * 1.0
    assert settle_time(_fake_traj(t, [0.0, 0.01, 0.02, 0.0, 0.01, 0.0]), 0.05) == 0.0
    assert settle_time(_fake_traj(t, [0.0, 0.2, 0.1, 0.04, 0.01, 0.0]), 0.05) == 3.0
    assert settle_time(_fake_traj(t, [0.0, 0.2, 0.1, 0.04, 0.01, 0.06]), 0.05) == math.inf


def test_settle_time_refuses_a_nan_threshold():
    # no error reaches NaN, which would read as settled at t = 0
    traj = _fake_traj(np.arange(6) * 1.0, [0.0, 0.2, 0.1, 0.04, 0.01, 0.06])
    with pytest.raises(DomainError, match="^threshold must not be NaN$"):
        settle_time(traj, math.nan)


def test_scenario_initial_onefold_error(noisy_spec, nl_params):
    # x2(0)=1 versus onefold-integral truth 0.314 leaves e2(0)=0.686
    traj = simulate(nl_params, noisy_spec, SimConfig(0.001, 0.01, ObserverState(0.0, 1.0, 0.0)))
    assert traj.errors[0, 1] == pytest.approx(0.686, rel=1e-12)
