"""Literal output of the CSV/JSON writers on edge-case values, the JSON
writer's bytes against json.dump's, and the C number formatters' text against
Python's "%.8e" and repr."""

import ctypes
import json
import math
import os
import pickle
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleint import ObserverParams, cli, io, native, scenarios, signals, solver
from doubleint.signals import SignalSpec, paper_reference_spec
from doubleint.solver import Trajectory, simulate
from doubleint.sweep import BodeCurve, BodeRow

NAN, INF = math.nan, math.inf


def _trajectory(with_truth: bool) -> Trajectory:
    states = np.array([[NAN, INF, -INF], [-0.0, 1e300, 1.5]])
    truths = np.array([[0.5, -0.25, 2.0], [1.0, 0.0, -3.0]]) if with_truth else None
    return Trajectory(np.array([0.0, 0.001]), states, np.array([0.25, -2.0]),
                      truths, None if truths is None else states - truths)


def test_trajectory_csv_special_values(tmp_path):
    path = tmp_path / "t.csv"
    io.write_trajectory_csv(path, _trajectory(with_truth=True))
    assert path.read_text() == (
        "t,x1,x2,x3,a,a1,a2,a3,e1,e2,e3\n"
        "0.00000000e+00,nan,inf,-inf,2.50000000e-01,"
        "5.00000000e-01,-2.50000000e-01,2.00000000e+00,nan,inf,-inf\n"
        "1.00000000e-03,-0.00000000e+00,1.00000000e+300,1.50000000e+00,-2.00000000e+00,"
        "1.00000000e+00,0.00000000e+00,-3.00000000e+00,-1.00000000e+00,1.00000000e+300,"
        "4.50000000e+00\n"
    )


def test_trajectory_without_truth(tmp_path):
    traj = _trajectory(with_truth=False)
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
    io.write_trajectory_csv(csv_path, traj)
    assert csv_path.read_text().splitlines()[2] == (
        "1.00000000e-03,-0.00000000e+00,1.00000000e+300,1.50000000e+00,-2.00000000e+00,,,,,,"
    )
    io.write_json(json_path, io.trajectory_to_dict(traj))
    doc = json.loads(json_path.read_text())
    assert sorted(doc) == ["a", "t", "x1", "x2", "x3"]
    assert doc["x2"] == [INF, 1e300] and doc["a"] == [0.25, -2.0]


def test_flagged_bode_row(tmp_path):
    rows = (BodeRow(5.0, 32.0, 2, NAN, NAN, None, None, "sweep", "diverged"),
            BodeRow(5.0, 32.0, 3, -INF, 0.5, 0.5, INF, "sweep", "nonfinite_fit"))
    curve = BodeCurve(rows, {"R": 5.0}, {"amplitude": 1.0})
    csv_path, json_path = tmp_path / "b.csv", tmp_path / "b.json"
    io.write_bode_csv(csv_path, curve)
    assert csv_path.read_text() == (
        "f_hz,omega_rad_s,channel,magnitude_db,phase_rad,phase_unwrapped_rad,residual_rms,"
        "source,flag\n"
        "5.00000000e+00,3.20000000e+01,2,nan,nan,,,sweep,diverged\n"
        "5.00000000e+00,3.20000000e+01,3,-inf,5.00000000e-01,5.00000000e-01,inf,sweep,"
        "nonfinite_fit\n"
    )
    io.write_json(json_path, io.bode_to_dict(curve))
    text = json_path.read_text()
    assert "NaN" not in text and "Infinity" not in text
    assert json.loads(text) == {
        "source": "sweep", "params": {"R": 5.0}, "config": {"amplitude": 1.0},
        "rows": [
            {"f_hz": 5.0, "omega_rad_s": 32.0, "channel": 2, "magnitude_db": None,
             "phase_rad": None, "phase_unwrapped_rad": None, "residual_rms": None,
             "source": "sweep", "flag": "diverged"},
            {"f_hz": 5.0, "omega_rad_s": 32.0, "channel": 3, "magnitude_db": None,
             "phase_rad": 0.5, "phase_unwrapped_rad": 0.5, "residual_rms": None,
             "source": "sweep", "flag": "nonfinite_fit"},
        ],
    }


# Values whose text is easy to get wrong: the indented layout, key escapes and number tokens.
_KEYS = st.sampled_from(["", "a", ", ", "a, b", "\n", "é", "snow ☃, \n", '"q"']) | st.text(max_size=4)
_NUMBERS = (st.sampled_from([NAN, INF, -INF, -0.0, 0.0, 5e-324, 1e300, 2**70, -(2**200)])
            | st.floats() | st.integers(min_value=-(2**200), max_value=2**200))
_SCALARS = _NUMBERS | st.booleans() | st.none() | st.text(max_size=4)
_VALUES = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(_KEYS, kids, max_size=4),
    max_leaves=20)
# a list of numbers past one chunk whose last item may be anything
_SPOILED = st.builds(lambda nums, last: nums + [last], st.lists(_NUMBERS, min_size=3, max_size=8),
                     st.booleans() | st.none() | st.text(max_size=2) | _VALUES)
_DOCS = (st.dictionaries(_KEYS, st.lists(_NUMBERS, max_size=10) | _SPOILED | _VALUES, max_size=6)
         | st.dictionaries(st.integers(-3, 3), _VALUES, max_size=3)
         | _VALUES)


def _json_text(obj) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        io.write_json(path, obj)
        return path.read_bytes().decode()


@settings(max_examples=200, deadline=None)
@given(_DOCS)
def test_write_json_matches_indented_json_dump(obj):
    with pytest.MonkeyPatch.context() as mp:
        # 3-item chunks: lists longer than one chunk are common
        mp.setattr(io, "JSON_CHUNK", 3)
        assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_write_json_long_columns_match_indented_json_dump():
    floats = (np.arange(10_000) * 0.1 - 7.3).tolist()
    doc = {"t": floats, "x1": floats[:4097], "tail": floats[:5000] + [True], "n": list(range(9000))}
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _array_doc() -> dict:
    """A dict of 1-D float64 arrays: an empty one, one item, a strided view, and values on
    which the formatters are easy to get wrong, NaN and the infinities among them."""
    values = np.concatenate([[NAN, -NAN, INF, -INF, 0.0, -0.0], _sweep_values()[::97]])
    return {"empty": np.array([]), "one": np.array([-0.0]), "strided": values[::2],
            "values": values, "list": [0.1, 2, None], "n": 3}


@pytest.mark.parametrize("library", ["c", "python"])
@pytest.mark.parametrize("chunk", [3, io.JSON_CHUNK])
def test_write_json_writes_float_arrays_as_their_lists(monkeypatch, library, chunk):
    if library == "c":
        if shutil.which("cc") is None:
            pytest.skip("no C compiler cc on PATH")
        assert io._c_formatters() is not None
    else:
        monkeypatch.setattr(io, "_c_formatters", lambda: None)
    monkeypatch.setattr(io, "JSON_CHUNK", chunk)
    doc = _array_doc()
    as_lists = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}
    assert _json_text(doc) == json.dumps(as_lists, indent=2, sort_keys=True) + "\n"


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler cc on PATH")

# The magnitudes whose every float each C formatter writes itself, [lo, hi), and the only
# finite nonzero ones: every normal one for csv_cells, which refuses the subnormals, and every
# finite one, subnormals included, for json_items.
_COVERED = {"csv_cells": (sys.float_info.min, math.inf), "json_items": (5e-324, math.inf)}

# io._text's step, width, separator and extra arguments for a flat column of values: one cell
# per CSV row, or the items of a JSON list
_LAYOUT = {"csv_cells": (io.CSV_CHUNK, io.CSV_CELL + 1, "", 1, 0),
           "json_items": (io.JSON_CHUNK, io.JSON_ITEM + len(io.JSON_SEP), io.JSON_SEP)}


def _c_cell(name: str, v: float) -> str | None:
    """v's text from the C formatter name alone, without a separator; None where it refuses
    v."""
    buf = np.empty(64, np.uint8)
    n = io._c_formatters()[name](np.array([v]), 1, *_LAYOUT[name][3:], buf)
    return None if n < 0 else buf[:n].tobytes().decode().removesuffix("\n")


def _python_cell(name: str, v: float) -> str:
    return "%.8e" % v if name == "csv_cells" else json.dumps(v)


def _python_text(name: str, values: np.ndarray) -> str:
    """values' text in Python, laid out as _LAYOUT[name]."""
    if name == "csv_cells":
        return "".join("%.8e\n" % v for v in values.tolist())
    return json.dumps(values.tolist())[1:-1].replace(", ", io.JSON_SEP)


def _c_text(formatter, name: str, values: np.ndarray) -> tuple[str, list[int]]:
    """(text, refused): io._text of the C-contiguous values by formatter, the formatter name's
    signature, laid out as _LAYOUT[name], and the index of each chunk's first cell for the
    chunks formatter refuses, which Python writes."""
    refused = []

    def python_text(chunk):
        refused.append((chunk.ctypes.data - values.ctypes.data) // values.itemsize)
        return _python_text(name, chunk)

    # each chunk is copied as it comes: a C-written one is a view of a buffer the next reuses
    chunks = [bytes(chunk) for chunk in io._text(formatter, python_text, values, *_LAYOUT[name])]
    return b"".join(chunks).decode("ascii"), refused


def _subnormal(values: np.ndarray) -> np.ndarray:
    magnitudes = np.abs(values)
    return (magnitudes > 0.0) & (magnitudes < sys.float_info.min)


_RAW_FLOATS = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])


@needs_cc
@pytest.mark.parametrize("name", sorted(_COVERED))
@settings(max_examples=1000, deadline=None)
@given(v=st.floats() | _RAW_FLOATS | st.floats(1e-16, 1e17) | st.integers(-2**53, 2**53).map(float))
def test_c_formatters_write_python_text(name, v):
    if _c_cell(name, 1.0) is None:
        pytest.skip("the C library was built without 128-bit integers: Python formats every cell")
    text = _c_cell(name, v)
    lo, hi = _COVERED[name]
    assert (text is not None) == (not math.isfinite(v) or v == 0.0 or lo <= abs(v) < hi)
    assert text is None or text == _python_cell(name, v)


def _sweep_values() -> np.ndarray:
    """Over 10^6 floats on which the formatters are easy to get wrong, with negations."""
    rng = np.random.default_rng(23)
    # every binary exponent E: m * 2^(E - 52) for m = 2^52, 2^52 + 1, 2^53 - 1 and two random
    # 53-bit mantissas, rounded to the subnormal grid below E = -1022
    exponents = np.arange(-1074, 1024)
    mantissas = np.concatenate([[2**52, 2**52 + 1, 2**53 - 1], rng.integers(2**52, 2**53, 2)])
    binades = np.ldexp(mantissas.astype(float)[None, :], (exponents - 52)[:, None]).ravel()
    q = rng.integers(10**8, 10**9, 20_000).astype(float)
    # exact ties of 9 digits: a 10-digit integer ending in 5, times 1 to 1e5, and 9 digits + 1/2
    ties = np.concatenate([(10.0 * q + 5.0) * 10.0 ** rng.integers(0, 6, q.size), q + 0.5])
    twos = 2.0 ** np.arange(-90, 170)
    decades = 10.0 ** np.arange(-25, 53)
    special = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
                        math.inf, math.nan, 0.1, 0.3, 1e23, 9007199254740993.0])
    grid = np.arange(20_001) * 0.001
    logs = 10.0 ** rng.uniform(-16, 10, 60_000)
    wide = 10.0 ** rng.uniform(-26, 53, 20_000)
    # the layout's edges: decpt -4/-3 and 16/17
    edges = np.concatenate([10.0 ** rng.uniform(e - 0.5, e + 0.5, 5_000) for e in (-4, 16)])
    rounded = np.round(rng.uniform(-1000.0, 1000.0, 20_000), 3)
    subnormals = rng.integers(1, 2**52, 1000).view(np.float64)
    # 10-digit midpoints (10q + 5) * 10^(E - 9) at every normal decade E, read back as the
    # nearest float: 9 digits round at them by the sign of the float's distance to them
    midpoints = np.array([float(f"{10 * q + 5}e{e - 9}") for e in range(-307, 309)
                          for q in rng.integers(10**8, 10**9, 20).tolist()])
    # carries into the exponent at every normal decade E: "%.8e" writes the double below 10^E
    # as 1.00000000e{E}, and those about 9.999999995e{E} as 9.99999999e{E} or 1.00000000e{E + 1}
    carries = np.array([float(f"{lead}e{e}") for e in range(-307, 309)
                        for lead in ("1", "9.999999995")])
    base = np.concatenate([ties, twos, decades, special, grid, logs, wide, edges, rounded,
                           subnormals, binades, midpoints[np.isfinite(midpoints)],
                           carries[np.isfinite(carries)]])
    with np.errstate(over="ignore"):
        # the largest float's next one up is inf
        near = np.concatenate([base, np.nextafter(base, 0.0), np.nextafter(base, math.inf)])
    return np.concatenate([near, -near])


@needs_cc
def test_c_formatters_write_python_text_on_a_million_values():
    values = _sweep_values()
    assert values.size >= 10**6 and np.signbit(values[np.isnan(values)]).any()
    formatters = io._c_formatters()
    subnormal = _subnormal(values)
    for name in sorted(_COVERED):
        text, refused = _c_text(formatters[name], name, values)
        assert text == _python_text(name, values)
        # csv_cells refuses exactly the chunks that hold a subnormal, json_items none
        step = _LAYOUT[name][0]
        assert refused == [lo for lo in range(0, values.size, step)
                           if name == "csv_cells" and subnormal[lo:lo + step].any()]
    # every other value in chunks that csv_cells writes itself
    normal = values[~subnormal]
    assert _c_text(formatters["csv_cells"], "csv_cells", normal) == (
        _python_text("csv_cells", normal), [])


def _c_library(path: str | None) -> dict:
    """The entry points of the C libraries _build made in the directory path, the chunk
    functions by method and the formatters by name, or the cached libraries' for None."""
    if path is None:
        return {**solver._c_kernels(), **io._c_formatters()}
    return {**solver._c_bind(ctypes.CDLL(os.path.join(path, "kernels.so"))),
            **io._c_bind(ctypes.CDLL(os.path.join(path, "formatters.so")))}


def _kernel_outputs(kernels: dict, first_chunk) -> list:
    """300 steps of each chunk function on an input that diverges, one that is nan at every
    step and the noisy reference, with the time each raises at, run by first_chunk
    (conftest.run_first_chunk)."""
    outputs = []
    p = ObserverParams(0.1, 0.1, 1.0, 0.2, 0.3, "nonlinear")
    for method in solver.METHODS:
        for spec in (SignalSpec("sinusoid", math.inf, 1.0),
                     SignalSpec("sinusoid", math.inf, 5e-324), paper_reference_spec()):
            raised, out = first_chunk(kernels[method], p, (0.0, 1.0, 0.0),
                                      solver.signal_inputs(spec, 0.001, method), 0.001, 300, 1)
            # which sign a NaN gets is the compiler's choice (it may negate an operand in place
            # of a product), and an instrumented build chooses differently: NaNs compare as
            # NaNs, every other state by its bits
            nan = np.isnan(out)
            outputs.append((raised, nan.tolist(), np.where(nan, 0.0, out).view(np.int64).tolist()))
    return outputs


def _c_library_outputs(path: str | None, first_chunk) -> tuple:
    """What the C libraries in the directory path, or the cached ones for None, make of the
    cases where a port is easy to get wrong: csv_cells on _sweep_values() and on its values
    that are not subnormal, json_items on _sweep_values(), and _kernel_outputs."""
    kernels = _c_library(path)
    values = _sweep_values()
    return (_c_text(kernels["csv_cells"], "csv_cells", values),
            _c_text(kernels["csv_cells"], "csv_cells", values[~_subnormal(values)]),
            _c_text(kernels["json_items"], "json_items", values),
            *_kernel_outputs(kernels, first_chunk))


def _build(tmp_path: Path, *flags: str) -> subprocess.CompletedProcess:
    """solver._c_source() and io._c_source() built by cc with flags and native._C_FLAGS into
    tmp_path/kernels.so and tmp_path/formatters.so: the first build that fails, or the last."""
    for name, text in (("kernels", solver._c_source()), ("formatters", io._c_source())):
        source = tmp_path / f"{name}.c"
        source.write_text(text)
        proc = subprocess.run(["cc", *flags, *native._C_FLAGS, "-o", str(tmp_path / f"{name}.so"),
                               str(source), "-lm"], capture_output=True, text=True)
        if proc.returncode != 0:
            break
    return proc


@needs_cc
def test_c_library_has_no_undefined_behaviour(tmp_path, first_chunk):
    # the libraries built with UBSan, which ends its process at the first shift, overflow or
    # conversion that C leaves undefined, run in a process of their own, and write the same
    # bytes and step to the same bits as the cached libraries
    proc = _build(tmp_path, "-fsanitize=undefined", "-fno-sanitize-recover=all")
    if proc.returncode != 0:
        pytest.skip(f"cc does not build with UBSan: {proc.stderr.strip()[-200:]}")
    # the tests directory comes first on the process's path, so conftest is this directory's
    code = ("import conftest, pickle, sys, test_io; sys.stdout.buffer.write(pickle.dumps("
            f"test_io._c_library_outputs({str(tmp_path)!r}, conftest.run_first_chunk)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(__file__).parent), *sys.path])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-2000:]
    assert pickle.loads(proc.stdout) == _c_library_outputs(None, first_chunk)


@needs_cc
def test_c_library_without_128_bit_integers_leaves_every_cell_to_python(tmp_path, first_chunk):
    # a host whose cc has no unsigned __int128 builds the formatters' stubs, which format no
    # cell, so both formatters refuse every chunk, and the same chunk functions
    proc = _build(tmp_path, "-U__SIZEOF_INT128__", "-Wall", "-Wextra", "-Werror")
    assert proc.returncode == 0, proc.stderr[-2000:]
    kernels = _c_library(str(tmp_path))
    values = np.ascontiguousarray(_sweep_values()[::41])
    for name in sorted(_COVERED):
        assert _c_text(kernels[name], name, values) == (
            _python_text(name, values), [*range(0, values.size, _LAYOUT[name][0])])
    assert (_kernel_outputs(kernels, first_chunk)
            == _kernel_outputs(solver._c_kernels(), first_chunk))


@needs_cc
@pytest.mark.parametrize("build", ["cached", "without 128-bit integers"])
def test_c_formatters_are_called_once_per_chunk(tmp_path, monkeypatch, build):
    # a chunk a formatter refuses is written by Python whole, with no call per cell it does not
    # cover: subnormals in 3 of 6 CSV chunks, or every cell of the build without __int128
    if build == "cached":
        formatters = io._c_formatters()
    else:
        proc = _build(tmp_path, "-U__SIZEOF_INT128__")
        assert proc.returncode == 0, proc.stderr[-2000:]
        formatters = io._c_bind(ctypes.CDLL(str(tmp_path / "formatters.so")))
    calls = {name: 0 for name in formatters}

    def counted(name):
        def formatter(*args):
            calls[name] += 1
            return formatters[name](*args)
        return formatter

    rows = 5 * io.CSV_CHUNK + 7
    states = np.linspace(-3.0, 3.0, 3 * rows).reshape(rows, 3)
    states[[3, 2 * io.CSV_CHUNK + 10, 2 * io.CSV_CHUNK + 11, 5 * io.CSV_CHUNK + 2], 0] = (
        5e-324, -1e-310, 2.2250738585072009e-308, -5e-324)
    traj = Trajectory(np.arange(rows) * 0.001, states, np.cos(np.arange(rows) * 0.01))
    files = []
    for patched in ({name: counted(name) for name in formatters}, None):
        monkeypatch.setattr(io, "_c_formatters", lambda: patched)
        io.write_trajectory_csv(tmp_path / "t.csv", traj)
        io.write_json(tmp_path / "t.json", io.trajectory_to_dict(traj))
        files.append([(tmp_path / name).read_bytes() for name in ("t.csv", "t.json")])
    assert files[0] == files[1]
    # 6 CSV chunks, and 2 JSON chunks in each of the 5 columns
    assert calls == {"csv_cells": 6, "json_items": 10}


@pytest.mark.parametrize("library", ["c", "python"])
@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_trajectory_of_another_dtype_is_written_as_its_float64_values(tmp_path, monkeypatch,
                                                                       library, dtype):
    rng = np.random.default_rng(7)
    rows = 5000
    arrays = [np.arange(rows), *(rng.uniform(-1e6, 1e6, (rows, 3)) for _ in range(2))]
    arrays = [a.astype(dtype) for a in (arrays[0], arrays[1], arrays[1][:, 0], arrays[2])]
    arrays.append(arrays[1] - arrays[3])

    def files(traj):
        io.write_trajectory_csv(tmp_path / "t.csv", traj)
        io.write_json(tmp_path / "t.json", io.trajectory_to_dict(traj))
        return [(tmp_path / name).read_bytes() for name in ("t.csv", "t.json")]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_c_formatters", lambda: None)
        expected = files(Trajectory(*(a.astype(np.float64) for a in arrays)))
    if library == "c":
        if shutil.which("cc") is None:
            pytest.skip("no C compiler cc on PATH")
        assert io._c_formatters() is not None
    else:
        monkeypatch.setattr(io, "_c_formatters", lambda: None)
    assert files(Trajectory(*arrays)) == expected


@pytest.mark.parametrize("scenario", ["fig3", "fig5"])
def test_trajectory_files_are_the_python_writers_bytes(tmp_path, monkeypatch, scenario):
    cfg = scenarios.expand_scenario(scenario)
    traj = simulate(cli._build_params(cfg, {}, "params"),
                    cli._build(signals.SignalSpec, cfg["signal"], "signal"),
                    cli._build_sim(cfg["sim"]))
    files = []
    for which in ("c", "python"):
        if which == "python":
            monkeypatch.setattr(io, "_c_formatters", lambda: None)
        io.write_trajectory_csv(tmp_path / f"{which}.csv", traj)
        io.write_json(tmp_path / f"{which}.json", io.trajectory_to_dict(traj))
        files.append([(tmp_path / f"{which}.{ext}").read_bytes() for ext in ("csv", "json")])
    assert files[0] == files[1]


@needs_cc
def test_a_file_of_c_written_and_refused_chunks_is_the_python_writers_bytes(tmp_path,
                                                                          monkeypatch):
    # one subnormal cell, in rows 1024..2047: csv_cells writes the first and third CSV chunks
    # and refuses the second, so the CSV file joins C bytes, Python's text and C bytes
    if _c_cell("csv_cells", 1.0) is None:
        pytest.skip("the C library was built without 128-bit integers: Python formats every cell")
    rows = 3 * io.CSV_CHUNK - 5
    rng = np.random.default_rng(11)
    states, truths = rng.uniform(-2.0, 2.0, (2, rows, 3))
    states[io.CSV_CHUNK + 300, 1] = -2.5e-320
    traj = Trajectory(np.arange(rows) * 0.001, states, rng.uniform(-1.0, 1.0, rows), truths,
                      states - truths)
    formatters, written = io._c_formatters(), []

    def csv_cells(*args):
        n = formatters["csv_cells"](*args)
        written.append(n >= 0)
        return n

    files = []
    for patched in ({**formatters, "csv_cells": csv_cells}, None):
        monkeypatch.setattr(io, "_c_formatters", lambda: patched)
        io.write_trajectory_csv(tmp_path / "t.csv", traj)
        io.write_json(tmp_path / "t.json", io.trajectory_to_dict(traj))
        files.append([(tmp_path / name).read_bytes() for name in ("t.csv", "t.json")])
    assert written == [True, False, True]
    assert files[0] == files[1]
    table = np.column_stack(io._columns(traj)).tolist()
    assert files[1][0].decode() == io.TRAJECTORY_HEADER + "\n" + "".join(
        ",".join("%.8e" % v for v in row) + "\n" for row in table)
    as_lists = {k: v.tolist() for k, v in io.trajectory_to_dict(traj).items()}
    assert files[1][1].decode() == json.dumps(as_lists, indent=2, sort_keys=True) + "\n"
