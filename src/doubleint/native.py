"""Build, cache and load of the C libraries: the one module that runs cc.

solver and io each pass load() the C source they own, and get back their
library's entry points.  A library is built with the system cc at the first
load() of its source in a process, not at import, cached per user (mode
0700) keyed by the source, the flags and the compiler, and loaded with
ctypes.  Without cc, or when it fails, load() returns None after the
process's one warning, whichever library came first.
"""

import contextlib
import ctypes
import os
import shutil
import subprocess
import tempfile
import warnings
import zlib

import numpy as np

# -ffp-contract=off keeps every product and sum its own rounding, as in Python; -ffast-math
# would reorder sums and drop the nan and inf cases
_C_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

# source -> the entry points bind gave for it, or None where cc is missing or failed
_LOADED: dict[str, dict | None] = {}


def load(source: str, bind) -> dict | None:
    """bind(library) of the library built from source, at the first call with source in the
    process; None when cc is missing or fails, after the process's one warning."""
    if source not in _LOADED:
        try:
            _LOADED[source] = bind(_load_c_library(source))
        except OSError as exc:
            if None not in _LOADED.values():
                warnings.warn(f"the C kernels are unavailable ({exc}): nonlinear runs step in "
                              "Python, 4-6x slower, and trajectories are formatted in Python, to "
                              "the same states and bytes", stacklevel=4)
            _LOADED[source] = None
    return _LOADED[source]


def pointer(dtype, ndim: int, flags: str = "C_CONTIGUOUS,WRITEABLE"):
    # ctypes checks each array's dtype, dimensions and flags before passing its pointer
    return np.ctypeslib.ndpointer(dtype, ndim, flags=flags)


def function(lib: ctypes.CDLL, name: str, *argtypes):
    """The library's function name, returning int64 and taking argtypes (int: an int64)."""
    f = getattr(lib, name)
    f.restype = ctypes.c_int64
    f.argtypes = [ctypes.c_int64 if t is int else t for t in argtypes]
    return f


def _c_build_dir() -> tuple[str, bool]:
    """(directory, temporary): the per-user cache $XDG_CACHE_HOME/doubleint (else
    ~/.cache/doubleint), made with mode 0700, or a fresh private temporary directory when the
    cache cannot be made, is not the user's own, or others may write to it."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "doubleint")
    with contextlib.suppress(OSError):
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
        if st.st_uid == os.getuid() and not st.st_mode & 0o022 and os.access(path, os.W_OK):
            return path, False
    return tempfile.mkdtemp(prefix="doubleint-"), True


def _read_text(path: str) -> str | None:
    with contextlib.suppress(FileNotFoundError):
        with open(path, encoding="utf-8", errors="replace") as f:
            return f.read()
    return None


def _load_c_library(source: str) -> ctypes.CDLL:
    """The library built from source by cc, from the cache when the build there has the same
    source, compiler and flags; raises OSError when cc is missing or fails."""
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler cc on PATH")
    cc = os.path.realpath(cc)
    st = os.stat(cc)
    key = zlib.crc32("\0".join((source, *_C_FLAGS, cc, str(st.st_size),
                                str(st.st_mtime_ns))).encode())
    directory, temporary = _c_build_dir()
    stem = os.path.join(directory, f"kernels-{key:08x}")
    try:
        # a stored source that differs (a crc32 collision, or a file changed in the cache)
        # is never trusted: the library is built again
        if _read_text(stem + ".c") != source or not os.path.exists(stem + ".so"):
            _build_c_library(cc, source, stem)
        return ctypes.CDLL(stem + ".so")
    finally:
        if temporary:
            shutil.rmtree(directory, ignore_errors=True)


def _build_c_library(cc: str, source: str, stem: str) -> None:
    """Build stem.so from source and store source as stem.c beside it.

    Both are written under temporary names in stem's directory and renamed into place, the
    library first, so a concurrent build or load never sees a partial file.
    """
    fd, c_tmp = tempfile.mkstemp(suffix=".c", dir=os.path.dirname(stem))
    so_tmp = c_tmp[:-2] + ".so"
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(source)
        proc = subprocess.run([cc, *_C_FLAGS, "-o", so_tmp, c_tmp, "-lm"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            raise OSError(f"{cc} exited with status {proc.returncode}: {last[0]}")
        os.replace(so_tmp, stem + ".so")
        os.replace(c_tmp, stem + ".c")
    finally:
        for path in (c_tmp, so_tmp):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
