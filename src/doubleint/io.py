"""CSV/JSON serialization of trajectories and Bode curves.

Each table has one column list, which names the CSV header cells and the
JSON keys alike.  CSV files use '.' decimals, '\\n' line endings and fixed
9-significant-digit scientific formatting, unconditionally, so outputs diff
cleanly across platforms.  JSON files are the text of
json.dump(obj, f, indent=2, sort_keys=True) plus a newline: numbers are
Python's shortest round-trip repr, and a non-finite trajectory value is the
NaN/Infinity/-Infinity token.  Unavailable cells (no ground truth, flagged
rows) are empty in CSV; in JSON a trajectory without ground truth has no
truth or error keys, and a non-finite Bode value is null.

trajectory_to_dict gives a trajectory's columns as 1-D float arrays, which
write_json writes as the JSON lists of their tolist().  This module owns
the C of its number formatters (_C_FORMAT), which native builds, caches and
loads at the first trajectory write.  Both writers run one chunk loop,
_text: each chunk is written by a C formatter, to the bytes Python gives, or,
where the formatter refuses it or there is no library, by Python.
"""

import functools
import json
import math
from pathlib import Path

import numpy as np

from . import native
from .solver import Trajectory
from .sweep import BodeCurve, BodeRow

TRAJECTORY_COLUMNS = ("t", "x1", "x2", "x3", "a", "a1", "a2", "a3", "e1", "e2", "e3")
BODE_COLUMNS = ("f_hz", "omega_rad_s", "channel", "magnitude_db", "phase_rad",
                "phase_unwrapped_rad", "residual_rms", "source", "flag")
TRAJECTORY_HEADER = ",".join(TRAJECTORY_COLUMNS)
BODE_HEADER = ",".join(BODE_COLUMNS)


def _columns(traj: Trajectory) -> list[np.ndarray]:
    """1-D float64 columns of traj in TRAJECTORY_COLUMNS order, views where traj's arrays are
    float64; truth and errors only if present."""
    cols = [traj.times, *traj.states.T, traj.inputs]
    if traj.truths is not None:
        cols += [*traj.truths.T, *traj.errors.T]
    return [np.asarray(col, dtype=np.float64) for col in cols]


def write_trajectory_csv(path, traj: Trajectory) -> None:
    cols = _columns(traj)
    missing = len(TRAJECTORY_COLUMNS) - len(cols)
    row_end = "," * missing + "\n"
    row = ",".join(["%.8e"] * len(cols)) + row_end
    with open(path, "w", newline="") as f:
        f.write(TRAJECTORY_HEADER + "\n")
        f.writelines(_text((_c_formatters() or {}).get("csv_cells"),
                           lambda chunk: row * (chunk.size // len(cols)) % tuple(chunk.tolist()),
                           np.column_stack(cols).ravel(), CSV_CHUNK * len(cols),
                           CSV_CELL + len(row_end), "", len(cols), missing))


def trajectory_to_dict(traj: Trajectory) -> dict:
    """traj's 1-D float64 columns by name (_columns); write_json writes each as a list."""
    return dict(zip(TRAJECTORY_COLUMNS, _columns(traj)))


def _bode_values(r: BodeRow) -> tuple:
    """The cells of one Bode row in BODE_COLUMNS order."""
    return (r.f_hz, r.omega, r.channel, r.magnitude_db, r.phase_rad, r.phase_unwrapped_rad,
            r.residual_rms, r.source, r.flag)


def _num(v) -> str:
    if v is None:
        return ""
    return f"{v:.8e}" if isinstance(v, float) else str(v)


def write_bode_csv(path, curve: BodeCurve) -> None:
    with open(path, "w", newline="") as f:
        f.write(BODE_HEADER + "\n")
        for r in curve.rows:
            f.write(",".join(map(_num, _bode_values(r))) + "\n")


def bode_to_dict(curve: BodeCurve) -> dict:
    """JSON form with params and config echoed for reproducibility."""
    return {
        "source": curve.source,
        "params": curve.params,
        "config": curve.config,
        "rows": [dict(zip(BODE_COLUMNS, map(_json_float, _bode_values(r))))
                 for r in curve.rows],
    }


def _json_float(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


# rows of a CSV table, and items of a JSON number list, formatted at once: each bounds the text
# held at once (1024 CSV rows, ~170 kB, wrote as fast as 4096 with ~1.8 MB less peak memory)
CSV_CHUNK = 1024
JSON_CHUNK = 4096
# characters of a cell's number: "%.8e" of a float takes at most 16, its repr at most 24
CSV_CELL, JSON_ITEM = 16, 24
JSON_SEP = ",\n    "


# C of the trajectory writers' number text, byte for byte as Python writes it: csv_cells writes
# "%.8e" (9 digits, half to even) and json_items the shortest repr that reads back as the
# same double.  Each writes the n cells of v, a chunk, into buf with their separators and returns
# the bytes written, or -1 at the first cell it does not cover.  Both take their
# digits from one routine, shortest(), Schubfach (R. Giulietti, "The Schubfach way to render
# doubles", 2020): three 64x128-bit products with a table of 10^-k to 128 bits, rounding up
# (POW10, which _c_source renders from exact integers) give x and the ends of its rounding
# interval at 10^k to the precision their comparisons need, and of the decimals in the interval
# it keeps the one with the fewest digits, then the nearest to x, then the even one, as repr
# does, for every finite double.  csv_cells rounds those digits to 9 for every normal double and
# refuses a chunk that holds a subnormal, whose interval is too wide for that.  Without 128-bit
# integers both refuse every chunk.
_C_FORMAT = """\
#include <stdint.h>
#include <string.h>

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* the p digits of c at s, most significant first */
static char *digits(uint64_t c, int p, char *s)
{
    for (int i = p - 1; i >= 0; i--, c /= 10)
        s[i] = (char)('0' + c % 10);
    return s + p;
}

/* 'e', the sign and at least two digits of x at s */
static char *exponent(int x, char *s)
{
    *s++ = 'e';
    *s++ = x < 0 ? '-' : '+';
    x = x < 0 ? -x : x;
    if (x >= 100)
        *s++ = (char)('0' + x / 100);
    *s++ = (char)('0' + x / 10 % 10);
    *s++ = (char)('0' + x % 10);
    return s;
}

/* Write v's sign at *s and return 1 with v = m * 2^e, m of 53 bits, or of fewer with e = -1074
   for a subnormal; or return 0 with *s past the whole text of a NaN (unsigned), an infinity or a
   zero, the token nan, inf or zero */
static int split(double v, char **s, const char *nan, const char *inf, const char *zero,
                 uint64_t *m, int *e)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    int ex = (int)(bits >> 52 & 0x7ff);
    uint64_t frac = bits & ((UINT64_C(1) << 52) - 1);
    const char *token = ex == 0x7ff ? (frac ? nan : inf) : ex == 0 && !frac ? zero : NULL;
    if (bits >> 63 && !(ex == 0x7ff && frac))
        *(*s)++ = '-';
    if (token) {
        memcpy(*s, token, strlen(token));
        *s += strlen(token);
        return 0;
    }
    *m = ex ? frac | UINT64_C(1) << 52 : frac;
    *e = (ex ? ex : 1) - 1075;
    return 1;
}

/* g = POW10[i] = {high, low 64 bits} of floor(10^j * 2^(127 - floor(log2 10^j))) + 1 for
   j = i + POW10_MIN, every 10^-k that shortest() takes */
#define POW10_MIN (@POW10_MIN@)
static const uint64_t POW10[][2] = {
@POW10@};

/* floor(g * cp / 2^128), its last bit set when the fraction dropped reaches 2^-63 (Schubfach's
   round to odd): with g, Giulietti shows, it orders against even integers as the exact
   x * 10^-k does */
static uint64_t round_to_odd(const uint64_t *g, uint64_t cp)
{
    u128 low = (u128)g[1] * cp;
    u128 mid = (u128)g[0] * cp + (low >> 64);
    return (uint64_t)(mid >> 64) | ((uint64_t)mid > 1);
}

/* The decimal f * 10^k that repr writes for x = m * 2^e > 0, by Schubfach: of the decimals that
   read back as x, the fewest digits, then the nearest to x, then the even last digit.  It returns
   the sign of x - f * 10^k, from vb against 4f at the scale of vb (an even integer) */
static int shortest(uint64_t m, int e, uint64_t *f, int *k)
{
    /* below a power of two the next double is half as far, except at the least normal one; the
       rounding interval's ends read back as x when m is even */
    int narrow = m == UINT64_C(1) << 52 && e > -1074, odd = (int)(m & 1);
    /* k = floor(log10(2^e)), or floor(log10(3/4 * 2^e)) when narrow: the interval times
       10^-k is 1 to 10 wide, so it holds at least one integer and at most one multiple of 10 */
    *k = (e * 1262611 - (narrow ? 524031 : 0)) >> 22;
    /* 4x * 10^-k is (4m << h) * g / 2^128 to g's precision, with h in 1..4: 4m << h fits 64
       bits */
    int h = e + (-*k * 1741647 >> 19) + 1;
    const uint64_t *g = POW10[-*k - POW10_MIN];
    uint64_t vb = round_to_odd(g, 4 * m << h);
    uint64_t lower = round_to_odd(g, (4 * m - 2 + narrow) << h) + odd;
    uint64_t upper = round_to_odd(g, (4 * m + 2) << h) - odd;
    uint64_t s = vb >> 2;
    /* one digit fewer: the multiple of 10 in the interval, if any; 1-digit s is as short */
    if (s >= 10) {
        uint64_t sp = s / 10;
        int up = lower <= 40 * sp, wp = 40 * sp + 40 <= upper;
        if (up != wp) {
            *f = sp + wp;
            ++*k;
            return (vb > 40 * *f) - (vb < 40 * *f);
        }
    }
    /* otherwise s or s + 1, whichever of the two lies in the interval, or the nearer of the two,
       ties to the even one */
    int u = lower <= 4 * s, w = 4 * s + 4 <= upper;
    *f = s + (u != w ? w : vb > 4 * s + 2 || (vb == 4 * s + 2 && (s & 1)));
    return (vb > 4 * *f) - (vb < 4 * *f);
}

/* "%.8e" of v at s: the end of its text, or NULL for a subnormal.  A normal x's rounding interval
   is under 2^-52 * x wide, narrower than the 1e-10 * x between 10-digit decimals, so a 10-digit
   decimal ending in 5, where 9 digits round, lies in it only as its shortest decimal d: x's 9
   digits are d's, to nearest, and where d is such a midpoint the sign of x - d decides, half to
   even when x == d */
static char *csv_cell(double v, char *s)
{
    uint64_t m, f;
    int e, k;
    if (!split(v, &s, "nan", "inf", "0.00000000e+00", &m, &e))
        return s;
    if (!(m >> 52))
        return NULL;
    int side = shortest(m, e, &f, &k);
    /* f has 15 to 17 digits; padded to 17, q is its first 9 and r the other 8 */
    for (; f < UINT64_C(10000000000000000); f *= 10)
        k--;
    uint64_t q = f / 100000000, r = f % 100000000;
    q += r > 50000000 || (r == 50000000 && (side > 0 || (side == 0 && (q & 1))));
    k += 16;
    if (q == 1000000000) {
        q = 100000000;
        k++;
    }
    digits(q, 9, s + 1);
    s[0] = s[1];
    s[1] = '.';
    return exponent(k, s + 10);
}

/* repr of v at s: the end of its text */
static char *json_item(double v, char *s)
{
    uint64_t m, f;
    char dig[17];
    int e, k, nd = 1;
    if (!split(v, &s, "NaN", "Infinity", "0.0", &m, &e))
        return s;
    shortest(m, e, &f, &k);
    for (uint64_t ten = 10; nd < 17 && f >= ten; ten *= 10)
        nd++;
    int decpt = nd + k;
    digits(f, nd, dig);
    while (nd > 1 && dig[nd - 1] == '0')
        nd--;
    if (decpt <= -4 || decpt > 16) {
        *s++ = dig[0];
        if (nd > 1) {
            *s++ = '.';
            memcpy(s, dig + 1, nd - 1);
            s += nd - 1;
        }
        return exponent(decpt - 1, s);
    }
    if (decpt <= 0) {
        memcpy(s, "0.", 2);
        memset(s + 2, '0', -decpt);
        s += 2 - decpt;
        memcpy(s, dig, nd);
        return s + nd;
    }
    if (decpt < nd) {
        memcpy(s, dig, decpt);
        s[decpt] = '.';
        memcpy(s + decpt + 1, dig + decpt, nd - decpt);
        return s + nd + 1;
    }
    memcpy(s, dig, nd);
    memset(s + nd, '0', decpt - nd);
    memcpy(s + decpt, ".0", 2);
    return s + decpt + 2;
}
#else
static char *csv_cell(double v, char *s) { (void)v; (void)s; return NULL; }
static char *json_item(double v, char *s) { (void)v; (void)s; return NULL; }
#endif

/* whole rows of a row-major table of cols columns: each cell followed by ',', or at a row's end
   by missing commas and '\\n' */
int64_t csv_cells(const double *v, int64_t n, int64_t cols, int64_t missing, char *buf)
{
    char *s = buf;
    for (int64_t i = 0; i < n; i++) {
        if (!(s = csv_cell(v[i], s)))
            return -1;
        if ((i + 1) % cols)
            *s++ = ',';
        else {
            memset(s, ',', missing);
            s += missing;
            *s++ = '\\n';
        }
    }
    return s - buf;
}

/* items of a JSON list: each after the first preceded by ",\\n    " */
int64_t json_items(const double *v, int64_t n, char *buf)
{
    char *s = buf;
    for (int64_t i = 0; i < n; i++) {
        if (i) {
            memcpy(s, ",\\n    ", 6);
            s += 6;
        }
        if (!(s = json_item(v[i], s)))
            return -1;
    }
    return s - buf;
}
"""

def _pow10_rows() -> tuple[int, str]:
    """(POW10_MIN, rows) of _C_FORMAT's POW10 table, from exact integers: for each j from
    -floor(log10(2^971)) to -floor(log10(2^-1074)), the decimal exponents -k of the largest
    and the least positive double, the row {high, low} of the 128 bits of
    floor(10^j * 2^(127 - b)) + 1, b = floor(log2 10^j).  It takes ~1 ms."""
    lo, hi = 1 - len(str(2**971)), len(str(2**1074))
    rows = []
    for j in range(lo, hi + 1):
        p = 10 ** abs(j)
        # 10^j has b + 1 bits for j >= 0, and 1 / 10^j has -b of them
        g = (p << 127 >> (p.bit_length() - 1) if j >= 0
             else (1 << (127 + p.bit_length())) // p) + 1
        digits = f"{g:032x}"
        rows.append(f"    {{0x{digits[:16]}, 0x{digits[16:]}}},\n")
    return lo, "".join(rows)


@functools.cache
def _c_source() -> str:
    """_C_FORMAT with its POW10 table: the C of this module's library."""
    pow10_min, rows = _pow10_rows()
    return _C_FORMAT.replace("@POW10_MIN@", str(pow10_min)).replace("@POW10@", rows)


def _c_bind(lib) -> dict:
    """csv_cells and json_items over lib, a library built from _c_source(): each is
    name(chunk, n, *extra, buf) -> bytes written or -1, with extra int64s (csv_cells: cols,
    missing)."""
    chunk, buf = native.pointer(np.float64, 1, "C_CONTIGUOUS"), native.pointer(np.uint8, 1)
    return {"csv_cells": native.function(lib, "csv_cells", chunk, int, int, int, buf),
            "json_items": native.function(lib, "json_items", chunk, int, buf)}


def _c_formatters() -> dict | None:
    """The C formatters by name (native.load), or None without cc, after one warning."""
    return native.load(_c_source(), _c_bind)

def _text(formatter, python_text, values: np.ndarray, step: int, width: int, sep: str, *args):
    """The text of the C-contiguous float64 array values, step cells at a time with sep between
    chunks.  formatter, one of _c_formatters() (name(chunk, n, *args, buf)), writes each chunk
    into one reused buffer of step * width bytes, width bounding a cell's text and its
    separator; python_text(chunk) writes a chunk it refuses, and every chunk when formatter is
    None (no library)."""
    buf = np.empty(min(step, values.size) * width, np.uint8)
    for lo in range(0, values.size, step):
        chunk = values[lo:lo + step]
        n = formatter(chunk, chunk.size, *args, buf) if formatter else -1
        if lo:
            yield sep
        yield str(buf[:n], "ascii") if n >= 0 else python_text(chunk)


def write_json(path, obj) -> None:
    """Write exactly the text of json.dump(obj, f, indent=2, sort_keys=True) and a newline,
    where a value of a top-level dict may be a 1-D float64 array, written as its tolist().

    The indented encoder is pure Python and writes one item at a time, so a
    dict with str keys is laid out here, key by key, and each of its values
    that is a 1-D float64 array is written in chunks (_text): by the C
    library's json_items, or without it by json's C encoder.  Number text holds
    no ", ", so that encoder's item separator marks the indented layout's line
    breaks.
    """
    with open(path, "w", newline="") as f:
        if type(obj) is dict and obj and all(type(k) is str for k in obj):
            sep = "{\n  "
            for key in sorted(obj):
                f.write(f"{sep}{json.dumps(key)}: ")
                _write_value(f, obj[key])
                sep = ",\n  "
            f.write("\n}")
        else:
            json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_value(f, v) -> None:
    """v as an indented value one level into the top-level dict."""
    if not (type(v) is np.ndarray and v.dtype == np.float64 and v.ndim == 1):
        f.write(json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n  "))
        return
    if not v.size:
        f.write("[]")
        return
    f.write("[\n    ")
    f.writelines(_text((_c_formatters() or {}).get("json_items"),
                       lambda chunk: json.dumps(chunk.tolist())[1:-1].replace(", ", JSON_SEP),
                       np.ascontiguousarray(v), JSON_CHUNK, JSON_ITEM + len(JSON_SEP), JSON_SEP))
    f.write("\n  ]")


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
