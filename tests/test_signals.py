import math

import numpy as np
import pytest

from doubleint import NoiseTerm, SignalSpec, UnsupportedTruth, make_input_fn, truth_arrays
from doubleint.errors import ConfigError
from doubleint.signals import (
    REF_COEF,
    REF_RATE,
    REFERENCE_NOISE,
    check_horizon,
    paper_reference_spec,
)


def truth_at(spec, t):
    """(a1, a2, a3) at one time, as plain floats."""
    return tuple(float(v) for v in truth_arrays(spec, [t])[0])


def test_pure_sinusoid_at_zero():
    spec = SignalSpec("sinusoid", 1.0, 2.0 * math.pi)
    assert make_input_fn(spec)(0.0) == 0.0


def test_reference_noise_at_zero():
    # 0.1 sin0 + 0.1 cos0 + 0.05 sin0 + 0.05 cos0 = 0.15
    spec = SignalSpec("sinusoid", 0.0, 1.0, REFERENCE_NOISE)
    assert make_input_fn(spec)(0.0) == pytest.approx(0.15, abs=1e-15)


def test_paper_reference_value():
    spec = paper_reference_spec(with_noise=False)
    expected = -0.1 * 3.14**2 * math.sin(3.14 * 0.5)
    assert make_input_fn(spec)(0.5) == pytest.approx(expected, rel=1e-15)


def test_truth_paper_reference_at_zero():
    a1, a2, a3 = truth_at(paper_reference_spec(), 0.0)
    assert a1 == 0.0
    assert a2 == pytest.approx(0.1 * 3.14, rel=1e-15)
    assert a3 == 0.0


def test_truth_paper_reference_at_one():
    a1, a2, a3 = truth_at(paper_reference_spec(), 1.0)
    assert a1 == pytest.approx(0.1 * math.sin(3.14), rel=1e-15)
    assert a2 == pytest.approx(0.1 * 3.14 * math.cos(3.14), rel=1e-15)
    assert a3 == pytest.approx(-0.1 * 3.14**2 * math.sin(3.14), rel=1e-15)


def test_truth_sinusoid_zero_at_zero():
    assert truth_at(SignalSpec("sinusoid", 1.0, 1.0), 0.0) == (0.0, 0.0, 0.0)
    # a zero rate has an identically zero truth
    assert not truth_arrays(SignalSpec("sinusoid", 1.0, 0.0), [0.0, 2.0]).any()


def test_truth_excludes_noise():
    clean = paper_reference_spec(with_noise=False)
    noisy = paper_reference_spec(with_noise=True)
    ts = np.array([0.0, 0.3, 2.7])
    assert np.array_equal(truth_arrays(clean, ts), truth_arrays(noisy, ts))
    for t in ts:
        assert make_input_fn(noisy)(t) != make_input_fn(clean)(t) or t == 0.0


def test_composite_has_no_truth():
    spec = SignalSpec("composite", 1.0, 2.0, REFERENCE_NOISE)
    with pytest.raises(UnsupportedTruth):
        truth_arrays(spec, np.array([0.0, 1.0]))


def test_noise_free_input_equals_truth_a3_exactly():
    spec = SignalSpec("sinusoid", 2.5, 3.7)
    ts = np.linspace(0.0, 10.0, 57)
    a3 = truth_arrays(spec, ts)[:, 2]
    a_fn = make_input_fn(spec)
    for t, v in zip(ts, a3):
        assert a_fn(float(t)) == v


def test_double_derivative_of_a1_matches_a3():
    # central second difference of the double integral reproduces the signal
    spec = SignalSpec("sinusoid", 1.3, 2.0)
    h = 1e-4
    for t in (0.4, 1.1, 2.9, 6.3):
        (a1_lo, _, _), (a1, _, a3), (a1_hi, _, _) = truth_arrays(spec, [t - h, t, t + h])
        if abs(a3) < 0.1:  # skip zero crossings
            continue
        assert (a1_hi - 2.0 * a1 + a1_lo) / h**2 == pytest.approx(a3, rel=1e-4)


def test_determinism():
    spec = paper_reference_spec()
    values = {make_input_fn(spec)(0.7182818) for _ in range(10)}
    assert len(values) == 1
    assert len({truth_at(spec, 0.7182818) for _ in range(10)}) == 1


def test_make_input_fn_adds_noise_terms_in_order_bitwise():
    # the base waveform first, then each noise term in the order given
    spec = paper_reference_spec(with_noise=True)
    fn = make_input_fn(spec)
    for t in np.linspace(0.0, 5.0, 101):
        t = float(t)
        v = -REF_COEF * REF_RATE * REF_RATE * math.sin(REF_RATE * t)
        for n in REFERENCE_NOISE:
            v += n.amp * (math.sin if n.phase == "sine" else math.cos)(n.omega * t)
        assert fn(t) == v


def test_truth_arrays_match_scalar():
    a, w = 0.8, 5.0
    ts = np.linspace(0.0, 3.0, 31)
    arr = truth_arrays(SignalSpec("sinusoid", a, w), ts)
    for row, t in zip(arr, ts):
        expected = (a * (t - math.sin(w * t) / w) / w, a * (1.0 - math.cos(w * t)) / w,
                    a * math.sin(w * t))
        assert tuple(row) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("w", [5e-324, 1e-200, 1e-6])
def test_truth_at_small_phase_follows_the_series(w):
    # t - sin(wt)/w cancels to noise for a small wt, and t/w overflows for a tiny w;
    # the leading series terms are within (wt)^2/20 <= 1.25e-10 of the values
    ts = np.array([0.0, 0.02, 50.0])
    arr = truth_arrays(SignalSpec("sinusoid", 1.5, w), ts)
    assert np.all(np.isfinite(arr))
    assert arr[:, 0] == pytest.approx(1.5 * w * ts**3 / 6.0, rel=1e-9, abs=1e-300)
    assert arr[:, 1] == pytest.approx(1.5 * w * ts**2 / 2.0, rel=1e-9, abs=1e-300)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        SignalSpec("sawtooth", 1.0, 1.0)
    with pytest.raises(ValueError):
        SignalSpec("sinusoid", -1.0, 1.0)
    with pytest.raises(ValueError):
        NoiseTerm(0.1, 1.0, "square")
    with pytest.raises(ValueError):
        NoiseTerm(-0.1, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^omega must be finite"):
            SignalSpec("sinusoid", 1.0, bad)
        with pytest.raises(ValueError, match="^omega must be finite"):
            NoiseTerm(0.1, bad)
    with pytest.raises(ValueError, match="^amplitude must be >= 0, got nan"):
        SignalSpec("sinusoid", math.nan, 1.0)
    with pytest.raises(ValueError, match="^amp must be >= 0, got nan"):
        NoiseTerm(math.nan, 1.0)
    # an infinite amplitude is allowed: the run that follows diverges
    SignalSpec("sinusoid", math.inf, 1.0)


def test_check_horizon_names_the_overflowing_rate():
    check_horizon(SignalSpec("sinusoid", 1.0, 1e307), 8.0)
    with pytest.raises(ConfigError, match=r"^omega 1e\+307 overflows"):
        check_horizon(SignalSpec("sinusoid", 1.0, 1e307), 20.0)
    noisy = SignalSpec("sinusoid", 1.0, 1.0, (NoiseTerm(0.1, 10.0), NoiseTerm(0.1, 1e307)))
    with pytest.raises(ConfigError, match=r"^noise\[1\]\.omega 1e\+307 overflows"):
        check_horizon(noisy, 20.0)
    # paper_reference ignores its omega field and runs at REF_RATE
    check_horizon(SignalSpec("paper_reference", 1.0, 1e307), 20.0)


def test_reference_constants():
    assert REF_COEF == 0.1
    assert REF_RATE == 3.14
