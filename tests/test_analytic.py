import cmath
import math

import numpy as np
import pytest

from doubleint import (
    CutoffNotFound,
    DomainError,
    ObserverParams,
    SingularAtDC,
    cutoff_frequency,
    is_hurwitz_cubic,
    limit_transfer,
    transfer_eval,
    validate_params,
)


def lin(k1=0.1, k2=0.1, k3=1.0, eps=0.2):
    return ObserverParams(k1, k2, k3, eps, 1.0, "linear")


def test_dc_gain_channel_one():
    te = transfer_eval(lin(), 1, 0.0)
    assert te.gain == pytest.approx(50.0, rel=1e-15)
    assert te.gain_db == pytest.approx(33.979400086720376, rel=1e-12)


def test_dc_gain_channel_three_vanishes():
    te = transfer_eval(lin(), 3, 0.0)
    assert te.gain == 0.0
    assert te.gain_db == -math.inf


def test_channel_two_frozen_oracle():
    # independent exact-rational evaluation of the transfer function
    te = transfer_eval(lin(), 2, 3.14)
    assert te.value.real == pytest.approx(-0.0011991471219214531, rel=1e-12)
    assert te.value.imag == pytest.approx(-0.31911415728061829, rel=1e-12)
    assert te.gain == pytest.approx(0.31911641031250524, rel=1e-12)
    assert te.gain_db == pytest.approx(-9.9210172395446241, rel=1e-12)
    assert te.phase == pytest.approx(-1.5745540462516796, rel=1e-12)


def test_transfer_requires_linear_mode():
    p = ObserverParams(0.1, 0.1, 1.0, 0.2, 0.3, "nonlinear")
    with pytest.raises(DomainError):
        transfer_eval(p, 1, 1.0)
    with pytest.raises(DomainError):
        transfer_eval(lin(), 4, 1.0)


def test_channel_chaining():
    # H2 = s H1 and H3 = s H2 pointwise
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = lin(
            k1=float(rng.uniform(0.01, 5.0)),
            k2=float(rng.uniform(0.5, 5.0)),
            k3=float(rng.uniform(0.5, 5.0)),
            eps=float(rng.uniform(0.05, 0.5)),
        )
        for omega in (0.1, 1.0, 17.3, 500.0):
            s = 1j * omega
            h1 = transfer_eval(p, 1, omega).value
            h2 = transfer_eval(p, 2, omega).value
            h3 = transfer_eval(p, 3, omega).value
            assert h2 == pytest.approx(s * h1, rel=1e-12)
            assert h3 == pytest.approx(s * h2, rel=1e-12)


def test_limit_transfer_examples():
    assert limit_transfer(3, 0.37) == complex(1.0, 0.0)
    assert limit_transfer(2, 1.0) == complex(0.0, -1.0)
    h = limit_transfer(1, 2.0)
    assert abs(h) == pytest.approx(0.25, rel=1e-15)
    assert cmath.phase(h) == pytest.approx(-math.pi)
    with pytest.raises(SingularAtDC):
        limit_transfer(1, 0.0)
    with pytest.raises(SingularAtDC):
        limit_transfer(2, 0.0)
    assert limit_transfer(3, 0.0) == complex(1.0, 0.0)


@pytest.mark.parametrize("omega", [1e154, 1e200, 1e300, 1.7e308])
def test_limit_transfer_stays_finite_at_huge_omega(omega):
    # (i omega)^-2 overflows past omega ~ 1e154; the ideal response only shrinks
    expected = {1: complex(-1.0 / omega / omega, 0.0), 2: complex(0.0, -1.0 / omega), 3: 1.0}
    for channel, value in expected.items():
        h = limit_transfer(channel, omega)
        assert cmath.isfinite(h)
        assert h == pytest.approx(value, rel=1e-15, abs=1e-320)


@pytest.mark.parametrize("channel, omega", [(1, 1e-155), (1, 1e-160), (1, 1e-300), (1, 5e-324),
                                            (2, 1e-310), (2, 5e-324)])
def test_limit_transfer_is_infinite_past_the_float_range_at_tiny_omega(channel, omega):
    # (i omega)^-2 = -1/omega^2 and (i omega)^-1 = -i/omega pass 1.8e308 here; the
    # phase stays that of the finite values, -pi and -pi/2
    h = limit_transfer(channel, omega)
    assert abs(h) == math.inf
    assert cmath.phase(h) == (-math.pi if channel == 1 else -math.pi / 2)
    assert cmath.phase(limit_transfer(channel, 1.0)) == cmath.phase(h)


def test_limit_transfer_stays_finite_down_to_the_float_range():
    assert limit_transfer(1, 1e-154) == (1j * 1e-154) ** -2
    assert limit_transfer(2, 1e-300) == (1j * 1e-300) ** -1


@pytest.mark.parametrize("R", [3.0, 5.0])
@pytest.mark.parametrize("channel", [1, 2])
def test_cutoff_bracket_may_start_at_a_tiny_omega(channel, R):
    p = lin(eps=1.0 / R)
    assert cutoff_frequency(p, channel, bracket=(1e-300, 1e5)) == cutoff_frequency(p, channel)


def test_limit_convergence_spot():
    # deviation from the ideal response shrinks with eps at a fixed frequency
    omega = 1.0
    for j in (1, 2, 3):
        devs = [
            abs(transfer_eval(lin(k1=0.01, k2=0.5, eps=e), j, omega).value
                - limit_transfer(j, omega))
            for e in (0.3, 0.2, 0.1, 0.05, 0.01)
        ]
        assert all(b < a for a, b in zip(devs, devs[1:]))


def test_hurwitz_examples():
    assert is_hurwitz_cubic(2.0, 3.0, 1.0)
    assert not is_hurwitz_cubic(1.0, 0.5, 1.0)
    # proof polynomial with the scenario parameters: c2=k3/eps^3=125
    assert is_hurwitz_cubic(125.0, 0.1, 0.1)
    # strict: marginal product c2*c1 == c0 rejected
    assert not is_hurwitz_cubic(1.0, 1.0, 1.0)
    assert not is_hurwitz_cubic(-2.0, 3.0, 1.0)
    assert not is_hurwitz_cubic(2.0, 3.0, 0.0)


def test_hurwitz_matches_validate_params():
    rng = np.random.default_rng(42)
    for _ in range(2000):
        k1, k2, k3 = rng.uniform(0.0, 10.0, size=3) + 1e-12
        eps = float(rng.uniform(0.01, 0.99))
        p = ObserverParams(float(k1), float(k2), float(k3), eps, 1.0, "linear")
        assert validate_params(p).ok == is_hurwitz_cubic(k3 / eps**3, float(k2), float(k1))


@pytest.mark.parametrize("omega", [1e110, 1e200, 1e300])
def test_transfer_eval_past_overflow_follows_the_asymptote(omega):
    # H_c(i omega) -> k3 (i omega)^(c-4) / eps^4; s^(c-1) or the cubic overflows here
    p = lin(k3=2.0)
    te = transfer_eval(p, 3, omega)
    assert te.gain_db == pytest.approx(20.0 * math.log10(2.0 / (0.2**4 * omega)), rel=1e-12)
    assert te.phase == pytest.approx(-math.pi / 2, rel=1e-12)
    gains = [transfer_eval(p, ch, omega).gain for ch in (1, 2, 3)]
    assert all(math.isfinite(g) for g in gains) and gains[0] <= gains[1] <= gains[2]


def test_cutoff_monotone_in_rate():
    cuts = [cutoff_frequency(lin(eps=1.0 / R), 3) for R in (3, 4, 5)]
    assert cuts[0] < cuts[1] < cuts[2]


def test_cutoff_regression_values():
    assert cutoff_frequency(lin(eps=1.0 / 3.0), 3) == pytest.approx(80.81944623, rel=1e-6)
    assert cutoff_frequency(lin(eps=1.0 / 4.0), 3) == pytest.approx(255.39921940, rel=1e-6)
    assert cutoff_frequency(lin(eps=1.0 / 5.0), 3) == pytest.approx(623.52175741, rel=1e-6)


def test_cutoff_against_dense_scan_under_gain_scaling():
    # independent oracle: brute-force log grid scan for the last crossing
    def scan(p, channel, drop_db=3.0):
        thr = 10.0 ** (-drop_db / 20.0)
        grid = np.logspace(-3, 5, 20001)
        rel = np.array(
            [transfer_eval(p, channel, om).gain * om ** (3 - channel) for om in grid]
        )
        above = rel >= thr
        idx = np.nonzero(above[:-1] & ~above[1:])[0]
        return grid[idx[-1]], grid[idx[-1] + 1]

    for c in (2.0, 10.0):
        p = lin(k1=0.1 * c, k2=0.1, k3=1.0 * c, eps=0.25)
        lo, hi = scan(p, 3)
        got = cutoff_frequency(p, 3)
        assert lo <= got <= hi


def test_cutoff_errors():
    with pytest.raises(DomainError):
        cutoff_frequency(lin(), 3, drop_db=0.0)
    # bracket that ends while the gain is still within 3 dB of ideal
    with pytest.raises(CutoffNotFound):
        cutoff_frequency(lin(eps=0.2), 3, bracket=(1e-3, 1.0))
