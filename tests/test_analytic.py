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
from doubleint.analytic import CHANNELS, decibels


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


def test_decibels_at_zero_and_nan():
    # one dB rule for transfer_eval and the sweep: -inf at 0, NaN stays NaN
    assert decibels(0.0) == -math.inf
    assert math.isnan(decibels(math.nan))
    assert decibels(10.0) == 20.0 * math.log10(10.0)
    te = transfer_eval(lin(), 1, math.nan)
    assert math.isnan(te.gain) and math.isnan(te.gain_db)


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
    # NaN is no drop either: the search would report the gain never within nan dB
    for bad in (0.0, math.nan):
        with pytest.raises(DomainError, match="^drop_db must be positive$"):
            cutoff_frequency(lin(), 3, drop_db=bad)
    # bracket that ends while the gain is still within 3 dB of ideal
    with pytest.raises(CutoffNotFound):
        cutoff_frequency(lin(eps=0.2), 3, bracket=(1e-3, 1.0))


def _valid_linear_draws(seed, n):
    """n seeded (valid linear params, drop_db) pairs: gains over 6.5 decades, drop_db 0.01..31.6."""
    rng = np.random.default_rng(seed)
    while n:
        k1, k2, k3 = 10.0 ** rng.uniform(-2.0, 4.5, 3)
        p = lin(float(k1), float(k2), float(k3), float(rng.uniform(0.05, 0.99)))
        if validate_params(p).ok:
            n -= 1
            yield p, float(10.0 ** rng.uniform(-2.0, 1.5))


def test_cutoff_is_the_band_edge_on_every_channel():
    # at the cutoff each channel's gain over the ideal response crosses thr downward
    found = 0
    for p, drop_db in _valid_linear_draws(19, 300):
        thr = 10.0 ** (-drop_db / 20.0)

        def rel(channel, omega):
            return transfer_eval(p, channel, omega).gain * omega ** (3 - channel)

        try:
            cuts = [cutoff_frequency(p, channel, drop_db) for channel in CHANNELS]
        except CutoffNotFound as exc:
            # every valid set has a band; strong gains keep it open past 1e5 rad/s
            assert str(exc) == f"gain still within {drop_db:g} dB at bracket end 100000 rad/s"
            assert all(rel(channel, 1e5) >= thr for channel in CHANNELS)
            continue
        found += 1
        assert cuts[0] == cuts[1] == cuts[2]
        for channel in CHANNELS:
            # the edge is located to 1e-9; the steepest edge drawn moves the gain ~1000
            # times faster than omega, so the gain at it is thr only to ~2.4e-8
            below, above = cuts[0] * (1.0 - 1e-9), cuts[0] * (1.0 + 1e-9)
            assert rel(channel, below) >= thr > rel(channel, above)
            assert rel(channel, cuts[0]) == pytest.approx(thr, rel=1e-7)
    assert found >= 200


def test_cutoff_finds_a_band_narrower_than_a_grid_step():
    # the whole band lies within 1e-4 of its upper edge, inside one 0.46 % step of a
    # 4000-point log grid over the default bracket
    p = lin(k1=4.052286676834973, k2=22554.013439876584, k3=0.013925509899311435,
            eps=0.6704391699263365)
    drop_db = 0.012795726260080588
    thr = 10.0 ** (-drop_db / 20.0)
    cut = cutoff_frequency(p, 3, drop_db)
    assert cut == pytest.approx(224.0058977932206, rel=1e-9)
    assert transfer_eval(p, 3, cut * (1.0 - 1e-9)).gain >= thr
    assert transfer_eval(p, 3, cut * (1.0 - 1e-4)).gain < thr
    assert transfer_eval(p, 3, cut * (1.0 + 1e-9)).gain < thr


@pytest.mark.parametrize("channel", CHANNELS)
def test_cutoff_bracket_may_end_at_infinity(channel):
    p = lin(eps=0.2)
    cut = cutoff_frequency(p, channel, bracket=(1e-3, math.inf))
    assert cut == cutoff_frequency(p, channel)
    assert cut == pytest.approx(623.52175741, rel=1e-9)


def test_cutoff_under_extreme_gains():
    # k = 1e200 squares past the float range: the band still reaches past hi
    huge = lin(k1=1e200, k2=1e200, k3=1e200)
    for hi, shown in ((1e5, "100000"), (math.inf, "inf")):
        expected = f"^gain still within 3 dB at bracket end {shown} rad/s$"
        with pytest.raises(CutoffNotFound, match=expected):
            cutoff_frequency(huge, 3, bracket=(1e-3, hi))
    # k3 = 0 leaves every channel's gain 0
    for k1 in (0.1, 0.0):
        with pytest.raises(CutoffNotFound, match="^gain never within 3 dB of the ideal response"):
            cutoff_frequency(lin(k1=k1, k3=0.0), 3)


def test_cutoff_refuses_a_channel_or_mode_it_cannot_read():
    with pytest.raises(DomainError, match=r"^channel must be one of \(1, 2, 3\), got 4$"):
        cutoff_frequency(lin(), 4)
    nonlinear = ObserverParams(0.1, 0.1, 1.0, 0.2, 0.3, "nonlinear")
    with pytest.raises(DomainError, match="^cutoff_frequency requires linear-mode parameters$"):
        cutoff_frequency(nonlinear, 3)
