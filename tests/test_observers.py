import math
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from doubleint import (
    ConfigError,
    DivergedState,
    DomainError,
    ObserverParams,
    ObserverState,
    derive_alphas,
    power_sign,
    rhs,
    validate_params,
)
from doubleint.solver import _POWER_SIGN

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
alphas = st.floats(min_value=1e-3, max_value=1.0)


def test_power_sign_examples():
    assert power_sign(0.0, 0.3) == 0.0
    assert power_sign(-4.0, 0.5) == -2.0
    for x in (-3.7, -1.0, 0.0, 0.2, 11.0):
        assert power_sign(x, 1.0) == x


@given(finite_floats, alphas)
def test_power_sign_odd(x, alpha):
    assert power_sign(-x, alpha) == -power_sign(x, alpha)


@given(finite_floats, finite_floats, alphas)
def test_power_sign_monotone(x, y, alpha):
    lo, hi = min(x, y), max(x, y)
    assert power_sign(lo, alpha) <= power_sign(hi, alpha)


@given(finite_floats)
def test_power_sign_identity_at_one(x):
    assert power_sign(x, 1.0) == x


# the solver's kernels inline power_sign as this expression
inlined_power_sign = eval(f"lambda v, a: {_POWER_SIGN.format(v='v', e='a')}")


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_inlined_power_sign_is_power_sign_bit_for_bit():
    a3s = (0.3, 0.5, 1.0)
    exponents = [e for a3 in a3s for e in (a3, *derive_alphas(a3))]
    tiny = [5e-324, 1e-320, 2.2250738585072e-308, math.ulp(0.0) * 3]
    xs = [0.0, math.inf, math.nan, *tiny, *(10.0**k for k in range(-300, 301, 7)),
          0.2, 1.0, 0.1 * 3.14, 1e308, 1.7976931348623157e308]
    for x in xs:
        for v in (x, -x):
            for a in exponents:
                assert _bits(inlined_power_sign(v, a)) == _bits(power_sign(v, a)), (v, a)


@given(st.floats(), st.floats(min_value=1e-3, max_value=1.0))
def test_inlined_power_sign_property(x, alpha):
    assert _bits(inlined_power_sign(x, alpha)) == _bits(power_sign(x, alpha))


def test_derive_alphas_examples():
    a1, a2 = derive_alphas(0.3)
    assert a1 == pytest.approx(0.125, rel=1e-15)
    assert a2 == pytest.approx(0.3 / 1.7, rel=1e-15)
    assert derive_alphas(1.0) == (1.0, 1.0)
    a1, a2 = derive_alphas(0.5)
    assert a1 == pytest.approx(0.25, rel=1e-15)
    assert a2 == pytest.approx(1.0 / 3.0, rel=1e-15)


@given(alphas)
def test_derive_alphas_range(alpha3):
    a1, a2 = derive_alphas(alpha3)
    assert 0.0 < a1 <= alpha3
    assert 0.0 < a2 <= alpha3
    assert a1 <= a2


@pytest.mark.parametrize("bad", [0.0, -0.3, 1.5, 2.0])
def test_derive_alphas_domain(bad):
    with pytest.raises(DomainError):
        derive_alphas(bad)


def test_params_derived_fields():
    p = ObserverParams(0.1, 0.1, 1.0, 0.2, 0.3, "nonlinear")
    assert p.alpha1 == pytest.approx(0.125)
    assert p.alpha2 == pytest.approx(0.3 / 1.7)
    q = ObserverParams.from_rate(0.1, 0.1, 1.0, 5.0, 0.3, "linear")
    assert q.epsilon == pytest.approx(0.2)
    with pytest.raises(ConfigError):
        ObserverParams(0.1, 0.1, 1.0, 0.2, 1.0, "quadratic")


@pytest.mark.parametrize("R", [0.0, -0.0, 0])
def test_from_rate_refuses_a_zero_rate(R):
    # epsilon = 1/R: the CLI refuses the same rate with the same words
    with pytest.raises(ConfigError, match="^R must be nonzero$"):
        ObserverParams.from_rate(0.1, 0.1, 1.0, R, 1.0, "linear")


def test_validate_linear_threshold():
    p = ObserverParams(0.1, 0.1, 1.0, 0.2, 1.0, "linear")
    report = validate_params(p)
    assert report.ok
    assert report.gain_threshold == pytest.approx(0.0008, rel=1e-12)


def test_validate_gain_inequality_violated():
    p = ObserverParams(0.1, 0.0005, 1.0, 0.2, 1.0, "linear")
    report = validate_params(p)
    assert not report.ok
    assert [v.name for v in report.violations] == ["gain inequality"]
    assert "0.0008" in str(report)


def test_validate_positivity():
    report = validate_params(ObserverParams(0.0, 0.1, 1.0, 0.2, 1.0, "linear"))
    assert "positivity" in [v.name for v in report.violations]


def test_validate_alpha_and_epsilon_ranges():
    report = validate_params(ObserverParams(0.1, 0.1, 1.0, 0.2, 1.5, "nonlinear"))
    assert "alpha range" in [v.name for v in report.violations]
    report = validate_params(ObserverParams(0.1, 0.1, 1.0, 1.2, 0.3, "nonlinear"))
    assert "epsilon range" in [v.name for v in report.violations]
    report = validate_params(ObserverParams(0.1, 0.1, 1.0, 1e-4, 0.3, "nonlinear"))
    assert "epsilon range" in [v.name for v in report.violations]


@pytest.mark.parametrize("eps, alpha3, mode, threshold", [
    (1e300, 1.0, "linear", math.inf),  # eps^3 overflows
    (-0.5, 0.3, "nonlinear", math.nan),  # eps^(3 alpha3) is not real
])
def test_validate_reports_a_threshold_it_cannot_compute(eps, alpha3, mode, threshold):
    report = validate_params(ObserverParams(0.1, 0.1, 1.0, eps, alpha3, mode))
    assert {v.name for v in report.violations} == {"epsilon range", "gain inequality"}
    assert report.gain_threshold == pytest.approx(threshold, nan_ok=True)


def test_validate_accepts_all_study_parameter_sets():
    for eps in (1.0 / 3.0, 0.25, 0.2):
        for alpha3 in (0.3, 0.5, 1.0):
            for mode in ("nonlinear", "linear"):
                p = ObserverParams(0.1, 0.1, 1.0, eps, alpha3, mode)
                assert validate_params(p).ok, (eps, alpha3, mode)


def test_rhs_origin_fixed_point():
    state = ObserverState(0.0, 0.0, 0.0)
    for mode in ("nonlinear", "linear"):
        p = ObserverParams(0.1, 0.1, 1.0, 0.2, 0.3 if mode == "nonlinear" else 1.0, mode)
        assert rhs(p, state, 0.0) == (0.0, 0.0, 0.0)


def test_rhs_linear_example():
    p = ObserverParams(0.1, 0.1, 1.0, 0.2, 1.0, "linear")
    d1, d2, d3 = rhs(p, ObserverState(1.0, 1.0, 1.0), 0.0)
    assert (d1, d2) == (1.0, 1.0)
    assert d3 == pytest.approx(-640.0, rel=1e-12)


def test_rhs_nonlinear_frozen_oracle():
    # independent term-by-term evaluation (exact rational arithmetic) gives
    # dx3 = -(0.1*0.5^(1/8) - 0.1*0.25^(3/17) + 1) / 0.5^4
    p = ObserverParams(0.1, 0.1, 1.0, 0.5, 0.3, "nonlinear")
    d1, d2, d3 = rhs(p, ObserverState(1.0, -1.0, 2.0), 1.0)
    assert (d1, d2) == (-1.0, 2.0)
    assert d3 == pytest.approx(-16.21442851618740433, rel=1e-14)


def test_rhs_degeneration_exact():
    rng = np.random.default_rng(7)
    p_nl = ObserverParams(0.1, 0.1, 1.0, 0.2, 1.0, "nonlinear")
    p_lin = ObserverParams(0.1, 0.1, 1.0, 0.2, 1.0, "linear")
    for _ in range(500):
        s = ObserverState(*rng.uniform(-10.0, 10.0, size=3))
        a = float(rng.uniform(-10.0, 10.0))
        assert rhs(p_nl, s, a) == rhs(p_lin, s, a)


@pytest.mark.parametrize("mode,alpha3", [("nonlinear", 0.3), ("linear", 1.0)])
def test_rhs_odd(mode, alpha3):
    rng = np.random.default_rng(11)
    p = ObserverParams(0.1, 0.1, 1.0, 0.2, alpha3, mode)
    for _ in range(200):
        s = ObserverState(*rng.uniform(-5.0, 5.0, size=3))
        a = float(rng.uniform(-5.0, 5.0))
        neg = ObserverState(-s.x1, -s.x2, -s.x3)
        assert rhs(p, neg, -a) == tuple(-d for d in rhs(p, s, a))


def test_rhs_nonfinite_raises():
    p = ObserverParams(0.1, 0.1, 1.0, 0.2, 0.3, "nonlinear")
    with pytest.raises(DivergedState):
        rhs(p, ObserverState(math.inf, 0.0, 0.0), 0.0)
    with pytest.raises(DivergedState):
        rhs(p, ObserverState(0.0, 0.0, 0.0), math.nan)
