import math

import numpy as np
import pytest

from cavity_loader import numerics, pulses


ALL_KINDS = ["sech", "rectangular", "exp_rising", "exp_decaying"]


def _norm_squared(p):
    """Adaptive quadrature of |Phi_b|^2 over the support."""
    val = numerics.quad1(lambda t: np.abs(p.amplitude(t)) ** 2, p.support, breakpoints=(p.t0,))
    return float(val.real)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("T,t0", [(1.0, 0.0), (2.0, 2.0), (0.3, -1.5), (17.0, 5.0)])
def test_unit_norm(kind, T, t0):
    p = pulses.make_named(kind, T, t0)
    assert _norm_squared(p) == pytest.approx(1.0, abs=1e-9)


def test_sech_peak_value():
    p = pulses.make_sech(1.0, 1.0)
    assert p.amplitude(1.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_sech_peak_location():
    p = pulses.make_sech(2.0, 2.0)
    grid = np.linspace(-8.0, 12.0, 4001)
    vals = np.abs(p.amplitude(grid))
    assert grid[int(np.argmax(vals))] == pytest.approx(2.0, abs=5e-3)


def test_rectangular_is_flat_unit_height():
    p = pulses.make_named("rectangular", 1.0, 0.5)
    for t in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert p.amplitude(t) == pytest.approx(1.0, abs=1e-12)
    assert p.amplitude(-0.01) == 0.0
    assert p.amplitude(1.01) == 0.0


def test_exp_decaying_causal_support():
    p = pulses.make_named("exp_decaying", 2.0, 1.0)
    assert p.amplitude(0.999) == 0.0
    assert abs(p.amplitude(1.0)) > 0.0


def test_exp_rising_anticausal_support():
    p = pulses.make_named("exp_rising", 2.0, 1.0)
    assert p.amplitude(1.001) == 0.0
    assert abs(p.amplitude(1.0)) > 0.0


def test_support_exact_zero():
    for kind in ALL_KINDS:
        p = pulses.make_named(kind, 1.5, 0.7)
        lo, hi = p.support
        assert p.amplitude(lo - 1e-9) == 0.0 + 0.0j
        assert p.amplitude(hi + 1e-9) == 0.0 + 0.0j
        out = p.amplitude(np.array([lo - 5.0, hi + 5.0]))
        assert np.all(out == 0.0)


def test_scalar_amplitude_matches_array():
    for p in [pulses.make_named(kind, 1.5, 0.7) for kind in ALL_KINDS]:
        lo, hi = p.support
        t = np.concatenate([np.linspace(lo - 1.0, hi + 1.0, 101), [lo, hi]])
        one = [p.amplitude(float(x)) for x in t]
        assert all(type(v) is complex for v in one)
        assert np.array(one).tobytes() == p.amplitude(t).tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_time_scaling_law(kind):
    # pulse of width T at time t equals the unit-width pulse at t/T over sqrt(T)
    T = 3.7
    wide = pulses.make_named(kind, T, 0.0)
    unit = pulses.make_named(kind, 1.0, 0.0)
    ts = np.linspace(-4.0 * T, 4.0 * T, 57)
    np.testing.assert_allclose(
        wide.amplitude(ts), unit.amplitude(ts / T) / math.sqrt(T), atol=1e-12
    )


def test_zero_pulse_is_zero():
    p = pulses.make_named("zero", 1.0, 0.0)
    assert np.all(p.amplitude(np.linspace(-5, 5, 11)) == 0.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_nonpositive_width_rejected(bad):
    with pytest.raises(ValueError):
        pulses.make_sech(bad, 0.0)
    with pytest.raises(ValueError):
        pulses.make_named("rectangular", bad, 0.0)


@pytest.mark.parametrize("kind", ["sech", "exp_decaying", "exp_rising"])
def test_subnormal_width_rejected(kind):
    # sqrt(2/T) overflows: the pulse would evaluate to inf and nan
    with pytest.raises(ValueError, match="too small"):
        pulses.make_named(kind, 1e-310, 0.0)


@pytest.mark.parametrize("kind", ["sech", "rectangular", "exp_decaying", "exp_rising"])
def test_width_past_the_window_range_rejected(kind):
    # the routes' windows of ~20 widths would overflow to inf and nan
    with pytest.raises(ValueError, match="too large"):
        pulses.make_named(kind, 1.7e308, 1.0)
    pulses.make_named(kind, pulses.MAX_WIDTH, 1.0)


def test_subnormal_width_rectangle_stays_finite():
    # its height 1/sqrt(T) is finite for every positive width
    p = pulses.make_named("rectangular", 1e-310, 0.0)
    assert np.isfinite(p.amplitude(np.array([0.0]))).all()


def test_frequency_shift_rejects_a_phase_that_overflows():
    # the phase delta_omega t over the support [-4, 6] is not finite
    base = pulses.make_sech(1.0, 1.0)
    for shift in (math.inf, 1e308):
        with pytest.raises(ValueError, match="carrier shift"):
            pulses.frequency_shifted(base, shift)
    assert np.isfinite(pulses.frequency_shifted(base, 1e307).amplitude(base.support[1]))
    # two shifts add into one carrier, whose phase is checked
    once = pulses.frequency_shifted(base, 2e307)
    with pytest.raises(ValueError, match="carrier shift"):
        pulses.frequency_shifted(once, 2e307)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        pulses.make_named("gaussian", 1.0, 0.0)


@pytest.mark.parametrize(
    "kind, T", [("sech", 1e-310), ("exp_rising", 1e-310), ("gaussian", 1.0), ("gaussian", -1.0)]
)
def test_direct_construction_is_refused_as_make_named_refuses(kind, T):
    # the constructor runs make_named's checks, in its order: the width
    # before the kind
    with pytest.raises(ValueError) as named:
        pulses.make_named(kind, T, 0.0)
    with pytest.raises(ValueError) as direct:
        pulses.PulseShape(kind, T, 0.0)
    assert str(direct.value) == str(named.value)


def test_equal_parameters_give_equal_pulses():
    # a pulse is its parameters: 2 and 2.0 are one width, the derived
    # support and envelope take no part, and the carrier does
    sech = pulses.make_sech(2, 2)
    assert sech == pulses.make_named("sech", 2.0, 2.0)
    assert hash(sech) == hash(pulses.make_named("sech", 2.0, 2.0))
    assert sech != pulses.make_named("sech", 2.0, 2.5)
    assert sech != pulses.make_named("rectangular", 2.0, 2.0)
    assert pulses.frequency_shifted(sech, 0.5) == pulses.frequency_shifted(sech, 0.5)
    assert pulses.frequency_shifted(sech, 0.5) != pulses.frequency_shifted(sech, 0.7)
    assert pulses.frequency_shifted(sech, 0.5) != sech


def test_frequency_shift_preserves_norm_and_support():
    base = pulses.make_sech(2.0, 1.0)
    shifted = pulses.frequency_shifted(base, 0.7)
    assert shifted.support == base.support
    assert shifted.T == base.T
    assert _norm_squared(shifted) == pytest.approx(1.0, abs=1e-9)
    t = 1.3
    assert shifted.amplitude(t) == pytest.approx(
        base.amplitude(t) * np.exp(-1j * 0.7 * t), abs=1e-12
    )
