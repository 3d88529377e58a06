"""Property tests: invariants of the exact two-level and three-level
writers over drawn pulses, rates and output grids, and of the pair's
direct double quadrature (derandomized, so every run draws the same
examples)."""

import cmath
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavity_loader import entangled_loading, lambda_memory, numerics, pulses, two_level
from cavity_loader.lambda_memory import LambdaParams
from cavity_loader.two_level import TwoLevelParams

FAMILIES = ("sech", "rectangular", "exp_rising", "exp_decaying")
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def loading_runs(draw):
    """(params, pulse, times, probe): kappa = 1, a pulse of width kT
    centered at kT, an output grid from the scan start to a horizon
    between 2 and 6 kT (which moves the pulse edges off the scan grid's
    points), and a probe time on it: anywhere, or within one scan step
    (T / 400) after a pulse edge or the center, where a step must be
    split."""
    kT = draw(st.floats(0.5, 20.0))
    pulse = pulses.make_named(draw(st.sampled_from(FAMILIES)), kT, kT)
    g = draw(st.floats(0.05, 5.0))
    params = TwoLevelParams(
        g=g, kappa=1.0, gamma=g * draw(st.floats(0.0, 0.5)), delta=draw(st.floats(-1.0, 1.0))
    )
    horizon = kT * draw(st.floats(2.0, 6.0))
    times = np.linspace(min(0.0, pulse.support[0]), horizon, draw(st.integers(2, 600)))
    if draw(st.booleans()):
        cut = draw(st.sampled_from(sorted({*pulse.support, pulse.t0})))
        probe = cut + draw(st.floats(0.0, 1.0)) * kT / 400
    else:
        probe = draw(st.floats(float(times[0]), float(times[-1])))
    return params, pulse, times, float(min(max(probe, times[0]), times[-1]))


@PROPERTY
@given(loading_runs())
def test_stepped_trajectory_never_gains_probability(run):
    params, pulse, times, _ = run
    traj = two_level.stepped_trajectory(params, pulse, times)
    assert (traj.population("beta") + traj.population("c_e")).max() <= 1.0 + 1e-12


@PROPERTY
@given(loading_runs())
def test_stepped_trajectory_matches_closed_form_at_a_drawn_time(run):
    params, pulse, times, probe = run
    traj = two_level.stepped_trajectory(params, pulse, np.append(times, probe))
    beta, ce = two_level.amplitude_closed_form(params, pulse, probe)
    assert abs(traj.population("beta")[-1] - abs(beta) ** 2) <= 1e-10
    assert abs(traj.population("c_e")[-1] - abs(ce) ** 2) <= 1e-10


# each example runs the writer four times
LINEARITY_PROPERTY = settings(derandomize=True, max_examples=25, deadline=None, database=None)


def _combination(terms, like):
    """The pulse sum of c * pulse over the (c, pulse) ``terms``, with the
    width, centre and support of ``like``: one scan grid for every term."""

    def func(t):
        return sum(c * q.amplitude(t) for c, q in terms)

    return pulses.PulseShape("combination", like.T, like.t0, like.support, func)


def _states(params, pulse, times):
    traj = two_level.stepped_trajectory(params, pulse, times)
    return np.array([traj.amplitudes["beta"], traj.amplitudes["c_e"]])


@LINEARITY_PROPERTY
@given(
    loading_runs(),
    st.floats(0.1, 10.0),
    st.floats(-np.pi, np.pi),
    st.floats(-5.0, 5.0),
)
def test_stepped_trajectory_is_linear_in_the_pulse(run, size, phase, detuning):
    # the same pulse scaled by a complex c, and its sum with a carrier-shifted
    # copy of itself (same support, so the same grid and edge splits)
    params, pulse, times, _ = run
    c = size * np.exp(1j * phase)
    shifted = pulses.frequency_shifted(pulse, detuning / pulse.T)
    one, other = _states(params, pulse, times), _states(params, shifted, times)

    scaled = _states(params, _combination([(c, pulse)], pulse), times)
    assert np.abs(scaled - c * one).max() <= 1e-12 * np.abs(c * one).max()

    both = _states(params, _combination([(1.0, pulse), (1.0, shifted)], pulse), times)
    assert np.abs(both - (one + other)).max() <= 1e-12 * np.abs(one + other).max()


# the three-level writer costs more per example: its step also resolves
# the Delta1 rotation, and each output time takes matrix exponentials
LAMBDA_PROPERTY = settings(derandomize=True, max_examples=20, deadline=None, database=None)


@st.composite
def lambda_runs(draw):
    """(trajectory, t_load, end of the pulse): the exact three-level writer with kappa = 1 on
    the CLI's output grid, from the scan start to 5 kT, for a drawn pulse
    family and width kT, couplings g_c and Omega, a detuning |Delta1| at
    least ten times both (either sign), gamma_r and a switch-off t_load/T
    in [-1, 6], which may fall before the scan start or after the grid."""
    kT = draw(st.floats(0.5, 10.0))
    pulse = pulses.make_named(draw(st.sampled_from(FAMILIES)), kT, kT)
    g_c, omega = draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0))
    delta1 = draw(st.floats(10.0 * max(g_c, omega), 400.0)) * draw(st.sampled_from((1, -1)))
    p = LambdaParams(
        g_c=g_c, kappa=1.0, delta1=delta1, delta2=delta1, omega=omega,
        gamma_r=draw(st.floats(0.0, 0.5)),
    )
    p = replace(p, delta2=lambda_memory.stark_compensation(p))
    times = np.linspace(min(0.0, pulse.support[0]), 5.0 * kT, draw(st.integers(2, 200)))
    t_load = kT * draw(st.floats(-1.0, 6.0))
    drive = lambda_memory.compensated_pulse(pulse, p)
    traj = lambda_memory.nonadiabatic_trajectory(p, drive, times, t_load)
    return traj, t_load, pulse.support[1]


@LAMBDA_PROPERTY
@given(lambda_runs())
def test_nonadiabatic_trajectory_never_gains_probability(run):
    # at most the photon's unit probability, and none gained once it has
    # passed: the drive-free system only decays
    traj, _, pulse_end = run
    total = traj.population("beta") + traj.population("c_r") + traj.population("c_e")
    assert total.max() <= 1.0 + 1e-12
    assert np.diff(total[traj.times >= pulse_end]).max(initial=0.0) <= 1e-12


@LAMBDA_PROPERTY
@given(lambda_runs())
def test_nonadiabatic_trajectory_freezes_the_target_after_switch_off(run):
    traj, t_load, _ = run
    frozen = np.abs(traj.amplitudes["c_e"][traj.times >= t_load])
    if frozen.size:
        assert frozen.max() - frozen.min() <= 1e-12


# each example runs two direct double quadratures (~0.1 s together)
PAIR_PROPERTY = settings(derandomize=True, max_examples=10, deadline=None, database=None)


@PAIR_PROPERTY
@given(
    st.floats(0.5, 4.0),
    st.floats(1.2, 3.0),
    st.floats(0.0, 6.0),
    st.floats(0.0, 6.0),
    st.floats(0.2, 3.0),
    st.floats(-1.0, 4.0),
)
def test_cee_quad2_is_symmetric_in_the_two_photons(T1, ratio, t1, t2, g, after):
    # a product amplitude of two sech photons of unequal widths and centers,
    # read at a time around the later center: the identical memories make
    # c_ee the same with the photons swapped
    p1, p2 = pulses.make_sech(T1, t1), pulses.make_sech(T1 * ratio, t2)
    params = TwoLevelParams(g=g, kappa=1.0, gamma=0.1 * g, delta=0.3)
    t = max(t1, t2) + after
    pair = entangled_loading.separable_biphoton(p1, p2)
    swapped = entangled_loading.separable_biphoton(p2, p1)
    one = entangled_loading.c_ee(params, pair, t, method="quad2")
    other = entangled_loading.c_ee(params, swapped, t, method="quad2")
    assert abs(one - other) <= 1e-12


# each example is two closed-form convolutions (~5 ms together)
SCALING_PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)


@SCALING_PROPERTY
@given(
    st.sampled_from(FAMILIES),
    st.floats(0.5, 10.0),
    st.floats(0.05, 5.0),
    st.floats(0.0, 0.5),
    st.floats(0.25, 4.0),
    st.floats(-3.0, 3.0),
)
def test_closed_form_depends_only_on_the_dimensionless_ratios(
    kind, kT, g, gamma, t_over_T, log_s
):
    # every rate times s and every time over s: kappa = s, the pulse of
    # width T / s centred at T / s, read at t / s, loads what the same
    # closed form gives at kappa = 1 (where the detuning is zero)
    ref = TwoLevelParams(g=g, kappa=1.0, gamma=gamma * g, delta=0.0)
    _, c_ref = two_level.amplitude_closed_form(ref, pulses.make_named(kind, kT, kT), t_over_T * kT)
    s = 10.0**log_s
    T = kT / s
    params = TwoLevelParams(g=g * s, kappa=s, gamma=gamma * g * s, delta=0.0)
    _, c_e = two_level.amplitude_closed_form(params, pulses.make_named(kind, T, T), t_over_T * T)
    assert abs(abs(c_e) ** 2 - abs(c_ref) ** 2) <= 1e-9


# every rate from zero, a subnormal, the powers 1e-300, 1e-290, ..., 1e300
# and the largest float; the detunings take either sign
_RATES = st.one_of(
    st.sampled_from((0.0, 1e-310, 1.7e308)), st.integers(-30, 30).map(lambda k: 10.0 ** (10 * k))
)
_DETUNINGS = st.tuples(_RATES, st.sampled_from((1.0, -1.0))).map(lambda pair: pair[0] * pair[1])
# each example builds at most a handful of 3x3 matrices and one pulse
RATES_PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)


def _finite_or_refused(func, *args):
    """func(*args), or None when it raises an error the CLI maps to exit 2
    (ValueError) or 3 (a numeric failure)."""
    try:
        return func(*args)
    except (ValueError, numerics.OdeFailure, numerics.QuadratureFailure):
        return None


@RATES_PROPERTY
@given(_RATES, _RATES, _DETUNINGS, _DETUNINGS, _RATES, _RATES)
# inside the validity regime, where g_c^2 gamma_r overflows before the
# division by Delta1^2: the exact rates are about +-1e-90
@example(1e150, 1.0, 1e200, 1e200, 1.0, 1e10)
# the light shift g_c^2 / Delta1 overflows, Delta_eff = 3e307 does not
@example(1e154, 1.0, 0.5, 1.7e308, 0.0, 0.0)
def test_lambda_params_give_finite_rates_or_a_clear_error(
    g_c, kappa, delta1, delta2, omega, gamma_r
):
    p = _finite_or_refused(LambdaParams, g_c, kappa, delta1, delta2, omega, gamma_r)
    if p is None:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # reduce's validity warning
        red = _finite_or_refused(lambda_memory.reduce, p)
    if red is not None:
        # finite wherever the exact rate, in rational arithmetic, is well
        # inside the float range; past it a rate may be inf
        g, om, gr, d1, d2 = map(Fraction, (g_c, omega, gamma_r, delta1, delta2))
        exact = {
            "g_eff": g * om / d1,
            "Gamma_r": 1 + abs(gr / d1),
            "delta_eff": (g * g - om * om) / d1 + d1 - d2,
            "gamma_eff": gr * (om * om - g * g) / d1**2,
            "drive_decay_rate": g * g * gr / d1**2,
        }
        for name, value in exact.items():
            assert abs(value) >= 2**1023 or cmath.isfinite(getattr(red, name)), (name, red)
    shift = _finite_or_refused(lambda_memory.stark_compensation, p)
    assert shift is None or np.isfinite(shift)
    pulse = pulses.make_sech(2.0, 2.0)
    drive = _finite_or_refused(lambda_memory.compensated_pulse, pulse, p)
    if drive is not None:
        assert np.isfinite(drive.amplitude(np.linspace(*pulse.support, 9))).all()
    prop = _finite_or_refused(lambda_memory._LambdaPropagator.of, p)
    if prop is not None:
        assert np.isfinite(prop.a).all() and prop.max_step > 0
