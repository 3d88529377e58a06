"""Property tests: invariants of the exact two-level and three-level
writers over drawn pulses, rates and output grids (derandomized, so every
run draws the same examples)."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_loader import lambda_memory, pulses, two_level
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
