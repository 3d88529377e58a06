"""Property tests: invariants of the exact two-level writer over drawn
pulses, rates and output grids (derandomized, so every run draws the same
examples)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_loader import pulses, two_level
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
