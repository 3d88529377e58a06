import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cavity_loader import lambda_memory as lm
from cavity_loader import cli, entangled_loading, numerics, pulses, two_level
from cavity_loader.lambda_memory import LambdaParams
from cavity_loader.two_level import TwoLevelParams


def make_params(g_c=5.0, omega=5.0, delta1=50.0, delta2=None, gamma_r=0.0, kappa=1.0):
    if delta2 is None:
        delta2 = delta1
    return LambdaParams(
        g_c=g_c, kappa=kappa, delta1=delta1, delta2=delta2, omega=omega, gamma_r=gamma_r
    )


PULSE = pulses.make_sech(2.0, 2.0)


def test_full_ode_control_off_decouples_target():
    # with the control off the target never populates and the remaining
    # G-R pair is exactly the two-level problem (g_c, Delta1)
    p = make_params(omega=0.0)
    grid = np.linspace(PULSE.support[0], 10.0, 60)
    traj = lm.full_ode(p, PULSE, grid)
    assert np.max(np.abs(traj.amplitudes["c_e"])) < 1e-12
    ref = two_level.amplitude_ode(
        TwoLevelParams(g=p.g_c, kappa=p.kappa, delta=p.delta1), PULSE, grid
    )
    np.testing.assert_allclose(
        np.abs(traj.amplitudes["beta"]), np.abs(ref.amplitudes["beta"]), atol=1e-7
    )
    np.testing.assert_allclose(
        np.abs(traj.amplitudes["c_r"]), np.abs(ref.amplitudes["c_e"]), atol=1e-7
    )


def test_full_ode_no_couplings_bare_cavity():
    p = make_params(g_c=0.0, omega=0.0)
    grid = np.linspace(PULSE.support[0], 10.0, 60)
    traj = lm.full_ode(p, PULSE, grid)
    ref = two_level.amplitude_ode(TwoLevelParams(g=0.0, kappa=p.kappa), PULSE, grid)
    np.testing.assert_allclose(
        traj.amplitudes["beta"], ref.amplitudes["beta"], atol=1e-8
    )


def test_full_ode_zero_pulse():
    traj = lm.full_ode(make_params(), pulses.make_named("zero", 2.0, 2.0), np.linspace(0, 8, 20))
    for series in traj.amplitudes.values():
        assert np.all(series == 0.0)


def test_reduce_no_decay():
    red = lm.reduce(make_params(gamma_r=0.0))
    assert red.Gamma_r == 1.0
    assert red.gamma_eff == 0.0
    assert red.drive_decay_rate == 0.0


def test_reduce_balanced_control_kills_effective_decay():
    red = lm.reduce(make_params(g_c=4.0, omega=4.0, gamma_r=0.8, delta1=80.0))
    assert red.gamma_eff == pytest.approx(0.0, abs=1e-14)


def test_reduce_effective_coupling_value():
    red = lm.reduce(make_params(g_c=5.0, omega=5.0, delta1=50.0))
    assert red.g_eff == pytest.approx(0.5)


def test_reduce_warns_outside_validity():
    with pytest.warns(UserWarning, match="validity"):
        lm.reduce(make_params(g_c=5.0, omega=5.0, delta1=20.0))


@pytest.mark.parametrize("name", ["g_c", "kappa", "delta1", "delta2", "gamma_r", "omega"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_params_reject_non_finite(name, bad):
    rates = {"g_c": 1.0, "kappa": 1.0, "delta1": 50.0, "delta2": 50.0, "omega": 1.0}
    rates[name] = bad
    with pytest.raises(ValueError, match=name):
        LambdaParams(**rates)


@pytest.mark.parametrize("name", ["g_c", "omega"])
@pytest.mark.parametrize("big", [1e160, 1e200])
def test_params_reject_a_coupling_whose_square_overflows(name, big):
    # stark_compensation, reduce and compensated_pulse square g_c and Omega
    rates = {"g_c": 1.0, "kappa": 1.0, "delta1": 50.0, "delta2": 50.0, "omega": 1.0}
    rates[name] = big
    with pytest.raises(ValueError, match=name):
        LambdaParams(**rates)
    # a square just inside the float range is still accepted
    rates[name] = 1e154
    LambdaParams(**rates)


def test_reduce_requires_detuning():
    with pytest.raises(ValueError):
        lm.reduce(make_params(delta1=0.0))


# the small detunings are outside the elimination's validity regime
@pytest.mark.filterwarnings("ignore:adiabatic elimination outside")
@pytest.mark.parametrize("delta1", [1e200, -1e200, 1e-200])
def test_reduce_where_the_detuning_squared_leaves_the_float_range(delta1):
    # Delta1**2 overflows (or underflows to zero): the rates that divide by
    # it are taken as x / Delta1 / Delta1 instead of raising
    p = make_params(g_c=1.0, omega=2.0, delta1=delta1, gamma_r=0.1)
    red = lm.reduce(p)
    assert red.gamma_eff == 0.1 * 3.0 / delta1 / delta1
    assert red.drive_decay_rate == 0.1 / delta1 / delta1
    if abs(delta1) > 1.0:
        # the effective coupling is 2e-200: nothing loads, and nothing raises
        p = replace(p, delta2=lm.stark_compensation(p))
        assert abs(lm.nonadiabatic_amplitude(p, PULSE, 3.0)) ** 2 == 0.0


@pytest.mark.filterwarnings("ignore:adiabatic elimination outside")
def test_reduce_keeps_the_rates_where_the_square_is_finite():
    # the overflow guard leaves x / Delta1**2 bit for bit, which
    # x / Delta1 / Delta1 or x / (Delta1 * Delta1) would not always do
    for delta1 in (10.0 ** np.linspace(-150.0, 154.0, 61) * 1.2345).tolist():
        red = lm.reduce(make_params(g_c=1.0, omega=1e-3, delta1=delta1, gamma_r=0.3))
        assert red.gamma_eff == 0.3 * (1e-3**2 - 1.0) / delta1**2
        assert red.drive_decay_rate == 0.3 / delta1**2


def test_stark_compensation_two_photon_resonance():
    p = make_params(g_c=3.0, omega=3.0, delta1=60.0)
    assert lm.stark_compensation(p) == pytest.approx(60.0)


def test_stark_compensation_value():
    p = make_params(g_c=5.0, omega=3.0, delta1=50.0)
    assert lm.stark_compensation(p) == pytest.approx(50.32)


def test_stark_compensation_zeroes_effective_detuning():
    p = make_params(g_c=5.0, omega=3.0, delta1=50.0)
    d2 = lm.stark_compensation(p)
    red = lm.reduce(make_params(g_c=5.0, omega=3.0, delta1=50.0, delta2=d2))
    assert abs(red.delta_eff) < 1e-12


@pytest.mark.parametrize("delta1", [0.0, -0.0])
def test_compensated_pulse_requires_detuning(delta1):
    # the light shift g_c^2 / Delta1 is undefined: a ValueError, as from
    # stark_compensation and reduce, not a ZeroDivisionError
    with pytest.raises(ValueError, match="nonzero Delta1"):
        lm.compensated_pulse(PULSE, make_params(delta1=delta1))


def test_nonadiabatic_zero_control():
    assert abs(lm.nonadiabatic_amplitude(make_params(omega=0.0), PULSE, 3.0)) ** 2 == 0.0


def test_nonadiabatic_reduces_to_two_level():
    # gamma_r = 0 and compensated detuning: exactly the two-level closed form
    # with the effective coupling
    p = make_params(g_c=5.0, omega=5.0, delta1=50.0)
    for t in (1.0, 3.0, 4.5):
        amp = lm.nonadiabatic_amplitude(p, PULSE, t)
        _, ce = two_level.amplitude_closed_form(
            TwoLevelParams(g=0.5, kappa=1.0), PULSE, t
        )
        assert abs(amp - ce) < 1e-12


def test_full_vs_reduced_with_decay():
    # gamma_r > 0: the reduced closed form tracks the full model through the
    # exponential damping factors
    g_c = om = 5.0
    d1 = 100.0
    base = make_params(g_c=g_c, omega=om, delta1=d1, gamma_r=1.0)
    d2 = lm.stark_compensation(base)
    p = make_params(g_c=g_c, omega=om, delta1=d1, delta2=d2, gamma_r=1.0)
    grid = np.linspace(PULSE.support[0], 8.0, 40)
    traj = lm.full_ode(p, lm.compensated_pulse(PULSE, p), grid)
    for i, t in enumerate(grid[5:], start=5):
        red = abs(lm.nonadiabatic_amplitude(p, PULSE, float(t)))
        assert abs(red - abs(traj.amplitudes["c_e"][i])) < 0.02


@pytest.mark.parametrize("ratio", [12.0, 24.0])
def test_full_ode_matches_the_exact_writer_at_default_tolerances(ratio):
    # the benchmark's oracle_checks design (sech T = 2, g_c = Omega = 5,
    # Stark-compensated, control on throughout): the oracle resolves the
    # Delta1 rotation by its error control alone, and its error falls as
    # the tolerance tightens
    p = make_params(g_c=5.0, omega=5.0, delta1=ratio * 5.0)
    p = replace(p, delta2=lm.stark_compensation(p))
    drive = lm.compensated_pulse(PULSE, p)
    grid = np.linspace(PULSE.support[0], 10.0, 40)
    exact = lm.nonadiabatic_trajectory(p, drive, grid, math.inf).amplitudes["c_e"]

    def error(**tolerances):
        return np.abs(lm.full_ode(p, drive, grid, **tolerances).amplitudes["c_e"] - exact).max()

    errors = [error(), error(rtol=1e-10, atol=1e-12), error(rtol=1e-12, atol=1e-14)]
    assert errors[0] <= 1e-9
    assert errors[1] <= errors[0] and errors[2] <= errors[1]


@pytest.mark.parametrize("ratio", [3.0, 10.0, 50.0])
def test_default_switch_off_stores_the_exact_peak(tmp_path, ratio):
    # g_c = Omega, g_eff = g_c Omega / Delta1 = 1.1, kappa T = 2 at detuning
    # ratio Delta1 / g_c, Stark-compensated: the writer's default switch-off
    # stores the peak of a dense control-on oracle run, which an eliminated
    # two-level peak time misses by 2.4e-2 at ratio 3
    g_c = 1.1 * ratio
    out = tmp_path / "lambda.csv"
    argv = ["simulate", "--scenario", "lambda_nonadiabatic", "--kT", "2", "--gc_over_k"]
    argv += [repr(g_c), "--omega_over_k", repr(g_c), "--delta1_over_k", repr(g_c * ratio)]
    assert cli.main(argv + ["--out", str(out)]) == 0
    stored = np.loadtxt(out, delimiter=",", skiprows=1)[-1, 3]
    p = make_params(g_c=g_c, omega=g_c, delta1=g_c * ratio)
    p = replace(p, delta2=lm.stark_compensation(p))
    grid = np.linspace(PULSE.support[0], 10.0, 40_001)
    dense = lm.full_ode(p, lm.compensated_pulse(PULSE, p), grid, rtol=1e-11).population("c_e")
    assert stored >= dense.max() - 1e-9
    assert stored - dense.max() <= 1e-6


def test_default_switch_off_before_the_scan_start_is_rest():
    # every time at or before the scan start (-8): the atom is at rest,
    # whether t_load is given or left to the peak search
    times = np.array([-9.0, -8.5, -8.0])
    for t_load in (None, 0.0):
        traj = lm.nonadiabatic_trajectory(make_params(), PULSE, times, t_load)
        assert not np.any(traj.population("c_e"))


def test_nonadiabatic_freeze_after_switch_off():
    t_stop = 3.3
    om = 5.0

    def omega_step(t):
        return np.where(np.asarray(t) <= t_stop, om, 0.0)

    p = LambdaParams(g_c=5.0, kappa=1.0, delta1=50.0, delta2=50.0, gamma_r=0.0)
    grid = np.linspace(t_stop, 12.0, 50)
    traj = lm.full_ode(
        p, PULSE, grid, breakpoints=(t_stop,), rtol=1e-10, atol=1e-12, omega=omega_step
    )
    mags = np.abs(traj.amplitudes["c_e"])
    assert np.max(np.abs(mags - mags[0])) < 1e-9


def test_control_pulse_requires_long_pulse():
    with pytest.raises(ValueError):
        lm.adiabatic_control_pulse(1.0, 1.0, 3.0, 0.0)


def test_control_pulse_center_value():
    val = lm.adiabatic_control_pulse(1.0, 1.0, 8.0, 0.0)
    assert val == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)


def test_control_pulse_positive_finite():
    rng = np.random.default_rng(11)
    for kT in (4.5, 6.0, 12.0):
        t = rng.uniform(-8.0 * kT, 8.0 * kT, size=2000)
        vals = lm.adiabatic_control_pulse(2.0, 1.0, kT, t)
        assert np.all(vals > 0.0)
        assert np.all(np.isfinite(vals))


def test_control_pulse_threshold_edge():
    # at the kappa T = 4 boundary the control stays positive for finite t
    vals = lm.adiabatic_control_pulse(1.0, 1.0, 4.0, np.linspace(-6.0, 6.0, 101))
    assert np.all(vals > 0.0)


def test_adiabatic_tpr_anchor():
    # ninety percent loading near g' = 2 kappa for kappa T = 5
    _, p = lm.adiabatic_load(20.0, 200.0, 1.0, 5.0, detuned=True)
    assert p == pytest.approx(0.90, abs=0.05)


def test_adiabatic_tpr_uses_only_g_prime():
    _, p1 = lm.adiabatic_load(20.0, 200.0, 1.0, 5.0, detuned=True)
    _, p2 = lm.adiabatic_load(40.0, 800.0, 1.0, 5.0, detuned=True)
    assert p1 == pytest.approx(p2, abs=1e-7)


# ids: the load of each variant, tpr (detuned) and zed
@pytest.mark.parametrize("detuned", [True, False], ids=["adiabatic_load_tpr", "adiabatic_load_zed"])
@pytest.mark.parametrize("delta1", [0.0, -0.0])
def test_adiabatic_load_requires_detuning(detuned, delta1):
    # g' = g_c^2 / Delta1 is undefined: a ValueError worded as reduce's,
    # not a ZeroDivisionError
    with pytest.raises(ValueError, match="adiabatic elimination requires a nonzero Delta1"):
        lm.adiabatic_load(1.0, delta1, 1.0, 5.0, detuned=detuned)


def test_adiabatic_zed_vanishing_coupling():
    _, p = lm.adiabatic_load(0.1, 400.0, 1.0, 5.0, detuned=False)
    assert p < 1e-3


def test_adiabatic_zed_matches_full_system():
    kappa, T = 1.0, 4.5
    d1 = 200.0
    g_c = math.sqrt(1.0 * d1)
    t0 = T
    pulse = pulses.make_sech(T, t0)

    def omega(t):
        return lm.adiabatic_control_pulse(g_c, kappa, T, np.asarray(t) - t0)

    # the shaped control and its phase ramp enter only the oracle
    p = LambdaParams(g_c=g_c, kappa=kappa, delta1=d1, delta2=d1)
    grid = np.linspace(pulse.support[0], t0 + 4 * T, 200)
    traj = lm.full_ode(
        p, lm.compensated_pulse(pulse, p), grid,
        omega=omega, phi_z_dot=lm.zed_phase_rate(p, T, t0),
    )
    _, p_red = lm.adiabatic_load(g_c, d1, kappa, T, detuned=False)
    assert abs(traj.population("c_e")[-1] - p_red) < 0.01


def test_adiabaticity_diagnostic_deep_regime():
    # kappa T = 10 at g'/kappa = 2: bright + upper population stays small
    kappa, T = 1.0, 10.0
    d1 = 400.0
    g_c = math.sqrt(2.0 * d1)
    traj, _ = lm.adiabatic_load(g_c, d1, kappa, T, detuned=True)
    om = lm.adiabatic_control_pulse(g_c, kappa, T, traj.times - T)
    # the bright amplitude sin(theta) beta + cos(theta) c_e, tan(theta) = g_c / Omega
    worst = 0.0
    amps = traj.amplitudes
    for beta, c_e, c_r, omega in zip(amps["beta"], amps["c_e"], amps["c_r"], om.tolist()):
        omega0 = math.hypot(omega, g_c)
        bright = g_c / omega0 * beta + omega / omega0 * c_e
        worst = max(worst, abs(bright) ** 2 + abs(c_r) ** 2)
    assert worst < 0.05


def _stopped_loading(offsets, g=1.7):
    """The non-adiabatic timing scan of fig8: the effective two-level
    memory (kappa = 1, sech T = 1) with the control stopped at its loading
    peak plus each offset, the frozen loading read from one stepped run."""
    params, pulse = TwoLevelParams(g=g, kappa=1.0), pulses.make_sech(1.0, 1.0)
    (t_load,), _ = two_level.peak_loading([params], pulse, 5.0)
    stops = t_load + np.asarray(offsets, dtype=float)
    return t_load, two_level.stepped_trajectory(params, pulse, stops).population("c_e")


def test_timing_offset_zero_is_peak():
    _, probs = _stopped_loading([-0.3, 0.0, 0.3])
    assert probs[1] >= probs[0] and probs[1] >= probs[2]


def test_timing_offset_scan_matches_closed_form():
    # the stepped curve against the convolution oracle at each stop time,
    # offsets in any order
    offsets = np.array([0.4, -0.9, 0.0, -0.25, 1.0])
    t_load, probs = _stopped_loading(offsets)
    params, pulse = TwoLevelParams(g=1.7, kappa=1.0), pulses.make_sech(1.0, 1.0)
    for off, prob in zip(offsets, probs):
        _, ce = two_level.amplitude_closed_form(params, pulse, t_load + off)
        assert abs(prob - abs(ce) ** 2) <= 1e-10


def test_timing_offset_early_stop_kills_loading():
    _, probs = _stopped_loading([-8.0])
    assert probs[0] < 1e-6


@pytest.mark.parametrize("variant", ["zed", "tpr"])
def test_adiabatic_offset_array_is_bit_identical(variant):
    # an array of offsets gives the results of one-offset calls
    detuned = variant == "tpr"
    offsets = np.linspace(-4.5, 4.5, 5)
    probs = lm.adiabatic_offset_scan(1.0, 1.0, 4.5, offsets, detuned=detuned)
    assert probs.shape == offsets.shape
    singles = [
        float(lm.adiabatic_offset_scan(1.0, 1.0, 4.5, [off], detuned=detuned)[0])
        for off in offsets
    ]
    assert probs.tolist() == singles


def test_scaling_invariance_full_system():
    # rates x c and time / c leave the populations unchanged
    grid = np.linspace(PULSE.support[0], 10.0, 30)
    ref = lm.full_ode(make_params(), PULSE, grid)
    c = 2.5
    scaled_pulse = pulses.make_sech(2.0 / c, 2.0 / c)
    scaled = lm.full_ode(
        make_params(g_c=5.0 * c, omega=5.0 * c, delta1=50.0 * c, kappa=c),
        scaled_pulse,
        grid / c,
    )
    for key in ("beta", "c_r", "c_e"):
        np.testing.assert_allclose(
            np.abs(scaled.amplitudes[key]) ** 2,
            np.abs(ref.amplitudes[key]) ** 2,
            atol=1e-9,
        )


def _reduced_reference(g_prime, kT, detuned, offset):
    """|c_e|^2 at t = 5T + max(offset, 0) of the reduced adiabatic equations,
    by adaptive DOP853 (rtol 1e-11) with the control and the sech drive
    written out here (kappa = 1, pulse centered at T, control at T + offset)."""
    T = kT
    amp = math.sqrt(2.0 / T) / math.sqrt(math.tanh(20.0))

    def control(t):
        x = min(max(4.0 * (t - T - offset) / T, -350.0), 350.0)
        return math.sqrt(2.0 / ((math.exp(2.0 * x) + 1.0) * (math.tanh(x) + kT / 2.0 - 1.0)))

    def rhs(t, y):
        beta, c_e = y
        om = control(t)
        g_t = g_prime * om
        phi = amp / math.cosh(4.0 * (t - T) / T) if abs(t - T) <= 5.0 * T else 0.0
        shift_b, shift_e = (g_prime, g_prime * om * om) if detuned else (0.0, 0.0)
        return [
            -(1.0 + 1j * shift_b) * beta - 1j * g_t * c_e - 1j * math.sqrt(2.0) * phi,
            -1j * g_t * beta - 1j * shift_e * c_e,
        ]

    # from the pulse window's start; the window ends at 6T, past every end time
    t_end = 5.0 * T + max(offset, 0.0)
    sol = solve_ivp(rhs, (-4.0 * T, t_end), [0j, 0j], method="DOP853", rtol=1e-11, atol=1e-13)
    return abs(sol.y[1, -1]) ** 2


@pytest.mark.parametrize("detuned", [False, True], ids=["zed", "tpr"])
@pytest.mark.parametrize("kT", [4.5, 10.0])
def test_adiabatic_rk4_matches_dop853(detuned, kT):
    # the fixed-step RK4 production route against an adaptive DOP853 run of
    # the same equations, including tpr at kT = 4.5 and g' = 5, where the
    # step is set by the stiff light shift g' Omega^2, and a negative g'
    for g_prime in (0.2, 1.0, 5.0, -1.0):
        for offset in (-kT / 2.0, 0.0, kT / 2.0):
            traj = lm._adiabatic_reduced_run(g_prime, 1.0, kT, detuned, control_offset=offset)
            want = _reduced_reference(g_prime, kT, detuned, offset)
            assert abs(traj.population("c_e")[-1] - want) <= 1e-8, (g_prime, offset)


@pytest.mark.parametrize("kT", [4.5, 10.0])
def test_zed_sign_of_g_prime_flips_only_c_e(kT):
    # without light shifts g' enters only through the coupling g' Omega, so
    # flipping its sign flips c_e and leaves beta and the step count alone
    g_prime = np.array([0.2, 1.0, 5.0])
    plus = lm._adiabatic_reduced_run(g_prime, 1.0, kT, False)
    minus = lm._adiabatic_reduced_run(-g_prime, 1.0, kT, False)
    assert np.array_equal(minus.amplitudes["c_e"], -plus.amplitudes["c_e"])
    assert np.array_equal(minus.amplitudes["beta"], plus.amplitudes["beta"])
    assert np.array_equal(minus.population("c_e")[:, -1], plus.population("c_e")[:, -1])


def test_adiabatic_rk4_step_stable_for_stiff_light_shift():
    # tpr at kT = 4.5 and g' = 20: the light shift g' Omega^2 reaches 160
    # kappa at the window start, so the stability bound sets the RK4 step
    # (at T/200 alone, the run overflows)
    traj = lm._adiabatic_reduced_run(20.0, 1.0, 4.5, True)
    want = _reduced_reference(20.0, 4.5, True, 0.0)
    assert abs(traj.population("c_e")[-1] - want) <= 1e-8


@pytest.mark.parametrize("detuned", [False, True], ids=["zed", "tpr"])
def test_adiabatic_rk4_step_converged(detuned):
    # the default grid has 1200 intervals over 9T, each taken in two RK4
    # steps of 9T/2400 (the cap is T/200); 4800 intervals take one step of
    # 9T/4800 each, half as long
    for kT in (4.5, 10.0):
        for g_prime in (0.2, 1.0, 5.0):
            coarse = lm._adiabatic_reduced_run(g_prime, 1.0, kT, detuned)
            grid = np.linspace(coarse.times[0], coarse.times[-1], 4801)
            fine = lm._adiabatic_reduced_run(g_prime, 1.0, kT, detuned, grid=grid)
            gap = abs(coarse.population("c_e")[-1] - fine.population("c_e")[-1])
            assert gap <= 1e-9, (kT, g_prime)


def _plain_rk4_recursion(g_prime, kT, detuned, grid, n_sub):
    """The RK4 maps of one run on ``grid`` with ``n_sub`` sub-steps per
    interval, and the states after every sub-step, stepped one at a time."""
    dt = np.diff(grid)
    frac = np.arange(2 * n_sub) / (2 * n_sub)
    nodes = np.append((grid[:-1, None] + dt[:, None] * frac).ravel(), grid[-1])
    om = lm.adiabatic_control_pulse(1.0, 1.0, kT, nodes - kT)
    force = -1j * math.sqrt(2.0) * pulses.make_sech(kT, kT).amplitude(nodes)
    maps, vectors = lm._rk4_maps(
        np.repeat(dt / n_sub, n_sub),
        -1.0 - 1j * g_prime if detuned else -1.0,
        -1j * g_prime * om,
        -1j * g_prime * om**2 if detuned else None,
        force,
    )
    states = [(0j, 0j)]
    for (m_b, m_e), (v_b, v_e) in zip(maps.tolist(), vectors.tolist()):
        beta, c_e = states[-1]
        states.append((m_b[0] * beta + m_b[1] * c_e + v_b, m_e[0] * beta + m_e[1] * c_e + v_e))
    return (maps, vectors), np.array(states)


@pytest.mark.parametrize(
    "detuned, g_prime, points, n_sub",
    [
        # zed on a fine grid: one sub-step per interval, 4800 of them, so
        # the run carries its state across two blocks of maps
        (False, 1.0, 4801, 1),
        # tpr at g' = 20: the stiff light shift sets h <= 2 / rho, five
        # sub-steps per interval of the default grid, again two blocks
        (True, 20.0, 1201, 5),
    ],
    ids=["zed", "tpr"],
)
def test_affine_march_matches_plain_recursion(detuned, g_prime, points, n_sub):
    kT = 4.5
    grid = np.linspace(-4.0 * kT, 5.0 * kT, points)
    (matrix, vector), want = _plain_rk4_recursion(g_prime, kT, detuned, grid, n_sub)
    # the time-varying maps, an (n, 2, 2) stack: map j >= 1 in band columns
    # 2 (j - 1) and 2 j - 1
    solved = numerics.affine_march(matrix, vector)
    assert np.abs(solved - want).max() <= 1e-12
    # the production run takes the same sub-steps and keeps every n_sub-th
    traj = lm._adiabatic_reduced_run(g_prime, 1.0, kT, detuned, grid=grid)
    got = np.stack((traj.amplitudes["beta"], traj.amplitudes["c_e"]), axis=1)
    assert np.abs(got - want[::n_sub]).max() <= 1e-12


@pytest.mark.parametrize(
    "detuned, g_prime, kT, grid",
    [
        # the coarse scan of an adiabatic optimum: 40 couplings
        (False, np.geomspace(0.2, 5.0, 40), 10.0, None),
        (True, np.geomspace(0.2, 5.0, 40), 10.0, None),
        # tpr near the kappa T = 4 threshold on a two-point grid: one
        # output interval of ~16 000 sub-steps
        (True, 10.0, 4.05, np.array([-4.0 * 4.05, 5.0 * 4.05])),
    ],
    ids=["zed", "tpr", "tpr-one-long-interval"],
)
def test_batched_adiabatic_run_memory(detuned, g_prime, kT, grid):
    # the maps of at most _RK4_BLOCK sub-steps alive at a time
    lm._adiabatic_reduced_run(np.atleast_1d(g_prime)[:2], 1.0, kT, detuned, grid=grid)
    tracemalloc.start()
    try:
        lm._adiabatic_reduced_run(g_prime, 1.0, kT, detuned, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


@pytest.mark.parametrize("variant", ["zed", "tpr"])
def test_optimize_at_control_threshold_is_numeric_failure(tmp_path, capsys, variant):
    # at kappa T = 4 the dark-state control is infinite at the window start
    rc = cli.main(
        [
            "optimize",
            "--scenario",
            f"lambda_adiabatic_{variant}",
            "--kT",
            "4",
            "--out",
            str(tmp_path / "opt.csv"),
        ]
    )
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not (tmp_path / "opt.csv").exists()


@pytest.mark.parametrize("detuned", [False, True], ids=["zed", "tpr"])
def test_adiabatic_rate_overflow_is_named(detuned):
    # g' times the control's maximum (2 at kappa T = 5) overflows: the
    # failure names that rate, not the control, which is finite, and warns
    # of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(numerics.OdeFailure, match=r"fastest rate .* g' = 1.7e\+308"):
            lm._adiabatic_reduced_run(1.7e308, 1.0, 5.0, detuned)


def test_optimize_near_control_threshold_stops_at_the_step_budget(tmp_path, capsys):
    # at kappa T = 4.0001 the control's maximum is ~200, and the stability
    # bound asks for ~7e6 tpr steps at g' = 10 (several seconds per objective)
    start = time.perf_counter()
    rc = cli.main(
        [
            "optimize",
            "--scenario",
            "lambda_adiabatic_tpr",
            "--kT",
            "4.0001",
            "--out",
            str(tmp_path / "opt.csv"),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "budget" in err
    assert not (tmp_path / "opt.csv").exists()
    assert time.perf_counter() - start < 30.0


# the exact three-level writer: (Delta1, g_c, Omega, gamma_r)
LAMBDA_RATES = {
    "20": (20.0, 1.0, 1.0, 0.0),
    "-20": (-20.0, 1.0, 1.0, 0.5),
    "50": (50.0, 5.0, 5.0, 0.0),
    "400": (400.0, 1.0, 2.0, 0.5),
}


def _lambda_case(kind, rates, kT=1.0):
    """Stark-compensated params, the compensated drive and the writer's
    default output grid for a pulse of this family."""
    d1, g_c, om, gamma_r = rates
    p = make_params(g_c=g_c, omega=om, delta1=d1, gamma_r=gamma_r)
    p = replace(p, delta2=lm.stark_compensation(p))
    pulse = pulses.make_named(kind, kT, kT)
    grid = np.linspace(min(0.0, pulse.support[0]), 5.0 * kT, 200)
    return p, lm.compensated_pulse(pulse, p), grid


def _t_load(mode, kind, p, drive, grid):
    T = drive.T
    if mode == "eliminated":
        # the loading peak of the adiabatically eliminated (effective
        # two-level) model, near the exact peak the writer defaults to
        eff = TwoLevelParams(g=abs(p.g_c * p.omega / p.delta1), kappa=1.0)
        return two_level.peak_loading([eff], pulses.make_named(kind, T, T), 5.0 * T)[0][0]
    if mode == "inside":
        # the exponentials end or start at their center
        return drive.t0 + (-0.3 if kind == "exp_rising" else 0.3) * T
    return grid[0] - T if mode == "before" else grid[-1] + 2.0 * T


def _step_control_oracle(p, drive, grid, t_load):
    # DOP853 at 1e-11 is itself ~2e-10 off in the populations just after a
    # pulse edge (tenfold less per decade of tolerance, towards the exact
    # writer), so the reference runs a decade tighter, split at the
    # switch-off and the pulse's edges
    om = p.omega
    breaks = (t_load, *drive.support, drive.t0)
    return lm.full_ode(
        p, drive, grid, breakpoints=breaks, rtol=1e-12, atol=1e-14,
        omega=lambda t: om if t <= t_load else 0.0,
    )


@pytest.mark.parametrize(
    "kind, mode, rates",
    [
        # every family, switch-off case, detuning and gamma_r at least
        # once, at 0.06-0.25 s of DOP853 each; "eliminated" switches off
        # at the eliminated model's peak, off the exact one the writer's
        # default search finds
        ("sech", "eliminated", "20"),
        ("sech", "after", "400"),
        ("sech", "before", "50"),
        ("rectangular", "eliminated", "-20"),
        ("rectangular", "inside", "20"),
        ("exp_rising", "before", "20"),
        ("exp_rising", "inside", "-20"),
        ("exp_decaying", "inside", "20"),
        ("exp_decaying", "after", "-20"),
    ],
)
def test_nonadiabatic_trajectory_matches_full_ode(kind, mode, rates):
    p, drive, grid = _lambda_case(kind, LAMBDA_RATES[rates])
    t_load = _t_load(mode, kind, p, drive, grid)
    traj = lm.nonadiabatic_trajectory(p, drive, grid, t_load)
    ref = _step_control_oracle(p, drive, grid, t_load)
    for amp in ("beta", "c_r", "c_e"):
        assert np.abs(traj.population(amp) - ref.population(amp)).max() <= 1e-9, amp


def test_nonadiabatic_trajectory_switch_off_outside_the_grid():
    # a switch-off before the scan start leaves the control off throughout,
    # one after the last time leaves it on; neither builds a grid out to it
    p, drive, grid = _lambda_case("sech", LAMBDA_RATES["20"])
    off = lm.nonadiabatic_trajectory(p, drive, grid, grid[0])
    on = lm.nonadiabatic_trajectory(p, drive, grid, grid[-1])
    cases = [(-math.inf, off), (-1e300, off), (grid[0] - 1.0, off)]
    cases += [(math.inf, on), (1e300, on), (grid[-1] + 1.0, on)]
    for t_load, want in cases:
        traj = lm.nonadiabatic_trajectory(p, drive, grid, t_load)
        for amp in ("beta", "c_r", "c_e"):
            assert np.array_equal(traj.amplitudes[amp], want.amplitudes[amp])
    # without the control the target is never populated
    assert not off.amplitudes["c_e"].any()
    assert on.population("c_e").max() > 1e-3
    with pytest.raises(ValueError, match="t_load"):
        lm.nonadiabatic_trajectory(p, drive, grid, math.nan)


@pytest.mark.parametrize("rates", ["20", "-20", "50"])
def test_nonadiabatic_trajectory_converged_in_the_step(rates, monkeypatch):
    # at these detunings the pulse width, not 1 / |eigenvalue|, sets the
    # step; the switch-off is the eliminated model's loading peak, given
    # so that both runs share it
    p, drive, grid = _lambda_case("sech", LAMBDA_RATES[rates], kT=2.0)
    t_load = _t_load("eliminated", "sech", p, drive, grid)
    coarse = lm.nonadiabatic_trajectory(p, drive, grid, t_load)
    monkeypatch.setattr(two_level, "_STEPS_PER_WIDTH", 2 * two_level._STEPS_PER_WIDTH)
    fine = lm.nonadiabatic_trajectory(p, drive, grid, t_load)
    for amp in ("beta", "c_r", "c_e"):
        assert np.abs(coarse.population(amp) - fine.population(amp)).max() <= 1e-10


def test_nonadiabatic_trajectory_step_budget():
    # a detuning whose rotation needs more steps than the budget fails
    # before anything is allocated
    p, drive, grid = _lambda_case("sech", (1e300, 1.0, 1.0, 0.0))
    with pytest.raises(numerics.OdeFailure, match="budget"):
        lm.nonadiabatic_trajectory(p, drive, grid, 1.0)


_SPDC = entangled_loading.spdc_biphoton(entangled_loading.SpdcParams(T=2.0, T0=2.0))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: entangled_loading.c_ee(TwoLevelParams(1.0, 1.0), _SPDC, math.nan), "times"),
        (lambda: entangled_loading.c_ee(TwoLevelParams(1.0, 1.0), _SPDC, math.inf), "times"),
        (
            lambda: entangled_loading.joint_trajectory(
                TwoLevelParams(1.0, 1.0), _SPDC, [0.0, 5.0, math.nan]
            ),
            "times",
        ),
        (
            lambda: lm.adiabatic_load(
                20.0, 400.0, 1.0, 4.5, detuned=False, grid=[0.0, 5.0, math.nan]
            ),
            "output grid",
        ),
        (
            lambda: lm.adiabatic_offset_scan(1.0, 1.0, 4.5, [math.inf], detuned=False),
            "control offset",
        ),
    ],
    ids=["c_ee-nan", "c_ee-inf", "joint_trajectory", "adiabatic_grid", "adiabatic_offset"],
)
def test_non_finite_times_are_refused_by_name(call, name):
    # where the time enters, and before any numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            call()
