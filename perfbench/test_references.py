"""The benchmark's own tests: each reference against an exact result, and
each workload check against a result perturbed to be wrong."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from perfbench import references as ref
from perfbench import workloads as wl


def _sech_peak_bad_cavity(rate_times_T):
    pulse = ref.Pulse("sech", 1.0, 0.0)
    sol = ref.bad_cavity(rate_times_T, pulse, 5.0)
    return ref.peak(lambda t: np.abs(sol(t)[0]) ** 2, -5.0, 5.0)[1]


def test_bad_cavity_absorbs_rising_exponential():
    # sqrt(2/T) e^{t/T} (t <= 0) is the time mirror of the atom's emission at
    # G = 2/T, so it is absorbed completely by t = 0
    T = 2.0
    sol = ref.bad_cavity(2.0 / T, ref.Pulse("exp_rising", T, 0.0), 0.0)
    assert abs(sol(0.0)[0]) ** 2 == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("kT", [2.0, 5.0])
def test_two_level_rising_exponential_exact_state(kT):
    # with g^2 = (kappa T - 1)/T^2 the rising exponential is reflected by
    # nothing: |c_e(0)|^2 = 1 - 1/(kappa T), and the cavity holds the rest
    T = kT
    g = math.sqrt(kT - 1.0) / T
    beta, c_e = ref.two_level(g, ref.Pulse("exp_rising", T, 0.0), 0.0)(0.0)
    assert abs(c_e) ** 2 == pytest.approx(1.0 - 1.0 / kT, abs=1e-9)
    assert abs(beta) ** 2 == pytest.approx(1.0 / kT, abs=1e-9)


def test_bad_cavity_sech_optimum():
    res = minimize_scalar(
        lambda x: -_sech_peak_bad_cavity(x), bounds=(2.0, 5.0), method="bounded",
        options={"xatol": 1e-5},
    )
    assert res.x == pytest.approx(3.166, abs=1e-3)
    assert -res.fun == pytest.approx(0.8056, abs=1e-4)


def test_separable_biphoton_factorises():
    p1, p2 = ref.Pulse("sech", 2.0, 2.0), ref.Pulse("sech", 1.5, 2.6)
    kw = {"gamma": 0.1, "delta": 0.4}
    for t in (2.0, 3.5, 6.0):
        joint = ref.product_cee(1.3, p1, p2, t, **kw)
        c1 = ref.two_level(1.3, p1, t, **kw)(t)[1]
        c2 = ref.two_level(1.3, p2, t, **kw)(t)[1]
        assert abs(joint - c1 * c2) < 1e-10


def _reference_optimum(p_peak, g_range):
    res = minimize_scalar(
        lambda g: -p_peak(g), bounds=g_range, method="bounded", options={"xatol": 1e-7}
    )
    return float(res.x)


def test_two_level_check_rejects_perturbed_optimum():
    kT, gamma_over_g = 2.0, 0.1
    check = wl.two_level_check("sech", kT, gamma_over_g)

    def optimum(width):
        pulse = ref.Pulse("sech", width, kT)

        def p_peak(g):
            return ref.two_level_peak(g, pulse, 5.0 * kT, gamma=gamma_over_g * g)
        g = _reference_optimum(lambda g: p_peak(g)[1], (0.3, 3.0))
        t_load, p_max = p_peak(g)
        return g, p_max, t_load

    good = optimum(kT)
    assert check(good) == []
    assert check((good[0], good[1] + 1e-3, good[2]))
    assert check((1.1 * good[0], good[1], good[2]))
    assert check(optimum(kT / 2.0))  # a sech of half the width


def test_two_level_check_accepts_the_program():
    from cavity_loader import optimize

    opt = optimize.optimize_coupling("two_level", {"kT": 1.0, "pulse": "rectangular"})
    assert wl.two_level_check("rectangular", 1.0, 0.0)((opt.g_opt, opt.P_max, opt.T_load)) == []


def test_zed_check_rejects_perturbed_optimum():
    kT = 6.0
    check = wl.zed_check(kT)
    g = _reference_optimum(lambda g: ref.zed_probability(g, kT)[0], wl.ZED_G_RANGE)
    p_max, t_end = ref.zed_probability(g, kT)
    assert check((g, p_max, t_end)) == []
    assert check((g, p_max - 1e-3, t_end))
    assert check((0.9 * g, ref.zed_probability(0.9 * g, kT)[0], t_end))
    assert check((g, p_max, 4.0 * kT))


def test_mitnu_check_rejects_perturbed_optimum():
    kT, kT0 = 2.0, 3.0
    check = wl.mitnu_check(kT, kT0)
    t_guess = 2.0 * kT + kT0 + 1.0

    def p_peak(g):
        return ref.spdc_peak(g, kT, kT0, t_guess, kT)

    g = _reference_optimum(lambda g: p_peak(g)[1], (0.3, 2.0))
    t_load, p_max = p_peak(g)
    row = {"kT": kT, "kT0": kT0, "g_opt": g, "P_max": p_max, "T_load": t_load, "error": ""}
    assert check(row) == []
    assert check({**row, "P_max": p_max + 1e-3})
    assert check({**row, "g_opt": 1.1 * g, "P_max": p_peak(1.1 * g)[1]})
    assert check({**row, "error": "numeric failure"})


def test_oracle_checks_reject_perturbed_values():
    g, gamma, delta, t = 1.2, 0.1, 0.3, 3.0
    args = ((2.0, 2.0), (1.7, 2.2))
    c1, c2 = (
        ref.two_level(g, ref.Pulse("sech", T, t0), t, gamma=gamma, delta=delta)(t)[1]
        for T, t0 in args
    )
    check = wl.factorization_check(g, gamma, delta, args, t)
    assert check(c1 * c2) == []
    assert check(c1 * c2 + 1e-7)

    assert wl.antisymmetric_check(1e-12) == []
    assert wl.antisymmetric_check(1e-9)

    spectral = wl.spectral_check(g, 2.0, t)
    assert spectral(ref.two_level(g, ref.Pulse("sech", 2.0, 2.0), t)(t)[1]) == []
    assert spectral(ref.two_level(g, ref.Pulse("sech", 1.0, 2.0), t)(t)[1])  # half width

    assert wl.reduction_check(0.015) == []
    assert wl.reduction_check(0.025)

    closed = wl.closed_form_check("exp_decaying", g, gamma, delta, 2.0, t, {})
    pulse = ref.Pulse("exp_decaying", 2.0, 2.0)
    beta, c_e = ref.two_level(g, pulse, t, gamma=gamma, delta=delta)(t)
    assert closed((beta, c_e)) == []
    assert closed((beta, c_e + 1e-5))


def test_oracle_checks_accept_the_program():
    from cavity_loader import pulses, two_level

    p = two_level.TwoLevelParams(g=1.2, kappa=1.0, gamma=0.1, delta=0.3)
    for kind in wl.PULSE_FAMILIES:
        cache = {}
        for t in (0.5, 3.0, 7.5):
            value = two_level.amplitude_closed_form(p, pulses.make_named(kind, 2.0, 2.0), t)
            assert wl.closed_form_check(kind, 1.2, 0.1, 0.3, 2.0, t, cache)(value) == []
