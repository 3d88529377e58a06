import math
import tracemalloc

import numpy as np
import pytest

from cavity_loader import entangled_loading as el
from cavity_loader import numerics, pulses, two_level
from cavity_loader.entangled_loading import PolarizationQubit, SpdcParams
from cavity_loader.two_level import TwoLevelParams


SP = SpdcParams(T=2.0, T0=2.0)
PK = TwoLevelParams(g=1.0, kappa=1.0)


@pytest.fixture(scope="module")
def biphoton():
    return el.spdc_biphoton(SP)


def test_qubit_norm_enforced():
    with pytest.raises(ValueError):
        PolarizationQubit(1.0, 1.0)
    PolarizationQubit(1 / math.sqrt(2), 1j / math.sqrt(2))


def test_v_level_single_leg():
    pulse = pulses.make_sech(2.0, 2.0)
    q = PolarizationQubit(1.0, 0.0)
    p = el.v_level_load(q, PK, pulse, 3.0)
    _, ce = two_level.amplitude_closed_form(PK, pulse, 3.0)
    assert p == pytest.approx(abs(ce) ** 2, abs=1e-12)


def test_v_level_polarization_invariance():
    pulse = pulses.make_sech(2.0, 2.0)
    ref = el.v_level_load(PolarizationQubit(1.0, 0.0), PK, pulse, 3.0)
    rng = np.random.default_rng(5)
    for _ in range(25):
        z = rng.normal(size=4)
        alpha = complex(z[0], z[1])
        beta = complex(z[2], z[3])
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        q = PolarizationQubit(alpha / norm, beta / norm)
        assert el.v_level_load(q, PK, pulse, 3.0) == pytest.approx(ref, abs=1e-12)


def test_spdc_symmetric(biphoton):
    rng = np.random.default_rng(9)
    ts = rng.uniform(0.0, 12.0, size=(40, 2))
    a = biphoton.joint(ts[:, 0], ts[:, 1])
    b = biphoton.joint(ts[:, 1], ts[:, 0])
    np.testing.assert_allclose(a, b, atol=1e-15)


def test_spdc_box_support(biphoton):
    assert biphoton.joint(5.0, 5.0 + SP.T0 + 0.01) == 0.0
    assert biphoton.joint(9.0, 9.0 - SP.T0 - 0.01) == 0.0
    assert abs(biphoton.joint(6.0, 6.5)) > 0.0


def test_spdc_norm_via_quad2(biphoton):
    x0, x1, y0, y1 = biphoton.support
    spec = numerics.QuadratureSpec(rtol=1e-8, atol=1e-12, max_subdivisions=2000)

    def inner(tau2):
        lo = max(x0, tau2 - SP.T0)
        hi = min(x1, tau2 + SP.T0)
        if hi <= lo:
            return 0.0 + 0.0j
        return numerics.quad1(
            lambda tau: abs(biphoton.joint(tau, tau2)) ** 2 + 0.0j, (lo, hi), spec
        )

    def f(tau2s):
        return np.array([inner(tau2) for tau2 in tau2s])

    norm2 = numerics.quad1(f, (y0, y1), spec)
    assert norm2.real == pytest.approx(1.0, abs=1e-6)


def test_cee_factorizes_for_separable_input():
    p = TwoLevelParams(g=1.3, kappa=1.0, gamma=0.1, delta=0.4)
    p1 = pulses.make_sech(2.0, 2.0)
    p2 = pulses.make_named("exp_decaying", 1.5, 0.5)
    b = el.separable_biphoton(p1, p2)
    for t in (1.5, 3.0, 6.0):
        cee = el.c_ee(p, b, t, method="quad2")
        _, ce1 = two_level.amplitude_closed_form(p, p1, t)
        _, ce2 = two_level.amplitude_closed_form(p, p2, t)
        assert abs(cee - ce1 * ce2) < 1e-8


def test_cee_antisymmetric_vanishes():
    p1 = pulses.make_sech(2.0, 2.0)
    p2 = pulses.make_named("rectangular", 2.0, 2.0)

    def anti(tau, tau2):
        return (
            p1.amplitude(tau) * p2.amplitude(tau2)
            - p1.amplitude(tau2) * p2.amplitude(tau)
        ) / math.sqrt(2.0)

    lo = min(p1.support[0], p2.support[0])
    hi = max(p1.support[1], p2.support[1])
    b = el.BiphotonAmplitude(joint=anti, support=(lo, hi, lo, hi), norm_constant=1.0)
    assert abs(el.c_ee(PK, b, 3.0, method="quad2")) <= 1e-10


def test_cee_symmetrization_identity():
    # c_ee from an asymmetric separable amplitude equals c_ee from its
    # symmetrized version
    p1 = pulses.make_sech(2.0, 2.0)
    p2 = pulses.make_named("exp_decaying", 1.0, 1.0)

    def raw(tau, tau2):
        return p1.amplitude(tau) * p2.amplitude(tau2)

    def symmetrized(tau, tau2):
        return 0.5 * (raw(tau, tau2) + raw(tau2, tau))

    lo = min(p1.support[0], p2.support[0])
    hi = max(p1.support[1], p2.support[1])
    b_raw = el.BiphotonAmplitude(joint=raw, support=(lo, hi, lo, hi), norm_constant=1.0)
    b_sym = el.BiphotonAmplitude(
        joint=symmetrized, support=(lo, hi, lo, hi), norm_constant=1.0
    )
    spec = numerics.QuadratureSpec(rtol=1e-10, atol=1e-14, max_subdivisions=2000)
    a = el.c_ee(PK, b_raw, 3.5, method="quad2", spec=spec)
    b = el.c_ee(PK, b_sym, 3.5, method="quad2", spec=spec)
    assert abs(a - b) < 1e-10


def test_cee_fast_path_matches_quad2(biphoton):
    for t in (4.0, 7.0, 9.5):
        fast = el.c_ee(PK, biphoton, t, method="reduced")
        slow = el.c_ee(PK, biphoton, t, method="quad2")
        assert abs(fast - slow) < 1e-8


def test_batched_peak_matches_quad2(biphoton):
    params = [TwoLevelParams(g=g, kappa=1.0) for g in (0.4, 1.0)]
    times, probs = el.peak_joint_loading(params, biphoton, biphoton.support[1] + 2.0)
    for q, t, p in zip(params, times, probs):
        slow = el.c_ee(q, biphoton, t, method="quad2")
        assert abs(math.sqrt(p) - abs(slow)) < 1e-8


def test_batched_peak_matches_single_calls(biphoton):
    horizon = biphoton.support[1] + 2.0
    params = [TwoLevelParams(g=g, kappa=1.0) for g in np.geomspace(0.1, 5.0, 7)]
    times, probs = el.peak_joint_loading(params, biphoton, horizon)
    assert isinstance(times, np.ndarray) and isinstance(probs, np.ndarray)
    for q, t, p in zip(params, times, probs):
        t1, p1 = el.peak_joint_loading(q, biphoton, horizon)
        assert type(t1) is float and type(p1) is float
        assert abs(p - p1) <= 1e-14
        assert abs(t - t1) <= 1e-6 * SP.T


def test_mitnu_couplings_share_one_panel_width():
    # so the coarse scan and the Brent calls of one optimum hit one scan state
    for kT, kT0 in ((2.0, 6.0), (6.0, 2.0), (3.0, 4.0)):
        b = el.spdc_biphoton(SpdcParams(T=kT, T0=kT0))
        widths = {
            el._panel_width(two_level._Propagator.of(TwoLevelParams(g=g, kappa=1.0)), b)
            for g in np.geomspace(0.1, 5.0, 40)
        }
        assert widths == {min(kT / 2.0, kT0 / 2.0, 0.5)}


def test_cee_narrow_window_continuity():
    # as the phase-matching window closes, the joint amplitude approaches a
    # time-correlated ridge and |c_ee|^2 scales linearly with the window;
    # the ridge-normalized value converges smoothly
    vals = []
    for t0w in (0.05, 0.025):
        b = el.spdc_biphoton(SpdcParams(T=2.0, T0=t0w))
        _, p = el.peak_joint_loading(PK, b, horizon=b.support[1] + 2.0)
        vals.append(p / t0w)
    assert abs(vals[0] - vals[1]) / vals[1] < 0.02


def test_narrow_window_scan_state_is_not_kept():
    # T0 = 0.05 needs 22 MB of real pump blocks; the design range keeps <= 3.1 MB
    b = el.spdc_biphoton(SpdcParams(T=2.0, T0=0.05))
    el._scan_state.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        el.peak_joint_loading(PK, b, b.support[1] + 2.0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 2**20
    # a design-range state stays for the next call of the same optimum
    wide = el.spdc_biphoton(SpdcParams(T=6.0, T0=6.0))
    el.peak_joint_loading(PK, wide, wide.support[1] + 2.0)
    assert el._scan_state.cache_info().currsize == 1


@pytest.mark.parametrize(
    "kT, kT0, delta",
    [(2.0, 6.0, 0.0), (6.0, 2.0, 0.0), (4.0, 4.0, 0.0), (1.0, 6.0, 0.0), (2.0, 0.05, 0.0)]
    + [(4.0, 4.0, 0.5)],
)
def test_block_scan_matches_reduced(kT, kT0, delta):
    # the blocks keep only the lags that reach the pump, so the scan is the
    # reduced integral over every node; a detuning makes the weights complex
    b = el.spdc_biphoton(SpdcParams(T=kT, T0=kT0))
    horizon = b.support[1] + 2.0
    props = [
        two_level._Propagator.of(TwoLevelParams(g=g, kappa=1.0, delta=delta))
        for g in np.geomspace(0.1, 5.0, 40)
    ]
    h = min(el._panel_width(prop, b) for prop in props)
    el._scan_state.cache_clear()
    grid, rule, blocks = el._scan_state(b, horizon, h)
    el._scan_state.cache_clear()
    if kT == 1.0:
        # the pump starts at t = 3: the first block of rows reaches no lag
        assert grid[31] < b.pump.support[0] and not blocks[0][2].any()
    prefs, weights = zip(*(el._reduced_weight(prop, b, *rule) for prop in props))
    weights = np.array(weights)
    assert np.any(weights.imag) or delta == 0.0
    scans = np.array(prefs)[:, None] * el._block_scan(blocks, weights, grid.size)
    nodes = rule[0]
    refs = np.empty_like(scans)
    # the pump over every node, in slices of rows so the matrix stays small
    for i in range(0, grid.size, 32):
        pump = b.pump.amplitude(grid[i : i + 32, None] - nodes)
        for ref, pref, weight in zip(refs, prefs, weights):
            ref[i : i + 32] = pref * (pump * weight).sum(axis=1)
    assert np.max(np.abs(scans - refs)) <= 1e-12 * np.max(np.abs(scans))


def test_peak_search_takes_a_complex_pump():
    real = el.spdc_biphoton(SP)
    pump = pulses.frequency_shifted(real.pump, 0.7)

    def joint(tau, tau2):
        tau, tau2 = np.asarray(tau, dtype=float), np.asarray(tau2, dtype=float)
        box = (np.abs(tau - tau2) <= SP.T0).astype(float)
        return real.norm_constant * pump.amplitude((tau + tau2) / 2.0) * box

    b = el.BiphotonAmplitude(
        joint=joint,
        support=real.support,
        norm_constant=real.norm_constant,
        pump=pump,
        t0_window=SP.T0,
    )
    t, p = el.peak_joint_loading(PK, b, b.support[1] + 2.0)
    assert abs(math.sqrt(p) - abs(el.c_ee(PK, b, t, method="quad2"))) < 1e-8
    for dt in (-0.1, 0.1):
        assert abs(el.c_ee(PK, b, t + dt, method="reduced")) ** 2 < p
    slow = el.c_ee(PK, b, 7.0, method="quad2")
    assert abs(slow) > 1e-3
    assert abs(slow - el.c_ee(PK, b, 7.0, method="reduced")) < 1e-8


def test_narrow_window_trajectory_peak_memory():
    # the pump is evaluated in blocks of 32 times, so memory does not grow
    # with the number of points (the dense pump matrix peaked at ~274 MiB)
    b = el.spdc_biphoton(SpdcParams(T=2.0, T0=0.05))
    grid = np.linspace(0.0, b.support[1] + 2.0, 600)
    tracemalloc.start()
    try:
        el.joint_trajectory(PK, b, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak


@pytest.mark.parametrize(
    "call",
    [
        lambda b: el.c_ee(PK, b, 5.0, method="reduced"),
        lambda b: el.joint_trajectory(PK, b, np.linspace(0.0, 10.0, 5)),
        lambda b: el.peak_joint_loading(PK, b, 10.0),
    ],
    ids=["c_ee", "joint_trajectory", "peak_joint_loading"],
)
def test_reduced_routes_need_downconverter_structure(call):
    sech = pulses.make_sech(2.0, 4.0)
    with pytest.raises(ValueError, match="downconverter-structured"):
        call(el.separable_biphoton(sech, sech))


# make_sech(2, 2) starts at t = -8, so the two-level scan starts there
_PEAK_SEARCHES = {
    "two_level": lambda h: two_level.peak_loading(PK, pulses.make_sech(2.0, 2.0), h),
    "pair": lambda h: el.peak_joint_loading(PK, el.spdc_biphoton(SP), h),
}


@pytest.mark.parametrize(
    "search, horizon",
    [("two_level", h) for h in (-30.0, -8.0, math.inf, math.nan)]
    + [("pair", h) for h in (-1.0, 0.0, math.inf, math.nan)],
)
def test_peak_searches_reject_a_bad_horizon(search, horizon):
    with pytest.raises(ValueError, match="horizon must be finite"):
        _PEAK_SEARCHES[search](horizon)


def test_narrow_window_search_peak_memory():
    b = el.spdc_biphoton(SpdcParams(T=2.0, T0=0.05))
    params = [TwoLevelParams(g=g, kappa=1.0) for g in np.geomspace(0.1, 5.0, 40)]
    el._scan_state.cache_clear()
    tracemalloc.start()
    try:
        el.peak_joint_loading(params, b, b.support[1] + 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak


def test_cee_bounded(biphoton):
    grid = np.linspace(0.0, biphoton.support[1] + 2.0, 300)
    traj = el.joint_trajectory(PK, biphoton, grid)
    pop = traj.population("c_ee")
    assert np.all(pop >= 0.0)
    assert np.all(pop <= 1.0 + 1e-6)


def test_spdc_params_validation():
    with pytest.raises(ValueError):
        SpdcParams(T=0.0, T0=1.0)
    with pytest.raises(ValueError):
        SpdcParams(T=1.0, T0=-1.0)


def test_spdc_params_reject_a_window_past_the_range():
    # the joint support, pump center + 5 T + T0 / 2, would overflow
    with pytest.raises(ValueError, match="T0 is too large"):
        SpdcParams(T=1.0, T0=1.7e308)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spdc_params_reject_non_finite(bad):
    with pytest.raises(ValueError, match="T "):
        SpdcParams(T=bad, T0=1.0)
    with pytest.raises(ValueError, match="T0"):
        SpdcParams(T=1.0, T0=bad)
