import cmath
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from cavity_loader import numerics, pulses, two_level
from cavity_loader.two_level import TwoLevelParams


FIG3_PULSE = pulses.make_sech(2.0, 2.0)  # kappa T = 2, centered one width in
FIG3_PARAMS = TwoLevelParams(g=1.0, kappa=1.0)

# frozen from a dense scan of the equations of motion (36001 points,
# rtol 1e-11) with parabolic peak refinement
FIG3_T_LOAD = 3.3554798944
FIG3_P_MAX = 0.9023072570


@pytest.mark.parametrize(
    "rates",
    [
        dict(g=1.0, kappa=1.0, delta=1e160),
        dict(g=1.0, kappa=1.0, gamma=1e300),
        dict(g=1e200, kappa=1.0),
    ],
    ids=["delta", "gamma", "g"],
)
def test_overflowing_rates_are_rejected(rates):
    # (kappa - gamma')^2 - 4 g^2 overflows: a ValueError naming the rates
    # when the params are built, not an OverflowError from complex
    # exponentiation; the propagator keeps its own check for the Lambda
    # reduction, which builds no TwoLevelParams
    with pytest.raises(ValueError, match="kappa = 1.0"):
        TwoLevelParams(**rates)
    gamma_prime = complex(rates.get("gamma", 0.0), -rates.get("delta", 0.0))
    with pytest.raises(ValueError, match="kappa = 1.0"):
        two_level._Propagator.from_rates(rates["kappa"], gamma_prime, rates["g"])


def test_closed_form_zero_pulse():
    zero = pulses.make_named("zero", math.nan, 0.0)
    beta, ce = two_level.amplitude_closed_form(FIG3_PARAMS, zero, 3.0)
    assert beta == 0.0 and ce == 0.0


def test_closed_form_no_coupling_means_no_excitation():
    p = TwoLevelParams(g=0.0, kappa=1.0)
    for t in (0.5, 2.0, 7.0):
        _, ce = two_level.amplitude_closed_form(p, FIG3_PULSE, t)
        assert abs(ce) == 0.0


@pytest.mark.parametrize("g", [1.0, 0.02])
def test_closed_form_resolves_the_kernels_of_a_long_pulse(g):
    # kappa T = 1e4: the kernels, a few 1/Re(kappa_pm) wide, sit at the end
    # of a 5e4-long convolution, where the first Kronrod rule on the whole
    # support falls between them; at g = 0.02 the two modes' lengths differ
    # 2500-fold, so each needs its own panel
    kT = 1e4
    p = TwoLevelParams(g=g, kappa=1.0)
    pulse = pulses.make_sech(kT, kT)
    times = np.array([0.5, 1.0, 1.7]) * kT
    traj = two_level.amplitude_ode(p, pulse, np.concatenate(([pulse.support[0]], times)))
    for i, t in enumerate(times.tolist(), start=1):
        beta, ce = two_level.amplitude_closed_form(p, pulse, t)
        assert abs(abs(ce) - abs(traj.amplitudes["c_e"][i])) <= 1e-8
        assert abs(abs(beta) - abs(traj.amplitudes["beta"][i])) <= 1e-8


def test_oracle_equivalence_fig3_configuration():
    grid = np.linspace(FIG3_PULSE.support[0] + 0.25, 10.0, 30)
    traj = two_level.amplitude_ode(FIG3_PARAMS, FIG3_PULSE, grid)
    for i, t in enumerate(grid):
        beta, ce = two_level.amplitude_closed_form(FIG3_PARAMS, FIG3_PULSE, float(t))
        assert abs(abs(ce) - abs(traj.amplitudes["c_e"][i])) < 1e-6
        assert abs(abs(beta) - abs(traj.amplitudes["beta"][i])) < 1e-6


def test_ode_linearity_in_pulse():
    p = TwoLevelParams(g=1.2, kappa=1.0, gamma=0.1, delta=0.5)
    p1 = pulses.make_sech(2.0, 2.0)
    p2 = pulses.make_named("exp_decaying", 1.0, 1.0)

    class Mixed:
        kind = "mixed"
        T = 2.0
        t0 = 2.0
        support = (min(p1.support[0], p2.support[0]), max(p1.support[1], p2.support[1]))
        breakpoints = ()

        @staticmethod
        def amplitude(t):
            return p1.amplitude(t) + p2.amplitude(t)

    grid = np.linspace(Mixed.support[0], 8.0, 17)
    t1 = two_level.amplitude_ode(p, p1, grid)
    t2 = two_level.amplitude_ode(p, p2, grid)
    t12 = two_level.amplitude_ode(p, Mixed, grid)
    np.testing.assert_allclose(
        t12.amplitudes["c_e"],
        t1.amplitudes["c_e"] + t2.amplitudes["c_e"],
        atol=1e-8,
    )


def test_population_bound_and_passivity():
    grid = np.linspace(FIG3_PULSE.support[0], 14.0, 400)
    traj = two_level.amplitude_ode(FIG3_PARAMS, FIG3_PULSE, grid)
    total = traj.population("beta") + traj.population("c_e")
    assert np.all(total <= 1.0 + 1e-6)
    after = grid >= FIG3_PULSE.support[1]
    tail = total[after]
    assert np.all(np.diff(tail) <= 1e-9)


def test_degenerate_limit_continuity():
    pulse = pulses.make_sech(2.0, 2.0)
    _, ce_mid = two_level.amplitude_closed_form(
        TwoLevelParams(g=0.5, kappa=1.0), pulse, 3.0
    )
    for g in (0.5 * (1 - 1e-4), 0.5 * (1 + 1e-4)):
        _, ce = two_level.amplitude_closed_form(TwoLevelParams(g=g, kappa=1.0), pulse, 3.0)
        assert abs(ce - ce_mid) / abs(ce_mid) < 1e-3


def _sech_spectrum(T: float, t0: float):
    # exact Fourier pair of the sech envelope; unit spectral norm
    def weight(nu):
        return (
            math.sqrt(math.pi * T)
            / 4.0
            / np.cosh(math.pi * np.asarray(nu) * T / 8.0)
            * np.exp(1j * np.asarray(nu) * t0)
        )

    return weight


def test_spectral_amplitude_matches_closed_form():
    T = 2.0
    weight = _sech_spectrum(T, 2.0)
    ce_spec = two_level.spectral_amplitude(
        FIG3_PARAMS, weight, (-40.0 / T, 40.0 / T), 3.0, origin=FIG3_PULSE.support[0]
    )
    _, ce_cf = two_level.amplitude_closed_form(FIG3_PARAMS, FIG3_PULSE, 3.0)
    assert abs(ce_spec - ce_cf) < 1e-5


def test_spectral_amplitude_trivial_cases():
    zero = two_level.spectral_amplitude(
        FIG3_PARAMS, lambda nu: 0.0, (-10.0, 10.0), 3.0
    )
    assert zero == 0.0
    uncoupled = two_level.spectral_amplitude(
        TwoLevelParams(g=0.0, kappa=1.0), _sech_spectrum(2.0, 2.0), (-10.0, 10.0), 3.0
    )
    assert abs(uncoupled) == 0.0
    # no drive has reached the atom at or before the switch-on
    for t in (-3.0, -2.5):
        before = two_level.spectral_amplitude(
            FIG3_PARAMS, _sech_spectrum(2.0, 2.0), (-20.0, 20.0), t, origin=-2.5
        )
        assert before == 0.0


@pytest.mark.parametrize(
    "params",
    [
        TwoLevelParams(g=0.5, kappa=1.0),  # xi = 0: the confluent point
        TwoLevelParams(g=1.0, kappa=1.0, gamma=0.2, delta=0.3),
        TwoLevelParams(g=0.01, kappa=1.0),
    ],
    ids=["confluent", "lossy-detuned", "small-g"],
)
@pytest.mark.parametrize("t", [1.0, 3.0, 6.0])
def test_spectral_amplitude_exact_response_matches_closed_form(params, t):
    # each frequency's closed-form response, superposed over the sech
    # spectrum, against the time-domain convolution of the same pulse
    # (switched on at its support start)
    T = 2.0
    pulse = pulses.make_sech(T, T)
    ce_spec = two_level.spectral_amplitude(
        params, _sech_spectrum(T, T), (-40.0 / T, 40.0 / T), t, origin=pulse.support[0]
    )
    _, ce_cf = two_level.amplitude_closed_form(params, pulse, t)
    assert abs(ce_spec - ce_cf) < 1e-8


def test_peak_loading_zero_pulse():
    _, p_max = two_level.peak_loading([FIG3_PARAMS], pulses.make_named("zero", 1.0, 0.0), 5.0)
    assert p_max[0] == 0.0


def test_peak_loading_regression_fig3():
    (t_load,), (p_max,) = two_level.peak_loading([FIG3_PARAMS], FIG3_PULSE, 10.0)
    assert p_max == pytest.approx(FIG3_P_MAX, abs=1e-6)
    assert t_load == pytest.approx(FIG3_T_LOAD, abs=1e-4)


LOSSY_DETUNED = TwoLevelParams(g=1.0, kappa=1.0, gamma=0.2, delta=0.3)


@pytest.mark.parametrize("kind", ["sech", "rectangular", "exp_rising", "exp_decaying"])
@pytest.mark.parametrize(
    "params, horizon",
    [
        (LOSSY_DETUNED, 10.0),
        (TwoLevelParams(g=0.5, kappa=1.0), 10.0),  # confluent point, xi = 0
        # a grid step of 10.3713 / 2075 puts the rectangular and exponential
        # edges strictly inside a step
        (LOSSY_DETUNED, 10.3713),
    ],
)
def test_peak_loading_matches_closed_form(kind, params, horizon):
    pulse = pulses.make_named(kind, 2.0, 2.0)
    (t_load,), (p_max,) = two_level.peak_loading([params], pulse, horizon)
    _, ce = two_level.amplitude_closed_form(params, pulse, t_load)
    assert abs(p_max - abs(ce) ** 2) <= 1e-10


@pytest.mark.parametrize("kind", ["sech", "rectangular", "exp_rising", "exp_decaying"])
def test_peak_loading_refines_in_few_calls(kind, monkeypatch):
    # Brent's method settles every peak time in 7-8 objective calls here;
    # the golden-section search it replaced took 38
    calls = []
    scan_refine = two_level.numerics.scan_refine

    def counting(f, grid, values, tol):
        return scan_refine(lambda r, x: calls.append(len(r)) or f(r, x), grid, values, tol)

    monkeypatch.setattr(two_level.numerics, "scan_refine", counting)
    two_level.peak_loading([FIG3_PARAMS], pulses.make_named(kind, 2.0, 2.0), 10.0)
    assert 0 < len(calls) <= 12


@pytest.mark.parametrize("kind", ["sech", "rectangular", "exp_rising", "exp_decaying"])
@pytest.mark.parametrize("gamma_over_g", [3e4, 1e6])
def test_peak_loading_finite_for_heavy_loss(kind, gamma_over_g):
    # gamma >> kappa makes |xi s / 2| so large that cosh and sinh overflow
    # on their own; the propagator must stay finite and warning-free
    params = TwoLevelParams(g=10.0, kappa=1.0, gamma=gamma_over_g * 10.0)
    pulse = pulses.make_named(kind, 2.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (t_load,), (p_max,) = two_level.peak_loading([params], pulse, 10.0)
        _, ce = two_level.amplitude_closed_form(params, pulse, t_load)
    assert math.isfinite(t_load) and math.isfinite(p_max)
    assert abs(p_max - abs(ce) ** 2) <= 1e-10


# 40 couplings in one call: 38 lossy and detuned ones, the confluent point,
# and a strongly damped one whose rectangular-pulse peak lies just after the
# trailing edge, inside the edge's grid step
BATCH = [
    TwoLevelParams(g=g, kappa=1.0, gamma=0.2, delta=0.3) for g in np.geomspace(0.05, 10.0, 38)
] + [TwoLevelParams(g=0.5, kappa=1.0), TwoLevelParams(g=2.0, kappa=1.0, gamma=4.0, delta=0.3)]


@pytest.mark.parametrize("kind", ["sech", "rectangular", "exp_rising", "exp_decaying"])
def test_batched_peak_loading_matches_closed_form(kind):
    pulse = pulses.make_named(kind, 2.0, 2.0)
    # the horizon that puts the rectangular and exponential edges inside a step
    times, probs = two_level.peak_loading(BATCH, pulse, 10.3713)
    for params, t_load, p_max in zip(BATCH, times, probs):
        _, ce = two_level.amplitude_closed_form(params, pulse, t_load)
        assert abs(p_max - abs(ce) ** 2) <= 1e-10, params


def test_batched_peak_loading_matches_single_calls():
    pulse = pulses.make_named("exp_decaying", 2.0, 2.0)
    times, probs = two_level.peak_loading(BATCH, pulse, 10.3713)
    assert isinstance(times, np.ndarray) and times.shape == (len(BATCH),)
    assert isinstance(probs, np.ndarray) and probs.shape == (len(BATCH),)
    for params, t_load, p_max in zip(BATCH, times, probs):
        t_one, p_one = two_level.peak_loading((params,), pulse, 10.3713)
        assert isinstance(t_one, np.ndarray) and t_one.shape == (1,)
        assert isinstance(p_one, np.ndarray) and p_one.shape == (1,)
        t1, p1 = t_one[0], p_one[0]
        t_row, p_row = two_level.peak_loading([params], pulse, 10.3713)
        assert (t_row[0], p_row[0]) == (t1, p1)
        assert abs(p_max - p1) <= 1e-14
        assert abs(t_load - t1) <= 1e-9


def test_banded_march_matches_plain_recursion():
    pulse = pulses.make_named("rectangular", 2.0, 2.0)
    # the rectangle's edges and center fall inside steps
    grid = np.linspace(0.0, 10.3713, 2076)
    phi = pulse.amplitude(grid[:-1, None] + (grid[1] - grid[0]) * two_level._STEP_NODES)
    for params in (LOSSY_DETUNED, TwoLevelParams(g=0.5, kappa=1.0)):
        prop = two_level._Propagator.of(params)
        states = next(two_level._marches(two_level._stack([prop]), pulse, grid, phi))
        # the same step map, applied one step at a time in Python
        expected = [(0j, 0j)]
        for a, b in zip(grid[:-1].tolist(), grid[1:].tolist()):
            expected.append(two_level._advance(prop, pulse, expected[-1], a, b))
        assert np.abs(states - np.array(expected)).max() <= 1e-12


def test_batched_peak_loading_memory():
    # one coarse scan of the two-level optimizer at its longest grid: an
    # exp_rising pulse starts 15 T before its center, so kT = 7.95 and a
    # 5 T horizon take 8000 steps
    T = 7.95
    pulse = pulses.make_named("exp_rising", T, T)
    batch = [
        TwoLevelParams(g=g, kappa=1.0, gamma=0.375 * g) for g in np.geomspace(0.05, 10.0, 40)
    ]
    two_level.peak_loading(batch[:2], pulse, 5.0 * T)
    # a cold scan: outside a block the warm-up keeps no grid or pulse samples
    tracemalloc.start()
    try:
        two_level.peak_loading(batch, pulse, 5.0 * T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


FAMILIES = ("sech", "rectangular", "exp_rising", "exp_decaying")


def _shared_grid(pulse, horizon, start=None, max_step=math.inf):
    """``_scan_grid`` through the store, under the key that ``_peak`` uses."""
    return numerics.shared(two_level._scan_grid, pulse, horizon, start, max_step)


@pytest.mark.parametrize("kind", FAMILIES)
def test_scan_grid_memo_keeps_every_bit(kind):
    # the calls of one coupling optimum share their block's scan grid: the
    # batch, each coupling on its own in that block and each in a fresh
    # nested block agree bit for bit
    pulse = pulses.make_named(kind, 2.0, 2.0)
    with numerics.sharing():
        times, probs = two_level.peak_loading(BATCH, pulse, 10.3713)
        for params, t_load, p_max in zip(BATCH, times.tolist(), probs.tolist()):
            warm = [a.tolist() for a in two_level.peak_loading([params], pulse, 10.3713)]
            with numerics.sharing():
                cold = [a.tolist() for a in two_level.peak_loading([params], pulse, 10.3713)]
            assert warm == cold == [[t_load], [p_max]]


@pytest.mark.parametrize(
    "other",
    [
        lambda named: (pulses.make_named("sech", 2.0, 2.5), 10.0),
        lambda named: (pulses.frequency_shifted(named, 0.5), 10.0),
        lambda named: (named, 10.5),
        lambda named: (named, 10.0, -1.0),
        lambda named: (named, 10.0, None, 0.01),
    ],
    ids=["t0", "carrier", "horizon", "start", "max_step"],
)
def test_scan_grid_memo_holds_one_request(other):
    # a hit needs an equal pulse (kind, width, center and carrier), the
    # same horizon, start and step cap; a miss builds anew, the earlier
    # key still hits, and the block holds nothing once it is left
    named = pulses.make_named("sech", 2.0, 2.0)
    with numerics.sharing():
        grid, phi, _ = _shared_grid(named, 10.0)
        # equal parameters give an equal pulse, and so the same entry
        assert _shared_grid(pulses.make_named("sech", 2.0, 2.0), 10.0)[1] is phi
        missed = _shared_grid(*other(named))
        assert missed[1] is not phi
        assert _shared_grid(named, 10.0)[1] is phi
        assert _shared_grid(*other(named))[1] is missed[1]
        held = [weakref.ref(a) for a in (grid, phi, *missed[:2])]
    del grid, phi, missed
    assert all(ref() is None for ref in held)


def test_scan_grid_memo_keys_on_pulse_values():
    # make_sech and make_named build equal pulses from equal widths of
    # either type, and share one entry; two carriers miss each other's
    sech = pulses.make_sech(2, 2)
    with numerics.sharing():
        phi = _shared_grid(sech, 10.0)[1]
        assert _shared_grid(pulses.make_named("sech", 2.0, 2.0), 10.0)[1] is phi
        slow, fast = (pulses.frequency_shifted(sech, shift) for shift in (0.5, 0.7))
        assert slow != fast
        slow_phi = _shared_grid(slow, 10.0)[1]
        assert slow_phi is not phi
        fast_phi = _shared_grid(fast, 10.0)[1]
        assert fast_phi is not slow_phi and not np.array_equal(fast_phi, slow_phi)
        assert _shared_grid(slow, 10.0)[1] is slow_phi
        assert _shared_grid(sech, 10.0)[1] is phi
        held = [weakref.ref(a) for a in (phi, slow_phi, fast_phi)]
    del phi, slow_phi, fast_phi
    assert all(ref() is None for ref in held)


@pytest.mark.parametrize("name, factor", [("_STEPS_PER_WIDTH", 2), ("_STEP_BUDGET", 0)])
def test_scan_grid_memo_misses_when_the_grid_constants_change(monkeypatch, name, factor):
    # outside a block every call builds its grid: a convergence test that
    # refines the grid measures the finer grid, and a smaller budget refuses
    # a grid that an earlier call built
    grid, phi, _ = _shared_grid(FIG3_PULSE, 10.0)
    monkeypatch.setattr(two_level, name, factor * getattr(two_level, name))
    if factor:
        finer = _shared_grid(FIG3_PULSE, 10.0)[0]
        assert len(finer) - 1 == 2 * (len(grid) - 1)
    else:
        with pytest.raises(numerics.OdeFailure, match="over the budget 0"):
            _shared_grid(FIG3_PULSE, 10.0)


def test_scan_grid_memo_is_read_only():
    grid, phi, _ = two_level._scan_grid(FIG3_PULSE, 10.0)
    with pytest.raises(ValueError, match="read-only"):
        grid[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        phi[0, 0] = 1.0


def _merged_parts(prop, s):
    """``_Propagator.parts`` as one np.where merge of the factored and the
    exponential form, both evaluated on every lag."""
    half = 0.5 * prop.xi * s
    near = np.abs(half) < two_level._FACTORED_THRESHOLD
    damp = np.exp(-prop.mean * s)
    half_near = np.where(near, half, 0.0)
    ch, sh = np.cosh(half_near) * damp, s * two_level._sinhc(half_near) * damp
    up, down = np.exp(half - prop.mean * s), np.exp(-half - prop.mean * s)
    xi = np.where(near, 1.0, prop.xi)
    return np.where(near, ch, 0.5 * (up + down)), np.where(near, sh, (up - down) / xi)


@pytest.mark.parametrize(
    "lags, factored",
    [
        (np.linspace(0.0, 1e-3, 9), {True}),
        (np.linspace(5.0, 50.0, 9), {False}),
        (np.geomspace(1e-4, 20.0, 9), {True, False}),
    ],
    ids=["factored", "exponential", "mixed"],
)
def test_kernel_parts_match_the_merged_formula(lags, factored):
    # one form where every lag is on its side, the merge otherwise: the
    # same bits either way, for each propagator and for their stack; the
    # confluent point (xi = 0) is factored at every lag, so it stays out
    props = [two_level._Propagator.of(p) for p in BATCH if p != TwoLevelParams(g=0.5, kappa=1.0)]
    for prop in [*props, two_level._stack(props)]:
        near = np.abs(0.5 * prop.xi * lags) < two_level._FACTORED_THRESHOLD
        assert set(near.ravel().tolist()) == factored
        for got, want in zip(prop.parts(lags), _merged_parts(prop, lags)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_kernel_is_zero_where_its_exponent_overflows():
    # a lag near the float range times a rate of 1e10 overflows the
    # exponent's products: the exponentials are exact zeros, with no
    # warning, and a finite lag keeps its bits
    prop = two_level._Propagator.of(TwoLevelParams(g=1e10, kappa=1.0, gamma=0.1, delta=0.5))
    lags = np.array([1.0, 2.5e303, 7e303])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ch, sh = prop.parts(lags)
    want_ch, want_sh = _merged_parts(prop, lags[:1])
    assert ch[0] == want_ch[0] and sh[0] == want_sh[0]
    assert not ch[1:].any() and not sh[1:].any()


@pytest.mark.parametrize("points", [2, 11, 501])
@pytest.mark.parametrize("kind", FAMILIES)
def test_stepped_trajectory_matches_closed_form(kind, points):
    pulse = pulses.make_named(kind, 2.0, 2.0)
    times = np.linspace(min(0.0, pulse.support[0]), 10.0, points)
    for params in (FIG3_PARAMS, LOSSY_DETUNED):
        traj = two_level.stepped_trajectory(params, pulse, times)
        for i in range(0, points, max(points // 25, 1)):
            beta, ce = two_level.amplitude_closed_form(params, pulse, float(times[i]))
            assert abs(traj.population("beta")[i] - abs(beta) ** 2) <= 1e-10
            assert abs(traj.population("c_e")[i] - abs(ce) ** 2) <= 1e-10
        # the output times need not be sorted
        backwards = two_level.stepped_trajectory(params, pulse, times[::-1])
        assert np.array_equal(backwards.amplitudes["c_e"], traj.amplitudes["c_e"][::-1])


@pytest.mark.parametrize("kind", FAMILIES)
def test_stepped_trajectory_is_the_scan_on_its_grid(kind):
    # on the peak search's own grid the writer returns the scanned states,
    # and no denser output rises above the refined peak
    pulse = pulses.make_named(kind, 2.0, 2.0)
    horizon = 10.3713
    grid, phi, _ = two_level._scan_grid(pulse, horizon)
    for params in (FIG3_PARAMS, LOSSY_DETUNED):
        prop = two_level._stack([two_level._Propagator.of(params)])
        scan = next(two_level._marches(prop, pulse, grid, phi))
        traj = two_level.stepped_trajectory(params, pulse, grid)
        assert np.array_equal(traj.amplitudes["beta"], scan[:, 0])
        assert np.array_equal(traj.amplitudes["c_e"], scan[:, 1])
        (_,), (p_max,) = two_level.peak_loading([params], pulse, horizon)
        dense = two_level.stepped_trajectory(params, pulse, np.linspace(grid[0], horizon, 20001))
        assert dense.population("c_e").max() <= p_max + 1e-12


def test_stepped_trajectory_at_rest_before_the_scan():
    # times at or before the scan start are exact zeros, and a call with
    # none after it (or none at all) runs no scan
    start = FIG3_PULSE.support[0]
    traj = two_level.stepped_trajectory(FIG3_PARAMS, FIG3_PULSE, [start - 1.0, start])
    assert not traj.amplitudes["beta"].any() and not traj.amplitudes["c_e"].any()
    empty = two_level.stepped_trajectory(FIG3_PARAMS, FIG3_PULSE, [])
    assert empty.times.size == 0 and empty.amplitudes["c_e"].size == 0
    with pytest.raises(ValueError, match="horizon"):
        two_level.stepped_trajectory(FIG3_PARAMS, FIG3_PULSE, [1.0, math.inf])


def test_stepped_trajectory_memory():
    # output times are stepped in blocks: the peak does not grow with them
    # beyond the (beta, c_e) columns themselves
    times = np.linspace(FIG3_PULSE.support[0], 10.0, 100_000)
    two_level.stepped_trajectory(LOSSY_DETUNED, FIG3_PULSE, times[:10])
    tracemalloc.start()
    try:
        two_level.stepped_trajectory(LOSSY_DETUNED, FIG3_PULSE, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_dimensionless_scaling_invariance():
    # scaling every rate by c and time by 1/c leaves |c_e(t/T)|^2 unchanged
    # the reference at kappa = 1: kappa T = 2, g = 1.2, gamma = 0.25 g, t = 1.7 T
    _, ce = two_level.amplitude_closed_form(
        TwoLevelParams(g=1.2, kappa=1.0, gamma=0.25 * 1.2), pulses.make_named("sech", 2.0, 2.0), 1.7 * 2.0
    )
    ref = abs(ce) ** 2
    for c in (0.25, 3.0, 40.0):
        kappa = c
        T = 2.0 / kappa
        g = 1.2 * kappa
        p = TwoLevelParams(g=g, kappa=kappa, gamma=0.25 * g)
        pulse = pulses.make_sech(T, T)
        _, ce = two_level.amplitude_closed_form(p, pulse, 1.7 * T)
        assert abs(abs(ce) ** 2 - ref) < 1e-9



def test_params_validation():
    with pytest.raises(ValueError):
        TwoLevelParams(g=1.0, kappa=0.0)
    with pytest.raises(ValueError):
        TwoLevelParams(g=-1.0, kappa=1.0)
    with pytest.raises(ValueError):
        TwoLevelParams(g=1.0, kappa=1.0, gamma=-0.1)


@pytest.mark.parametrize("name", ["g", "kappa", "gamma", "delta"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_params_reject_non_finite(name, bad):
    rates = {"g": 1.0, "kappa": 1.0, "gamma": 0.1, "delta": 0.2, name: bad}
    with pytest.raises(ValueError, match=name):
        TwoLevelParams(**rates)
