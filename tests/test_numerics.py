import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from cavity_loader import numerics, pulses
from cavity_loader.numerics import OdeSystem, QuadratureSpec


def test_integrate_exponential_decay():
    sys_ = OdeSystem(1, lambda t, y: -y, np.array([1.0 + 0j]), (0.0, 1.0))
    states = numerics.integrate(sys_, [1.0])
    assert states[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_integrate_zero_everything():
    sys_ = OdeSystem(2, lambda t, y: 0.0 * y, np.zeros(2, dtype=complex), (0.0, 5.0))
    states = numerics.integrate(sys_, np.linspace(0.0, 5.0, 7))
    assert np.all(states == 0.0)


def test_integrate_linearity_in_drive():
    # linear homogeneous part + additive drive: response superposes
    drive1 = pulses.make_sech(1.0, 1.0)
    drive2 = pulses.make_named("exp_decaying", 0.7, 0.5)

    def make(drv):
        def rhs(t, y):
            return np.array([-0.8 * y[0] - 1j * drv.amplitude(t)])

        return OdeSystem(1, rhs, np.zeros(1, dtype=complex), (-5.0, 6.0))

    def both(t, y):
        return np.array(
            [-0.8 * y[0] - 1j * (drive1.amplitude(t) + drive2.amplitude(t))]
        )

    grid = np.linspace(-4.0, 6.0, 21)
    s1 = numerics.integrate(make(drive1), grid, max_step=0.05)
    s2 = numerics.integrate(make(drive2), grid, max_step=0.05)
    s12 = numerics.integrate(
        OdeSystem(1, both, np.zeros(1, dtype=complex), (-5.0, 6.0)), grid, max_step=0.05
    )
    np.testing.assert_allclose(s12, s1 + s2, atol=1e-8)


def test_integrate_tolerance_self_consistency():
    sys_ = OdeSystem(
        1, lambda t, y: 1j * np.cos(t) * y, np.array([1.0 + 0j]), (0.0, 10.0)
    )
    coarse = numerics.integrate(sys_, [10.0], rtol=1e-6, atol=1e-8)
    fine = numerics.integrate(sys_, [10.0], rtol=3e-7, atol=4e-9)
    assert abs(coarse[0, 0] - fine[0, 0]) < 1e-6


def test_integrate_deterministic():
    sys_ = OdeSystem(
        1, lambda t, y: (1j - 0.3) * y, np.array([0.5 + 0.5j]), (0.0, 3.0)
    )
    a = numerics.integrate(sys_, np.linspace(0.5, 3.0, 9))
    b = numerics.integrate(sys_, np.linspace(0.5, 3.0, 9))
    assert np.array_equal(a, b)


def test_integrate_breakpoint_discontinuity():
    # rate switches sign at t=1; splitting must hit the corner exactly
    def rhs(t, y):
        return np.array([(-1.0 if t <= 1.0 else 1.0) * y[0]])

    sys_ = OdeSystem(1, rhs, np.array([1.0 + 0j]), (0.0, 2.0))
    states = numerics.integrate(sys_, [2.0], breakpoints=[1.0], rtol=1e-10, atol=1e-12)
    assert states[0, 0].real == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize(
    "grid",
    [[0.0, 0.4, 1.0, 1.3, 2.0], [0.2, 0.9, 1.1, 1.7]],
    ids=["point-at-breakpoint", "breakpoint-between-points"],
)
def test_integrate_across_breakpoint_matches_analytic(grid):
    # decay at rate 1 until t = 1, then growth and rotation at 0.5 + 2i;
    # each segment starts from the state the previous one ended with
    rate = 0.5 + 2.0j

    def rhs(t, y):
        return (-1.0 if t <= 1.0 else rate) * y

    sys_ = OdeSystem(1, rhs, np.array([1.0 + 0j]), (0.0, 2.0))
    states = numerics.integrate(sys_, grid, breakpoints=[1.0], rtol=1e-10, atol=1e-12)
    t = np.asarray(grid)
    exact = np.where(t <= 1.0, np.exp(-t), math.exp(-1.0) * np.exp(rate * (t - 1.0)))
    np.testing.assert_allclose(states[:, 0], exact, rtol=1e-8)


def test_integrate_grid_validation():
    sys_ = OdeSystem(1, lambda t, y: -y, np.array([1.0 + 0j]), (0.0, 1.0))
    with pytest.raises(ValueError):
        numerics.integrate(sys_, [0.5, 0.4])
    with pytest.raises(ValueError):
        numerics.integrate(sys_, [0.5, 2.0])


@pytest.mark.parametrize("grid", [[-1e-13, 0.5], [0.5, 1.0 + 1e-13]])
def test_integrate_rejects_grid_just_outside_span(grid):
    # a point a hair outside the span is rejected by the span check, not
    # by the solver or a half-filled output
    sys_ = OdeSystem(1, lambda t, y: -y, np.array([1.0 + 0j]), (0.0, 1.0))
    with pytest.raises(ValueError, match="beyond the system time span"):
        numerics.integrate(sys_, grid)


def test_integrate_rejects_zero_length_span():
    sys_ = OdeSystem(1, lambda t, y: -y, np.array([1.0 + 0j]), (2.0, 2.0))
    with pytest.raises(ValueError, match="zero length"):
        numerics.integrate(sys_, [2.0])


def test_integrate_failure_reports_time():
    # finite-time blow-up forces a step-size underflow
    sys_ = OdeSystem(1, lambda t, y: y * y, np.array([1.0 + 0j]), (0.0, 2.0))
    with pytest.raises(numerics.OdeFailure) as err:
        numerics.integrate(sys_, [2.0])
    assert 0.9 < err.value.t_fail <= 2.0


@pytest.mark.parametrize("breakpoints", [(), (0.5,)], ids=["one-segment", "second-segment"])
def test_integrate_failure_time_is_where_the_solver_stopped(breakpoints):
    # y' = y^2 from y(0) = 1 blows up at t = 1, inside the last segment
    sys_ = OdeSystem(1, lambda t, y: y * y, np.array([1.0 + 0j]), (0.0, 2.0))
    with pytest.raises(numerics.OdeFailure) as err:
        numerics.integrate(sys_, [0.25, 2.0], breakpoints=breakpoints)
    assert abs(err.value.t_fail - 1.0) < 1e-6


def test_quad1_constant():
    assert numerics.quad1(lambda t: 1.0 + 0.0j, (0.0, 1.0)) == pytest.approx(1.0)


def test_quad1_pulse_norm():
    p = pulses.make_sech(2.0, 5.0)
    val = numerics.quad1(lambda t: abs(p.amplitude(t)) ** 2 + 0j, p.support)
    assert val.real == pytest.approx(1.0, abs=1e-9)


def test_quad1_complex_oscillatory():
    val = numerics.quad1(lambda t: np.exp(1j * 3.0 * t), (0.0, 2.0))
    expected = (np.exp(1j * 6.0) - 1.0) / (3.0j)
    assert val == pytest.approx(expected, abs=1e-10)


def test_quad1_self_convergence_against_fixed_order():
    # sech pulse against a decaying kernel, checked with composite Simpson
    # at two resolutions
    p = pulses.make_sech(1.0, 1.0)
    kappa, t = 1.0, 3.0

    def f(tau):
        return p.amplitude(tau) * np.exp(-kappa * (t - tau))

    adaptive = numerics.quad1(f, (p.support[0], t))

    def simpson(n):
        xs = np.linspace(p.support[0], t, n + 1)
        ys = np.array([f(x) for x in xs])
        h = xs[1] - xs[0]
        return h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())

    ref = simpson(4096)
    ref2 = simpson(8192)
    assert abs(ref - ref2) < 1e-10
    assert abs(adaptive - ref2) < 1e-8


def test_quad1_vector_valued_matches_separate_calls():
    # m integrals in one call: each agrees with its own call and with the
    # exact value; the shared pass refines until every component converges
    rates = np.array([0.5, 1.0, 3.0]) - 2j
    together = numerics.quad1(
        lambda t: np.exp(-np.outer(t, rates)), (0.0, 4.0), breakpoints=(1.0,)
    )
    assert together.shape == rates.shape
    for value, rate in zip(together, rates):
        alone = numerics.quad1(lambda t: np.exp(-rate * t), (0.0, 4.0), breakpoints=(1.0,))
        exact = (1.0 - np.exp(-4.0 * rate)) / rate
        assert abs(value - alone) < 1e-10
        assert abs(value - exact) < 1e-10


@pytest.mark.parametrize(
    "f, interval, breakpoints",
    [
        (lambda t: np.exp(-0.5 * t**2 + 2j * t), (-5.0, 5.0), ()),
        (lambda t: np.cosh(2.0 * (t - 1.5)) ** -2 + 0j, (-8.5, 11.5), (1.5,)),
        (lambda t: np.where(t >= 1.0, np.exp(-2.0 * (t - 1.0)), 0.0) + 0j, (0.0, 8.0), (1.0,)),
        # m = 3 integrals with a kink off the breakpoints: several initial
        # regions in one call, and both halves of many splits
        (
            lambda t: np.sqrt(np.abs(t - 1.7))[:, None]
            * np.exp(np.outer(t, [-0.5, -1.0 + 2j, 0.3j])),
            (0.0, 5.0),
            (1.0, 3.0),
        ),
    ],
    ids=["complex_gaussian", "sech_squared", "one_sided_exponential", "vector_two_breakpoints"],
)
def test_quad1_is_cubature_gk21_bit_for_bit(f, interval, breakpoints):
    # quad1's own loop evaluates the integrand once per split, but its
    # sums, error estimates and order of splits must be scipy's gk21 exactly
    from scipy.integrate import cubature

    spec = numerics.DEFAULT_QUAD

    def pair(x):
        v = np.asarray(f(x[:, 0]), dtype=complex)
        return np.stack((v.real, v.imag), axis=-1)

    res = cubature(
        pair,
        [interval[0]],
        [interval[1]],
        rule="gk21",
        rtol=spec.rtol,
        atol=spec.atol,
        max_subdivisions=spec.max_subdivisions,
        points=[[p] for p in breakpoints],
    )
    assert res.status == "converged"
    expected = res.estimate[..., 0] + 1j * res.estimate[..., 1]
    calls = []

    def counted(t):
        calls.append(t.size)
        return f(t)

    value = numerics.quad1(counted, interval, breakpoints=breakpoints)
    assert np.asarray(value).tobytes() == expected.tobytes()
    # one call for all the initial regions, then one per split: 1 + res.subdivisions
    assert calls == [21 * (len(breakpoints) + 1)] + [42] * res.subdivisions


def test_quad1_subdivision_limit():
    spec = QuadratureSpec(rtol=1e-13, atol=1e-300, max_subdivisions=3)
    with pytest.raises(numerics.QuadratureFailure) as err:
        numerics.quad1(lambda t: abs(t - 0.31) ** 0.3 + 0j, (0.0, 1.0), spec)
    # the message gives the error estimate reached and the target it missed
    reached = re.search(r"error estimate (\S+) against a target of (\S+)\)", str(err.value))
    assert reached is not None, str(err.value)
    assert float(reached[1]) > float(reached[2]) > 0


def test_quad1_returns_when_the_last_allowed_split_converges():
    # this integrand converges after exactly 16 splits: a limit of 16 is
    # reached and met by the same split
    def f(t):
        return np.abs(t - 0.31) ** 0.3 + 0j

    limited = numerics.quad1(f, (0.0, 1.0), QuadratureSpec(max_subdivisions=16))
    assert limited == numerics.quad1(f, (0.0, 1.0)) == 0.6426678831512578
    with pytest.raises(numerics.QuadratureFailure):
        numerics.quad1(f, (0.0, 1.0), QuadratureSpec(max_subdivisions=15))


def test_quad1_leaves_scipy_integrate_unloaded():
    # quad1 is self-contained: only the DOP853 reference needs scipy.integrate
    script = textwrap.dedent(
        """
        import math
        import sys

        import numpy as np

        import cavity_loader
        from cavity_loader import numerics

        value = numerics.quad1(lambda t: np.exp(-0.5 * t**2), (-8.0, 8.0))
        assert abs(value - math.sqrt(2.0 * math.pi)) < 1e-10, value
        assert "scipy.integrate" not in sys.modules
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rtol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(atol=-1.0)


def test_ode_system_shape_validation():
    with pytest.raises(ValueError):
        OdeSystem(2, lambda t, y: y, np.zeros(3, dtype=complex), (0.0, 1.0))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_affine_march_matches_plain_recursion_for_k_amplitudes(k):
    rng = np.random.default_rng(k)
    n = 60

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    force, start = draw(n, k), draw(k)
    # contractions, so that the states stay of order one
    maps = draw(n, k, k)
    maps *= 0.9 / np.abs(maps).sum(axis=-1).max(axis=-1)[:, None, None]
    for constant in (True, False):
        stack = np.repeat(maps[:1], n, axis=0) if constant else maps
        for z0 in (None, start):
            got = numerics.affine_march(stack, force, z0)
            z = [np.zeros(k) if z0 is None else z0]
            for j in range(n):
                z.append(stack[j] @ z[-1] + force[j])
            assert got.shape == (n + 1, k)
            assert np.abs(got - np.array(z)).max() <= 1e-12
    # one map for every step (its band built as one broadcast block) is the
    # stack of its copies, bit for bit, from rest and from a start state
    for z0 in (None, start):
        got = numerics.affine_march(maps[0], force, z0)
        want = numerics.affine_march(np.repeat(maps[:1], n, axis=0), force, z0)
        assert got.tobytes() == want.tobytes()


def _scalar_scan_refine(f, grid, values, tol):
    """One row's scan and Brent refinement, one call of f per point, written
    as the procedural loop of Brent (1973, ch. 5) that scipy's fminbound
    follows, with tol1 = sqrt(eps) |x| + tol / 4."""
    best = int(np.argmax(values))
    a = lo = float(grid[max(best - 1, 0)])
    b = hi = float(grid[min(best + 1, len(grid) - 1)])
    gold = (3.0 - math.sqrt(5.0)) / 2.0
    sqrt_eps = math.sqrt(np.finfo(float).eps)
    x = w = v = a + gold * (b - a)
    fx = fw = fv = float(f(x))
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(x) + tol / 4.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and p > q * (a - x) and p < q * (b - x):
                golden = False
                d = p / q
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if xm - x >= 0.0 else -tol1
        if golden:
            e = (a - x) if x >= xm else (b - x)
            d = gold * e
        u = x + (1.0 if d >= 0.0 else -1.0) * max(abs(d), tol1)
        fu = float(f(u))
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    assert lo <= a <= x <= b <= hi
    if values[best] >= fx:
        x, fx = grid[best], values[best]
    return float(x), float(fx), b - a


_REFINE_ROWS = [
    lambda x: np.cos(3.0 * (x - 2.2)) * np.exp(-0.1 * x),  # an interior peak
    lambda x: -x,  # the peak at the first grid point
    lambda x: x,  # the peak at the last grid point
    lambda x: np.minimum(1.0, 2.0 - abs(x - 3.0)),  # a plateau: ties
    lambda x: np.sin(5.0 * x) + 0.1 * x,  # Rabi-like: several basins
]
# uneven cells, so that the rows stop after different numbers of steps
_REFINE_GRID = np.cumsum(np.linspace(0.05, 0.4, 30))


def _batched(rows, calls):
    def f(r, x):
        calls.append(len(r))
        return np.array([rows[i](t) for i, t in zip(r.tolist(), x.tolist())])

    return f


def test_scan_refine_rows_match_scalar_searches():
    grid, rows = _REFINE_GRID, _REFINE_ROWS
    values = np.array([f(grid) for f in rows])
    calls = []
    x, fx, width = numerics.scan_refine(_batched(rows, calls), grid, values, 1e-9)
    for i, f in enumerate(rows):
        assert (x[i], fx[i], width[i]) == _scalar_scan_refine(f, grid, values[i], 1e-9)
    # the first call holds the starting point of every row, then at most one
    # point per row still searching
    assert calls[0] == len(rows)
    assert max(calls[1:]) <= len(rows)
    assert calls == sorted(calls, reverse=True)


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_scan_refine_agrees_with_scipy_bounded(tol):
    # an independent Brent: scipy's bounded minimize_scalar on the same
    # two-cell bracket; on smooth rows with an interior maximum the two
    # argmaxes lie within each other's tolerance
    from scipy.optimize import minimize_scalar

    grid = _REFINE_GRID
    rows = [
        _REFINE_ROWS[0],
        lambda x: 1.0 / (1.0 + (x - 4.321) ** 2),
        lambda x: np.exp(-((x - 1.7) ** 2) / 0.02),
    ]
    values = np.array([f(grid) for f in rows])
    x, fx, width = numerics.scan_refine(_batched(rows, []), grid, values, tol)
    for i, f in enumerate(rows):
        best = int(values[i].argmax())
        assert 0 < best < len(grid) - 1
        ref = minimize_scalar(
            lambda t: -f(t),
            bounds=(grid[best - 1], grid[best + 1]),
            method="bounded",
            options={"xatol": tol},
        )
        resolution = 4.0 * math.sqrt(np.finfo(float).eps) * abs(ref.x)
        assert abs(x[i] - ref.x) <= tol + resolution
        assert width[i] <= tol + resolution
        assert fx[i] >= -ref.fun - 1e-12
