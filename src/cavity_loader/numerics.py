"""Shared numerical engines: complex linear ODE integration, quadrature,
the stepped recursion of k amplitudes and peak finding.

The ODE path is the brute-force reference for every model in the
package: DOP853 asked only for the output times, without dense output,
each segment between breakpoints started from the state at the end of
the one before.  The quadrature routine integrates on arrays of nodes:
the convolution kernels of the closed-form solutions over time, and the
per-frequency responses of the spectral route over frequency.  Both are
small, deterministic interfaces with explicit failure signalling.  Only
the ODE path wraps scipy (Dormand-Prince DOP853, of order 8) and imports
``scipy.integrate``, on first use.  The quadrature is its own 1-D loop:
it replays scipy's adaptive gk21 integrator split for split, with one
integrand call per split, and loads nothing from ``scipy.integrate``;
neither do the fast paths (``affine_march``, ``scan_refine`` and the
engines built on them), so a command that needs no ODE oracle starts
without it.  ``affine_march`` is the one solver of the stepping engines:
the exact steps of (beta, c_e) (two-level) and of (beta, c_r, c_e) (the
three-level Lambda writer), and the RK4 steps of the adiabatic Lambda
runs, each a recursion of k interleaved amplitudes.  ``scan_refine`` is
the one peak finder: the loading peak over time and the optimum over
the coupling both use it.  ``shared`` builds once per ``sharing`` block.
"""

from __future__ import annotations

import contextlib
import contextvars
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import blas

__all__ = [
    "OdeSystem",
    "QuadratureSpec",
    "OdeFailure",
    "QuadratureFailure",
    "integrate",
    "quad1",
    "affine_march",
    "scan_refine",
    "sharing",
    "shared",
]

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10


class OdeFailure(RuntimeError):
    """Integration could not proceed (e.g. step-size underflow)."""

    def __init__(self, message: str, t_fail: float):
        super().__init__(f"{message} (t = {t_fail:.6g})")
        self.t_fail = t_fail


class QuadratureFailure(RuntimeError):
    """Adaptive quadrature did not converge within the subdivision limit, or
    a fixed rule would exceed its node budget."""


@dataclass(frozen=True)
class OdeSystem:
    """A linear-inhomogeneous complex ODE dy/dt = rhs(t, y).

    ``rhs`` must be linear in the state plus an additive drive; that is
    all this package ever integrates, and it is what makes superposition
    tests meaningful.
    """

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    y0: np.ndarray
    t_span: tuple[float, float]

    def __post_init__(self):
        y0 = np.asarray(self.y0, dtype=complex)
        if y0.shape != (self.dimension,):
            raise ValueError(
                f"initial state has shape {y0.shape}, expected ({self.dimension},)"
            )
        object.__setattr__(self, "y0", y0)


@dataclass(frozen=True)
class QuadratureSpec:
    rtol: float = 1e-8
    atol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("quadrature tolerances must be positive")


DEFAULT_QUAD = QuadratureSpec()


def integrate(
    system: OdeSystem,
    grid: Sequence[float],
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    max_step: float = np.inf,
    breakpoints: Sequence[float] = (),
) -> np.ndarray:
    """Integrate ``system`` and return the state at the requested times.

    Parameters
    ----------
    grid : array_like
        Strictly increasing output times inside the system's span.
    max_step : float
        Upper bound on the internal step; keep it below the drive's
        width so a pulse cannot be stepped over from a quiescent state.
    breakpoints : sequence of float
        Times where the right-hand side is discontinuous; integration is
        split there instead of stepping across, and each segment starts
        from the state the one before reached at its end.

    Returns
    -------
    states : ndarray, shape (len(grid), dimension)
        complex state at each grid time.

    Raises ``OdeFailure`` with the time of the last step taken when the
    solver gives up.
    """
    from scipy.integrate import solve_ivp

    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("output grid must be a nonempty 1-D array")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("output grid must be strictly increasing")
    t0, t1 = system.t_span
    if not t1 > t0:
        raise ValueError(f"integration span [{t0:.6g}, {t1:.6g}] has zero length")
    if grid[0] < t0 or grid[-1] > t1:
        raise ValueError("output grid extends beyond the system time span")
    if max_step < np.spacing(max(abs(t0), abs(t1))):
        # no such step advances t: the solver would fail anyway, but only
        # after evaluating a right-hand side whose rates are large enough to
        # overflow
        raise OdeFailure(f"the step cap {max_step:.3g} is below the float resolution", t0)

    cuts = [t0]
    for b in sorted(set(float(b) for b in breakpoints)):
        if t0 < b < t1:
            cuts.append(b)
    cuts.append(t1)

    states = np.empty((grid.size, system.dimension), dtype=complex)
    filled = 0
    y = system.y0
    for a, b in zip(cuts[:-1], cuts[1:]):
        # grid points in (a, b], plus the very first point if it sits at t0
        n_here = int(np.count_nonzero((grid > a) & (grid <= b)))
        if filled == 0 and grid.size and grid[0] <= a:
            n_here += 1
        t_eval = grid[filled : filled + n_here]
        # the segment's end is evaluated last: its state starts the next one
        t_out = t_eval if t_eval.size and t_eval[-1] == b else np.append(t_eval, b)
        options = dict(method="DOP853", rtol=rtol, atol=atol, max_step=max_step)
        sol = solve_ivp(system.rhs, (a, b), y, t_eval=t_out, **options)
        if not sol.success:
            # where the solver stopped: the last step of a rerun of this
            # segment that keeps every step
            rerun = solve_ivp(system.rhs, (a, b), y, **options)
            raise OdeFailure(sol.message, float(rerun.t[-1]))
        states[filled : filled + t_eval.size] = sol.y.T[: t_eval.size]
        filled += t_eval.size
        y = sol.y[:, -1]
    return states


def quad1(
    f: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    spec: QuadratureSpec = DEFAULT_QUAD,
    breakpoints: Sequence[float] = (),
):
    """Adaptive Gauss-Kronrod integral of a complex integrand on [a, b].

    ``f`` takes a 1-D array of n nodes and returns n complex values, or an
    (n, m) array for m integrals done together; the result is a complex
    number or an array of m.  Real and imaginary parts are integrated in
    one adaptive pass, refined until each meets the tolerance.

    The loop replays scipy's adaptive integrator with rule "gk21" in one
    dimension, bit for bit: the interval split at the interior
    breakpoints, then the region with the largest error estimate halved
    until every component's error is within atol + rtol |estimate|, with
    scipy's heap order and order of running sums.  The subdivision limit
    is tested before each split, so the split that reaches it returns
    when it converges.  Each
    region's estimate is the 21-point Kronrod sum and its error
    |K21 - G10|, both from the same 21 values.  ``f`` is called once for
    all the initial regions and once per split, on the nodes of both
    halves.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("quad1 requires a finite interval")
    inner = sorted({float(p) for p in breakpoints})
    edges = [a, *(p for p in inner if a < p < b), b]
    sign = 1.0
    if a > b:
        edges, sign = [b, a], -1.0

    def pair(x):
        v = np.asarray(f(x), dtype=complex)
        # a constant integrand may return a single value
        v = np.broadcast_to(v, (x.shape[0],) + v.shape[1:])
        return np.stack((v.real, v.imag), axis=-1)

    # the list is not heapified before the first pop, as in scipy
    regions = _kronrod_regions(pair, edges)
    est = err = 0.0
    for region in regions:
        est += region.estimate
        err += region.error
    subdivisions = 0
    while np.any(err > spec.atol + spec.rtol * np.abs(est)):
        if subdivisions >= spec.max_subdivisions:
            target = spec.atol + spec.rtol * np.abs(est)
            worst = np.unravel_index(np.argmax(err - target), err.shape)
            raise QuadratureFailure(
                f"quadrature on [{a:.6g}, {b:.6g}]: no convergence within "
                f"{spec.max_subdivisions} subdivisions (error estimate "
                f"{err[worst]:.3g} against a target of {target[worst]:.3g})"
            )
        region = heapq.heappop(regions)
        est -= region.estimate
        err -= region.error
        for half in _kronrod_regions(pair, [region.a, (region.a + region.b) / 2, region.b]):
            est += half.estimate
            err += half.error
            heapq.heappush(regions, half)
        subdivisions += 1
    est = sign * est
    est = est[..., 0] + 1j * est[..., 1]
    return complex(est) if est.ndim == 0 else est


# scipy 1.17's gk21 rule (its GaussKronrodQuadrature(21)), copied with repr:
# the 21 Kronrod nodes on [-1, 1] and their weights, and the weights of the
# 10-point Gauss rule, whose nodes are the Kronrod nodes in the rows _GAUSS_ROWS
_KRONROD_NODES = np.array([
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
    0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
    0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
    0.14887433898163122, 0.0, -0.14887433898163122,
    -0.2943928627014602, -0.4333953941292472, -0.5627571346686047,
    -0.6794095682990244, -0.7808177265864169, -0.8650633666889845,
    -0.9301574913557082, -0.9739065285171717, -0.9956571630258081,
])
_KRONROD_WEIGHTS = np.array([
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
    0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
    0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
    0.14773910490133849, 0.1494455540029169, 0.14773910490133849,
    0.14277593857706009, 0.13470921731147334, 0.12349197626206584,
    0.10938715880229764, 0.0931254545836976, 0.07503967481091996,
    0.054755896574351995, 0.032558162307964725, 0.011694638867371874,
])
_GAUSS_ROWS = np.arange(19, 0, -2)
_GAUSS_WEIGHTS = np.array([
    0.06667134430868714, 0.14945134915058053, 0.21908636251598224,
    0.26926671930999674, 0.2955242247147533, 0.2955242247147533,
    0.26926671930999674, 0.21908636251598224, 0.14945134915058053,
    0.06667134430868714,
])


class _Region:
    """One interval of ``quad1``'s loop with its estimate and error.

    Ordered as scipy's region objects: the larger max |error| is the
    smaller region, so the heap pops it first, and ties are not less.
    """

    __slots__ = ("a", "b", "estimate", "error", "worst")

    def __init__(self, a: float, b: float, estimate: np.ndarray, error: np.ndarray):
        self.a, self.b, self.estimate, self.error = a, b, estimate, error
        self.worst = error.max()

    def __lt__(self, other: "_Region") -> bool:
        return self.worst > other.worst


def _kronrod_regions(pair, edges) -> list[_Region]:
    """The regions between consecutive ``edges``, all evaluated in one call
    of ``pair`` and each summed on its own 21 rows."""
    lows, highs = np.array(edges[:-1]), np.array(edges[1:])
    lengths = highs - lows
    nodes = (_KRONROD_NODES + 1) * (lengths[:, None] * 0.5) + lows[:, None]
    values = pair(nodes.reshape(-1))
    shape = (-1,) + (1,) * (values.ndim - 1)
    regions = []
    for k, (lo, hi, length) in enumerate(zip(edges[:-1], edges[1:], lengths)):
        rows = values[21 * k : 21 * (k + 1)]
        scale = length / 2
        est = np.sum((_KRONROD_WEIGHTS * scale).reshape(shape) * rows, axis=0)
        gauss = np.sum((_GAUSS_WEIGHTS * scale).reshape(shape) * rows[_GAUSS_ROWS], axis=0)
        regions.append(_Region(lo, hi, est, np.abs(est - gauss)))
    return regions


def affine_march(maps, force, start=None) -> np.ndarray:
    """States z[0], ..., z[n] of the recursion z[j + 1] = M_j z[j] + f[j] of
    k amplitudes, from z[0] = ``start`` (rest when None).

    ``maps`` is one (k, k) matrix, the map of every step, or an (n, k, k)
    stack, the map of each step; ``force`` is (n, k).  Returns an
    (n + 1, k) complex array.  The recursion is one unit lower-triangular
    system in the interleaved unknowns (z[1][0], ..., z[1][k - 1],
    z[2][0], ...) with 2 k - 1 subdiagonals, solved by forward
    substitution in BLAS ``ztbsv``, a single-threaded level-2 routine.  Map
    0 acts only on z[0], so it enters through f[0]; entry (a, b) of the
    map of step j >= 1 sits in band row k + a - b, column k (j - 1) + b.
    The band is built as n blocks of k contiguous columns: a constant map
    gives the same block for every step, written in one broadcast.
    """
    n, k = np.shape(force)
    z = np.empty((n + 1, k), dtype=complex)
    z[0] = 0.0 if start is None else start
    for a in range(k):  # one column at a time: cheap for any layout of force
        z[1:, a] = force[:, a]
    maps = np.asarray(maps)
    stacked = maps.ndim == 3
    if start is not None:
        first = maps[0] if stacked else maps
        # number by number, left to right: a vector product can round differently
        z[1] += [sum((first[a, b] * start[b] for b in range(1, k)), first[a, 0] * start[0])
                 for a in range(k)]
    # blocks[j, b] is band column k j + b, the unknown z[j + 1][b]: entry
    # (a, b) of the map of step j + 1 in row k + a - b (the diagonal, row 0,
    # is one), and nothing below z[n]
    blocks = np.zeros((n, k, 2 * k), dtype=complex)
    if stacked:
        for a in range(k):
            for b in range(k):
                blocks[: n - 1, b, k + a - b] = -maps[1:, a, b]
    else:
        block = np.zeros((k, 2 * k), dtype=complex)
        for b in range(k):
            block[b, k - b : 2 * k - b] = -maps[:, b]
        blocks[: n - 1] = block
    band = blocks.reshape(k * n, 2 * k).T  # Fortran order, as ztbsv reads it
    x = z[1:].reshape(-1)
    x[:] = blas.ztbsv(2 * k - 1, band, x, lower=1, diag=1, overwrite_x=1)
    return z


def scan_refine(f: Callable[[np.ndarray, np.ndarray], np.ndarray], grid, values, tol: float):
    """Maxima of the rows of a scan, each refined by Brent's method.

    ``values`` holds one row per function, sampled on the increasing
    ``grid``; ``f(rows, x)`` takes two arrays of equal length and returns
    the value of row rows[k] at x[k] for every k.  Per row, Brent's search
    runs over the two grid cells around the best scanned point, and that
    point is kept unless the refinement beats it strictly.  The rows
    search in lockstep, so each step is one call of ``f`` for the rows
    still searching.  A row stops once its bracket is within 4 (sqrt(eps)
    |x| + tol / 4) of the argmax: ``tol`` plus the float resolution of a
    flat maximum, so a refined peak is known to about sqrt(eps) |x| even
    when ``tol`` is far smaller.  Returns arrays (argmax, maximum, width of
    the final bracket, within which the argmax lies), one entry per row.
    """
    values = np.asarray(values, dtype=float)
    best = values.argmax(axis=1).tolist()
    last = len(grid) - 1
    searches = [
        _BrentMax(float(grid[max(i - 1, 0)]), float(grid[min(i + 1, last)]), tol)
        for i in best
    ]
    rows, trial = list(range(len(searches))), [s.x for s in searches]
    while rows:
        values_at = f(np.array(rows), np.array(trial)).tolist()
        nxt = [searches[r].update(u, fu) for r, u, fu in zip(rows, trial, values_at)]
        rows = [r for r, u in zip(rows, nxt) if u is not None]
        trial = [u for u in nxt if u is not None]
    x, fx = [s.x for s in searches], [s.fx for s in searches]
    for row, i in enumerate(best):
        if values[row, i] >= fx[row]:
            x[row], fx[row] = float(grid[i]), float(values[row, i])
    return np.array(x), np.array(fx), np.array([s.b - s.a for s in searches])


_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


class _BrentMax:
    """One row of Brent's maximization on [a, b] (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5; the scheme of
    ``scipy.optimize.fminbound``), in Python floats.

    The search starts at the golden point of the bracket, x.  Each
    ``update`` takes the value at the point asked for and returns the point
    to evaluate next, or None once the bracket is within tolerance: a
    parabola through the three best points (x, w, v) when its vertex falls
    well inside the bracket and the step shrinks, a golden-section step
    into the larger part otherwise, and never a step below tol1.
    """

    def __init__(self, a: float, b: float, tol: float):
        self.a, self.b, self.tol = a, b, tol
        self.x = self.w = self.v = a + _GOLDEN * (b - a)
        self.d = self.e = 0.0
        self.fx = None

    def update(self, u: float, fu: float):
        if self.fx is None:  # the starting point
            self.fx = self.fw = self.fv = fu
        elif fu >= self.fx:
            if u >= self.x:
                self.a = self.x
            else:
                self.b = self.x
            self.v, self.fv, self.w, self.fw = self.w, self.fw, self.x, self.fx
            self.x, self.fx = u, fu
        else:
            if u < self.x:
                self.a = u
            else:
                self.b = u
            if fu >= self.fw or self.w == self.x:
                self.v, self.fv, self.w, self.fw = self.w, self.fw, u, fu
            elif fu >= self.fv or self.v == self.x or self.v == self.w:
                self.v, self.fv = u, fu
        return self._trial()

    def _trial(self):
        a, b, x = self.a, self.b, self.x
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + self.tol / 4.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return None
        golden = True
        if abs(self.e) > tol1:
            r = (x - self.w) * (self.fx - self.fv)
            q = (x - self.v) * (self.fx - self.fw)
            p = (x - self.v) * q - (x - self.w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, self.e = self.e, self.d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                self.d = p / q
                u = x + self.d
                if u - a < tol2 or b - u < tol2:
                    self.d = tol1 if xm >= x else -tol1
        if golden:
            self.e = a - x if x >= xm else b - x
            self.d = _GOLDEN * self.e
        if abs(self.d) >= tol1:
            return x + self.d
        return x + tol1 if self.d >= 0.0 else x - tol1


# the store of the innermost open ``sharing`` block, None outside every block
_STORE: contextvars.ContextVar[dict | None] = contextvars.ContextVar("store", default=None)


@contextlib.contextmanager
def sharing():
    """A block with a store of its own, in which ``shared`` keeps what it
    builds; leaving it, by an exception too, restores the enclosing store."""
    token = _STORE.set({})
    try:
        yield
    finally:
        _STORE.reset(token)


def shared(build, *args):
    """build(*args), built once per ``sharing`` block and kept there under
    (build, *args), so the arguments are hashable values that hold all
    that ``build`` reads; outside a block, built on every call."""
    store, key = _STORE.get(), (build, *args)
    if store is None:
        return build(*args)
    if key not in store:
        store[key] = build(*args)
    return store[key]
