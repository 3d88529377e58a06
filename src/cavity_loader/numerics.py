"""Shared numerical engines: complex linear ODE integration, quadrature
and peak finding.

The ODE path is the brute-force reference for every model in the
package; the quadrature routine evaluates the convolution kernels of the
closed-form solutions on arrays of nodes.  Both wrap scipy (Dormand-Prince
RK45 and adaptive Gauss-Kronrod cubature) behind small, deterministic
interfaces with explicit failure signalling.  ``scan_refine`` is the one
peak finder: the loading peak over time and the optimum over the coupling
both use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import cubature, solve_ivp
from scipy.integrate._rules import GaussKronrodQuadrature

__all__ = [
    "OdeSystem",
    "QuadratureSpec",
    "OdeFailure",
    "QuadratureFailure",
    "integrate",
    "quad1",
    "scan_refine",
]

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10


class OdeFailure(RuntimeError):
    """Integration could not proceed (e.g. step-size underflow)."""

    def __init__(self, message: str, t_fail: float):
        super().__init__(f"{message} (t = {t_fail:.6g})")
        self.t_fail = t_fail


class QuadratureFailure(RuntimeError):
    """Adaptive quadrature did not converge within the subdivision limit."""


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
        split there instead of stepping across.

    Returns
    -------
    states : ndarray, shape (len(grid), dimension)
        complex state at each grid time.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("output grid must be a nonempty 1-D array")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("output grid must be strictly increasing")
    t0, t1 = system.t_span
    if not t1 > t0:
        raise ValueError(f"integration span [{t0:.6g}, {t1:.6g}] has zero length")
    if grid[0] < t0 - 1e-12 or grid[-1] > t1 + 1e-12:
        raise ValueError("output grid extends beyond the system time span")

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
        sol = solve_ivp(
            system.rhs,
            (a, b),
            y,
            method="RK45",
            t_eval=t_eval if t_eval.size else None,
            rtol=rtol,
            atol=atol,
            max_step=max_step,
            dense_output=True,
        )
        if not sol.success:
            if sol.sol is not None:
                t_fail = float(sol.sol.t_max)
            else:
                t_fail = float(sol.t[-1]) if len(sol.t) else a
            raise OdeFailure(sol.message, t_fail)
        if t_eval.size:
            states[filled : filled + t_eval.size] = sol.y.T
            filled += t_eval.size
        y = np.asarray(sol.sol(b), dtype=complex)
    if filled != grid.size:  # pragma: no cover - guarded by the span check
        raise OdeFailure("output grid not fully covered", float(grid[filled]))
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
    """
    a, b = float(interval[0]), float(interval[1])
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("quad1 requires a finite interval")
    pts = [[p] for p in sorted(set(float(p) for p in breakpoints)) if a < p < b]

    def pair(x):
        v = np.asarray(f(x[:, 0]), dtype=complex)
        # a constant integrand may return a single value
        v = np.broadcast_to(v, (x.shape[0],) + v.shape[1:])
        return np.stack((v.real, v.imag), axis=-1)

    res = cubature(
        pair,
        [a],
        [b],
        rule=_OnePassKronrod(),
        rtol=spec.rtol,
        atol=spec.atol,
        max_subdivisions=spec.max_subdivisions,
        points=pts,
    )
    if res.status != "converged":
        raise QuadratureFailure(
            f"quadrature on [{a:.6g}, {b:.6g}]: no convergence within "
            f"{spec.max_subdivisions} subdivisions"
        )
    est = res.estimate[..., 0] + 1j * res.estimate[..., 1]
    return complex(est) if est.ndim == 0 else est


def _kronrod_nodes():
    """scipy's 21-point Kronrod nodes and weights on [-1, 1], the positions of
    its 10 Gauss nodes among them (the odd ones) and their Gauss weights."""
    gk = GaussKronrodQuadrature(21)
    nodes, weights = (np.asarray(x) for x in gk.nodes_and_weights)
    g_nodes, g_weights = (np.asarray(x) for x in gk.lower_nodes_and_weights)
    g_index = np.abs(nodes[:, None] - g_nodes).argmin(axis=0)
    return nodes[:, None], weights, g_index, g_weights


_KRONROD = _kronrod_nodes()


class _OnePassKronrod:
    """The Gauss-Kronrod (21, 10) rule of ``cubature(rule="gk21")``, with the
    integrand evaluated once per subregion.

    ``cubature`` asks for ``estimate`` and then ``estimate_error`` on the
    same region; scipy's rule evaluates the integrand for each.  Here
    ``estimate`` returns the same K21 sum and keeps |K21 - G10|, taken from
    the same 21 values, for the ``estimate_error`` call that follows.
    """

    def __init__(self):
        self._region = (None, None)
        self._error = None

    def estimate(self, f, a, b, args=()):
        nodes, weights, g_index, g_weights = _KRONROD
        lengths = b - a
        scale = np.prod(lengths) / 2
        values = f((nodes + 1) * (lengths * 0.5) + a, *args)
        shape = (-1,) + (1,) * (values.ndim - 1)
        est = np.sum((weights * scale).reshape(shape) * values, axis=0)
        gauss = np.sum((g_weights * scale).reshape(shape) * values[g_index], axis=0)
        self._region, self._error = (a, b), np.abs(est - gauss)
        return est

    def estimate_error(self, f, a, b, args=()):
        if self._region[0] is not a or self._region[1] is not b:
            self.estimate(f, a, b, args)
        return self._error


def scan_refine(f: Callable[[np.ndarray, np.ndarray], np.ndarray], grid, values, tol: float):
    """Maxima of the rows of a scan, each refined by golden section.

    ``values`` holds one row per function, sampled on the increasing
    ``grid``; ``f(rows, x)`` takes two arrays of equal length and returns
    the value of row rows[k] at x[k] for every k.  Per row, the
    golden-section search runs over the two grid cells around the best
    scanned point, and that point is kept unless the refinement beats it
    strictly.  The rows search in lockstep, so each golden step is one call
    of ``f`` for the rows still searching.  Returns arrays (argmax,
    maximum, width within which the argmax is known), one entry per row.
    """
    values = np.asarray(values, dtype=float)
    best = values.argmax(axis=1).tolist()
    last = len(grid) - 1
    a = [float(grid[max(i - 1, 0)]) for i in best]
    b = [float(grid[min(i + 1, last)]) for i in best]
    x, fx = _golden_max(f, a, b, tol)
    for row, i in enumerate(best):
        if values[row, i] >= fx[row]:
            x[row], fx[row] = float(grid[i]), float(values[row, i])
    return np.array(x), np.array(fx), np.array([min(tol, hi - lo) for lo, hi in zip(a, b)])


def _golden_max(f, a: list, b: list, tol: float) -> tuple[list, list]:
    """Golden-section maxima of the rows of f, row r on [a[r], b[r]] (unimodal
    on the bracket), in lockstep; each row's bookkeeping is Python floats."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b, rows = list(a), list(b), list(range(len(a)))
    c = [hi - inv_phi * (hi - lo) for lo, hi in zip(a, b)]
    d = [lo + inv_phi * (hi - lo) for lo, hi in zip(a, b)]
    both = f(np.array(rows + rows), np.array(c + d)).tolist()
    fc, fd = both[: len(rows)], both[len(rows) :]
    active = [r for r in rows if b[r] - a[r] > tol]
    while active:
        left = [fc[r] >= fd[r] for r in active]
        for r, to_left in zip(active, left):
            if to_left:
                b[r], d[r], fd[r] = d[r], c[r], fc[r]
                c[r] = b[r] - inv_phi * (b[r] - a[r])
            else:
                a[r], c[r], fc[r] = c[r], d[r], fd[r]
                d[r] = a[r] + inv_phi * (b[r] - a[r])
        trial = [c[r] if to_left else d[r] for r, to_left in zip(active, left)]
        for r, to_left, v in zip(active, left, f(np.array(active), np.array(trial)).tolist()):
            if to_left:
                fc[r] = v
            else:
                fd[r] = v
        active = [r for r in active if b[r] - a[r] > tol]
    x = [c[r] if fc[r] >= fd[r] else d[r] for r in rows]
    return x, [max(fc[r], fd[r]) for r in rows]
