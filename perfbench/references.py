"""Independent reference computations for the benchmark's checks.

Everything here is written from the equations stated in the package's
module docstrings, with numpy and scipy only; nothing imports
``cavity_loader``.  The routes are deliberately different from the
package's own:

* ODEs are integrated with scipy's 8th-order Dormand-Prince (DOP853) at
  tighter tolerances than the package's RK45, split at every jump of
  the drive, with pulses evaluated by this module's own formulas;
* the biphoton double convolution is a tensor Gauss-Legendre rule in
  the mean/difference coordinates a = (tau + tau')/2, s = tau - tau'
  over the band |s| <= T0, where the package reduces the difference
  coordinate analytically and the generic route nests QUADPACK.

Units: rates in 1/time, kappa = 1 in the benchmark's inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

# truncation windows documented in the pulses module: sech |t - t0| <= 5T,
# one-sided exponentials 16T
SECH_CUTOFF = 5.0
EXP_CUTOFF = 16.0

ODE_RTOL = 1e-11
ODE_ATOL = 1e-13

GAUSS_ORDER = 20


@dataclass(frozen=True)
class Pulse:
    """A named unit-norm envelope: sqrt(2/T) sech(4(t - t0)/T), a 1/sqrt(T)
    box of width T, or sqrt(2/T) e^{-|t - t0|/T} on one side of t0."""

    kind: str
    T: float
    t0: float

    @property
    def window(self) -> tuple[float, float]:
        T, t0 = self.T, self.t0
        if self.kind == "sech":
            return t0 - SECH_CUTOFF * T, t0 + SECH_CUTOFF * T
        if self.kind == "rectangular":
            return t0 - T / 2.0, t0 + T / 2.0
        if self.kind == "exp_decaying":
            return t0, t0 + EXP_CUTOFF * T
        if self.kind == "exp_rising":
            return t0 - EXP_CUTOFF * T, t0
        raise ValueError(f"unknown pulse kind {self.kind!r}")

    @property
    def height(self) -> float:
        """Amplitude scale, renormalized over the truncated window."""
        T = self.T
        if self.kind == "sech":
            # int sech^2(4u/T) du over |u| <= 5T is (T/2) tanh(20)
            return math.sqrt(2.0 / T / math.tanh(4.0 * SECH_CUTOFF))
        if self.kind == "rectangular":
            return 1.0 / math.sqrt(T)
        return math.sqrt(2.0 / T / (1.0 - math.exp(-2.0 * EXP_CUTOFF)))

    def at(self, t: float) -> float:
        """Envelope at one time; the ODE right-hand sides call this."""
        lo, hi = self.window
        if t < lo or t > hi:
            return 0.0
        u = (t - self.t0) / self.T
        if self.kind == "sech":
            return self.height / math.cosh(4.0 * u)
        if self.kind == "rectangular":
            return self.height
        return self.height * math.exp(-abs(u))

    def __call__(self, t):
        """Envelope at times t (array), zero outside the window."""
        t = np.asarray(t, dtype=float)
        lo, hi = self.window
        u = (t - self.t0) / self.T
        if self.kind == "sech":
            shape = 1.0 / np.cosh(4.0 * np.clip(u, -50.0, 50.0))
        elif self.kind == "rectangular":
            shape = np.ones_like(u)
        else:
            shape = np.exp(-np.abs(np.clip(u, -50.0, 50.0)))
        return np.where((t >= lo) & (t <= hi), self.height * shape, 0.0)


class PiecewiseSolution:
    """Dense DOP853 output stitched over the segments between drive jumps."""

    def __init__(self, pieces):
        self._pieces = pieces  # (a, b, OdeSolution)

    def __call__(self, t) -> np.ndarray:
        """State at times t: shape (dimension,) or (dimension, len(t))."""
        t = np.asarray(t, dtype=float)
        flat = np.atleast_1d(t)
        out = None
        for i, (a, b, sol) in enumerate(self._pieces):
            last = i == len(self._pieces) - 1
            mask = (flat >= a) & ((flat <= b) if last else (flat < b))
            if i == 0:
                mask |= flat < a
            if mask.any():
                vals = sol(np.clip(flat[mask], a, b))
                if out is None:
                    out = np.empty((vals.shape[0], flat.size), dtype=complex)
                out[:, mask] = vals
        return out[:, 0] if t.ndim == 0 else out


def integrate_linear(matrix, drive, pulse: Pulse, t_start: float, t_end: float):
    """Integrate dy/dt = M(t) y + d * pulse(t) from y = 0.

    ``matrix`` is a constant complex matrix or a map t -> matrix; ``drive``
    is the constant complex drive vector.  Integration restarts at every
    jump of the pulse so the solver never steps across one.
    """
    drive = np.asarray(drive, dtype=complex)
    lo, hi = pulse.window
    jumps = [lo, hi]
    if pulse.kind == "rectangular" or pulse.kind.startswith("exp"):
        jumps.append(pulse.t0)
    cuts = [t_start] + sorted(x for x in set(jumps) if t_start < x < t_end) + [t_end]

    if callable(matrix):

        def rhs(t, y):
            return matrix(t) @ y + drive * pulse.at(t)

    else:
        const = np.asarray(matrix, dtype=complex)

        def rhs(t, y):
            return const @ y + drive * pulse.at(t)

    y = np.zeros(drive.shape, dtype=complex)
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        sol = solve_ivp(
            rhs, (a, b), y, method="DOP853", rtol=ODE_RTOL, atol=ODE_ATOL, dense_output=True
        )
        if not sol.success:
            raise RuntimeError(f"reference ODE failed on [{a}, {b}]: {sol.message}")
        pieces.append((a, b, sol.sol))
        y = sol.y[:, -1]
    return PiecewiseSolution(pieces)


def two_level(g, pulse: Pulse, t_end, kappa=1.0, gamma=0.0, delta=0.0, t_start=None):
    """(beta, c_e) trajectory of the two-level equations of motion

        d(beta)/dt = -i g c_e - i sqrt(2 kappa) Phi(t) - kappa beta
        d(c_e)/dt  =  i Delta c_e - i g beta - gamma c_e
    """
    matrix = np.array([[-kappa, -1j * g], [-1j * g, 1j * delta - gamma]])
    drive = np.array([-1j * math.sqrt(2.0 * kappa), 0.0])
    start = pulse.window[0] if t_start is None else min(t_start, pulse.window[0])
    return integrate_linear(matrix, drive, pulse, start, t_end)


def bad_cavity(rate, pulse: Pulse, t_end):
    """Atom amplitude with the cavity eliminated: dc/dt = -(G/2) c - sqrt(G) Phi(t)."""
    return integrate_linear(
        np.array([[-rate / 2.0]]), np.array([-math.sqrt(rate)]), pulse, pulse.window[0], t_end
    )


def zed_control(kT: float, x):
    """Dark-state control Omega/g_c for a sech input, x = 4 (t - t0) / T:

        sech(x) / sqrt((1 + tanh x) (tanh x + kappa T / 2 - 1)),

    with sech(x)/sqrt(1 + tanh x) = sqrt(2) (1 + e^{2x})^{-1/2} taken in
    log form so neither tail overflows.
    """
    x = np.asarray(x, dtype=float)
    return math.sqrt(2.0) * np.exp(-0.5 * np.logaddexp(0.0, 2.0 * x)) / np.sqrt(
        np.tanh(x) + kT / 2.0 - 1.0
    )


def zed_probability(g_prime: float, kT: float, kappa: float = 1.0) -> tuple[float, float]:
    """(P, t_end) of zero-effective-detuning adiabatic loading.

    Reduced model with coupling g' Omega(t)/g_c and no light shift on
    either level, sech input centered at T, run from the pulse window's
    start to four widths past its center.
    """
    T = kT / kappa
    pulse = Pulse("sech", T, T)
    t_end = T + 4.0 * T
    sqrt2k = math.sqrt(2.0 * kappa)

    def matrix(t):
        gt = g_prime * float(zed_control(kT, 4.0 * (t - T) / T))
        return np.array([[-kappa, -1j * gt], [-1j * gt, 0.0]])

    sol = integrate_linear(matrix, np.array([-1j * sqrt2k, 0.0]), pulse, pulse.window[0], t_end)
    return float(abs(sol(t_end)[1]) ** 2), t_end


def peak(prob, a: float, b: float, points: int = 4001) -> tuple[float, float]:
    """(t, P) of the global maximum of prob on [a, b]: scan, then Brent."""
    ts = np.linspace(a, b, points)
    vals = prob(ts)
    i = int(np.argmax(vals))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, points - 1)]
    res = minimize_scalar(
        lambda t: -float(prob(t)), bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-9 * max(b - a, 1.0)},
    )
    if -res.fun >= vals[i]:
        return float(res.x), float(-res.fun)
    return float(ts[i]), float(vals[i])


def two_level_peak(g, pulse: Pulse, horizon, gamma=0.0, kappa=1.0) -> tuple[float, float]:
    """Peak of |c_e|^2 over [min(0, window start), horizon]."""
    start = min(0.0, pulse.window[0])
    sol = two_level(g, pulse, horizon, kappa=kappa, gamma=gamma, t_start=start)
    return peak(lambda t: np.abs(sol(t)[1]) ** 2, start, horizon)


def _gauss_panels(a: float, b: float, h: float):
    """Composite Gauss-Legendre nodes and weights on [a, b], panels <= h."""
    x, w = np.polynomial.legendre.leggauss(GAUSS_ORDER)
    n = max(1, int(math.ceil((b - a) / h)))
    edges = np.linspace(a, b, n + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def ce_kernel(g, kappa=1.0, gamma=0.0, delta=0.0):
    """K(s) = (e^{-kappa_+ s} - e^{-kappa_- s}) / xi for s > 0, 0 otherwise."""
    gp = complex(gamma, -delta)
    xi = complex(np.sqrt(complex((kappa - gp) ** 2 - 4.0 * g * g)))
    kp, km = (kappa + gp + xi) / 2.0, (kappa + gp - xi) / 2.0

    def kernel(s):
        s = np.asarray(s, dtype=float)
        pos = np.maximum(s, 0.0)
        if abs(xi) > 1e-7:
            val = (np.exp(-kp * pos) - np.exp(-km * pos)) / xi
        else:  # confluent point: the limit of the difference quotient
            val = -pos * np.exp(-0.5 * (kappa + gp) * pos)
        return np.where(s > 0, val, 0.0)

    return kernel, max(abs(kp), abs(km), kappa)


def biphoton_cee(g, t, joint, a_bounds, s_range, scale, kappa=1.0, gamma=0.0, delta=0.0):
    """c_ee(t) = 2 kappa g^2 int int Phi(tau, tau') K(t - tau) K(t - tau').

    Tensor Gauss rule in a = (tau + tau')/2 and s = tau - tau':
    ``joint(a, s)`` is Phi in those coordinates, ``a_bounds(s)`` its
    support in a for each s, and ``s_range`` its support in s (the band).
    Causality (tau, tau' <= t) caps a at t - |s|/2; the s axis is split
    at 0, where that cap has its kink.  ``scale`` is the shortest length
    on which the joint amplitude varies.
    """
    kernel, rate = ce_kernel(g, kappa, gamma, delta)
    h = min(scale, 4.0 / rate)
    s_lo, s_hi = s_range
    parts = [(s_lo, min(s_hi, 0.0)), (max(s_lo, 0.0), s_hi)]
    s_nodes, s_weights = zip(*(_gauss_panels(a, b, h) for a, b in parts if b > a))
    s = np.concatenate(s_nodes)
    ws = np.concatenate(s_weights)
    lo, hi = a_bounds(s)
    hi = np.minimum(hi, t - 0.5 * np.abs(s))
    keep = hi > lo
    s, ws, lo, hi = s[keep], ws[keep], lo[keep], hi[keep]
    if s.size == 0:
        return 0.0 + 0.0j
    u, wu = _gauss_panels(0.0, 1.0, h / float(np.max(hi - lo)))
    length = (hi - lo)[:, None]
    a = lo[:, None] + length * u[None, :]
    sc = s[:, None]
    vals = joint(a, sc) * kernel(t - a - 0.5 * sc) * kernel(t - a + 0.5 * sc)
    total = np.sum(ws[:, None] * length * wu[None, :] * vals)
    return 2.0 * kappa * g * g * complex(total)


def spdc_cee(g, kT, kT0, t, kappa=1.0):
    """c_ee(t) for the downconverter biphoton of the entangled_loading docstring:

    N pump((tau + tau')/2) on |tau - tau'| <= T0, pump a unit-norm sech of
    width T centered at 2T + T0, N = 1/sqrt(2 T0) for unit two-time norm.
    """
    T, T0 = kT / kappa, kT0 / kappa
    pump = Pulse("sech", T, 2.0 * T + T0)
    norm = 1.0 / math.sqrt(2.0 * T0)
    lo, hi = pump.window

    def joint(a, s):
        return norm * pump(a) * np.ones_like(s)

    def a_bounds(s):
        return np.full(s.shape, lo), np.full(s.shape, hi)

    return biphoton_cee(g, t, joint, a_bounds, (-T0, T0), T, kappa=kappa)


def product_cee(g, p1: Pulse, p2: Pulse, t, kappa=1.0, gamma=0.0, delta=0.0):
    """c_ee(t) for the separable amplitude Phi_1(tau) Phi_2(tau')."""
    lo1, hi1 = p1.window
    lo2, hi2 = p2.window

    def joint(a, s):
        return p1(a + 0.5 * s) * p2(a - 0.5 * s)

    def a_bounds(s):
        return np.maximum(lo1 - s / 2, lo2 + s / 2), np.minimum(hi1 - s / 2, hi2 + s / 2)

    return biphoton_cee(
        g, t, joint, a_bounds, (lo1 - hi2, hi1 - lo2), min(p1.T, p2.T),
        kappa=kappa, gamma=gamma, delta=delta,
    )


def spdc_peak(g, kT, kT0, t_guess, half_width) -> tuple[float, float]:
    """Local maximum of |c_ee(t)|^2 within t_guess +/- half_width (Brent)."""
    res = minimize_scalar(
        lambda t: -abs(spdc_cee(g, kT, kT0, t)) ** 2,
        bounds=(t_guess - half_width, t_guess + half_width),
        method="bounded",
        options={"xatol": 1e-6},
    )
    return float(res.x), float(-res.fun)
