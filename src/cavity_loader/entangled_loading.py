"""Joint loading of memory pairs by polarization qubits and biphotons.

A photon in a polarization superposition loading a double-Lambda atom
reduces, leg by leg, to the single two-level problem (the legs respond
independently and the target amplitude is polarization invariant).  A
polarization-entangled biphoton illuminating two memories reduces the
same way: the joint target amplitude is a double convolution of the
two-time pulse shape with one single-memory response kernel per photon,

    c_ee(t) = 2 kappa g^2 int int Phi_b(tau, tau') Ktil(t - tau)
              Ktil(t - tau') dtau dtau',

with Ktil(s) = (e^{-kappa_+ s} - e^{-kappa_- s}) / xi the normalized
single-memory kernel.  Phi_b here is the unit-norm joint temporal
amplitude.  For the downconverter model (pump envelope times a
phase-matching box in the time difference) the double integral collapses
to a single integral because the difference coordinate integrates in
closed form; both routes are implemented and cross-checked.

Each memory of a pair is a two-level leg (``TwoLevelParams``); there is
no pair route for Lambda memories.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numerics
from .pulses import MAX_WIDTH, PulseShape, make_sech
from .two_level import TwoLevelParams, Trajectory, _Propagator

__all__ = [
    "PolarizationQubit",
    "BiphotonAmplitude",
    "SpdcParams",
    "v_level_load",
    "spdc_biphoton",
    "separable_biphoton",
    "c_ee",
    "joint_trajectory",
    "peak_joint_loading",
]


@dataclass(frozen=True)
class PolarizationQubit:
    """Unit-norm amplitudes of the two circular polarization components."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"qubit amplitudes must be normalized, |.|^2 = {norm}")


@dataclass(frozen=True)
class BiphotonAmplitude:
    """Unit-norm two-time joint amplitude Phi_b(tau, tau').

    ``joint`` accepts scalar or broadcastable array arguments.  When the
    amplitude has the downconverter structure pump((tau+tau')/2) *
    box((tau-tau')/2), the ``pump`` and ``t0_window`` fields are set and
    enable the fast single-integral evaluation of the joint response.
    """

    joint: Callable[[np.ndarray, np.ndarray], np.ndarray]
    support: tuple[float, float, float, float]
    norm_constant: float
    pump: PulseShape | None = field(default=None)
    t0_window: float | None = field(default=None)

    @property
    def separable_structure(self) -> bool:
        return self.pump is not None and self.t0_window is not None


@dataclass(frozen=True)
class SpdcParams:
    """Downconverter pulse model: pump width T, phase-matching window T0.

    The pump is centered at 2T + T0 so the joint amplitude lives in the
    positive-time quadrant up to a truncated tail.
    """

    T: float
    T0: float

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValueError(f"pump width T must be positive and finite, got {self.T!r}")
        if not 0 < self.T0 < math.inf:
            raise ValueError(
                f"phase-matching window T0 must be positive and finite, got {self.T0!r}"
            )
        if self.T0 > MAX_WIDTH:
            raise ValueError(f"phase-matching window T0 is too large, got {self.T0!r}")

    @property
    def pump_center(self) -> float:
        return 2.0 * self.T + self.T0


def v_level_load(
    q: PolarizationQubit,
    leg: TwoLevelParams,
    pulse: PulseShape,
    t: float,
) -> float:
    """Probability of loading the target superposition of a V-level atom.

    Each polarization leg is driven only by its own component of the
    input state, so the two legs are simulated independently and
    recombined; the result equals the single-leg loading probability for
    every qubit (the identity this operation also verifies).
    """
    _, c_e = _Propagator.of(leg).amplitudes_at(pulse, t)
    c_plus = q.alpha * c_e
    c_minus = q.beta * c_e
    amp = np.conj(q.alpha) * c_plus + np.conj(q.beta) * c_minus
    return float(abs(amp) ** 2)


def spdc_biphoton(sp: SpdcParams) -> BiphotonAmplitude:
    """Joint amplitude of a degenerate type-II downconverter.

    Built as pump((tau+tau')/2) times the phase-matching box
    |tau - tau'| <= T0 (full width 2 T0 in tau - tau'), normalized so the
    two-time norm is one.
    """
    pump = make_sech(sp.T, sp.pump_center)
    t0w = sp.T0
    lo = pump.support[0] - t0w / 2.0
    hi = pump.support[1] + t0w / 2.0

    # in the mean/difference coordinates the two-time norm is
    # int |pump|^2 d(mean) * int d(diff) over the box = 1 * 2 T0: make_sech
    # is normalized over its truncated window
    norm_constant = 1.0 / math.sqrt(2.0 * t0w)

    def joint(tau, tau2):
        tau = np.asarray(tau, dtype=float)
        tau2 = np.asarray(tau2, dtype=float)
        box = (np.abs(tau - tau2) <= t0w).astype(float)
        return norm_constant * pump.amplitude((tau + tau2) / 2.0) * box

    return BiphotonAmplitude(
        joint=joint,
        support=(lo, hi, lo, hi),
        norm_constant=norm_constant,
        pump=pump,
        t0_window=t0w,
    )


def separable_biphoton(p1: PulseShape, p2: PulseShape) -> BiphotonAmplitude:
    """Product joint amplitude Phi_1(tau) Phi_2(tau'), already unit norm."""

    def joint(tau, tau2):
        return p1.amplitude(tau) * p2.amplitude(tau2)

    lo1, hi1 = p1.support
    lo2, hi2 = p2.support
    return BiphotonAmplitude(joint=joint, support=(lo1, hi1, lo2, hi2), norm_constant=1.0)


def c_ee(
    p: TwoLevelParams,
    b: BiphotonAmplitude,
    t: float,
    method: str = "auto",
    spec: numerics.QuadratureSpec = numerics.DEFAULT_QUAD,
) -> complex:
    """Joint excited-state amplitude of two identical memories at time t.

    ``method`` is "auto" (fast reduction when the amplitude has the
    downconverter structure, otherwise the direct double quadrature) or
    "quad2" to force the direct route.
    """
    if method not in ("auto", "quad2"):
        raise ValueError(f"unknown method {method!r}")
    prop = _Propagator.of(p)
    if method == "quad2" or not b.separable_structure:
        return _cee_quad2(prop, b, t, spec)
    return complex(_cee_reduced(prop, b, np.array([t]))[0])


def _cee_quad2(
    prop: _Propagator,
    b: BiphotonAmplitude,
    t: float,
    spec: numerics.QuadratureSpec = numerics.DEFAULT_QUAD,
) -> complex:
    """Direct double quadrature of the joint convolution.

    The outer integral runs over tau'; for each batch of outer nodes the
    inner integrals over tau are one vector-valued quadrature.  A
    downconverter amplitude lives on the band |tau - tau'| <= T0, so the
    inner limits are clipped to the band (no band for a generic
    amplitude) and each inner interval is mapped onto [0, 1].
    """
    x0, x1, y0, y1 = b.support
    x1 = min(x1, t)
    y1 = min(y1, t)
    if x1 <= x0 or y1 <= y0:
        return 0.0 + 0.0j
    pref = 2.0 * prop.kappa * prop.g_amp**2
    band = b.t0_window if b.separable_structure else math.inf
    # the inner integral is smooth in tau' away from the breakpoints, so a
    # tenfold tighter inner tolerance keeps the outer estimate honest
    inner_spec = numerics.QuadratureSpec(
        rtol=spec.rtol * 0.1, atol=spec.atol * 0.1, max_subdivisions=spec.max_subdivisions
    )

    def outer(tau2: np.ndarray) -> np.ndarray:
        lo = np.maximum(x0, tau2 - band)
        width = np.maximum(np.minimum(x1, tau2 + band) - lo, 0.0)

        def inner(u: np.ndarray) -> np.ndarray:
            tau = lo + u[:, None] * width
            return b.joint(tau, tau2) * prop.ce_kernel(t - tau) * width

        return numerics.quad1(inner, (0.0, 1.0), inner_spec) * prop.ce_kernel(t - tau2)

    # the clipped inner limits have kinks where tau' -+ T0 meets the support
    return pref * numerics.quad1(outer, (y0, y1), spec, breakpoints=(x0 + band, x1 - band))


def _difference_integral(prop: _Propagator, w: np.ndarray, window: float) -> np.ndarray:
    """int_{-S}^{S} Ktil(w - s/2) Ktil(w + s/2) ds with S = min(window, 2w).

    Uses the closed form
        4 S e^{-2 mean w} [cosh(xi w) - sinhc(xi S / 2)] / xi^2
    with a series branch where the bracket cancels; kappa_pm + d, the
    kernel's decay rates, are mean +- xi/2.
    """
    w = np.asarray(w, dtype=float)
    out = np.zeros(w.shape, dtype=complex)
    pos = w > 0
    if not np.any(pos):
        return out
    wp = w[pos]
    S = np.minimum(window, 2.0 * wp)
    xi, mean = prop.xi, prop.mean
    vals = np.empty(wp.shape, dtype=complex)
    small = np.abs(xi) * np.maximum(wp, S) < 0.1
    if np.any(small):
        ws, Ss = wp[small], S[small]
        bracket = (ws**2 / 2.0 - Ss**2 / 24.0) + xi**2 * (
            ws**4 / 24.0 - Ss**4 / 1920.0
        )
        vals[small] = 4.0 * Ss * np.exp(-2.0 * mean * ws) * bracket
    big = ~small
    if np.any(big):
        wb, Sb = wp[big], S[big]
        a_plus = np.exp(-2.0 * (mean + xi / 2.0) * wb)
        a_minus = np.exp(-2.0 * (mean - xi / 2.0) * wb)
        cross = np.exp(-2.0 * mean * wb) * 2.0 * np.sinh(0.5 * xi * Sb) / (0.5 * xi)
        vals[big] = (2.0 * Sb * (a_plus + a_minus) - 2.0 * cross) / xi**2
    out[pos] = vals
    return out


def _panel_width(prop: _Propagator, b: BiphotonAmplitude) -> float:
    """Gauss panel width that resolves the pump, the window and the kernel;
    ValueError when ``b`` has no downconverter structure."""
    if not b.separable_structure:
        raise ValueError("reduced evaluation needs a downconverter-structured amplitude")
    # the kernel's faster decay rate is Re(mean + xi/2): xi is a principal root
    rate = max(prop.mean.real + prop.xi.real / 2.0, prop.kappa)
    return min(b.pump.T / 2.0, b.t0_window / 2.0, 0.5 / rate)


# at most this many nodes in the pair's reduced rule: a block of pump values
# then holds at most 32 x 25 000 values (12.8 MB complex), and a peak
# search's stored blocks at most 401 x 25 000 (80 MB real); the tests,
# figure presets and benchmark requests build at most 21 144 (T = 2,
# T0 = 0.025), while a window or pump width near zero asks for billions
_RULE_NODE_BUDGET = 25_000

# 12-point Gauss-Legendre rule on [-1, 1] for each panel of the reduced rule
_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _reduced_rule(b: BiphotonAmplitude, t_max: float, h: float):
    """Composite Gauss nodes/weights in the lag w over [0, t_max - pump start],
    in panels of width <= h split at the w = T0/2 kink; None when no lag
    reaches the pump.  QuadratureFailure, before anything is built, past
    ``_RULE_NODE_BUDGET`` nodes."""
    w_max = t_max - b.pump.support[0]
    if w_max <= 0:
        return None
    kink = b.t0_window / 2.0
    edges = np.array([0.0, kink, w_max] if kink < w_max else [0.0, w_max])
    # Python arithmetic: a count past the float range is inf, not a warning
    panels = np.maximum(np.ceil([d / h for d in np.diff(edges).tolist()]), 1.0)
    n_nodes = _PANEL_NODES.size * sum(panels.tolist())
    if n_nodes > _RULE_NODE_BUDGET:
        raise numerics.QuadratureFailure(
            f"the Gauss rule needs {n_nodes:.3g} nodes (panels of width {h:.3g} "
            f"over [0, {w_max:.3g}]), more than the budget of {_RULE_NODE_BUDGET}"
        )
    mids, halves = [], []
    for lo, hi, n_panel in zip(edges[:-1], edges[1:], panels.astype(int).tolist()):
        bounds = np.linspace(lo, hi, n_panel + 1)
        mids.append(0.5 * (bounds[:-1] + bounds[1:]))
        halves.append(0.5 * (bounds[1:] - bounds[:-1]))
    mid = np.concatenate(mids)[:, None]
    half = np.concatenate(halves)[:, None]
    return (mid + half * _PANEL_NODES).ravel(), (half * _PANEL_WEIGHTS).ravel()


def _reduced_weight(prop: _Propagator, b: BiphotonAmplitude, nodes, weights):
    """(prefactor, per-node weight) of the reduced integral for one kernel."""
    # the quad2 route reads the normalization from b.joint; here the pump is
    # used bare, so norm_constant enters once through the prefactor
    pref = 2.0 * prop.kappa * prop.g_amp**2 * b.norm_constant
    return pref, weights * _difference_integral(prop, nodes, b.t0_window)


# times per block of pump values
_SCAN_BLOCK = 32


def _pump_blocks(b: BiphotonAmplitude, nodes: np.ndarray, times: np.ndarray):
    """The pump at t_i - w_j, as blocks (rows, lags, values) of
    ``_SCAN_BLOCK`` times (rows slices ``times``, lags the sorted rule
    ``nodes``).

    A block holds only the lags with t_i - w_j in the pump's support for
    some time of the block (one node of padding on each side against
    rounding in t_i - w_j), since the pump is exactly zero outside it.  Its
    values are real when the pump's imaginary part is zero there, complex
    otherwise.  The times need not be sorted.
    """
    lo, hi = b.pump.support
    for i in range(0, times.size, _SCAN_BLOCK):
        t = times[i : i + _SCAN_BLOCK]
        j0 = max(int(np.searchsorted(nodes, t.min() - hi)) - 1, 0)
        j1 = min(int(np.searchsorted(nodes, t.max() - lo, side="right")) + 1, nodes.size)
        pump = b.pump.amplitude(t[:, None] - nodes[j0:j1])
        # a contiguous copy: the strided view of the real part slows the products
        yield slice(i, i + t.size), slice(j0, j1), (pump if pump.imag.any() else pump.real.copy())


def _cee_reduced(prop: _Propagator, b: BiphotonAmplitude, times: np.ndarray) -> np.ndarray:
    """c_ee at each of ``times`` by the mean/difference reduction.

    Writing the double convolution in the mean time a = (tau + tau')/2
    and lag w = t - a, the difference coordinate integrates analytically
    (``_difference_integral``), leaving one integral of pump(t - w)
    against a t-independent weight.  Sampled with composite Gauss panels
    split at the w = T0/2 kink, built once up to the latest time; at
    earlier times the nodes past t - (pump start) see pump = 0.  The pump
    is evaluated in ``_pump_blocks``, so memory does not grow with the
    number of times.
    """
    rule = _reduced_rule(b, float(times.max()), _panel_width(prop, b))
    if rule is None:
        return np.zeros(times.shape, dtype=complex)
    pref, weight = _reduced_weight(prop, b, *rule)
    return pref * _block_scan(_pump_blocks(b, rule[0], times), weight[None], times.size)[0]


def joint_trajectory(
    p: TwoLevelParams, b: BiphotonAmplitude, grid
) -> Trajectory:
    """|c_ee| series on a time grid (fast route; needs SPDC structure)."""
    grid = np.asarray(grid, dtype=float)
    return Trajectory(times=grid, amplitudes={"c_ee": _cee_reduced(_Propagator.of(p), b, grid)})


# a scan state larger than this is dropped after the call that built it: the
# mitnu design range needs at most ~3 MB (kT = kT0 = 6), while a narrow
# phase-matching window asks for hundreds of rule nodes per unit time
_SCAN_STATE_KEEP_BYTES = 16 * 2**20


@functools.lru_cache(maxsize=1)
def _scan_state(b: BiphotonAmplitude, horizon: float, h: float):
    """The coupling-independent part of a peak search: the 401-point time
    scan, the reduced rule and the ``_pump_blocks`` of the scan, or None
    when no lag reaches the pump.

    One entry: the calls of one coupling optimum share amplitude, horizon
    and panel width, so every call after the first is a hit.
    """
    rule = _reduced_rule(b, horizon, h)
    if rule is None:
        return None
    grid = np.linspace(0.0, horizon, 401)
    blocks = list(_pump_blocks(b, rule[0], grid))
    for arr in (grid, *rule, *(pump for _, _, pump in blocks)):
        arr.flags.writeable = False
    return grid, rule, blocks


def _block_scan(blocks, weights: np.ndarray, n_times: int) -> np.ndarray:
    """sum_j pump(t_i - w_j) weights[g, j] for the ``n_times`` times of the
    ``_pump_blocks``, one row per coupling."""
    n = weights.shape[0]
    # real and imaginary weights side by side: one product per block, real
    # for a real pump, a plain einsum, so no BLAS thread pool in the
    # workers of a sweep
    stacked = np.concatenate((weights.real, weights.imag))
    out = np.empty((n, n_times), dtype=complex)
    for rows, lags, pump in blocks:
        part = np.einsum("tn,kn->kt", pump, stacked[:, lags])
        out[:, rows] = part[:n] + 1j * part[n:]
    return out


def peak_joint_loading(p, b: BiphotonAmplitude, horizon: float):
    """Global maximum of |c_ee(t)|^2 over [0, horizon] (dense scan + refine).

    ``p`` is one TwoLevelParams, giving (t_peak, P_peak) as floats, or a
    sequence of them, giving both as arrays.  The batch shares one Gauss
    rule, at the narrowest panel width its kernels ask for, and the
    ``_pump_blocks`` of the scan grid; the scan of every coupling is one
    product per block, and one Brent search refines every peak in
    lockstep, each peak time to about sqrt(eps) |t|, through the blocks of
    its trial times.  ValueError unless ``horizon`` is finite and positive.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and after t = 0, got {horizon!r}")
    single = isinstance(p, TwoLevelParams)
    props = [_Propagator.of(q) for q in ([p] if single else p)]
    h = min(_panel_width(prop, b) for prop in props)
    state = _scan_state(b, float(horizon), h)
    t_peaks, p_peaks = np.zeros(len(props)), np.zeros(len(props))
    # with no lag reaching the pump, c_ee vanishes on [0, horizon]
    if state is not None:
        grid, rule, blocks = state
        if sum(pump.nbytes for _, _, pump in blocks) > _SCAN_STATE_KEEP_BYTES:
            _scan_state.cache_clear()
        prefs, weights = zip(*(_reduced_weight(prop, b, *rule) for prop in props))
        prefs, weights = np.array(prefs), np.array(weights)
        scans = prefs[:, None] * _block_scan(blocks, weights, grid.size)

        def objective(rows: np.ndarray, times: np.ndarray) -> np.ndarray:
            out = np.empty(times.size, dtype=complex)
            for i, lags, pump in _pump_blocks(b, rule[0], times):
                out[i] = np.einsum("tn,tn->t", pump, weights[rows[i], lags])
            return np.abs(prefs[rows] * out) ** 2

        t_peaks, p_peaks, _ = numerics.scan_refine(
            objective, grid, np.abs(scans) ** 2, 1e-10 * max(horizon, 1.0)
        )
    if single:
        return float(t_peaks[0]), float(p_peaks[0])
    return t_peaks, p_peaks
