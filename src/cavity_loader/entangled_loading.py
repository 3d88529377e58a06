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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numerics
from .lambda_memory import LambdaParams, effective_two_level
from .pulses import PulseShape, make_sech
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
    "mitnu_load",
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
    downconverter structure, otherwise the direct double quadrature),
    "quad2" to force the direct route, or "reduced" to force the fast
    one.
    """
    prop = _Propagator.of(p)
    if method == "quad2" or (method == "auto" and not b.separable_structure):
        return _cee_quad2(prop, b, t, spec)
    if method in ("auto", "reduced"):
        if not b.separable_structure:
            raise ValueError("reduced evaluation needs a downconverter-structured amplitude")
        return complex(_cee_reduced(prop, b, t)(np.array([t]))[0])
    raise ValueError(f"unknown method {method!r}")


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
    """Gauss panel width that resolves the pump, the window and the kernel."""
    # the kernel's faster decay rate is Re(mean + xi/2): xi is a principal root
    rate = max(prop.mean.real + prop.xi.real / 2.0, prop.kappa)
    return min(b.pump.T / 2.0, b.t0_window / 2.0, 0.5 / rate)


# at most this many nodes in the pair's reduced rule, real pump blocks of at
# most 401 x 25 000 values (80 MB) in a peak search: the tests, figure
# presets and benchmark requests build at most 21 144 (T = 2, T0 = 0.025,
# 45 MB of blocks), while a window or pump width near zero asks for billions
_RULE_NODE_BUDGET = 25_000


def _reduced_rule(b: BiphotonAmplitude, t_max: float, h: float):
    """Composite Gauss nodes/weights in the lag w over [0, t_max - pump start],
    split at the w = T0/2 kink; None when no lag reaches the pump."""
    w_max = t_max - b.pump.support[0]
    if w_max <= 0:
        return None
    return _composite_gauss(0.0, w_max, h, fixed=(b.t0_window / 2.0,))


def _reduced_weight(prop: _Propagator, b: BiphotonAmplitude, nodes, weights):
    """(prefactor, per-node weight) of the reduced integral for one kernel."""
    # the quad2 route reads the normalization from b.joint; here the pump is
    # used bare, so norm_constant enters once through the prefactor
    pref = 2.0 * prop.kappa * prop.g_amp**2 * b.norm_constant
    return pref, weights * _difference_integral(prop, nodes, b.t0_window)


def _cee_reduced(prop: _Propagator, b: BiphotonAmplitude, t_max: float):
    """c_ee(times) for times up to t_max, by the mean/difference reduction.

    Writing the double convolution in the mean time a = (tau + tau')/2
    and lag w = t - a, the difference coordinate integrates analytically
    (``_difference_integral``), leaving one integral of pump(t - w)
    against a t-independent weight.  Sampled with composite Gauss panels
    split at the w = T0/2 kink, built once up to t_max; at earlier times
    the nodes past t - (pump start) see pump = 0.
    """
    rule = _reduced_rule(b, t_max, _panel_width(prop, b))
    if rule is None:
        return lambda times: np.zeros(times.shape, dtype=complex)
    nodes = rule[0]
    pref, weight = _reduced_weight(prop, b, *rule)

    def evaluate(times: np.ndarray) -> np.ndarray:
        pump_vals = b.pump.amplitude(times[:, None] - nodes[None, :])
        # an elementwise reduction: a BLAS product would start a thread pool
        # in every worker of a sweep
        return pref * (pump_vals * weight).sum(axis=1)

    return evaluate


def _composite_gauss(a: float, b: float, h: float, fixed=(), order: int = 12):
    """Nodes/weights of composite Gauss-Legendre panels of width <= h;
    QuadratureFailure, before anything is built, past ``_RULE_NODE_BUDGET``
    nodes."""
    x, w = _gauss_legendre(order)
    edges = np.unique(
        np.concatenate(
            [np.array([a, b]), np.asarray([f for f in fixed if a < f < b])]
        )
    )
    panels = np.maximum(np.ceil(np.diff(edges) / h), 1.0)
    if order * panels.sum() > _RULE_NODE_BUDGET:
        raise numerics.QuadratureFailure(
            f"the Gauss rule needs {order * panels.sum():.3g} nodes (panels of "
            f"width {h:.3g} over [{a:.3g}, {b:.3g}]), more than the budget of "
            f"{_RULE_NODE_BUDGET}"
        )
    mids, halves = [], []
    for lo, hi, n_panel in zip(edges[:-1], edges[1:], panels.astype(int).tolist()):
        bounds = np.linspace(lo, hi, n_panel + 1)
        mids.append(0.5 * (bounds[:-1] + bounds[1:]))
        halves.append(0.5 * (bounds[1:] - bounds[:-1]))
    mid = np.concatenate(mids)[:, None]
    half = np.concatenate(halves)[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def joint_trajectory(
    p: TwoLevelParams, b: BiphotonAmplitude, grid
) -> Trajectory:
    """|c_ee| series on a time grid (fast route; needs SPDC structure)."""
    if not b.separable_structure:
        raise ValueError("joint_trajectory needs a downconverter-structured amplitude")
    grid = np.asarray(grid, dtype=float)
    vals = _cee_reduced(_Propagator.of(p), b, float(np.max(grid)))(grid)
    return Trajectory(
        times=grid,
        amplitudes={"c_ee": vals},
    )


# a scan state larger than this is dropped after the call that built it: the
# mitnu design range needs at most ~3 MB (kT = kT0 = 6), while a narrow
# phase-matching window asks for hundreds of rule nodes per unit time
_SCAN_STATE_KEEP_BYTES = 16 * 2**20

# scan rows per block of the stored pump
_SCAN_BLOCK = 32


@functools.lru_cache(maxsize=1)
def _scan_state(b: BiphotonAmplitude, horizon: float, h: float):
    """The coupling-independent part of a peak search: the 401-point time
    scan, the reduced rule and the pump on the scan, or None when no lag
    reaches the pump.

    The pump is kept as blocks (rows, lags, pump(t_i - w_j)) of
    ``_SCAN_BLOCK`` scan rows, each over only the lag nodes with t_i - w_j
    in the pump's support for some row of the block (one node of padding
    on each side against rounding in t_i - w_j), since the pump is exactly
    zero outside it.  The blocks
    hold the real part: ValueError when the pump is not real there.

    One entry: the calls of one coupling optimum share amplitude, horizon
    and panel width, so every call after the first is a hit.
    """
    rule = _reduced_rule(b, horizon, h)
    if rule is None:
        return None
    nodes = rule[0]
    grid = np.linspace(0.0, horizon, 401)
    lo, hi = b.pump.support
    blocks = []
    for i in range(0, grid.size, _SCAN_BLOCK):
        times = grid[i : i + _SCAN_BLOCK]
        j0 = max(int(np.searchsorted(nodes, times[0] - hi)) - 1, 0)
        j1 = min(int(np.searchsorted(nodes, times[-1] - lo, side="right")) + 1, nodes.size)
        pump = b.pump.amplitude(times[:, None] - nodes[j0:j1])
        if np.any(pump.imag):
            raise ValueError("the pair peak search needs a real pump envelope")
        real = pump.real.copy()
        real.flags.writeable = False
        blocks.append((slice(i, i + times.size), slice(j0, j1), real))
    for arr in (grid, *rule):
        arr.flags.writeable = False
    return grid, rule, blocks


def _block_scan(grid, blocks, weights: np.ndarray) -> np.ndarray:
    """sum_j pump(t_i - w_j) weights[g, j] on the scan grid, one row per
    coupling, from the real pump blocks of ``_scan_state``."""
    n = weights.shape[0]
    # real and imaginary weights side by side: one real product per block,
    # a plain einsum, so no BLAS thread pool in the workers of a sweep
    stacked = np.concatenate((weights.real, weights.imag))
    out = np.empty((n, grid.size), dtype=complex)
    for rows, lags, pump in blocks:
        part = np.einsum("tn,kn->kt", pump, stacked[:, lags])
        out.real[:, rows] = part[:n]
        out.imag[:, rows] = part[n:]
    return out


def peak_joint_loading(p, b: BiphotonAmplitude, horizon: float):
    """Global maximum of |c_ee(t)|^2 over [0, horizon] (dense scan + refine).

    ``p`` is one TwoLevelParams, giving (t_peak, P_peak) as floats, or a
    sequence of them, giving both as arrays.  The batch shares one Gauss
    rule, at the narrowest panel width its kernels ask for, and the pump
    on the scan grid x the lag nodes it reaches, stored real in blocks of
    scan rows; the scan of every coupling is one real product per block,
    and one Brent search refines every peak in lockstep, each peak time to
    about sqrt(eps) |t|.  The pump envelope must be real, as
    ``spdc_biphoton``'s is: ValueError otherwise.
    """
    if not b.separable_structure:
        raise ValueError("peak_joint_loading needs a downconverter-structured amplitude")
    single = isinstance(p, TwoLevelParams)
    props = [_Propagator.of(q) for q in ([p] if single else p)]
    h = min(_panel_width(prop, b) for prop in props)
    state = _scan_state(b, float(horizon), h)
    t_peaks, p_peaks = np.zeros(len(props)), np.zeros(len(props))
    # with no lag reaching the pump, c_ee vanishes on [0, horizon]
    if state is not None:
        grid, rule, blocks = state
        if sum(block.nbytes for _, _, block in blocks) > _SCAN_STATE_KEEP_BYTES:
            _scan_state.cache_clear()
        nodes = rule[0]
        prefs, weights = zip(*(_reduced_weight(prop, b, *rule) for prop in props))
        prefs, weights = np.array(prefs), np.array(weights)
        scans = prefs[:, None] * _block_scan(grid, blocks, weights)

        def objective(rows: np.ndarray, times: np.ndarray) -> np.ndarray:
            pump = b.pump.amplitude(times[:, None] - nodes)
            return np.abs(prefs[rows] * (pump * weights[rows]).sum(axis=1)) ** 2

        t_peaks, p_peaks, _ = numerics.scan_refine(
            objective, grid, np.abs(scans) ** 2, 1e-10 * max(horizon, 1.0)
        )
    if single:
        return float(t_peaks[0]), float(p_peaks[0])
    return t_peaks, p_peaks


def mitnu_load(
    memory: LambdaParams,
    sp: SpdcParams,
    t_load: float,
) -> float:
    """Loading probability of the two-memory singlet target at t_load.

    Each Lambda memory is mapped to its effective two-level parameters
    (constant control, adiabatic-elimination regime) and the joint
    amplitude is evaluated with the downconverter pulse model.
    """
    if not callable(memory.omega) and memory.omega == 0.0:
        return 0.0
    b = spdc_biphoton(sp)
    val = _cee_reduced(effective_two_level(memory), b, t_load)(np.array([t_load]))[0]
    return float(abs(val) ** 2)
