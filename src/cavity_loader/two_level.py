"""Loading dynamics of a two-level trapped atom driven by a single photon.

Exact stepping of (beta, c_e) gives the loading peak (``peak_loading``)
and every written trajectory (``stepped_trajectory``).  Two independent
routes check it and each other: direct integration of the equations

    d(beta)/dt = -i g c_e - i sqrt(2 kappa) Phi_b(t) - kappa beta
    d(c_e)/dt  =  i Delta c_e - i g beta - gamma c_e

and the closed-form convolution solution obtained by Laplace transform,
whose decay constants are

    gamma' = gamma - i Delta
    xi     = sqrt((kappa - gamma')^2 - 4 g^2)      (principal branch)
    kappa_pm = (kappa + gamma' +/- xi) / 2,   kappa'_pm = kappa_pm - gamma'.

``_Propagator`` holds them as mean = (kappa + gamma') / 2 and xi, so that
kappa_pm = mean +/- xi / 2.

The loading probability is |c_e(t)|^2.  All rates are in inverse time
units; time is whatever unit makes kappa of order one (the CLI works in
units of kappa).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics
from .numerics import OdeSystem
from .pulses import PulseShape

__all__ = [
    "TwoLevelParams",
    "Trajectory",
    "amplitude_closed_form",
    "amplitude_ode",
    "spectral_amplitude",
    "peak_loading",
    "stepped_trajectory",
]


@dataclass(frozen=True)
class TwoLevelParams:
    """Physical rates of the atom-cavity system (all 1/time).

    g is the vacuum Rabi coupling, kappa the cavity decay rate, gamma the
    non-cavity spontaneous decay rate and delta the detuning between the
    input carrier and the atomic transition.
    """

    g: float
    kappa: float
    gamma: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        for name in ("g", "kappa", "gamma", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if self.g < 0:
            raise ValueError("g must be nonnegative")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        # rates whose xi overflows are rejected here, before any route runs
        _xi(self.kappa, complex(self.gamma, -self.delta), self.g)


@dataclass
class Trajectory:
    """Simulation result: time grid, named complex series, populations."""

    times: np.ndarray
    amplitudes: dict[str, np.ndarray]

    def population(self, name: str) -> np.ndarray:
        return np.abs(self.amplitudes[name]) ** 2


def _xi(kappa: float, gamma_prime: complex, g_amp: complex) -> complex:
    """sqrt((kappa - gamma')^2 - 4 g^2), principal branch; ValueError when
    the rates are too large for it to be finite."""
    # powers, not products: float g**2 and g*g can differ in the last bit
    try:
        radicand = complex((kappa - gamma_prime) ** 2 - 4.0 * g_amp**2)
    except OverflowError:  # a Python power past the float range
        radicand = complex(math.inf)
    if not cmath.isfinite(radicand):
        raise ValueError(
            f"xi is not finite for kappa = {kappa!r}, gamma' = {gamma_prime!r}, g = {g_amp!r}"
        )
    return complex(np.sqrt(radicand))


def _sinhc(z):
    """sinh(z)/z, stable at z -> 0 (series below |z| = 1e-4)."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    out = np.where(small, 1.0 + z * z / 6.0, np.sinh(safe) / safe)
    return out


def _exp_or_zero(exponent):
    """e^exponent where the exponent is finite and 0 elsewhere.  The 0 is
    exact where the real part is -inf: (+-xi/2 - mean) s at a lag s near
    the float range with a damping Re(mean) > 0.  Where only the imaginary
    part overflows (no damping, a large detuning) the phase is lost and 0
    stands for a factor of modulus e^Re."""
    finite = np.isfinite(exponent)
    if finite.all():
        return np.exp(exponent)
    return np.exp(exponent, out=np.zeros(np.shape(exponent), dtype=complex), where=finite)


# kernel evaluation switches from the exponential difference to the factored
# sinhc form when |xi s / 2| drops below this, avoiding cancellation near the
# confluent point and overflow far from it
_FACTORED_THRESHOLD = 0.1

# the closed form's convolution gets a breakpoint this many decay lengths
# 1/Re(kappa_pm) before its upper limit, one per mode (``amplitudes_at``).
# Against DOP853 at rtol 1e-11 (four families, seven rate sets, kappa T
# 1e2-1e4) the worst amplitude error is 2e-10 at 20 and 9e-12 from 30
# on; 40 keeps a margin
_KERNEL_SPAN = 40.0


@dataclass(frozen=True)
class _Propagator:
    """exp(A s) for the drive-free matrix A = -[[kappa + d, i g], [i g, gamma' + d]]
    of the (beta, c_e) pair, d the extra decay: the one object behind the
    exact stepping and the causal response kernels of the closed form.

    g may be complex and d positive, so that the Lambda reduction (complex
    effective coupling, extra drive damping) reuses it.  A + mean is
    traceless and squares to (xi / 2)^2, so exp(A s) = ch I + sh (A + mean)
    exactly, finite through xi = 0.  The constants are numbers, or (rows, 1)
    columns (``_stack``, one row per propagator) that broadcast against
    step lengths.
    """

    size, max_step = 2, math.inf  # (beta, c_e); the pulse width sets the step
    kappa: float
    g_amp: complex
    xi: complex
    mean: complex
    half_diff: complex

    @classmethod
    def of(cls, p: TwoLevelParams) -> "_Propagator":
        return cls.from_rates(p.kappa, complex(p.gamma, -p.delta), p.g)

    @classmethod
    def from_rates(
        cls, kappa: float, gamma_prime: complex, g_amp: complex, extra_decay: float = 0.0
    ) -> "_Propagator":
        return cls(
            float(kappa),
            complex(g_amp),
            _xi(kappa, gamma_prime, g_amp),
            (kappa + gamma_prime) / 2.0 + extra_decay,
            (kappa - gamma_prime) / 2.0,
        )

    def parts(self, s):
        """(ch, sh) of exp(A s) = ch I + sh (A + mean).

        Factored near the confluent point; from |xi s / 2| =
        ``_FACTORED_THRESHOLD`` on, the two exponentials e^{(+-xi/2 - mean) s}
        directly, since cosh and sinh overflow long before their damped
        products do (gamma >> kappa).  A form is evaluated only when some
        lag uses it: the stepping's lags are nearly always all factored, a
        quadrature panel's kernel lags often all exponential.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            half = 0.5 * self.xi * s
            near = np.abs(half) < _FACTORED_THRESHOLD
            if near.all():
                return self._factored(half, s)
            if not near.any():
                return self._exponential(half, s, self.xi)
            factored = self._factored(np.where(near, half, 0.0), s)
            exponential = self._exponential(half, s, np.where(near, 1.0, self.xi))
            return tuple(np.where(near, f, e) for f, e in zip(factored, exponential))

    def _factored(self, half, s):
        """(ch, sh) from cosh and sinhc of ``half`` = xi s / 2."""
        damp = np.exp(-self.mean * s)
        return np.cosh(half) * damp, s * _sinhc(half) * damp

    def _exponential(self, half, s, xi):
        """(ch, sh) from e^{(+-xi/2 - mean) s}, ``half`` = xi s / 2, each
        formed by ``_exp_or_zero``: a lag near the float range times a
        large rate overflows the exponents."""
        up, down = _exp_or_zero(half - self.mean * s), _exp_or_zero(-half - self.mean * s)
        return 0.5 * (up + down), (up - down) / xi

    def matrix(self, s):
        """exp(A s), entry first: [[bb, be], [eb, ee]] with eb = be, each
        entry shaped as ``s`` (broadcast against stacked constants)."""
        ch, sh = self.parts(s)
        be = -1j * self.g_amp * sh
        return [[ch - self.half_diff * sh, be], [be, ch + self.half_diff * sh]]

    def ce_kernel(self, s):
        """Causal kernel of c_e: -sh(s), i.e. (e^{-kappa_+ s} - e^{-kappa_- s})
        / xi e^{-d s}, for s > 0 and zero before."""
        s = np.asarray(s, dtype=float)
        _, sh = self.parts(np.where(s > 0, s, 0.0))
        return np.where(s > 0, -sh, 0.0)

    def kernels(self, s):
        """Causal kernels of beta and c_e from one call of ``parts``: the bb
        entry of exp(A s), i.e. (kappa'_+ e^{-kappa_+ s} - kappa'_-
        e^{-kappa_- s}) / xi e^{-d s}, for s >= 0 and zero before, and
        ``ce_kernel``.  Both clip the lag to 0 before s = 0, so they share
        one call."""
        s = np.asarray(s, dtype=float)
        ch, sh = self.parts(np.where(s > 0, s, 0.0))
        return np.where(s >= 0, ch - self.half_diff * sh, 0.0), np.where(s > 0, -sh, 0.0)

    def amplitudes_at(self, pulse: PulseShape, t: float) -> tuple[complex, complex]:
        """(beta, c_e) at time t by convolution over the pulse support.

        The kernels live within a few decay lengths 1/Re(kappa_pm) of the
        upper limit.  On a support many of them long (kappa T ~ 1e3 and
        up) the first Kronrod rule would fall between them and converge on
        nothing, so each mode's panel starts ``_KERNEL_SPAN`` decay lengths
        before the upper limit, where that point lies inside the support.
        """
        lo, hi = pulse.support
        upper = min(t, hi)
        if upper <= lo:
            return 0.0 + 0.0j, 0.0 + 0.0j
        rates = ((self.mean + sign * self.xi / 2.0).real for sign in (-1.0, 1.0))
        splits = [upper - _KERNEL_SPAN / rate for rate in rates if rate > 0.0]

        def integrand(tau):
            phi = pulse.amplitude(tau)
            beta, ce = self.kernels(t - tau)
            return np.stack((phi * beta, phi * ce), axis=-1)

        beta_conv, ce_conv = numerics.quad1(
            integrand, (lo, upper), breakpoints=(pulse.t0, *splits)
        )
        drive = math.sqrt(2.0 * self.kappa)
        return complex(-1j * drive * beta_conv), complex(self.g_amp * drive * ce_conv)


def amplitude_closed_form(
    p: TwoLevelParams, pulse: PulseShape, t: float
) -> tuple[complex, complex]:
    """Closed-form (beta, c_e) at time t.

    The convolution runs from the pulse support start, which generalizes
    the textbook lower limit 0 to pulses that begin before t = 0.
    """
    return _Propagator.of(p).amplitudes_at(pulse, t)


def amplitude_ode(p: TwoLevelParams, pulse: PulseShape, grid) -> Trajectory:
    """Integrate the baseband equations of motion on the given time grid.

    DOP853, independent of the closed form and of the exact stepping: the
    brute-force check of ``amplitude_closed_form``, ``peak_loading`` and
    ``stepped_trajectory``.
    """
    grid = np.asarray(grid, dtype=float)
    lo = pulse.support[0]
    t_start = min(float(grid[0]), lo)
    kappa, gamma = p.kappa, p.gamma
    c_be, c_ee, c_eb = -1j * p.g, 1j * p.delta, 1j * p.g
    c_drive = 1j * math.sqrt(2.0 * kappa)

    def rhs(t, y):
        # precomputed coefficients applied term by term, in the equations'
        # order, on Python complex numbers: cheaper than numpy scalars, and
        # unlike a matrix product it keeps every rounding, which DOP853's
        # step control would otherwise turn into changes of up to ~4e-9 in
        # the output
        beta, ce = y.tolist()
        return np.array(
            [
                c_be * ce - c_drive * pulse.amplitude(t) - kappa * beta,
                c_ee * ce - c_eb * beta - gamma * ce,
            ]
        )

    system = OdeSystem(2, rhs, np.zeros(2, dtype=complex), (t_start, float(grid[-1])))
    max_step = _drive_max_step(pulse, t_start, float(grid[-1]))
    states = numerics.integrate(system, grid, max_step=max_step)
    return Trajectory(
        times=grid,
        amplitudes={"beta": states[:, 0], "c_e": states[:, 1]},
    )


def _drive_max_step(pulse: PulseShape, t_start: float, t_end: float) -> float:
    """Step cap so the solver cannot leap over the pulse from a quiet state."""
    width = pulse.T if math.isfinite(pulse.T) and pulse.T > 0 else (t_end - t_start)
    return max(width / 16.0, (t_end - t_start) * 1e-6)


def spectral_amplitude(
    p: TwoLevelParams,
    spectral_weight: Callable[[np.ndarray], np.ndarray],
    omega_interval: tuple[float, float],
    t: float,
    origin: float = 0.0,
) -> complex:
    """c_e(t) assembled from per-frequency amplitudes.

    ``spectral_weight`` is the baseband spectrum on an array of
    frequencies nu (offsets from the carrier), normalized so its |.|^2
    integrates to one over ``omega_interval``.  Each frequency component
    e^{-i nu tau} drives the atom from rest, switched on at ``origin``
    (zero before it), and the responses superpose:

        c_e(t) = -i sqrt(kappa / pi) int W(nu) r(nu) dnu,
        r(nu)  = [y_ss e^{-i nu t} - exp(A L) y_ss e^{-i nu origin}]_e,

    with A the drive-free matrix of the (beta, c_e) pair (``_Propagator``),
    y_ss = -(A + i nu)^{-1} e_beta its steady response to a unit drive on
    beta and L = t - origin.  g = 0 gives exactly zero.  The pulse enters
    only through its spectrum, so this is independent of the time-domain
    routes; it converges to the closed form when the weight is the
    Fourier transform of a pulse that is zero before ``origin``.  The cost
    is one adaptive quadrature over nu with each node's response in
    closed form: linear in the number of frequency nodes.
    """
    # without coupling det(A + i nu) has a real zero when gamma = 0
    if t <= origin or p.g == 0:
        return 0.0 + 0.0j
    (_, be), (_, ee) = _Propagator.of(p).matrix(t - origin)
    gamma_prime = complex(p.gamma, -p.delta)

    def per_frequency(nu: np.ndarray) -> np.ndarray:
        # y_ss = -(A + i nu)^{-1} e_beta = -(i nu - gamma', i g) / det(A + i nu)
        i_nu = 1j * nu
        det = (i_nu - p.kappa) * (i_nu - gamma_prime) + p.g**2
        ss_b, ss_e = -(i_nu - gamma_prime) / det, -1j * p.g / det
        response = ss_e * np.exp(-i_nu * t) - (be * ss_b + ee * ss_e) * np.exp(-i_nu * origin)
        return spectral_weight(nu) * response

    integral = numerics.quad1(per_frequency, omega_interval)
    return -1j * math.sqrt(p.kappa / math.pi) * integral


def peak_loading(p, pulse: PulseShape, horizon: float):
    """Global maximum of |c_e(t)|^2 over [0, horizon].

    ``p`` is one TwoLevelParams, giving (t_peak, P_peak) as floats, or a
    sequence of them, giving both as arrays: ``_peak`` over their
    propagators.
    """
    single = isinstance(p, TwoLevelParams)
    t_peak, p_peak = _peak([_Propagator.of(q) for q in ([p] if single else p)], pulse, horizon)
    if single:
        return float(t_peak[0]), float(p_peak[0])
    return t_peak, p_peak


def _peak(props, pulse: PulseShape, horizon: float):
    """Global maxima of |last amplitude|^2 from the scan start to
    ``horizon``, one (time, value) pair of arrays over the propagators
    ``props`` of one class (any stepping propagator, below).

    An exact scan on one ``_scan_grid``, at the smallest ``max_step`` of
    the batch, locates each global basin despite Rabi oscillations: the
    propagators share the grid and the pulse, and each one's march is one
    banded solve.  The grid comes from ``_scan_grid``'s memo when the last
    call scanned the same pulse to the same horizon, as every call of one
    coupling optimum does.  Brent refinement, in lockstep over the
    propagators, takes one partial step from the grid state below each
    trial time, with the rows of one stacked propagator; a refined peak
    time is known to about sqrt(eps) |t|.  Ties break toward the earliest
    time.
    """
    grid, phi, width = _scan_grid(pulse, horizon, max_step=min(q.max_step for q in props))
    last = props[0].size - 1
    values = np.empty((len(props), len(grid)))
    stacked = _stack(props)
    # per propagator, the first grid index the refinement reads and the
    # states there and at the next index: the best scanned point's cells
    kept = []
    for row, states in enumerate(_marches(stacked, pulse, grid, phi)):
        values[row] = np.abs(states[:, last]) ** 2
        first = max(int(values[row].argmax()) - 1, 0)
        kept.append((first, states[first : first + 2].copy()))

    def objective(rows: np.ndarray, times: np.ndarray) -> np.ndarray:
        i = np.minimum(np.searchsorted(grid, times, side="right") - 1, len(grid) - 2)
        state = np.array([kept[r][1][j - kept[r][0]] for r, j in zip(rows.tolist(), i.tolist())])
        out = _partial_steps(_rows(stacked, rows), pulse, grid[i], state, times)
        return np.abs(out[:, last]) ** 2

    return numerics.scan_refine(objective, grid, values, 1e-10 * max(width, 1.0))[:2]


def stepped_trajectory(p: TwoLevelParams, pulse: PulseShape, times) -> Trajectory:
    """(beta, c_e) at ``times`` by the exact stepping of ``_peak``:
    its scan up to max(times), then one partial step from the grid state
    below each time (``_stepped``).  At a scan-grid point the state is the
    scan's; times at or before the scan start give zeros, the atom being
    at rest."""
    times = np.asarray(times, dtype=float)
    beta, c_e = _stepped(_Propagator.of(p), pulse, times).T
    return Trajectory(times=times, amplitudes={"beta": beta, "c_e": c_e})


def _stack(props):
    """One propagator of the class of ``props`` whose constants stack theirs
    as (rows, 1, ...) arrays, one row per propagator."""
    cols = zip(*(vars(q).values() for q in props))  # a dataclass's fields, in order
    return type(props[0])(*(np.array(col)[:, None] for col in cols))


def _rows(prop, rows):
    """The rows ``rows`` (an index array) of the stacked propagator ``prop``,
    as one stacked propagator: ``_stack`` of those rows' propagators."""
    return type(prop)(*(value[rows] for value in vars(prop).values()))


# The stepping helpers below take any propagator of ``size`` = k amplitudes,
# the first one driven at rate ``kappa``, whose ``matrix(s)`` is exp(A s)
# entry first (``matrix(s)[a][b]`` is entry (a, b) at every step length in
# s) and whose steps are at most ``max_step`` long: ``_Propagator`` and the
# Lambda writer's alike.


def _stepped(prop, pulse: PulseShape, times, start=None, state=None):
    """States at ``times``, (n, k), by exact steps of ``prop`` from ``state``
    at ``start`` (rest at the scan start when None): the scan up to
    max(times), then one partial step from the grid state below each
    later time, in blocks so that memory stays flat."""
    t_begin = min(0.0, pulse.support[0]) if start is None else start
    out = np.full((times.size, prop.size), 0.0 if state is None else state, dtype=complex)
    late = np.flatnonzero(times > t_begin)
    if late.size:
        grid, phi, _ = _scan_grid(pulse, float(times.max()), t_begin, prop.max_step)
        one = _stack([prop])
        march = next(_marches(one, pulse, grid, phi, state))
        for lo in range(0, late.size, _DRIVE_BLOCK):
            rows = late[lo : lo + _DRIVE_BLOCK]
            i = np.searchsorted(grid, times[rows], side="right") - 1
            block = _rows(one, np.zeros(rows.size, dtype=int))
            out[rows] = _partial_steps(block, pulse, grid[i], march[i], times[rows])
    return out


# the last ``_scan_grid`` result, under its (pulse, horizon, start,
# max_step) and the grid constants: every objective call of one coupling
# optimum scans the same pulse to the same horizon.  One entry, so that no
# later request reuses an earlier one's grid and memory stays that of one
# grid.
_SCAN_MEMO: dict = {}


def _scan_grid(pulse: PulseShape, horizon: float, start=None, max_step=math.inf):
    """The scan's uniform grid from ``start`` (min(0, pulse start) when
    None) to ``horizon``, ``_STEPS_PER_WIDTH`` steps per pulse width, at
    least 64 and none longer than ``max_step``, the pulse on every step's
    Gauss nodes, and the width.  ValueError unless ``horizon`` is finite
    and after the start; OdeFailure, before anything is allocated, when
    the grid would take more than ``_STEP_BUDGET`` steps.

    The last result is kept in ``_SCAN_MEMO`` and returned again for the
    same pulse (equal fields, the same envelope function, as
    ``make_named`` gives for equal arguments), horizon, start, ``max_step``,
    ``_STEPS_PER_WIDTH`` and ``_STEP_BUDGET``; its grid and pulse arrays
    are read-only.  The old entry is dropped before a new grid is built.
    """
    t_begin = min(0.0, pulse.support[0]) if start is None else start
    key = (pulse, horizon, t_begin, max_step, _STEPS_PER_WIDTH, _STEP_BUDGET)
    hit = _SCAN_MEMO.get(key)
    if hit is not None:
        return hit
    _SCAN_MEMO.clear()
    if not t_begin < horizon < math.inf:
        where = f"the scan start t = {t_begin:.6g}"
        raise ValueError(f"horizon must be finite and after {where}, got {horizon!r}")
    width = pulse.T if math.isfinite(pulse.T) else (horizon - t_begin)
    steps = ((horizon - t_begin) / width * _STEPS_PER_WIDTH, (horizon - t_begin) / max_step)
    if not max(steps) <= _STEP_BUDGET:
        message = f"the exact stepping needs {max(steps):.3g} steps, over the budget {_STEP_BUDGET}"
        raise numerics.OdeFailure(message, t_begin)
    n = max(*(int(np.ceil(x)) for x in steps), 64)
    grid = np.linspace(t_begin, horizon, n + 1)
    starts, offsets = grid[:-1, None], (grid[-1] - grid[0]) / n * _STEP_NODES
    phi = np.empty((n, _STEP_NODES.size), dtype=complex)
    # the pulse in blocks of steps, so that its temporaries stay small
    for lo in range(0, n, _DRIVE_BLOCK):
        phi[lo : lo + _DRIVE_BLOCK] = pulse.amplitude(starts[lo : lo + _DRIVE_BLOCK] + offsets)
    grid.flags.writeable = phi.flags.writeable = False
    _SCAN_MEMO[key] = grid, phi, width
    return _SCAN_MEMO[key]


def _partial_steps(prop, pulse: PulseShape, start, state, times):
    """States at ``times`` from the (rows, k) ``state`` at ``start``, each
    row one exact step of its own row of the stacked propagator ``prop``;
    a step that holds a pulse edge is split there, one row at a time."""
    s = (times - start)[:, None]
    m, w = _step(prop, s)
    out = _next_state(m, state, pulse.amplitude(start[:, None] + s * _STEP_NODES), w)
    cuts = np.array(sorted({*pulse.support, pulse.t0}))
    for k in np.flatnonzero(((cuts > start[:, None]) & (cuts < times[:, None])).any(axis=1)):
        out[k] = _advance(_rows(prop, [k]), pulse, state[k], start[k], times[k])[0]
    return out


# 8-point Gauss-Legendre rule on [0, 1] for the drive across one step
_STEP_NODES, _STEP_WEIGHTS = np.polynomial.legendre.leggauss(8)
_STEP_NODES, _STEP_WEIGHTS = (_STEP_NODES + 1.0) / 2.0, _STEP_WEIGHTS / 2.0
# a step's length and the lags from its Gauss nodes to its end, in units of it
_STEP_LAGS = np.concatenate(([1.0], 1.0 - _STEP_NODES))
# steps whose pulse values the scan evaluates together, and output times
# that ``_stepped`` steps together
_DRIVE_BLOCK = 512
# the scan's steps per pulse width, and at most this many steps in one scan
# (~0.1 s; the figure presets and the peak searches need at most ~8000)
_STEPS_PER_WIDTH = 400
_STEP_BUDGET = 200_000


def _step(prop, s):
    """One step of length s: the map exp(A s) and the weights on the 8 Gauss
    nodes start + s x with which driving from rest over [start, start + s]
    reaches sum_x Phi_b(start + s x) w(x), the Gauss-Legendre integral of
    exp(A (start + s - tau)) -i sqrt(2 kappa) Phi_b(tau) e_0.  Both are
    indexed by amplitude first: map[a][b] and w[a] hold entry (a, b) and
    the weights (..., 8) of every stacked propagator.  ``s`` is a number, or a
    column matching stacked propagators.
    """
    m, k = prop.matrix(s * _STEP_LAGS), range(prop.size)
    scale = -1j * np.sqrt(2.0 * prop.kappa) * s * _STEP_WEIGHTS
    return [[m[a][b][..., 0] for b in k] for a in k], [m[a][0][..., 1:] * scale for a in k]


def _next_state(m, state, phi, w):
    """The map m of ``_step`` applied to ``state``, (..., k), plus the drive
    ``phi`` weighted by w and summed over the Gauss nodes: one amplitude
    at a time, each sum in the order of its terms."""
    st, out = state.T, []  # st[b] is state[..., b]
    for a in range(len(m)):
        acc = m[a][0] * st[0]
        for b in range(1, len(m)):
            acc = acc + m[a][b] * st[b]
        out.append(acc + (phi * w[a]).sum(axis=-1))
    return np.array(out).T


def _advance(prop, pulse: PulseShape, state, a: float, b: float):
    """The state at b from ``state`` at a, split at the pulse's edges and
    center so that the rule only integrates a smooth drive: (k,), or
    (rows, k) for a stacked propagator."""
    state = np.asarray(state, dtype=complex)
    cuts = [a] + sorted(e for e in {*pulse.support, pulse.t0} if a < e < b) + [b]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        m, w = _step(prop, hi - lo)
        state = _next_state(m, state, pulse.amplitude(lo + (hi - lo) * _STEP_NODES), w)
    return state


def _marches(prop, pulse: PulseShape, grid, phi, start=None):
    """States at every point of a uniform grid, from ``start`` at grid[0]
    (rest when None): one (len(grid), k) array per row of the stacked
    propagator ``prop``.

    ``phi`` holds the pulse on every step's Gauss nodes; a step that holds
    a pulse edge or the center is driven by ``_advance`` instead.  The rows
    share the step's map and weights and those edge steps; each row's
    forcing and recursion (``numerics.affine_march``) are its own.
    """
    h = (grid[-1] - grid[0]) / (len(grid) - 1)
    m, w = _step(prop, h)
    k = prop.size
    edges = [
        i for i in set(np.searchsorted(grid, [*pulse.support, pulse.t0]) - 1)
        if 0 <= i < len(grid) - 1
    ]
    driven = [_advance(prop, pulse, np.zeros(k), grid[i], grid[i + 1]) for i in edges]
    for row in range(len(w[0])):
        # plain einsum: a BLAS product would start a thread pool in every
        # worker of a sweep
        force = np.array([np.einsum("sn,n->s", phi, w[a][row]) for a in range(k)]).T
        for i, state in zip(edges, driven):
            force[i] = state[row]
        yield numerics.affine_march([[e[row] for e in r] for r in m], force, start)

