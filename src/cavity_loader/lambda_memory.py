"""Loading a Lambda-level trapped atom: full dynamics and reductions.

The cavity photon drives |g> -> |r> with vacuum Rabi coupling g_c while a
classical control field of Rabi frequency Omega(t) (and optional phase
ramp phi_z) connects |r> to the metastable target |e>.  The full
three-amplitude equations of motion are

    d(beta)/dt = -i g_c c_r - i sqrt(2 kappa) Phi_b(t) - kappa beta
    d(c_r)/dt  = -i g_c beta + i Delta1 c_r - i Omega(t) c_e - gamma_r c_r
    d(c_e)/dt  = -i Omega(t) c_r - i (Delta2 - Delta1 + dphi_z/dt) c_e.

For detunings large compared to the couplings, the far-detuned upper
state follows the others adiabatically and the system reduces to an
effective two-level problem with coupling g_c Omega(t) / Delta1, which
is what makes both loading schemes analyzable:

* non-adiabatic: constant control switched off at the instant the
  target population peaks, freezing the Rabi oscillation;
* adiabatic passage: a shaped control that keeps the system in the
  dark state while the photon enters the cavity (requires kappa T >= 4),
  at two-photon resonance (tpr) or zero effective detuning (zed).

``LambdaParams`` holds a constant control; a time-dependent Omega(t) and
phase ramp dphi_z/dt enter only the oracle ``full_ode``, as its arguments.

The non-adiabatic scheme has the effective two-level closed form; its
trajectory writer (``nonadiabatic_trajectory``) eliminates nothing: it
steps the full system exactly on each side of the switch-off, which by
default is the exact peak of |c_e|^2 under the control-on propagator.  The
adiabatic schemes' reduced equations have time-varying coefficients and
run on fixed-step classic Runge-Kutta (RK4, ``_adiabatic_reduced_run``):
each sub-step is an affine map of (beta, c_e), the couplings of a batch
share the control and the pulse on the sub-step nodes, and each run's
maps go through the banded solver ``numerics.affine_march`` that every
exact stepping uses too.  ``full_ode`` (DOP853, nothing eliminated) and,
in the tests, an adaptive DOP853 run of the reduced equations are the
oracles.

Throughout, the constant light shift imprinted on the cavity leg is
assumed compensated by pre-shifting the input photon's carrier by
g_c^2 / Delta1 (see ``compensated_pulse``); populations are reported in
that convention.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from . import numerics
from .numerics import OdeSystem
from .pulses import PulseShape, frequency_shifted, make_sech
from .two_level import Trajectory, _drive_max_step, _peak, _Propagator, _stepped

__all__ = [
    "LambdaParams",
    "ReducedParams",
    "DarkBright",
    "full_ode",
    "nonadiabatic_trajectory",
    "reduce",
    "stark_compensation",
    "compensated_pulse",
    "nonadiabatic_load",
    "nonadiabatic_amplitude",
    "adiabatic_control_pulse",
    "adiabatic_load",
    "adiabatic_offset_scan",
    "zed_phase_rate",
    "dark_bright_decompose",
]

# adiabatic elimination is trusted when the detuning exceeds the couplings
# (and gamma_r) by at least this factor
VALIDITY_RATIO = 10.0


@dataclass(frozen=True)
class LambdaParams:
    """Rates of the Lambda system (1/time units), with a constant control
    Omega = ``omega`` and no control phase ramp."""

    g_c: float
    kappa: float
    delta1: float
    delta2: float
    omega: float = 0.0
    gamma_r: float = 0.0

    def __post_init__(self):
        for name in ("g_c", "kappa", "delta1", "delta2", "gamma_r", "omega"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            # stark_compensation, reduce and compensated_pulse square these
            if name in ("g_c", "omega") and not math.isfinite(value * value):
                raise ValueError(f"{name} is too large to square, got {value!r}")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        for name in ("g_c", "gamma_r", "omega"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class ReducedParams:
    """Effective two-level quantities after adiabatic elimination of |r>.

    ``g_eff``, ``delta_eff`` and ``gamma_eff`` are the effective coupling,
    detuning and decay; ``drive_decay_rate`` is the g_c^2 gamma_r / Delta1^2
    damping the loading inherits from the upper state.
    """

    g_eff: float
    Gamma_r: complex
    delta_eff: float
    gamma_eff: float
    drive_decay_rate: float
    valid_regime: bool


@dataclass(frozen=True)
class DarkBright:
    theta: float
    d_amp: complex
    b_amp: complex
    r_amp: complex


def full_ode(
    p: LambdaParams,
    pulse: PulseShape,
    grid,
    breakpoints: Sequence[float] = (),
    rtol: float = numerics.DEFAULT_RTOL,
    atol: float = numerics.DEFAULT_ATOL,
    *,
    omega: Callable[[float], float] | None = None,
    phi_z_dot: Callable[[float], float] | None = None,
) -> Trajectory:
    """Integrate the full three-amplitude system from the vacuum state.

    Adaptive DOP853, independent of the exact stepping: the oracle of
    ``nonadiabatic_trajectory`` and of the reductions; no command calls
    it.  Its error control alone resolves the c_r rotation at Delta1: at
    the default tolerances it is within 3e-10 of the exact writer at
    detuning ratios 12 and 24.  A map t -> Omega(t), ``omega``, replaces
    ``p.omega``, and ``phi_z_dot`` adds a control phase ramp dphi_z/dt.
    ``breakpoints`` lists times where the control is discontinuous (e.g.
    the switch-off of a step control) so the integrator never steps
    across them.
    """
    grid = np.asarray(grid, dtype=float)
    t_start = min(float(grid[0]), pulse.support[0])
    d1, d2 = p.delta1, p.delta2
    kappa, gamma_r = p.kappa, p.gamma_r
    c_g, c_d1 = -1j * p.g_c, 1j * d1
    c_drive = 1j * math.sqrt(2.0 * kappa)
    # the control and the target's rotation; a time-dependent control or
    # phase ramp is evaluated at every call, a constant one once here
    c_om = None if omega else 1j * p.omega
    c_rot = None if phi_z_dot else 1j * (d2 - d1)

    def rhs(t, y):
        # as in two_level.amplitude_ode: precomputed coefficients applied
        # term by term, in the equations' order, on Python complex numbers
        beta, cr, ce = y.tolist()
        om = c_om if c_om is not None else 1j * omega(t)
        rot = c_rot if c_rot is not None else 1j * (d2 - d1 + phi_z_dot(t))
        return np.array(
            [
                c_g * cr - c_drive * pulse.amplitude(t) - kappa * beta,
                c_g * beta + c_d1 * cr - om * ce - gamma_r * cr,
                -om * cr - rot * ce,
            ]
        )

    system = OdeSystem(3, rhs, np.zeros(3, dtype=complex), (t_start, float(grid[-1])))
    max_step = _drive_max_step(pulse, t_start, float(grid[-1]))
    states = numerics.integrate(
        system, grid, rtol=rtol, atol=atol, max_step=max_step, breakpoints=breakpoints
    )
    return Trajectory(
        times=grid,
        amplitudes={"beta": states[:, 0], "c_r": states[:, 1], "c_e": states[:, 2]},
    )


@dataclass(frozen=True)
class _LambdaPropagator:
    """exp(A s), by ``scipy.linalg.expm``, for the drive-free matrix A of
    (beta, c_r, c_e) under a constant control: ``full_ode``'s right-hand
    side term by term.  ``max_step`` is 1 / the largest |eigenvalue| of A,
    so that the steps' Gauss rule resolves the fastest rotation (c_r's,
    about Delta1)."""

    size = 3
    kappa: float
    a: np.ndarray
    max_step: float

    @classmethod
    def of(cls, p: LambdaParams) -> "_LambdaPropagator":
        c_g, c_om, c_rot = -1j * p.g_c, -1j * p.omega, -1j * (p.delta2 - p.delta1)
        a = np.array([[-p.kappa, c_g, 0], [c_g, 1j * p.delta1 - p.gamma_r, c_om], [0, c_om, c_rot]])
        # LinAlgError, a ValueError, where an entry of A overflows
        rate = float(np.abs(np.linalg.eigvals(a)).max())
        if not rate < math.inf:
            raise ValueError(f"the rates of {p} overflow the three-level propagator")
        # a Python division: rates that underflow leave the steps uncapped
        return cls(p.kappa, a, 1.0 / rate)

    def matrix(self, s):
        m = expm(self.a * np.asarray(s)[..., None, None])
        return np.moveaxis(m, (-2, -1), (0, 1))  # entry first


def nonadiabatic_trajectory(
    p: LambdaParams, pulse: PulseShape, times, t_load: float | None = None
) -> Trajectory:
    """(beta, c_r, c_e) at ``times``, nothing eliminated, for the control
    ``p.omega`` up to ``t_load`` and zero after it: on each side the
    system is linear and time-invariant, and steps its propagator exactly
    (``two_level._stepped``), the off side from the state at the switch.
    A t_load before the scan start, min(0, pulse start), or after the last
    time leaves the control off or on throughout.  ``t_load`` None
    switches off at the exact peak of |c_e|^2 under the control-on
    propagator from the scan start to max(times) (``two_level._peak``).
    ``full_ode`` is the oracle."""
    times = np.asarray(times, dtype=float)
    on, off = _LambdaPropagator.of(p), _LambdaPropagator.of(replace(p, omega=0.0))
    begin, end = min(0.0, pulse.support[0]), float(times.max())
    if t_load is None:
        # no peak to search when every time is at or before the scan start
        t_load = _peak([on], pulse, end)[0][0] if end > begin else begin
    if math.isnan(t_load):
        raise ValueError("t_load must be a number, got nan")
    switch = min(max(t_load, begin), end)
    early = times <= switch
    states = np.empty((times.size, 3), dtype=complex)
    at_switch = _stepped(on, pulse, np.append(times[early], switch))
    states[early] = at_switch[:-1]
    states[~early] = _stepped(off, pulse, times[~early], switch, at_switch[-1])
    beta, c_r, c_e = states.T
    return Trajectory(times=times, amplitudes={"beta": beta, "c_r": c_r, "c_e": c_e})


def reduce(p: LambdaParams) -> ReducedParams:
    """Adiabatically eliminate the upper state.

    Valid for detunings much larger than the couplings; warns when Delta1
    is below 10x max(g_c, Omega, gamma_r).  A rate is infinite only where
    its exact value is past the float range.
    """
    if p.delta1 == 0:
        raise ValueError("adiabatic elimination requires a nonzero Delta1")
    g_c, gamma_r, om, d1 = p.g_c, p.gamma_r, p.omega, p.delta1
    scale = max(g_c, om, gamma_r)
    valid = abs(d1) >= VALIDITY_RATIO * scale
    if not valid:
        warnings.warn(
            "adiabatic elimination outside its validity regime: "
            f"|Delta1| = {abs(d1):.3g} < {VALIDITY_RATIO} x max(g_c, Omega, gamma_r) = "
            f"{VALIDITY_RATIO * scale:.3g}",
            stacklevel=2,
        )
    delta_eff = (g_c**2 - om**2) / d1 + p.delta1 - p.delta2
    if math.isinf(delta_eff):
        # the light shift alone may overflow where the sum does not; halved,
        # it overflows only where the sum does (|Delta1| < 1 there)
        delta_eff = 2.0 * ((g_c**2 - om**2) / 2.0 / d1 + (p.delta1 / 2.0 - p.delta2 / 2.0))
    return ReducedParams(
        g_eff=g_c * om / d1,
        Gamma_r=complex(1.0 + 1j * gamma_r / d1),
        delta_eff=delta_eff,
        # g_eff * gamma_r * (Omega/g_c - g_c/Omega) / Delta1, written in the
        # cancelled form that stays finite as Omega -> 0
        gamma_eff=_over_square(gamma_r, om**2 - g_c**2, d1),
        drive_decay_rate=_over_square(g_c**2, gamma_r, d1),
        valid_regime=valid,
    )


def _over_square(x: float, y: float, d: float) -> float:
    """x y / d**2 for a nonzero d, overflowing only where the result does:
    x y / d / d where d**2 overflows or underflows to zero (|d| above
    ~1.3e154 or below ~1.6e-162), on which the float power or the
    division would raise, and x / d * (y / d) where x y overflows."""
    xy = x * y
    if math.isinf(xy):
        return x / d * (y / d)
    try:
        return xy / d**2
    except (OverflowError, ZeroDivisionError):
        return xy / d / d


def stark_compensation(p: LambdaParams) -> float:
    """Delta2 that zeroes the effective detuning."""
    if p.delta1 == 0:
        raise ValueError("stark compensation requires a nonzero Delta1")
    delta2 = (p.g_c**2 - p.omega**2) / p.delta1 + p.delta1
    if not math.isfinite(delta2):
        raise ValueError(f"the Stark-compensating Delta2 of {p} overflows")
    return delta2


def compensated_pulse(pulse: PulseShape, p: LambdaParams) -> PulseShape:
    """Input pulse with its carrier pre-shifted by the cavity-leg light shift.

    Shifting the photon's center frequency by g_c^2 / Delta1 cancels the
    constant phase the reduction imprints on the cavity amplitude; the
    reduced models assume this has been done, so full-system runs should
    be driven with the pulse returned here.  ValueError when the shift,
    or its phase over the pulse support, is not finite.
    """
    if p.delta1 == 0:
        raise ValueError("light-shift compensation requires a nonzero Delta1")
    return frequency_shifted(pulse, p.g_c**2 / p.delta1)


def nonadiabatic_amplitude(p: LambdaParams, pulse: PulseShape, t: float) -> complex:
    """Target-state amplitude at time t (control still on) for constant Omega.

    Uses the effective two-level closed form after eliminating |r>: complex
    coupling g_eff / Gamma_r, rates gamma_eff and delta_eff, and the drive
    decay as extra damping; so |.|^2 is the loading probability.
    """
    if p.omega <= 0:
        return 0.0 + 0.0j
    red = reduce(p)
    gamma_prime = complex(red.gamma_eff, -red.delta_eff)
    g_amp = complex(red.g_eff) / red.Gamma_r
    prop = _Propagator.from_rates(p.kappa, gamma_prime, g_amp, red.drive_decay_rate)
    return prop.amplitudes_at(pulse, t)[1]


def nonadiabatic_load(
    p: LambdaParams,
    pulse: PulseShape,
    t_load: float,
) -> float:
    """Loading probability |c_e(T_Load)|^2 for the step-control scheme.

    The control is constant up to ``t_load`` and zero afterwards; the
    target amplitude is frozen at switch-off, so the value at t_load is
    the final loading probability.
    """
    return float(abs(nonadiabatic_amplitude(p, pulse, t_load)) ** 2)


def adiabatic_control_pulse(g_c: float, kappa: float, T: float, t):
    """Dark-state control amplitude matched to a sech input of width T.

    ``t`` is measured from the input pulse center.  Finite positive for
    all finite t when kappa T > 4; at kappa T = 4 the amplitude diverges
    as t -> -infinity.  kappa T < 4 is rejected: no positive real control
    can impedance-match a shorter pulse.
    """
    kT = kappa * T
    if kT < 4.0:
        raise ValueError(f"adiabatic control requires kappa*T >= 4, got {kT:.4g}")
    x = np.clip(np.asarray(t, dtype=float) * 4.0 / T, -350.0, 350.0)
    # sech(x)/sqrt(1+tanh(x)) = sqrt(2)/sqrt(e^{2x}+1), stable for x << 0
    with np.errstate(divide="ignore"):
        val = g_c * math.sqrt(2.0) / np.sqrt(
            (np.exp(2.0 * x) + 1.0) * (np.tanh(x) + kT / 2.0 - 1.0)
        )
    return val if np.ndim(t) else float(val)


def zed_phase_rate(
    p: LambdaParams, T: float, t_center: float = 0.0
) -> Callable[[float], float]:
    """Analytic control phase ramp that zeroes the effective detuning,
    for ``full_ode``'s ``phi_z_dot``.

    dphi_z/dt = Delta1 - Delta2 + (g_c^2 - Omega^2(t)) / Delta1 with the
    dark-state control of ``adiabatic_control_pulse`` centered at
    ``t_center``; ``p.omega`` is not read.
    """
    g_c, kappa, d1, d2 = p.g_c, p.kappa, p.delta1, p.delta2

    def rate(t):
        om = adiabatic_control_pulse(g_c, kappa, T, np.asarray(t) - t_center)
        return d1 - d2 + (g_c**2 - om**2) / d1

    return rate


# the adiabatic runs' RK4 sub-steps: at most this many per pulse width, and
# at most this many whose maps are built together
_RK4_STEPS_PER_WIDTH = 200
_RK4_BLOCK = 4096
# at most this many stability-limited steps across a run (~0.1 s): the
# tests, figure presets and benchmark requests need at most ~4800, while
# the bound asks for millions as kappa T -> 4, where the control's maximum
# diverges
_RK4_STEP_BUDGET = 200_000


def _adiabatic_reduced_run(
    g_prime,
    kappa: float,
    T: float,
    detuned: bool,
    grid=None,
    control_offset: float = 0.0,
) -> Trajectory:
    """Reduced-model adiabatic run for a sech input of width T centered at T.

    ``detuned`` selects the two-photon-resonance variant, which keeps the
    light shifts g' and g' Omega'^2 on the diagonal (the dark state stays
    at zero energy, resonant with the raw drive).  The zero-effective-
    detuning variant cancels the shift between the two levels with the
    phase ramp and assumes the drive carrier has been pre-shifted to
    match, leaving a resonant two-level pair.

    ``g_prime`` is a number, for one run, or an array of couplings, one run
    each: the amplitudes then carry its shape ahead of the time axis.

    The production route: classic fourth-order Runge-Kutta with fixed
    steps, each output interval split into n_sub equal sub-steps no longer
    than T/200 and inside the scheme's stability interval for the fastest
    rate of the pair.  Each sub-step is an affine map of (beta, c_e)
    (``_rk4_maps``).  Runs with the same n_sub share the control and the
    pulse on the sub-step nodes, taken ``_RK4_BLOCK`` sub-steps at a time;
    each run builds its maps of a block and solves them in one
    ``numerics.affine_march``, its state carried into the next block.  No
    block depends on the other runs, so a run gives the same bits in any
    batch.  The oracles are an adaptive DOP853 run of the same equations
    (in the tests) and ``full_ode`` without the elimination.
    """
    pulse = make_sech(T, T)
    if grid is None:
        # until four widths past the pulse center (or the shifted control)
        grid = np.linspace(pulse.support[0], T + 4.0 * T + max(control_offset, 0.0), 1201)
    else:
        grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("output grid must be strictly increasing, with two points or more")
    dt = np.diff(grid)
    g_prime = np.asarray(g_prime, dtype=float)

    def omega_unit(t):
        # control amplitude in units of g_c, shifted to the pulse frame
        return adiabatic_control_pulse(1.0, kappa, T, t - T - control_offset)

    # the control falls with t: its largest value, and the fastest rate
    # rho of the pair, are at the first grid point; the sign of g' is only
    # the sign of c_e
    om_max = omega_unit(grid[0])
    if not math.isfinite(om_max):
        raise numerics.OdeFailure("the adiabatic control is not finite", float(grid[0]))
    g_abs = np.abs(g_prime)
    # a rate past the float range is inf, not a warning
    with np.errstate(over="ignore"):
        rho = kappa + g_abs * om_max + (g_abs * (1.0 + om_max**2) if detuned else 0.0)
    if not np.isfinite(rho).all():
        rate = "kappa + g' Omega" + (" + g' (1 + Omega^2)" if detuned else "")
        message = f"the adiabatic run's fastest rate {rate} overflows at g' = {g_abs.max():.3g}"
        raise numerics.OdeFailure(f"{message}, Omega = {om_max:.3g}", float(grid[0]))
    # RK4 is stable on the imaginary axis up to |h lambda| = 2.8
    h_max = np.minimum(T / _RK4_STEPS_PER_WIDTH, 2.0 / rho)
    # Python division: a step count past the float range is inf, not a warning
    span = float(grid[-1] - grid[0])
    n_stable = np.ceil([span / h for h in np.ravel(h_max).tolist()])
    if np.any(n_stable > _RK4_STEP_BUDGET):
        raise numerics.OdeFailure(
            f"the adiabatic run needs {n_stable.max():.3g} RK4 steps to stay stable, "
            f"more than the budget of {_RK4_STEP_BUDGET}",
            float(grid[0]),
        )
    n_sub = np.ceil(float(dt.max()) / h_max).astype(int).ravel().tolist()
    couplings = g_prime.ravel().tolist()
    drive = -1j * math.sqrt(2.0 * kappa)
    amps = np.zeros((2, len(couplings), grid.size), dtype=complex)
    state = np.zeros((len(couplings), 2), dtype=complex)
    width = np.append(dt, 0.0)
    for steps in sorted(set(n_sub)):
        runs = [run for run, n in enumerate(n_sub) if n == steps]
        frac = np.arange(2 * steps) / (2 * steps)
        for lo in range(0, dt.size * steps, _RK4_BLOCK):
            hi = min(lo + _RK4_BLOCK, dt.size * steps)
            # the drive and the coupling at t, t + h/2 and t + h of sub-steps
            # lo .. hi - 1, as (output interval, fraction) pairs
            interval, part = np.divmod(np.arange(2 * lo, 2 * hi + 1), 2 * steps)
            nodes = grid[interval] + width[interval] * frac[part]
            h = dt[interval[:-1:2]] / steps
            om = omega_unit(nodes)
            om2 = om**2 if detuned else None
            force = drive * pulse.amplitude(nodes)
            # states[first] is the block's first state at an output point,
            # grid index ``point``
            first = steps - lo % steps
            point = (lo + first) // steps
            for run in runs:
                g = couplings[run]
                maps, vector = _rk4_maps(
                    h,
                    -kappa - 1j * g if detuned else -kappa,
                    -1j * g * om,
                    -1j * g * om2 if detuned else None,
                    force,
                )
                states = numerics.affine_march(maps, vector, state[run])
                state[run] = states[-1]
                kept = states[first::steps]
                amps[:, run, point : point + len(kept)] = kept.T
    shape = (2,) + g_prime.shape + grid.shape
    beta, c_e = amps.reshape(shape)
    return Trajectory(times=grid, amplitudes={"beta": beta, "c_e": c_e})


def _rk4_maps(h, a_bb: complex, a_be, a_ee, force):
    """One classic RK4 step of d(beta, c_e)/dt = A(t) (beta, c_e) + (force, 0)
    as the affine map y -> M y + v, for each step length in ``h``.

    A = [[a_bb, a_be], [a_be, a_ee]], with a_ee = None for zero; ``a_be``,
    ``a_ee`` and ``force`` hold 2 len(h) + 1 values, at the start, middle
    and end of each step (an end is the next step's start).  Returns the
    maps M, (len(h), 2, 2), and the vectors v, (len(h), 2).
    """
    # three steps side by side, whose results are the map's columns: from
    # (1, 0) and from (0, 1) undriven, and from rest driven
    y_b = np.array([[1.0], [0.0], [0.0]])
    y_e = np.array([[0.0], [1.0], [0.0]])

    def slope(k, yb, ye):
        s = slice(k, k + 2 * h.size, 2)
        k_b = a_bb * yb + a_be[s] * ye
        k_b[2] += force[s]
        k_e = a_be[s] * yb
        if a_ee is not None:
            k_e += a_ee[s] * ye
        return k_b, k_e

    def moved(step, k_b, k_e):
        # (y_b, y_e) + step (k_b, k_e), in place of new temporaries, in one
        # array so that the last step's maps are views of it
        y = np.empty((2,) + k_b.shape, dtype=complex)
        np.multiply(step, k_b, out=y[0])
        np.multiply(step, k_e, out=y[1])
        y[0][0] += 1.0
        y[1][1] += 1.0
        return y

    half = h / 2.0
    k1 = slope(0, y_b, y_e)
    k2 = slope(1, *moved(half, *k1))
    k3 = slope(1, *moved(half, *k2))
    k4 = slope(2, *moved(h, *k3))
    # (k1 + 2 k2 + 2 k3 + k4) h / 6
    total = [2.0 * k for k in k2]
    for acc, a, b, c in zip(total, k1, k3, k4):
        acc += a
        b *= 2.0
        acc += b
        acc += c
    m = moved(h / 6.0, *total)
    return m[:, :2].transpose(2, 0, 1), m[:, 2].T


def adiabatic_load(
    g_c: float, delta1: float, kappa: float, T: float, *, detuned: bool, grid=None
) -> tuple[Trajectory, float]:
    """Adiabatic passage of a sech input of width T centered at T, at
    two-photon resonance (``detuned``: Delta1 = Delta2, no ramp) or with
    the phase ramp that zeroes the effective detuning.

    Returns the reduced-model trajectory, with c_r reconstructed from the
    eliminated-state relation, and the settled loading probability
    |c_e|^2 at its last time: four widths past the pulse center (t = 5T)
    unless ``grid`` ends elsewhere.  Only the combination
    g' = g_c^2 / Delta1 matters for the populations.
    """
    if delta1 == 0:
        raise ValueError("adiabatic elimination requires a nonzero Delta1")
    traj = _adiabatic_reduced_run(g_c**2 / delta1, kappa, T, detuned=detuned, grid=grid)
    om = adiabatic_control_pulse(g_c, kappa, T, traj.times - T)
    traj.amplitudes["c_r"] = (
        g_c * traj.amplitudes["beta"] + om * traj.amplitudes["c_e"]
    ) / delta1
    return traj, float(traj.population("c_e")[-1])


def adiabatic_offset_scan(
    g_prime: float, kappa: float, T: float, offsets, *, detuned: bool
) -> np.ndarray:
    """Settled loading probability of the adiabatic scheme (``detuned`` as
    in ``adiabatic_load``) with the whole control shifted by each timing
    error in ``offsets``, one ``_adiabatic_reduced_run`` each."""
    runs = (
        _adiabatic_reduced_run(g_prime, kappa, T, detuned=detuned, control_offset=off)
        for off in np.asarray(offsets, dtype=float).tolist()
    )
    return np.array([run.population("c_e")[-1] for run in runs])


def dark_bright_decompose(
    g_amp: complex, e_amp: complex, omega: float, g_c: float, r_amp: complex = 0.0
) -> DarkBright:
    """Project (cavity, target) amplitudes onto the dark/bright basis."""
    omega0 = math.hypot(omega, g_c)
    if omega0 == 0.0:
        raise ValueError("dark/bright basis undefined for Omega = g_c = 0")
    cos_t = omega / omega0
    sin_t = g_c / omega0
    return DarkBright(
        theta=math.atan2(g_c, omega),
        d_amp=-cos_t * g_amp + sin_t * e_amp,
        b_amp=sin_t * g_amp + cos_t * e_amp,
        r_amp=complex(r_amp),
    )
