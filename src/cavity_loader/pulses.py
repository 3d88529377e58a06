"""Baseband temporal pulse shapes for single-photon drives.

Every simulation in this package is driven by a normalized complex
envelope Phi_b(t) (the optical carrier is factored out).  A pulse knows
its effective width T, its center/reference time t0 and a finite support
window outside which it evaluates to exactly zero, so quadrature and ODE
windows can be chosen mechanically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numerics

__all__ = [
    "PulseShape",
    "make_sech",
    "make_named",
    "make_zero",
    "frequency_shifted",
]

# sech support cutoff |t - t0| <= _SECH_CUTOFF * T; tail norm 1 - tanh(20) ~ 4e-18
_SECH_CUTOFF = 5.0
# one-sided exponential cutoff in units of T; tail norm e^{-32} ~ 1.3e-14
_EXP_CUTOFF = 16.0
# the routes' longest windows span ~20 widths (an exponential's tail and a
# horizon of 5 widths): a width whose 64-fold overflows leaves them no room
MAX_WIDTH = 1.7976931348623157e308 / 64.0


@dataclass(frozen=True)
class PulseShape:
    """Normalized complex baseband envelope with finite support.

    Attributes
    ----------
    kind : str
        Family tag ("sech", "rectangular", ... or a derived tag).
    T : float
        Effective width in time units (NaN for the zero pulse).
    t0 : float
        Center or reference time of the envelope.
    support : (float, float)
        Window outside which ``amplitude`` returns exactly 0.
    """

    kind: str
    T: float
    t0: float
    support: tuple[float, float]
    _func: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def amplitude(self, t):
        """Evaluate Phi_b(t); accepts scalars or arrays, zero off support."""
        lo, hi = self.support
        if isinstance(t, float):  # numpy's float64 too
            # the ODE right-hand sides call this at every step; skip the
            # array conversion and the masking
            return complex(self._func(t)) if lo <= t <= hi else 0.0 + 0.0j
        t_arr = np.asarray(t, dtype=float)
        if t_arr.ndim == 0:
            return self.amplitude(float(t_arr))
        inside = (t_arr >= lo) & (t_arr <= hi)
        out = np.zeros(t_arr.shape, dtype=complex)
        if inside.any():
            out[inside] = self._func(t_arr[inside])
        return out

    def norm_squared(self) -> float:
        """Adaptive quadrature of |Phi_b|^2 over the support."""
        lo, hi = self.support
        if not hi > lo:
            return 0.0
        val = numerics.quad1(
            lambda t: np.abs(self.amplitude(t)) ** 2,
            (lo, hi),
            breakpoints=(self.t0,),
        )
        return float(val.real)


def make_sech(T: float, t0: float) -> PulseShape:
    """Hyperbolic-secant envelope sqrt(2/T)*sech(4(t-t0)/T).

    The tails are truncated at |t - t0| = 5T (discarded norm ~4e-18) and
    the envelope is renormalized over the retained window.
    """
    _check_width(T, "sech")
    # exact norm over the truncated window: tanh(4*cutoff)
    renorm = 1.0 / math.sqrt(math.tanh(4.0 * _SECH_CUTOFF))
    amp = math.sqrt(2.0 / T) * renorm

    def func(t):
        return amp / np.cosh(4.0 * (t - t0) / T) + 0.0j

    return PulseShape(
        kind="sech",
        T=T,
        t0=t0,
        support=(t0 - _SECH_CUTOFF * T, t0 + _SECH_CUTOFF * T),
        _func=func,
    )


def make_named(kind: str, T: float, t0: float) -> PulseShape:
    """Construct a unit-norm pulse of a named family with width T.

    Families: "sech"; "rectangular" (height 1/sqrt(T) on
    [t0 - T/2, t0 + T/2]); "exp_decaying" (sqrt(2/T) e^{-(t-t0)/T} for
    t >= t0); "exp_rising" (its time mirror, nonzero for t <= t0);
    "zero".
    """
    if kind == "sech":
        return make_sech(T, t0)
    if kind == "zero":
        return make_zero(T, t0)
    _check_width(T, kind)
    if kind == "rectangular":
        height = 1.0 / math.sqrt(T)

        def func(t):
            return np.full(np.shape(t), height, dtype=complex)

        return PulseShape(
            kind="rectangular",
            T=T,
            t0=t0,
            support=(t0 - T / 2.0, t0 + T / 2.0),
            _func=func,
        )
    if kind in ("exp_decaying", "exp_rising"):
        sign = -1.0 if kind == "exp_decaying" else 1.0
        # norm over the truncated one-sided window: 1 - e^{-2*cutoff}
        renorm = 1.0 / math.sqrt(1.0 - math.exp(-2.0 * _EXP_CUTOFF))
        amp = math.sqrt(2.0 / T) * renorm

        def func(t):
            return amp * np.exp(sign * (np.asarray(t) - t0) / T) + 0.0j

        support = (
            (t0, t0 + _EXP_CUTOFF * T)
            if kind == "exp_decaying"
            else (t0 - _EXP_CUTOFF * T, t0)
        )
        return PulseShape(kind=kind, T=T, t0=t0, support=support, _func=func)
    raise ValueError(f"unknown pulse kind {kind!r}")


def make_zero(T: float = math.nan, t0: float = 0.0) -> PulseShape:
    """The identically-zero drive (no photon); width is undefined."""

    def func(t):
        return np.zeros(np.shape(t), dtype=complex)

    return PulseShape(kind="zero", T=T, t0=t0, support=(t0, t0), _func=func)


def frequency_shifted(pulse: PulseShape, delta_omega: float) -> PulseShape:
    """Shift the pulse's carrier by +delta_omega.

    The baseband envelope picks up a phase e^{-i delta_omega t}; norm,
    support and width are unchanged.  ValueError when that phase is not
    finite on the support.
    """
    if not math.isfinite(delta_omega * max(map(abs, pulse.support))):
        raise ValueError(f"the carrier shift {delta_omega!r} overflows the phase on the support")
    base = pulse._func

    def func(t):
        # t is a float or a float array (``PulseShape.amplitude``)
        return base(t) * np.exp(-1j * delta_omega * t)

    return PulseShape(
        kind=pulse.kind + "+carrier",
        T=pulse.T,
        t0=pulse.t0,
        support=pulse.support,
        _func=func,
    )


def _check_width(T: float, kind: str) -> None:
    if not (isinstance(T, (int, float)) and math.isfinite(T) and T > 0):
        raise ValueError(f"pulse width must be positive and finite, got {T!r}")
    # the peak amplitude: sqrt(2/T) for sech and the exponentials, infinite
    # for a subnormal T, and 1/sqrt(T), finite for every T > 0, for the rectangle
    if kind != "rectangular" and not math.isfinite(2.0 / T):
        raise ValueError(f"pulse width is too small: sqrt(2/T) overflows for T = {T!r}")
    if T > MAX_WIDTH:
        raise ValueError(f"pulse width is too large: its windows overflow for T = {T!r}")
