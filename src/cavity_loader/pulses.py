"""Baseband temporal pulse shapes for single-photon drives.

Every simulation in this package is driven by a normalized complex
envelope Phi_b(t) (the optical carrier is factored out).  A pulse is the
value of its parameters: its family, effective width T, center/reference
time t0 and carrier offset.  Equal parameters give equal, hashable
pulses.  From the parameters a pulse derives its envelope and a finite
support window outside which it evaluates to exactly zero, so quadrature
and ODE windows can be chosen mechanically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

__all__ = [
    "PulseShape",
    "make_sech",
    "make_named",
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

    Families: "sech" (sqrt(2/T) sech(4(t - t0)/T), cut at |t - t0| = 5T
    and renormalized over the window); "rectangular" (height 1/sqrt(T)
    on [t0 - T/2, t0 + T/2]); "exp_decaying" (sqrt(2/T) e^{-(t-t0)/T}
    for t >= t0, cut at 16T); "exp_rising" (its time mirror, nonzero for
    t <= t0); "zero" (no photon; any T).  ValueError for another kind or,
    unless the pulse is zero, a width that is not positive and finite or
    whose envelope or windows overflow.

    Attributes
    ----------
    kind : str
        Family tag.
    T : float
        Effective width in time units (NaN for the zero pulse).
    t0 : float
        Center or reference time of the envelope.
    carrier : float
        Carrier offset: the envelope carries the phase e^{-i carrier t}.
    support : (float, float)
        Window outside which ``amplitude`` returns exactly 0; derived, as
        the envelope is, and not part of equality.
    """

    kind: str
    T: float
    t0: float
    carrier: float = 0.0
    support: tuple[float, float] = field(init=False, compare=False)
    _func: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        support, func = _envelope(self.kind, self.T, self.t0)
        if self.carrier:
            base, carrier = func, self.carrier

            def func(t):
                # t is a float or a float array (``amplitude``)
                return base(t) * np.exp(-1j * carrier * t)

        object.__setattr__(self, "support", support)
        object.__setattr__(self, "_func", func)

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


def _envelope(kind: str, T: float, t0: float):
    """(support, envelope function) of a family with width T and center t0."""
    if kind == "zero":
        return (t0, t0), lambda t: np.zeros(np.shape(t), dtype=complex)
    _check_width(T, kind)
    if kind == "sech":
        # exact norm over the truncated window: tanh(4*cutoff)
        renorm = 1.0 / math.sqrt(math.tanh(4.0 * _SECH_CUTOFF))
        amp = math.sqrt(2.0 / T) * renorm

        def func(t):
            return amp / np.cosh(4.0 * (t - t0) / T) + 0.0j

        return (t0 - _SECH_CUTOFF * T, t0 + _SECH_CUTOFF * T), func
    if kind == "rectangular":
        height = 1.0 / math.sqrt(T)
        return (t0 - T / 2.0, t0 + T / 2.0), lambda t: np.full(np.shape(t), height, dtype=complex)
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
        return support, func
    raise ValueError(f"unknown pulse kind {kind!r}")


def make_sech(T: float, t0: float) -> PulseShape:
    """Hyperbolic-secant envelope sqrt(2/T)*sech(4(t-t0)/T).

    The tails are truncated at |t - t0| = 5T (discarded norm ~4e-18) and
    the envelope is renormalized over the retained window.
    """
    return PulseShape("sech", T, t0)


def make_named(kind: str, T: float, t0: float) -> PulseShape:
    """Construct a unit-norm pulse of a named family with width T (the
    families are listed on ``PulseShape``)."""
    return PulseShape(kind, T, t0)


def frequency_shifted(pulse: PulseShape, delta_omega: float) -> PulseShape:
    """Shift the pulse's carrier by +delta_omega.

    The baseband envelope picks up a phase e^{-i delta_omega t}; norm,
    support and width are unchanged.  ValueError when the phase of the
    shifted carrier is not finite on the support.
    """
    carrier = pulse.carrier + delta_omega
    if not math.isfinite(carrier * max(map(abs, pulse.support))):
        raise ValueError(f"the carrier shift {delta_omega!r} overflows the phase on the support")
    return replace(pulse, carrier=carrier)


def _check_width(T: float, kind: str) -> None:
    if not (isinstance(T, (int, float)) and math.isfinite(T) and T > 0):
        raise ValueError(f"pulse width must be positive and finite, got {T!r}")
    # the peak amplitude: sqrt(2/T) for sech and the exponentials, infinite
    # for a subnormal T, and 1/sqrt(T), finite for every T > 0, for the rectangle
    if kind != "rectangular" and not math.isfinite(2.0 / T):
        raise ValueError(f"pulse width is too small: sqrt(2/T) overflows for T = {T!r}")
    if T > MAX_WIDTH:
        raise ValueError(f"pulse width is too large: its windows overflow for T = {T!r}")
