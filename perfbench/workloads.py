"""The benchmark's three workloads: seeded inputs, operations and checks.

A workload draws its inputs once from the seed and builds one *round*: a
fixed list of steps, each one call into the program that yields the
results of one or more operations (an optimum, a sweep cell or an
oracle value).  A run repeats the same round, so every run attempts
whole rounds of the same operations.  Each operation's result is
checked against ``references`` (numpy/scipy only) or against an
identity the method must satisfy; the ``*_check`` factories build those
checks from the inputs alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import references as ref

# |P_program - P_reference| allowed for a loading probability
TOL_P = 1e-6
# relative coupling step at which the reference must not beat the optimum
EPS_G = 0.02
# oracle tolerances: the bounds the package's own tests pin
TOL_FACTORIZATION = 1e-8
TOL_ANTISYMMETRIC = 1e-10
TOL_SPECTRAL = 1e-5
TOL_REDUCTION = 0.02  # acceptance criterion 9 at detuning ratios >= 10
TOL_CLOSED_FORM = 1e-6

PULSE_FAMILIES = ("sech", "rectangular", "exp_rising", "exp_decaying")
TWO_LEVEL_G_RANGE = (0.05, 10.0)  # optimize's default search range
ZED_G_RANGE = (0.2, 5.0)  # fig7
MITNU_G_RANGE = (0.1, 5.0)  # fig10
# the seed's jitter around design_points' fixed design, as a share of each range
JITTER = 0.02
# biphoton_surface grid: 3 x 3 cells, one round ~16 s on 2 CPUs
CELLS_PER_AXIS = 3


@dataclass
class Op:
    """One operation: its label and the check of its result.

    ``check(result)`` returns a list of problems, empty when it passes.
    """

    label: str
    check: Callable[[object], list]


@dataclass
class Step:
    """One call into the program; ``run()`` returns one result per op."""

    ops: list[Op]
    run: Callable[[], list]
    meta: dict = field(default_factory=dict)


def _close(name, got, want, tol) -> list:
    gap = abs(got - want)
    if not gap <= tol:  # also catches NaN
        return [f"{name}: {got!r} vs reference {want!r} (gap {gap:.3g} > {tol:g})"]
    return []


def _optimum_problems(label, g, P_max, g_range, p_at, p_peak) -> list:
    """The checks shared by every coupling optimum.

    ``p_at(g)`` is the reference probability at the reported load time,
    ``p_peak(g)`` the reference's peak over time at coupling g.
    """
    lo, hi = g_range
    if not lo < g < hi:
        return [f"{label}: g_opt {g!r} not strictly inside {g_range}"]
    problems = _close(f"{label} P at (g_opt, T_load)", P_max, p_at(g), TOL_P)
    problems += _close(f"{label} peak P at g_opt", P_max, p_peak(g), TOL_P)
    for factor in (1.0 - EPS_G, 1.0 + EPS_G):
        p_near = p_peak(g * factor)
        if p_near > P_max + TOL_P:
            problems.append(f"{label}: reference P {p_near!r} at g_opt*{factor} beats {P_max!r}")
    return problems


def two_level_check(kind, kT, gamma_over_g):
    """Check of a two-level (g_opt, P_max, T_load): kappa = 1, pulse centered at
    T, gamma = (gamma/g) g, peak over [min(0, window start), 5T]."""
    T = kT
    pulse = ref.Pulse(kind, T, T)
    horizon = 5.0 * T
    start = min(0.0, pulse.window[0])
    label = f"two_level {kind} kT={kT:.4g}"

    def check(result):
        g_opt, P_max, T_load = result
        if not start <= T_load <= horizon:
            return [f"{label}: T_load {T_load!r} outside [{start}, {horizon}]"]

        def p_at(g):
            sol = ref.two_level(g, pulse, horizon, gamma=gamma_over_g * g, t_start=start)
            return float(abs(sol(T_load)[1]) ** 2)

        def p_peak(g):
            return ref.two_level_peak(g, pulse, horizon, gamma=gamma_over_g * g)[1]

        return _optimum_problems(label, g_opt, P_max, TWO_LEVEL_G_RANGE, p_at, p_peak)

    return check


def zed_check(kT):
    """Check of a zed (g_opt, P_max, T_load): P is read at T_load = 5T."""
    label = f"lambda_adiabatic_zed kT={kT:.4g}"

    def p_ref(g):
        return ref.zed_probability(g, kT)[0]

    def check(result):
        g_opt, P_max, T_load = result
        problems = _close(f"{label} T_load", T_load, 5.0 * kT, 1e-9 * kT)
        return problems + _optimum_problems(label, g_opt, P_max, ZED_G_RANGE, p_ref, p_ref)

    return check


def mitnu_check(kT, kT0):
    """Check of one fig10 sweep row against the tensor-Gauss biphoton reference."""
    label = f"mitnu kT={kT:.4g} kT0={kT0:.4g}"

    def check(row):
        if row["error"] or row["kT"] != kT or row["kT0"] != kT0:
            return [f"{label}: bad row {row!r}"]
        T_load = row["T_load"]

        def p_at(g):
            return abs(ref.spdc_cee(g, kT, kT0, T_load)) ** 2

        def p_peak(g):
            return ref.spdc_peak(g, kT, kT0, T_load, 0.5 * kT)[1]

        return _optimum_problems(label, row["g_opt"], row["P_max"], MITNU_G_RANGE, p_at, p_peak)

    return check


def factorization_check(g, gamma, delta, pulse_args, t):
    """c_ee of a symmetrised product equals c_e(Phi_1) c_e(Phi_2) (references)."""

    def check(value):
        c1, c2 = (
            ref.two_level(g, ref.Pulse("sech", T, t0), t, gamma=gamma, delta=delta)(t)[1]
            for T, t0 in pulse_args
        )
        return _close("symmetrised c_ee", value, c1 * c2, TOL_FACTORIZATION)

    return check


def antisymmetric_check(value):
    """c_ee of an antisymmetrised product vanishes: the kernel pair is symmetric."""
    return _close("antisymmetrised c_ee", value, 0.0, TOL_ANTISYMMETRIC)


def spectral_check(g, T, t):
    """The spectral amplitude of a sech pulse equals the time-domain reference."""

    def check(value):
        want = ref.two_level(g, ref.Pulse("sech", T, T), t)(t)[1]
        return _close("spectral_amplitude", value, want, TOL_SPECTRAL)

    return check


def reduction_check(gap):
    """max |c_e| gap between full_ode and the adiabatic-elimination closed form."""
    if gap <= TOL_REDUCTION:
        return []
    return [f"full_ode vs reduction: gap {gap!r} > {TOL_REDUCTION}"]


def closed_form_check(kind, g, gamma, delta, T, t, cache):
    """(beta, c_e) of the closed form equal the reference ODE's at time t.

    ``cache`` shares one reference trajectory among the times of a pulse.
    """
    key = (kind, g, gamma, delta, T)

    def check(value):
        if key not in cache:
            cache[key] = ref.two_level(g, ref.Pulse(kind, T, T), 5.0 * T, gamma=gamma, delta=delta)
        beta, c_e = cache[key](t)
        return _close("closed form beta", value[0], beta, TOL_CLOSED_FORM) + _close(
            "closed form c_e", value[1], c_e, TOL_CLOSED_FORM
        )

    return check


def _near(rng, centre, half_width):
    return centre + rng.uniform(-half_width, half_width)


def _single(label, check, run, meta=None) -> Step:
    return Step([Op(label, check)], lambda: [run()], meta or {})


# --------------------------------------------------------------------------
# the workloads


def _read_optimum_csv(path: Path) -> tuple[float, float, float]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if len(rows) != 2 or rows[0] != ["g_opt", "P_max", "T_load"]:
        raise ValueError(f"unexpected optimum CSV {rows!r}")
    g, p, t = (float(x) for x in rows[1])
    return g, p, t


def design_points(rng, pkg, workdir: Path, trace: bool) -> list[Step]:
    """Coupling optima requested through ``cli.main(["optimize", ...])``.

    Per pulse family, two two-level requests: log(kT/0.5)/log(40) at
    0.25 and 0.75 (kT ~ 1.26 and ~7.95 in [0.5, 20]) with gamma/g at 0.125
    and 0.375 (in [0, 0.5]); then one zed request at kT ~ 7.25 (in
    [4.5, 10]).  The seed moves each input by up to JITTER of its range.
    Draws over the whole ranges moved a round's cost by 15 % and the
    median request latency by 32 % between seeds, and wider jitter (0.05)
    still reordered the requests around the median.
    """
    requests = []
    for kind in PULSE_FAMILIES:
        for pos, gamma_over_g in ((0.25, 0.125), (0.75, 0.375)):
            kT = 0.5 * 40.0 ** _near(rng, pos, JITTER)
            gamma_over_g = _near(rng, gamma_over_g, 0.5 * JITTER)
            argv = ["--scenario", "two_level", "--kT", repr(kT),
                    "--gamma_over_g", repr(gamma_over_g), "--pulse", kind]
            requests.append((argv, two_level_check(kind, kT, gamma_over_g)))
    kT = _near(rng, 7.25, 5.5 * JITTER)
    argv = ["--scenario", "lambda_adiabatic_zed", "--kT", repr(kT),
            "--g_min", repr(ZED_G_RANGE[0]), "--g_max", repr(ZED_G_RANGE[1])]
    requests.append((argv, zed_check(kT)))

    steps = []
    for i, (argv, check) in enumerate(requests):
        out = workdir / f"optimum_{i}.csv"

        def run(argv=argv, out=out):
            out.unlink(missing_ok=True)
            code = pkg.cli.main(["optimize", *argv, "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"cavity-loader optimize exited {code}")
            return _read_optimum_csv(out)

        steps.append(_single("optimize " + " ".join(argv), check, run, {"argv": argv}))
    return steps


def biphoton_surface(rng, pkg, workdir: Path, trace: bool) -> list[Step]:
    """The mitnu optimum over a stratified (kT, kT0) grid in [2, 6]^2, as fig10.

    Each axis takes one uniform draw from each of CELLS_PER_AXIS equal
    strata, so the grid is strictly increasing and spans the range.  One
    step: ``optimize.sweep`` with the default worker count (one worker in
    the traced run, so every span lands in one process).
    """
    width = 4.0 / CELLS_PER_AXIS

    def axis():
        return tuple(float(2.0 + width * (i + rng.uniform())) for i in range(CELLS_PER_AXIS))

    kT_axis, kT0_axis = axis(), axis()
    spec = pkg.optimize.SweepSpec(
        scenario="mitnu",
        axes=(("kT", kT_axis), ("kT0", kT0_axis)),
        optimize_g=True,
        g_range=MITNU_G_RANGE,
    )
    ops = [
        Op(f"mitnu kT={kT:.4g} kT0={kT0:.4g}", mitnu_check(kT, kT0))
        for kT in kT_axis
        for kT0 in kT0_axis
    ]

    def run():
        return pkg.optimize.sweep(spec, workers=1 if trace else None)

    return [Step(ops, run, {"kT": kT_axis, "kT0": kT0_axis})]


def sech_spectrum(T, t0):
    """Exact Fourier transform of sqrt(2/T) sech(4(t - t0)/T), unit norm in nu."""

    def weight(nu):
        nu = np.asarray(nu, dtype=float)
        envelope = math.sqrt(math.pi * T) / 4.0 / np.cosh(math.pi * nu * T / 8.0)
        return envelope * np.exp(1j * nu * t0)

    return weight


def oracle_checks(rng, pkg, workdir: Path, trace: bool) -> list[Step]:
    """The independent slow routes, one value per step, run serially.

    * c_ee by the generic double quadrature ("quad2") for two symmetrised
      and two antisymmetrised products of sech pulses;
    * one spectral amplitude of a sech pulse;
    * full_ode against nonadiabatic_amplitude on a 40-point grid at
      detuning ratios near 12 and 24;
    * amplitude_closed_form at three times per pulse family.

    The seed jitters every input around a fixed design point: the cost
    of an adaptive quadrature changes by 2x across the wider ranges
    (measured: 0.8-1.7 s for one antisymmetrised c_ee), which would make
    the round's time depend on the seed.
    """
    pulses, two_level, el, lm = pkg.pulses, pkg.two_level, pkg.entangled_loading, pkg.lambda_memory
    steps = []

    for sign in (+1, -1, +1, -1):
        g, gamma, delta = _near(rng, 1.2, 0.05), _near(rng, 0.1, 0.05), _near(rng, 0.2, 0.2)
        T1, T2 = _near(rng, 2.0, 0.1), _near(rng, 1.6, 0.1)
        pulse_args = ((T1, T1), (T2, T2 + _near(rng, 0.25, 0.1)))
        t = _near(rng, 3.0, 0.1)
        params = two_level.TwoLevelParams(g=g, kappa=1.0, gamma=gamma, delta=delta)
        p1, p2 = (pulses.make_sech(*args) for args in pulse_args)

        def joint(tau, tau2, p1=p1, p2=p2, sign=sign):
            direct = p1.amplitude(tau) * p2.amplitude(tau2)
            swapped = p1.amplitude(tau2) * p2.amplitude(tau)
            if sign > 0:
                return 0.5 * (direct + swapped)
            return (direct - swapped) / math.sqrt(2.0)

        lo = min(p1.support[0], p2.support[0])
        hi = max(p1.support[1], p2.support[1])
        b = el.BiphotonAmplitude(joint=joint, support=(lo, hi, lo, hi), norm_constant=1.0)
        if sign > 0:
            label, check = "symmetrised", factorization_check(g, gamma, delta, pulse_args, t)
        else:
            label, check = "antisymmetrised", antisymmetric_check
        steps.append(_single(
            f"c_ee quad2 {label} sech T=({T1:.3g},{T2:.3g}) t={t:.3g}", check,
            lambda params=params, b=b, t=t: el.c_ee(params, b, t, method="quad2"),
        ))

    T, g = _near(rng, 2.0, 0.05), _near(rng, 1.0, 0.05)
    t = T + _near(rng, 1.0, 0.1)
    params = two_level.TwoLevelParams(g=g, kappa=1.0)
    steps.append(_single(
        f"spectral_amplitude sech T={T:.3g} t={t:.3g}", spectral_check(g, T, t),
        lambda params=params, T=T, t=t: two_level.spectral_amplitude(
            params, sech_spectrum(T, T), (-40.0 / T, 40.0 / T), t,
            origin=T - ref.SECH_CUTOFF * T,
        ),
    ))

    for centre in (12.0, 24.0):
        ratio = _near(rng, centre, 0.05 * centre)
        g_c = omega = 5.0
        d1 = ratio * g_c
        d2 = (g_c**2 - omega**2) / d1 + d1  # Stark compensation (lambda_memory docstring)
        p = lm.LambdaParams(g_c=g_c, kappa=1.0, delta1=d1, delta2=d2, omega=omega)
        pulse = pulses.make_sech(2.0, 2.0)
        grid = np.linspace(pulse.support[0], 10.0, 40)

        def run_full(p=p, pulse=pulse, grid=grid):
            full = np.abs(lm.full_ode(p, lm.compensated_pulse(pulse, p), grid).amplitudes["c_e"])
            red = np.array([abs(lm.nonadiabatic_amplitude(p, pulse, float(t))) for t in grid])
            return float(np.max(np.abs(full - red)))

        label = f"full_ode vs reduction ratio={ratio:.4g}"
        steps.append(_single(label, reduction_check, run_full))

    cache = {}
    for kind in PULSE_FAMILIES:
        g, gamma, delta = _near(rng, 1.0, 0.1), _near(rng, 0.25, 0.05), _near(rng, 0.0, 0.2)
        T = _near(rng, 2.0, 0.1)
        params = two_level.TwoLevelParams(g=g, kappa=1.0, gamma=gamma, delta=delta)
        pulse = pulses.make_named(kind, T, T)
        for position in (1.25, 2.0, 3.5):  # every time after each pulse's start
            t = T * _near(rng, position, 0.05)
            steps.append(_single(
                f"amplitude_closed_form {kind} T={T:.3g} t={t:.3g}",
                closed_form_check(kind, g, gamma, delta, T, t, cache),
                lambda params=params, pulse=pulse, t=t: tuple(
                    two_level.amplitude_closed_form(params, pulse, t)
                ),
            ))
    return steps


WORKLOADS = {
    "design_points": design_points,
    "biphoton_surface": biphoton_surface,
    "oracle_checks": oracle_checks,
}
