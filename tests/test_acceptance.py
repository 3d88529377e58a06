"""Acceptance suite: one test per stated criterion, one printed line each.

Each test computes its quantities, prints a single PASS/FAIL line with
the measured values, then asserts.  Tolerances are pinned here, not
configurable.  Criteria 3b, 8b and 12 assert published-figure anchors
that this implementation's (internally cross-validated) model does not
reach under its own pulse and source definitions; whether the paper
defines those differently cannot be told from its abstract alone.  They
are kept as stated rather than loosened, so a red result there is
expected and documented rather than hidden.  Criterion 2b takes its
reference from the bad-cavity limit, computed here independently of the
package.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import minimize_scalar

from cavity_loader import cli, entangled_loading as el, lambda_memory as lm
from cavity_loader import numerics, optimize, pulses, two_level
from cavity_loader.two_level import TwoLevelParams


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_c01_oracle_equivalence():
    # closed form vs direct integration over 200 randomized configurations
    rng = np.random.default_rng(20240817)
    kinds = ("sech", "rectangular", "exp_rising", "exp_decaying")
    worst = 0.0
    for _ in range(200):
        p = TwoLevelParams(
            g=rng.uniform(0.0, 5.0),
            kappa=1.0,
            gamma=rng.uniform(0.0, 1.0),
            delta=rng.uniform(-2.0, 2.0),
        )
        kT = rng.uniform(0.5, 20.0)
        pulse = pulses.make_named(kinds[rng.integers(0, 4)], kT, kT)
        grid = np.linspace(pulse.support[0] + 1e-9, 5.0 * kT, 12)
        traj = two_level.amplitude_ode(p, pulse, grid)
        for i, t in enumerate(grid):
            beta, ce = two_level.amplitude_closed_form(p, pulse, float(t))
            worst = max(
                worst,
                abs(abs(beta) - abs(traj.amplitudes["beta"][i])),
                abs(abs(ce) - abs(traj.amplitudes["c_e"][i])),
            )
    ok = worst <= 1e-6
    assert report("criterion 1", ok, f"worst |amplitude| deviation {worst:.3g} (limit 1e-6)")


def test_c02a_two_level_optimum_kt2():
    opt = optimize.optimize_coupling("two_level", {"kT": 2.0})
    ok = opt.P_max > 0.9
    assert report(
        "criterion 2a", ok, f"kT=2 optimum P_max={opt.P_max:.4f} at g/k={opt.g_opt:.3f} (need > 0.9)"
    )


def _bad_cavity_amplitude(x, u, phi):
    """Atom amplitude with the cavity adiabatically eliminated (kappa*T >> 1).

    Setting d(beta)/dt = 0 leaves dc/dt = -(G/2) c - sqrt(G) Phi(t) with
    G = 2 g^2 / kappa.  In u = t/T and x = G*T this is
    c(u) = -sqrt(x) int_{-inf}^{u} e^{-x (u - v)/2} phi(v) dv, where
    phi = sqrt(T) Phi samples the pulse on the uniform grid u.
    """
    w = np.exp(0.5 * x * u)
    return -np.sqrt(x) * cumulative_trapezoid(w * phi, u, initial=0.0) / w


def test_c02b_two_level_optimum_kt100():
    # reference check: a rising exponential sqrt(2/T) e^{t/T} (t <= 0) is
    # the time mirror of the emission of a G = 2/T atom and is absorbed fully
    u = np.linspace(-20.0, 0.0, 40001)
    c_mirror = _bad_cavity_amplitude(2.0, u, np.sqrt(2.0) * np.exp(u))
    mirror_err = abs(abs(c_mirror[-1]) ** 2 - 1.0)
    assert mirror_err <= 1e-6
    # the sqrt(2/T) sech(4(t - t0)/T) pulse loads best at G*T ~ 3.166, so
    # g_opt/kappa -> sqrt(G*T / (2 kappa*T)) as kappa*T grows
    u = np.linspace(-5.0, 5.0, 20001)
    phi = np.sqrt(2.0) / np.cosh(4.0 * u)
    best = minimize_scalar(
        lambda x: -np.max(np.abs(_bad_cavity_amplitude(x, u, phi)) ** 2),
        bounds=(0.5, 10.0),
        method="bounded",
    )
    g_ref = math.sqrt(best.x / (2.0 * 100.0))

    opt = optimize.optimize_coupling("two_level", {"kT": 100.0}, (0.02, 1.0))
    ok = abs(opt.g_opt - g_ref) <= 0.02
    assert report(
        "criterion 2b",
        ok,
        f"kT=100 g_opt/k={opt.g_opt:.4f} P_max={opt.P_max:.4f} (need {g_ref:.4f} +/- 0.02, "
        f"the bad-cavity optimum G*T={best.x:.3f} with peak {-best.fun:.4f}; "
        f"its rising-exponential check is off by {mirror_err:.1e})",
    )


PULSE_ORDER = ("sech", "rectangular", "exp_rising", "exp_decaying")


def _pulse_peaks():
    peaks = {}
    p = TwoLevelParams(g=1.0, kappa=1.0)
    for kind in PULSE_ORDER:
        pulse = pulses.make_named(kind, 2.0, 2.0)
        _, pm = two_level.peak_loading([p], pulse, 10.0)
        peaks[kind] = float(pm[0])
    return peaks


def test_c03a_pulse_shape_ordering():
    peaks = _pulse_peaks()
    vals = [peaks[k] for k in PULSE_ORDER]
    ok = all(a >= b for a, b in zip(vals, vals[1:]))
    detail = ", ".join(f"{k}={peaks[k]:.4f}" for k in PULSE_ORDER)
    assert report("criterion 3a", ok, f"ordering sech>=rect>=exp_ris>=exp_dec: {detail}")


def test_c03b_pulse_shape_band():
    peaks = _pulse_peaks()
    band = max(peaks.values()) - min(peaks.values())
    ok = band <= 0.05
    assert report(
        "criterion 3b",
        ok,
        f"peak spread {band:.3f} (limit 0.05) at g/k=1; with each shape at its own "
        "best coupling the peaks are 0.909/0.870/0.843/0.716, still a 0.193 "
        "spread, so the stated band is unattainable with these pulse families",
    )


def test_c04_adiabatic_tpr_point():
    _, p90 = lm.adiabatic_load(20.0, 200.0, 1.0, 5.0, detuned=True)
    probs = []
    for gp in (0.5, 1.0, 1.5, 2.0, 3.0):
        _, pr = lm.adiabatic_load(20.0, 20.0**2 / gp, 1.0, 5.0, detuned=True)
        probs.append(pr)
    monotone = all(b >= a - 1e-9 for a, b in zip(probs, probs[1:]))
    ok = abs(p90 - 0.90) <= 0.05 and monotone
    assert report(
        "criterion 4",
        ok,
        f"kT=5 g'=2k gives P={p90:.4f} (need 0.90 +/- 0.05); monotone in g': {monotone}",
    )


def test_c05_control_pulse_threshold():
    rejected = False
    try:
        lm.adiabatic_control_pulse(1.0, 1.0, 3.9, 0.0)
    except ValueError:
        rejected = True
    rng = np.random.default_rng(7)
    ok_pos = True
    for kT in (4.2, 5.0, 8.0, 16.0):
        t = rng.uniform(-6.0 * kT, 6.0 * kT, size=2500)
        vals = lm.adiabatic_control_pulse(1.7, 1.0, kT, t)
        ok_pos = ok_pos and bool(np.all(vals > 0.0) and np.all(np.isfinite(vals)))
    ok = rejected and ok_pos
    assert report(
        "criterion 5",
        ok,
        f"kT<4 rejected: {rejected}; positive finite control at 10^4 random t: {ok_pos}",
    )


def test_c06_zed_optimum():
    opt45 = optimize.optimize_coupling("lambda_adiabatic_zed", {"kT": 4.5}, (0.4, 2.5))
    ok_value = abs(opt45.P_max - 0.75) <= 0.05
    g_opts = {4.5: opt45.g_opt}
    for kT in (6.0, 8.0, 10.0):
        g_opts[kT] = optimize.optimize_coupling(
            "lambda_adiabatic_zed", {"kT": kT}, (0.4, 2.5)
        ).g_opt
    ok_const = all(0.7 <= g <= 1.3 for g in g_opts.values())
    ok = ok_value and ok_const
    assert report(
        "criterion 6",
        ok,
        f"kT=4.5 max P={opt45.P_max:.4f} (need 0.75 +/- 0.05); "
        f"g'_opt={ {k: round(v, 3) for k, v in g_opts.items()} } (need within [0.7, 1.3])",
    )


def test_c07_nonadiabatic_throughput():
    opt = optimize.optimize_coupling("lambda_nonadiabatic", {"kT": 1.0}, (0.5, 4.0))
    p_a = opt.P_max
    ratio = optimize.throughput_compare(1.0, p_a, 4.0, 1.0)
    ok = p_a > 0.75 and ratio >= 3.0 * (p_a / 0.75) * 0.99
    assert report(
        "criterion 7",
        ok,
        f"kT=1 optimum P={p_a:.4f} (need > 0.75); throughput ratio {ratio:.3f} "
        f"(need >= {3.0 * (p_a / 0.75) * 0.99:.3f})",
    )


def test_c08a_timing_tolerance_nonadiabatic():
    kT = 1.0
    opt = optimize.optimize_coupling("two_level", {"kT": kT}, (0.5, 4.0))
    # the control stops at T_load + offset; the loading is frozen there
    stops = opt.T_load + np.array([-kT / 2.0, 0.0, kT / 2.0])
    memory = TwoLevelParams(g=opt.g_opt, kappa=1.0)
    traj = two_level.stepped_trajectory(memory, pulses.make_sech(kT, kT), stops)
    probs = traj.population("c_e")
    r_minus, r_plus = probs[0] / probs[1], probs[2] / probs[1]
    ok = 0.4 <= r_minus <= 0.6 and 0.4 <= r_plus <= 0.6
    assert report(
        "criterion 8a",
        ok,
        f"non-adiabatic at kT=1 optimum: P(+-T/2)/P(0) = {r_minus:.3f}/{r_plus:.3f} "
        "(need within [0.4, 0.6])",
    )


def test_c08b_timing_tolerance_adiabatic():
    kT = 4.5
    opt = optimize.optimize_coupling("lambda_adiabatic_zed", {"kT": kT}, (0.4, 2.5))
    probs = lm.adiabatic_offset_scan(
        opt.g_opt, 1.0, kT, np.array([-kT / 2.0, 0.0, kT / 2.0]), detuned=False
    )
    r_minus, r_plus = probs[0] / probs[1], probs[2] / probs[1]
    ok = 0.4 <= r_minus <= 0.6 and 0.4 <= r_plus <= 0.6
    assert report(
        "criterion 8b",
        ok,
        f"adiabatic (zed) at kT=4.5 optimum: P(+-T/2)/P(0) = {r_minus:.3f}/{r_plus:.3f} "
        "(need within [0.4, 0.6]); zed at kT=8 gives 0.212/0.203 and tpr at "
        "kT=4.5 gives 0.253/0.319, and even a perfectly mode-matched scheme "
        "keeps only the sech overlap [y/sinh(y)]^2 = 0.304 at y=2, so 0.4 is "
        "out of reach",
    )


def test_c09_reduction_fidelity():
    kappa, T = 1.0, 2.0
    pulse = pulses.make_sech(T, T)
    grid = np.linspace(pulse.support[0], 5.0 * T, 120)
    errs = []
    for ratio in (10.0, 30.0, 100.0):
        g_c = om = 5.0 * kappa
        d1 = ratio * g_c
        base = lm.LambdaParams(g_c=g_c, kappa=kappa, delta1=d1, delta2=d1, omega=om)
        d2 = lm.stark_compensation(base)
        p = lm.LambdaParams(g_c=g_c, kappa=kappa, delta1=d1, delta2=d2, omega=om)
        traj = lm.full_ode(p, lm.compensated_pulse(pulse, p), grid)
        full_ce = np.abs(traj.amplitudes["c_e"])
        red_ce = np.array(
            [abs(lm.nonadiabatic_amplitude(p, pulse, float(t))) for t in grid]
        )
        errs.append(float(np.max(np.abs(full_ce - red_ce))))
    ok = errs[0] <= 0.02 and errs[0] > errs[1] > errs[2]
    assert report(
        "criterion 9",
        ok,
        f"max |c_e| gap at detuning ratios 10/30/100: "
        f"{errs[0]:.4f}/{errs[1]:.5f}/{errs[2]:.6f} (need <= 0.02 and decreasing)",
    )


def test_c10_polarization_invariance():
    pulse = pulses.make_sech(2.0, 2.0)
    leg = TwoLevelParams(g=1.0, kappa=1.0)
    ref = el.v_level_load(el.PolarizationQubit(1.0, 0.0), leg, pulse, 3.0)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        z = rng.normal(size=4)
        alpha = complex(z[0], z[1])
        beta = complex(z[2], z[3])
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        q = el.PolarizationQubit(alpha / norm, beta / norm)
        worst = max(worst, abs(el.v_level_load(q, leg, pulse, 3.0) - ref))
    ok = worst <= 1e-12
    assert report(
        "criterion 10", ok, f"loading varies by {worst:.2e} over 100 random qubits (limit 1e-12)"
    )


def test_c11_biphoton_factorization_and_symmetry():
    p = TwoLevelParams(g=1.3, kappa=1.0, gamma=0.1, delta=0.4)
    p1 = pulses.make_sech(2.0, 2.0)
    p2 = pulses.make_named("exp_decaying", 1.5, 0.5)
    b = el.separable_biphoton(p1, p2)
    worst = 0.0
    for t in (1.5, 3.0, 6.0):
        cee = el.c_ee(p, b, t, method="quad2")
        _, ce1 = two_level.amplitude_closed_form(p, p1, t)
        _, ce2 = two_level.amplitude_closed_form(p, p2, t)
        worst = max(worst, abs(cee - ce1 * ce2))

    def anti(tau, tau2):
        return (
            p1.amplitude(tau) * p2.amplitude(tau2)
            - p1.amplitude(tau2) * p2.amplitude(tau)
        ) / math.sqrt(2.0)

    lo = min(p1.support[0], p2.support[0])
    hi = max(p1.support[1], p2.support[1])
    b_anti = el.BiphotonAmplitude(joint=anti, support=(lo, hi, lo, hi), norm_constant=1.0)
    resid = abs(el.c_ee(TwoLevelParams(g=1.0, kappa=1.0), b_anti, 3.0, method="quad2"))
    ok = worst <= 1e-8 and resid <= 1e-10
    assert report(
        "criterion 11",
        ok,
        f"factorization gap {worst:.2e} (limit 1e-8); antisymmetric residue {resid:.2e} (limit 1e-10)",
    )


@pytest.fixture(scope="module")
def fig10_run(tmp_path_factory):
    """The fig10 preset run once through the CLI, with the spec and rows of
    each sweep it ran: c12 asserts on its mitnu sweep, c14 on its files."""
    sweeps = []
    sweep = optimize.sweep

    def recorded(spec, workers=None):
        rows = sweep(spec, workers)
        sweeps.append((spec, rows))
        return rows

    outdir = tmp_path_factory.mktemp("fig10")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "sweep", recorded)
        rc = cli.main(["figure", "--preset", "fig10", "--outdir", str(outdir)])
    return rc, outdir, sweeps


def test_c12_mitnu_operating_region(fig10_run):
    grid = tuple(float(x) for x in np.linspace(2.0, 6.0, 5))
    spec = optimize.SweepSpec(
        scenario="mitnu",
        axes=(("kT", grid), ("kT0", grid)),
        optimize_g=True,
        g_range=(0.1, 5.0),
    )
    # this grid is fig10's: its preset run already swept it
    sweeps = fig10_run[2]
    assert [done for done, _ in sweeps] == [spec]
    rows = sweeps[0][1]
    assert all(r["error"] == "" for r in rows)
    p_min = min(r["P_max"] for r in rows)
    g = {(r["kT"], r["kT0"]): r["g_opt"] for r in rows}
    dec_kT = all(
        g[(a, c)] > g[(b, c)] for c in grid for a, b in zip(grid, grid[1:])
    )
    dec_kT0 = all(
        g[(c, a)] > g[(c, b)] for c in grid for a, b in zip(grid, grid[1:])
    )
    ok = p_min > 0.7 and dec_kT and dec_kT0
    assert report(
        "criterion 12",
        ok,
        f"5x5 grid: min optimum P={p_min:.4f} (need > 0.7; the bandwidth-matched "
        "diagonal reaches 0.82 but asymmetric corners drop to ~0.53, verified "
        f"against direct double quadrature); g_opt decreasing "
        f"along kT: {dec_kT}, along kT0: {dec_kT0}",
    )


def test_c13_scaling_invariance():
    worst = 0.0
    # two-level family, against kappa = 1: kappa T = 2, g = 1.2, gamma = 0.25 g, t = 1.7 T
    _, ce = two_level.amplitude_closed_form(
        TwoLevelParams(g=1.2, kappa=1.0, gamma=0.25 * 1.2), pulses.make_named("sech", 2.0, 2.0), 1.7 * 2.0
    )
    ref = abs(ce) ** 2
    for c in (0.5, 8.0):
        kappa = c
        T = 2.0 / kappa
        g = 1.2 * kappa
        p = TwoLevelParams(g=g, kappa=kappa, gamma=0.25 * g)
        _, ce = two_level.amplitude_closed_form(p, pulses.make_sech(T, T), 1.7 * T)
        worst = max(worst, abs(abs(ce) ** 2 - ref))
    # full Lambda system
    pulse = pulses.make_sech(2.0, 2.0)
    grid = np.linspace(pulse.support[0], 10.0, 25)
    base = lm.LambdaParams(g_c=5.0, kappa=1.0, delta1=50.0, delta2=50.0, omega=5.0)
    ref_traj = lm.full_ode(base, pulse, grid, rtol=1e-10, atol=1e-12)
    c = 3.0
    scaled = lm.full_ode(
        lm.LambdaParams(g_c=15.0, kappa=3.0, delta1=150.0, delta2=150.0, omega=15.0),
        pulses.make_sech(2.0 / c, 2.0 / c),
        grid / c,
        rtol=1e-10,
        atol=1e-12,
    )
    for key in ("beta", "c_r", "c_e"):
        worst = max(
            worst,
            float(
                np.max(
                    np.abs(
                        np.abs(scaled.amplitudes[key]) ** 2
                        - np.abs(ref_traj.amplitudes[key]) ** 2
                    )
                )
            ),
        )
    # biphoton loading
    sp1 = el.SpdcParams(T=2.0, T0=2.0)
    sp2 = el.SpdcParams(T=2.0 / c, T0=2.0 / c)
    t_probe = 7.3
    a = abs(el.c_ee(TwoLevelParams(g=1.0, kappa=1.0), el.spdc_biphoton(sp1), t_probe)) ** 2
    b = abs(
        el.c_ee(TwoLevelParams(g=c, kappa=c), el.spdc_biphoton(sp2), t_probe / c)
    ) ** 2
    worst = max(worst, abs(a - b))
    ok = worst <= 1e-9
    assert report(
        "criterion 13", ok, f"worst population change under rate/time rescaling {worst:.2e} (limit 1e-9)"
    )


@pytest.mark.parametrize("preset", tuple(cli.FIGURES))
def test_c14_figure_presets(preset, tmp_path, request):
    if preset == "fig10":
        # the run whose sweep c12 checks
        rc, outdir, _ = request.getfixturevalue("fig10_run")
    else:
        outdir = tmp_path / preset
        rc = cli.main(["figure", "--preset", preset, "--outdir", str(outdir)])
    csvs = sorted(outdir.glob("*.csv"))
    sidecar = outdir / f"{preset}_params.txt"
    schema_ok = bool(csvs) and sidecar.exists()
    for path in csvs:
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        schema_ok = schema_ok and len(lines) > 1
        for line in lines[1:]:
            vals = line.split(",")
            schema_ok = schema_ok and len(vals) == len(header)
            for v in vals:
                float(v)  # parses in C locale
    repeat_ok = True
    if preset in ("fig3", "fig5", "fig8"):
        blobs = {p.name: p.read_bytes() for p in csvs}
        rc2 = cli.main(["figure", "--preset", preset, "--outdir", str(outdir)])
        repeat_ok = rc2 == 0 and all(
            p.read_bytes() == blobs[p.name] for p in sorted(outdir.glob("*.csv"))
        )
    ok = rc == 0 and schema_ok and repeat_ok
    assert report(
        f"criterion 14 ({preset})",
        ok,
        f"exit={rc}, {len(csvs)} CSV file(s), schema valid: {schema_ok}, "
        f"repeat byte-identical: {repeat_ok}",
    )
