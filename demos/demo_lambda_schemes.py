"""Non-adiabatic and adiabatic loading of a Lambda-level memory.

The non-adiabatic scheme drives the two-photon transition with a
constant control field and switches it off at the population peak; it
works at any bandwidth.  The adiabatic scheme shapes the control so the
system rides the dark state, which requires kappa T >= 4 but approaches
unit efficiency for long pulses.  This script reproduces the headline
numbers for both and their timing tolerance.

Run:  python demos/demo_lambda_schemes.py
"""

import numpy as np

from cavity_loader import (
    LambdaParams,
    TwoLevelParams,
    adiabatic_control_pulse,
    adiabatic_load,
    adiabatic_offset_scan,
    compensated_pulse,
    full_ode,
    make_sech,
    nonadiabatic_load,
    nonadiabatic_trajectory,
    stark_compensation,
    stepped_trajectory,
)
from cavity_loader.lambda_memory import zed_phase_rate
from cavity_loader.optimize import optimize_coupling, throughput_compare

kappa = 1.0

print("== non-adiabatic: freeze the Rabi oscillation (kappa T = 1) ==")
opt = optimize_coupling("lambda_nonadiabatic", {"kT": 1.0}, (0.5, 4.0))
print(f"  optimum effective g/kappa = {opt.g_opt:.3f}, peak loading {opt.P_max:.4f}")
print(f"  stop the control at T_Load = {opt.T_load:.3f} / kappa")

# how the effective coupling is realized with real Lambda parameters:
# pick a deep detuning, then size the couplings to hit the optimum (the
# constant control Omega is a LambdaParams rate)
delta1 = 400.0 * kappa
g_c = om = float(np.sqrt(opt.g_opt * delta1))
base = LambdaParams(g_c=g_c, kappa=kappa, delta1=delta1, delta2=delta1, omega=om)
delta2 = stark_compensation(base)
params = LambdaParams(g_c=g_c, kappa=kappa, delta1=delta1, delta2=delta2, omega=om)
pulse = make_sech(1.0, 1.0)
p_load = nonadiabatic_load(params, pulse, opt.T_load)
print(f"  same number from the Lambda reduction: {p_load:.4f}")
print(f"  (g_c = Omega = {g_c:.1f} kappa, Delta1 = {delta1:.0f} kappa, Stark-compensated Delta2 = {delta2:.2f} kappa)")

print("\n== cross-check against the full three-level model ==")
grid = np.linspace(pulse.support[0], 5.0, 200)
# nothing eliminated: exact steps of (beta, c_r, c_e), control off after T_Load
full = nonadiabatic_trajectory(params, compensated_pulse(pulse, params), grid, opt.T_load)
print(f"  full model |c_e|^2 at the end: {full.population('c_e')[-1]:.4f} (frozen)")

print("\n== adiabatic passage needs kappa T >= 4 ==")
T = 5.0
print(f"  control at the pulse center: Omega(0) = {adiabatic_control_pulse(1.0, kappa, T, 0.0):.4f} g_c")
_, p_tpr = adiabatic_load(20.0, 200.0, kappa, T, detuned=True)  # g' = g_c^2/Delta1 = 2 kappa
print(f"  two-photon resonance, g' = 2 kappa, kT = 5: P = {p_tpr:.4f}")
opt_zed = optimize_coupling("lambda_adiabatic_zed", {"kT": 4.5}, (0.4, 2.5))
print(f"  zero effective detuning, kT = 4.5: optimum g' = {opt_zed.g_opt:.3f}, P = {opt_zed.P_max:.4f}")

# LambdaParams holds a constant control; the shaped control Omega(t) and its
# phase ramp enter only the full three-level oracle, as full_ode arguments
d1_a = 200.0 * kappa
g_a = float(np.sqrt(opt_zed.g_opt * d1_a))
zed = LambdaParams(g_c=g_a, kappa=kappa, delta1=d1_a, delta2=d1_a)
pulse_a = make_sech(4.5, 4.5)
full = full_ode(
    zed,
    compensated_pulse(pulse_a, zed),
    np.linspace(pulse_a.support[0], 5.0 * 4.5, 200),
    omega=lambda t: adiabatic_control_pulse(g_a, kappa, 4.5, t - 4.5),
    phi_z_dot=zed_phase_rate(zed, 4.5, 4.5),
)
_, p_red = adiabatic_load(g_a, d1_a, kappa, 4.5, detuned=False)
print(f"  zed in the full model (Delta1 = {d1_a:.0f} kappa): P = {full.population('c_e')[-1]:.4f}, reduced {p_red:.4f}")

print("\n== bandwidth buys throughput ==")
ratio = throughput_compare(1.0, opt.P_max, 4.0, 1.0)
print(f"  non-adiabatic source at kT = 1 vs a perfect adiabatic one at kT = 4: x{ratio:.2f}")

print("\n== timing tolerance ==")
offsets = np.linspace(-1.0, 1.0, 9)
# non-adiabatic: the control stops at T_Load + offset; one stepped run of the
# effective two-level memory reads the frozen loading at every stop
effective = TwoLevelParams(g=opt.g_opt, kappa=kappa)
probs = stepped_trajectory(effective, pulse, opt.T_load + offsets).population("c_e")
for off, pr in zip(offsets, probs):
    print(f"  stop offset {off:+.2f} T -> P = {pr:.4f}")
# adiabatic: the whole shaped control is shifted by the offset
probs = adiabatic_offset_scan(opt_zed.g_opt, kappa, 4.5, 4.5 * offsets[::2], detuned=False)
for off, pr in zip(offsets[::2], probs):
    print(f"  zed control offset {off:+.2f} T -> P = {pr:.4f}")
