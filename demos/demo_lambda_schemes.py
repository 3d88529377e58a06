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
    adiabatic_control_pulse,
    adiabatic_load_tpr,
    adiabatic_load_zed,
    compensated_pulse,
    make_sech,
    nonadiabatic_load,
    nonadiabatic_trajectory,
    stark_compensation,
    timing_offset_scan,
)
from cavity_loader.optimize import optimize_coupling, throughput_compare

kappa = 1.0

print("== non-adiabatic: freeze the Rabi oscillation (kappa T = 1) ==")
opt = optimize_coupling("lambda_nonadiabatic", {"kT": 1.0}, (0.5, 4.0))
print(f"  optimum effective g/kappa = {opt.g_opt:.3f}, peak loading {opt.P_max:.4f}")
print(f"  stop the control at T_Load = {opt.T_load:.3f} / kappa")

# how the effective coupling is realized with real Lambda parameters:
# pick a deep detuning, then size the couplings to hit the optimum
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
_, p_tpr = adiabatic_load_tpr(20.0, 200.0, kappa, T)  # g' = g_c^2/Delta1 = 2 kappa
print(f"  two-photon resonance, g' = 2 kappa, kT = 5: P = {p_tpr:.4f}")
opt_zed = optimize_coupling("lambda_adiabatic_zed", {"kT": 4.5}, (0.4, 2.5))
print(f"  zero effective detuning, kT = 4.5: optimum g' = {opt_zed.g_opt:.3f}, P = {opt_zed.P_max:.4f}")

print("\n== bandwidth buys throughput ==")
ratio = throughput_compare(1.0, opt.P_max, 4.0, 1.0)
print(f"  non-adiabatic source at kT = 1 vs a perfect adiabatic one at kT = 4: x{ratio:.2f}")

print("\n== timing tolerance ==")
offsets = np.linspace(-1.0, 1.0, 9)
probs = timing_offset_scan(
    "nonadiabatic", {"kappa": kappa, "T": 1.0, "g": opt.g_opt, "t_load": opt.T_load}, offsets
)
for off, pr in zip(offsets, probs):
    print(f"  stop offset {off:+.2f} T -> P = {pr:.4f}")
