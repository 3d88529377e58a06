"""Loading a two-level trapped atom with a single photon.

Walks through the basic experiment: a hyperbolic-secant photon with
kappa T = 2 drives a single-ended cavity, and the excited-state
population rises, peaks and Rabi-flops back.  The peak defines T_Load,
the moment a control field would freeze the excitation in a real
Lambda memory, and its height depends non-monotonically on the coupling
rate g.

Run:  python demos/demo_two_level_loading.py
"""

import numpy as np

from cavity_loader import (
    TwoLevelParams,
    amplitude_closed_form,
    make_sech,
    peak_loading,
    stepped_trajectory,
)

kappa = 1.0  # all rates in units of kappa
T = 2.0  # pulse width, kappa T = 2
pulse = make_sech(T, T)  # photon centered one width after t = 0

print("== trajectory at g/kappa = 1 ==")
params = TwoLevelParams(g=1.0, kappa=kappa)
grid = np.linspace(pulse.support[0], 5 * T, 401)
traj = stepped_trajectory(params, pulse, grid)
pop = traj.population("c_e")
for frac in (0.5, 1.0, 1.5, 2.0, 3.0):
    i = np.argmin(abs(grid - frac * T))
    print(f"  t = {frac:.1f} T   |c_e|^2 = {pop[i]:.4f}   |beta|^2 = {traj.population('beta')[i]:.4f}")

t_load, p_max = peak_loading(params, pulse, 5 * T)
print(f"  peak loading {p_max:.4f} at T_Load = {t_load / T:.3f} T")

print("\n== the coupling rate has an optimum ==")
for g in (0.5, 1.0, 1.5, 2.5, 4.0):
    _, pm = peak_loading(TwoLevelParams(g=g, kappa=kappa), pulse, 5 * T)
    bar = "#" * int(pm * 40)
    print(f"  g/kappa = {g:<4} peak = {pm:.4f} {bar}")

print("\n== closed form agrees with the exact stepping ==")
i = int(np.argmin(abs(grid - 3.5)))
t_probe = float(grid[i])
beta_cf, ce_cf = amplitude_closed_form(params, pulse, t_probe)
print(f"  |c_e({t_probe:.3f})| closed form {abs(ce_cf):.8f} vs stepping {abs(traj.amplitudes['c_e'][i]):.8f}")
