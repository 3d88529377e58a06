"""Loading scenarios, coupling-rate optimization and design-curve sweeps.

Each loading configuration is one ``Scenario`` in ``SCENARIOS``: the
fields its ``simulate`` and ``optimize`` commands read, its objective
(the time-peak loading probability as a function of the coupling rate,
in units of kappa, evaluated on an array of couplings) and its
trajectory.  Every objective is array-native: the two-level family, the
adiabatic Lambda schemes and the biphoton pair each evaluate all the
couplings of a call in one batched engine call, not one call per
coupling.  The coupling dependence is tame once the global basin is
isolated, so the search is a coarse log-spaced scan, evaluated in one
objective call, followed by Brent refinement at single couplings.
Sweeps evaluate grids of bandwidth points (optionally optimizing the
coupling per cell) on a small process pool.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import entangled_loading, lambda_memory, numerics, pulses, two_level

__all__ = [
    "SCENARIOS",
    "Fields",
    "Scenario",
    "SweepSpec",
    "OptimumPoint",
    "get_scenario",
    "check_fields",
    "scenario_probability",
    "optimize_coupling",
    "sweep",
    "throughput_compare",
    "resolve_workers",
]

WORKERS_ENV = "CAVITY_LOADER_THREADS"

DEFAULT_G_RANGE = (0.05, 10.0)
DEFAULT_G_TOL = 1e-3


def _nonnegative(raw) -> float:
    """A float of at least zero."""
    value = float(raw)
    if not value >= 0:
        raise ValueError(f"must be nonnegative, got {raw!r}")
    return value


def _finite(raw) -> float:
    """A float other than NaN or an infinity."""
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


@dataclass(frozen=True)
class Fields:
    """The fields one command reads, each mapped to its parser.

    A parser turns a command-line or config-file string into the typed
    value and raises ValueError on a bad one.
    """

    required: dict[str, Callable[[str], object]]
    optional: dict[str, Callable[[str], object]] = field(default_factory=dict)

    def parsers(self) -> dict[str, Callable[[str], object]]:
        return {**self.required, **self.optional}


@dataclass(frozen=True)
class Scenario:
    """One loading configuration.

    ``probability(g_over_k, fixed)`` takes a 1-D array of couplings and
    returns two arrays of its length, the loading probability and the
    time of the relevant peak, with ``fixed`` holding ``optimize`` fields;
    ``trajectory(cfg, points)`` returns a CSV header and its columns with
    ``cfg`` holding ``simulate`` fields.
    """

    simulate: Fields
    optimize: Fields
    probability: Callable[[np.ndarray, dict], tuple[np.ndarray, np.ndarray]]
    trajectory: Callable[[dict, int], tuple[list[str], list[np.ndarray]]]


def _table(traj, T: float, columns) -> tuple[list[str], list[np.ndarray]]:
    """Header and columns: t/T, then |amplitude|^2 per (column, amplitude)."""
    header = ["t_over_T"] + [name for name, _ in columns]
    return header, [traj.times / T] + [traj.population(amp) for _, amp in columns]


_LAMBDA_COLUMNS = (("pop_beta", "beta"), ("pop_cr", "c_r"), ("pop_ce", "c_e"))


def _two_level_probability(g_over_k: np.ndarray, fixed: dict) -> tuple[np.ndarray, np.ndarray]:
    T = float(fixed["kT"])
    gamma_over_g = float(fixed.get("gamma_over_g", 0.0))
    delta = float(fixed.get("delta_over_k", 0.0))
    pulse = pulses.make_named(fixed.get("pulse", "sech"), T, T)
    params = [
        two_level.TwoLevelParams(g=g, kappa=1.0, gamma=gamma_over_g * g, delta=delta)
        for g in g_over_k.tolist()
    ]
    t_load, p_max = two_level.peak_loading(params, pulse, 5.0 * T)
    return p_max, t_load


def _two_level_trajectory(cfg: dict, points: int):
    T = cfg["kT"]
    pulse = pulses.make_named(cfg.get("pulse", "sech"), T, T)
    params = two_level.TwoLevelParams(
        g=cfg["g_over_k"],
        kappa=1.0,
        gamma=cfg.get("gamma_over_k", 0.0),
        delta=cfg.get("delta_over_k", 0.0),
    )
    grid = np.linspace(min(0.0, pulse.support[0]), 5.0 * T, points)
    traj = two_level.stepped_trajectory(params, pulse, grid)
    return _table(traj, T, (("pop_beta", "beta"), ("pop_ce", "c_e")))


def _lambda_nonadiabatic_trajectory(cfg: dict, points: int):
    """Full three-level run with a step control switched off at t_load
    (``lambda_memory.nonadiabatic_trajectory``).

    Without ``delta2_over_k`` the Stark-compensating Delta2 is used;
    without ``t_load_over_T`` the switch-off is the exact peak of the
    target population under the control-on run.
    """
    T, g_c, om, d1 = cfg["kT"], cfg["gc_over_k"], cfg["omega_over_k"], cfg["delta1_over_k"]
    gamma_r = cfg.get("gamma_r_over_k", 0.0)
    params = lambda_memory.LambdaParams(
        g_c=g_c, kappa=1.0, delta1=d1, delta2=d1, omega=om, gamma_r=gamma_r
    )
    d2 = cfg.get("delta2_over_k")
    if d2 is None:
        d2 = lambda_memory.stark_compensation(params)
    params = replace(params, delta2=d2)
    pulse = pulses.make_named(cfg.get("pulse", "sech"), T, T)
    drive = lambda_memory.compensated_pulse(pulse, params)
    t_load = cfg["t_load_over_T"] * T if "t_load_over_T" in cfg else None
    grid = np.linspace(min(0.0, pulse.support[0]), 5.0 * T, points)
    traj = lambda_memory.nonadiabatic_trajectory(params, drive, grid, t_load)
    return _table(traj, T, _LAMBDA_COLUMNS)


def _adiabatic(detuned: bool) -> Scenario:
    """Adiabatic passage at two-photon resonance (``detuned``) or with zero
    effective detuning; only g' = g_c^2/Delta1 matters for the populations."""

    def probability(g_over_k: np.ndarray, fixed: dict) -> tuple[np.ndarray, np.ndarray]:
        T = float(fixed["kT"])
        traj = lambda_memory._adiabatic_reduced_run(g_over_k, 1.0, T, detuned=detuned)
        return traj.population("c_e")[:, -1], np.full(g_over_k.shape, traj.times[-1])

    def trajectory(cfg: dict, points: int):
        T = cfg["kT"]
        # a deep-elimination split of g'
        delta1 = 400.0
        g_c = float(np.sqrt(cfg["g_prime_over_k"] * delta1))
        grid = np.linspace(pulses.make_sech(T, T).support[0], 5.0 * T, points)
        traj, _ = lambda_memory.adiabatic_load(g_c, delta1, 1.0, T, detuned=detuned, grid=grid)
        return _table(traj, T, _LAMBDA_COLUMNS)

    return Scenario(
        simulate=Fields({"kT": float, "g_prime_over_k": _nonnegative}),
        optimize=Fields({"kT": float}),
        probability=probability,
        trajectory=trajectory,
    )


def _mitnu_probability(g_over_k: np.ndarray, fixed: dict) -> tuple[np.ndarray, np.ndarray]:
    sp = entangled_loading.SpdcParams(T=float(fixed["kT"]), T0=float(fixed["kT0"]))
    b = entangled_loading.spdc_biphoton(sp)
    params = [two_level.TwoLevelParams(g=g, kappa=1.0) for g in g_over_k.tolist()]
    t_pk, p_max = entangled_loading.peak_joint_loading(params, b, b.support[1] + 2.0)
    return p_max, t_pk


def _mitnu_trajectory(cfg: dict, points: int):
    b = entangled_loading.spdc_biphoton(entangled_loading.SpdcParams(T=cfg["kT"], T0=cfg["kT0"]))
    params = two_level.TwoLevelParams(g=cfg["g_over_k"], kappa=1.0)
    grid = np.linspace(0.0, b.support[1] + 2.0, points)
    traj = entangled_loading.joint_trajectory(params, b, grid)
    return _table(traj, cfg["kT"], (("pop_ce", "c_ee"),))


# the two-level objective's optional fields; the non-adiabatic Lambda
# scheme optimizes the same objective in its effective coupling
_TWO_LEVEL_FIXED = {"gamma_over_g": float, "delta_over_k": float, "pulse": str}

SCENARIOS = {
    "two_level": Scenario(
        simulate=Fields(
            {"kT": float, "g_over_k": float},
            {"gamma_over_k": float, "delta_over_k": float, "pulse": str},
        ),
        optimize=Fields({"kT": float}, _TWO_LEVEL_FIXED),
        probability=_two_level_probability,
        trajectory=_two_level_trajectory,
    ),
    "lambda_nonadiabatic": Scenario(
        simulate=Fields(
            {"kT": float, "gc_over_k": float, "omega_over_k": float, "delta1_over_k": float},
            {
                "delta2_over_k": float,
                "gamma_r_over_k": float,
                "t_load_over_T": _finite,
                "pulse": str,
            },
        ),
        optimize=Fields({"kT": float}, _TWO_LEVEL_FIXED),
        probability=_two_level_probability,
        trajectory=_lambda_nonadiabatic_trajectory,
    ),
    "lambda_adiabatic_tpr": _adiabatic(detuned=True),
    "lambda_adiabatic_zed": _adiabatic(detuned=False),
    "mitnu": Scenario(
        simulate=Fields({"kT": float, "kT0": float, "g_over_k": float}),
        optimize=Fields({"kT": float, "kT0": float}),
        probability=_mitnu_probability,
        trajectory=_mitnu_trajectory,
    ),
}


def get_scenario(name: str) -> Scenario:
    """The registered scenario of this name."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}")
    return SCENARIOS[name]


def check_fields(scenario: str, keys, allowed) -> None:
    """Reject, by name, the first of ``keys`` that is not in ``allowed``."""
    for key in keys:
        if key not in allowed:
            raise ValueError(f"scenario {scenario} does not use field {key}")


@dataclass(frozen=True)
class OptimumPoint:
    """Result of a coupling optimization (coupling in units of kappa).

    ``at_boundary`` is set when g_opt is an end of the search range: the
    loading may keep rising beyond it, so it need not be the optimum.
    ``n_evals`` is the number of distinct couplings whose objective was
    evaluated.
    """

    g_opt: float
    P_max: float
    T_load: float
    bracket: float
    degenerate: bool = False
    at_boundary: bool = False
    n_evals: int = 0


@dataclass(frozen=True)
class SweepSpec:
    """A 1-D or 2-D parameter sweep of one scenario.

    ``axes`` maps axis names (e.g. "kT", "kT0", "g_over_k") to strictly
    increasing grids.  With ``optimize_g`` set, each cell runs a coupling
    optimization; otherwise ``fixed`` must carry g_over_k.
    """

    scenario: str
    axes: tuple[tuple[str, tuple[float, ...]], ...]
    fixed: dict = field(default_factory=dict)
    optimize_g: bool = False
    g_range: tuple[float, float] = DEFAULT_G_RANGE

    def __post_init__(self):
        allowed = dict(get_scenario(self.scenario).optimize.parsers())
        if not self.optimize_g:
            allowed["g_over_k"] = float
        check_fields(self.scenario, [name for name, _ in self.axes] + list(self.fixed), allowed)
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("a sweep needs one or two axes")
        for name, grid in self.axes:
            arr = np.asarray(grid, dtype=float)
            if arr.ndim != 1 or arr.size == 0 or np.any(np.diff(arr) <= 0):
                raise ValueError(f"axis {name!r} must be a strictly increasing grid")


def scenario_probability(scenario: str, g_over_k, fixed: dict):
    """(loading probability, time of the relevant peak) at each coupling.

    ``g_over_k`` is a non-empty 1-D array, giving two arrays of its
    length.  ``fixed`` carries the scenario's optimize fields: kT for all
    scenarios, kT0 for the biphoton one, plus optional gamma_over_g /
    delta_over_k / pulse for the two-level family; any other key is an
    error.
    """
    chosen = get_scenario(scenario)
    check_fields(scenario, fixed, chosen.optimize.parsers())
    g = np.asarray(g_over_k, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError(f"couplings must be a non-empty 1-D array, got shape {g.shape}")
    return chosen.probability(g, fixed)


def optimize_coupling(
    scenario: str,
    fixed: dict,
    g_range: tuple[float, float] = DEFAULT_G_RANGE,
    tol: float = DEFAULT_G_TOL,
) -> OptimumPoint:
    """Maximize the loading probability over the coupling rate.

    Coarse scan on a 40-point log-spaced grid, evaluated in one objective
    call, followed by Brent refinement of the best grid cell at single
    couplings (parabolic steps, golden-section fallback; see
    ``numerics.scan_refine``); ties break toward the smaller coupling.
    The calls of one optimum build their coupling-independent state once,
    in one ``numerics.sharing`` block, and none of it outlives the optimum.
    """
    lo, hi = float(g_range[0]), float(g_range[1])
    if not (0 < lo < hi < np.inf):
        raise ValueError("coupling search range must be positive, finite and increasing")
    if not 0 < tol < np.inf:
        raise ValueError("tolerance must be positive and finite")
    grid = np.geomspace(lo, hi, 40)
    with numerics.sharing():
        probs, times = scenario_probability(scenario, grid, fixed)
        grid = grid.tolist()
        cache = dict(zip(grid, zip(probs.tolist(), times.tolist())))

        def objective(rows: np.ndarray, gs: np.ndarray) -> np.ndarray:
            new = [g for g in gs.tolist() if g not in cache]
            if new:
                probs, times = scenario_probability(scenario, np.array(new), fixed)
                cache.update(zip(new, zip(probs.tolist(), times.tolist())))
            return np.array([cache[g][0] for g in gs.tolist()])

        degenerate = bool(probs.max() - probs.min() < 1e-9)
        if degenerate:
            g_opt, p_max, bracket = grid[0], float(probs[0]), hi - lo
        else:
            g_opt, p_max, bracket = (
                float(v[0]) for v in numerics.scan_refine(objective, grid, probs[None, :], tol)
            )
    return OptimumPoint(
        g_opt=g_opt,
        P_max=p_max,
        T_load=cache[g_opt][1],
        bracket=bracket,
        degenerate=degenerate,
        at_boundary=g_opt in (grid[0], grid[-1]),
        n_evals=len(cache),
    )


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, then the env cap, then cpu count."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV)
    try:
        cap = int(env) if env else 4
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return max(1, min(cap, os.cpu_count() or 1))


def _sweep_cell(args) -> dict:
    scenario, axis_items, fixed, optimize_g, g_range = args
    row = dict(axis_items)
    try:
        cell_fixed = dict(fixed)
        cell_fixed.update(axis_items)
        if optimize_g:
            opt = optimize_coupling(scenario, cell_fixed, g_range)
            row.update(
                g_opt=opt.g_opt, P_max=opt.P_max, T_load=opt.T_load, error=""
            )
        else:
            g = np.array([float(cell_fixed.pop("g_over_k"))])
            p_max, t_load = scenario_probability(scenario, g, cell_fixed)
            row.update(P_max=float(p_max[0]), T_load=float(t_load[0]), error="")
    except Exception as exc:  # per-cell failures are recorded, not fatal
        row.update(P_max=float("nan"), T_load=float("nan"), error=str(exc))
        if optimize_g:
            row.update(g_opt=float("nan"))
    return row


def sweep(spec: SweepSpec, workers: int | None = None) -> list[dict]:
    """Evaluate a sweep, row-major over the axes, deterministically ordered.

    The cells run on a process pool of ``resolve_workers(workers)``
    processes, but at most one per cell and one per CPU: the pool starts
    every worker it is allowed.
    """
    names = [name for name, _ in spec.axes]
    grids = [np.asarray(grid, dtype=float).tolist() for _, grid in spec.axes]
    payloads = [
        (spec.scenario, tuple(zip(names, values)), spec.fixed, spec.optimize_g, spec.g_range)
        for values in itertools.product(*grids)
    ]
    n_workers = min(resolve_workers(workers), len(payloads), os.cpu_count() or 1)
    if n_workers == 1:
        return [_sweep_cell(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(_sweep_cell, payloads))


def throughput_compare(T_a: float, P_a: float, T_b: float, P_b: float) -> float:
    """Throughput ratio of two source+loading designs.

    The source rate scales with bandwidth, i.e. inversely with the pulse
    width, so the ratio is (P_a / T_a) / (P_b / T_b).
    """
    if P_b <= 0:
        raise ValueError("reference design has zero throughput")
    if T_a <= 0 or T_b <= 0:
        raise ValueError("pulse widths must be positive")
    return (P_a / T_a) / (P_b / T_b)
