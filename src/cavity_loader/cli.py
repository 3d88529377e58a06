"""Command-line front end: trajectory runs, coupling optimization, presets.

All rates are entered in units of kappa (kappa = 1 internally) and times
in units of the pulse width T.  Results are written as plain CSV with
shortest round-trip float formatting, atomically (temp file + rename).

The ``simulate`` and ``optimize`` flags are generated from the scenario
records in ``optimize.SCENARIOS``; a flag or config key the chosen
scenario does not read is a configuration error.

Exit codes: 0 success, 2 usage/configuration error, 3 numeric failure.
The worker count for sweep presets is capped by the environment variable
CAVITY_LOADER_THREADS.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import entangled_loading, lambda_memory, numerics, optimize, pulses, two_level

__all__ = ["main", "cmd_simulate", "cmd_optimize", "cmd_figure"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


def write_csv(path, header: list[str], rows) -> None:
    """Write CSV atomically with '\\n' endings and round-trip floats."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(",".join(header) + "\n")
            for row in rows:
                handle.write(",".join(repr(float(v)) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_config_file(path) -> dict:
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _points(raw: str) -> int:
    """A grid size: an integer of at least 2."""
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 2:
        raise ValueError(f"must be an integer >= 2, got {raw!r}")
    return n


# fields every scenario accepts, besides its own (and --scenario, --config)
COMMON_FIELDS = {
    "simulate": {"points": _points, "out": str},
    "optimize": {"g_min": optimize._finite, "g_max": optimize._finite, "tol": float, "out": str},
}


def _gather(args, command: str) -> dict:
    """Typed ``command`` fields of the chosen scenario, from the config
    file and the flags; flags override config-file values.

    A field the scenario does not read is rejected by name, and so is a
    missing required one.
    """
    fields = getattr(optimize.get_scenario(args.scenario), command)
    parsers = {**fields.parsers(), **COMMON_FIELDS[command]}
    raw = _read_config_file(args.config) if args.config else {}
    raw.pop("scenario", None)
    for key in _flag_names(command):
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    optimize.check_fields(args.scenario, raw, parsers)
    cfg = {}
    for key, value in raw.items():
        try:
            cfg[key] = parsers[key](value)
        except ValueError as exc:
            raise ConfigError(f"field {key}: {exc}")
    missing = [k for k in fields.required if k not in cfg]
    if missing:
        raise ConfigError(f"missing required field {missing[0]} for this scenario")
    return cfg


def _flag_names(command: str) -> list[str]:
    """One flag per field that any scenario's ``command`` reads."""
    names = [n for s in optimize.SCENARIOS.values() for n in getattr(s, command).parsers()]
    return list(dict.fromkeys(names + list(COMMON_FIELDS[command])))


def cmd_simulate(args) -> int:
    cfg = _gather(args, "simulate")
    trajectory = optimize.get_scenario(args.scenario).trajectory
    header, columns = trajectory(cfg, cfg.get("points", 600))
    write_csv(cfg.get("out", f"{args.scenario}_trajectory.csv"), header, zip(*columns))
    return EXIT_OK


def cmd_optimize(args) -> int:
    fixed = _gather(args, "optimize")
    g_min = fixed.pop("g_min", optimize.DEFAULT_G_RANGE[0])
    g_max = fixed.pop("g_max", optimize.DEFAULT_G_RANGE[1])
    if not g_min < g_max:
        raise ConfigError("field g_min must be below g_max (empty search range)")
    tol = fixed.pop("tol", optimize.DEFAULT_G_TOL)
    out_path = fixed.pop("out", f"{args.scenario}_optimum.csv")
    opt = optimize.optimize_coupling(args.scenario, fixed, (g_min, g_max), tol)
    write_csv(out_path, ["g_opt", "P_max", "T_load"], [(opt.g_opt, opt.P_max, opt.T_load)])
    if opt.at_boundary:
        print(
            f"warning: g_opt = {opt.g_opt!r} is an end of the search range "
            f"[{g_min!r}, {g_max!r}]; the optimum may lie outside it",
            file=sys.stderr,
        )
    return EXIT_OK


def _family_csv(path, scenario: str, cfg: dict, field: str, values, prefix: str) -> None:
    """t/T, then the last trajectory column for each value of ``field``."""
    trajectory = optimize.get_scenario(scenario).trajectory
    cols = []
    for value in values:
        _, columns = trajectory({**cfg, field: value}, 501)
        cols.append(columns[-1])
    write_csv(path, ["t_over_T"] + [f"{prefix}{v}" for v in values], zip(columns[0], *cols))


def _rows_csv(path, rows: list[dict], keys) -> None:
    write_csv(path, list(keys), [tuple(r[k] for k in keys) for r in rows])


def _figure_fig3(outdir: Path, workers=None) -> dict:
    kT, g_values = 2.0, (0.3, 0.6, 1.0, 1.5, 2.5)
    path = outdir / "fig3_loading_vs_time.csv"
    _family_csv(path, "two_level", {"kT": kT}, "g_over_k", g_values, "pop_ce_g")
    return {"kT": kT, "g_over_k": list(g_values), "pulse": "sech", "gamma": 0.0, "delta": 0.0}


def _figure_fig4(outdir: Path, workers=None) -> dict:
    gamma_family = (0.0, 0.1, 0.25, 0.5)
    kT_grid = tuple(float(x) for x in np.geomspace(0.5, 20.0, 9))
    for gamma_over_g in gamma_family:
        spec = optimize.SweepSpec(
            scenario="two_level",
            axes=(("kT", kT_grid),),
            fixed={"gamma_over_g": gamma_over_g},
            optimize_g=True,
        )
        rows = optimize.sweep(spec, workers=workers)
        path = outdir / f"fig4_design_gamma{gamma_over_g}.csv"
        _rows_csv(path, rows, ("kT", "g_opt", "P_max", "T_load"))
    return {"gamma_over_g": list(gamma_family), "kT_grid": list(kT_grid), "pulse": "sech"}


def _figure_fig5(outdir: Path, workers=None) -> dict:
    kT, g = 2.0, 1.0
    kinds = ("sech", "rectangular", "exp_rising", "exp_decaying")
    trajectory = optimize.get_scenario("two_level").trajectory
    for kind in kinds:
        header, columns = trajectory({"kT": kT, "g_over_k": g, "pulse": kind}, 501)
        write_csv(outdir / f"fig5_{kind}.csv", header, zip(*columns))
    return {"kT": kT, "g_over_k": g, "pulses": list(kinds)}


def _figure_fig6(outdir: Path, workers=None) -> dict:
    kT_values = (4.5, 5.0, 7.0, 10.0)
    g_prime_grid = np.linspace(0.25, 4.0, 16)
    cols = [g_prime_grid]
    for kT in kT_values:
        probs, _ = optimize.scenario_probability("lambda_adiabatic_tpr", g_prime_grid, {"kT": kT})
        cols.append(probs)
    header = ["g_prime_over_k"] + [f"P_kT{kT}" for kT in kT_values]
    write_csv(outdir / "fig6_adiabatic_tpr.csv", header, zip(*cols))
    return {"kT": list(kT_values), "g_prime_grid": [float(x) for x in g_prime_grid]}


def _figure_fig7(outdir: Path, workers=None) -> dict:
    kT_nonad = tuple(float(x) for x in np.geomspace(0.5, 20.0, 10))
    kT_adiab = (4.5, 5.0, 6.0, 8.0, 10.0)
    spec_n = optimize.SweepSpec(
        scenario="lambda_nonadiabatic", axes=(("kT", kT_nonad),), optimize_g=True
    )
    rows = optimize.sweep(spec_n, workers=workers)
    _rows_csv(outdir / "fig7_nonadiabatic.csv", rows, ("kT", "g_opt", "P_max"))
    spec_a = optimize.SweepSpec(
        scenario="lambda_adiabatic_zed",
        axes=(("kT", kT_adiab),),
        optimize_g=True,
        g_range=(0.2, 5.0),
    )
    rows = optimize.sweep(spec_a, workers=workers)
    _rows_csv(outdir / "fig7_adiabatic_zed.csv", rows, ("kT", "g_opt", "P_max"))
    return {"kT_nonadiabatic": list(kT_nonad), "kT_adiabatic": list(kT_adiab)}


def _figure_fig8(outdir: Path, workers=None) -> dict:
    offsets = np.linspace(-1.0, 1.0, 17)
    # P off the peak is not stationary in g, so the curves would follow the
    # optimizer's tolerance at first order: both couplings are found to
    # near Brent's floor of sqrt(eps) g
    tol = 1e-7
    # non-adiabatic at kT = 1, its optimum coupling
    kT_n = 1.0
    opt_n = optimize.optimize_coupling("two_level", {"kT": kT_n}, (0.5, 4.0), tol)
    # the control stops at T_load + offset: one stepped run reads every stop
    stopped = two_level.stepped_trajectory(
        two_level.TwoLevelParams(g=opt_n.g_opt, kappa=1.0),
        pulses.make_sech(kT_n, kT_n),
        opt_n.T_load + offsets * kT_n,
    )
    write_csv(
        outdir / "fig8_nonadiabatic.csv",
        ["offset_over_T", "P"],
        zip(offsets, stopped.population("c_e")),
    )
    # adiabatic (zero effective detuning) at kT = 4.5, its optimum coupling
    kT_a = 4.5
    opt_a = optimize.optimize_coupling("lambda_adiabatic_zed", {"kT": kT_a}, (0.4, 2.5), tol)
    probs_a = lambda_memory.adiabatic_offset_scan(
        opt_a.g_opt, 1.0, kT_a, offsets * kT_a, detuned=False
    )
    write_csv(
        outdir / "fig8_adiabatic.csv", ["offset_over_T", "P"], zip(offsets, probs_a)
    )
    return {
        "offsets_over_T": [float(x) for x in offsets],
        "nonadiabatic": {"kT": kT_n, "g_opt": opt_n.g_opt},
        "adiabatic_zed": {"kT": kT_a, "g_prime_opt": opt_a.g_opt},
    }


def _figure_fig9(outdir: Path, workers=None) -> dict:
    kT = 2.0
    g_values = (0.6, 0.9, 1.2, 2.0)
    kT0_values = (0.5, 1.0, 2.0, 4.0)
    # panel (a): fixed kT0 = 2, family over g
    cfg = {"kT": kT, "kT0": 2.0}
    _family_csv(outdir / "fig9_vs_g.csv", "mitnu", cfg, "g_over_k", g_values, "pop_cee_g")
    # panel (b): fixed g = 1, family over kT0, on one grid that covers every pair
    pairs = [
        entangled_loading.spdc_biphoton(entangled_loading.SpdcParams(T=kT, T0=t0))
        for t0 in kT0_values
    ]
    grid = np.linspace(0.0, max(b.support[1] for b in pairs) + 2.0, 501)
    memory = two_level.TwoLevelParams(g=1.0, kappa=1.0)
    cols = [grid / kT]
    cols += [entangled_loading.joint_trajectory(memory, b, grid).population("c_ee") for b in pairs]
    write_csv(
        outdir / "fig9_vs_kT0.csv",
        ["t_over_T"] + [f"pop_cee_kT0{t0}" for t0 in kT0_values],
        zip(*cols),
    )
    return {"kT": kT, "g_over_k": list(g_values), "kT0": list(kT0_values)}


def _figure_fig10(outdir: Path, workers=None) -> dict:
    grid = tuple(float(x) for x in np.linspace(2.0, 6.0, 5))
    spec = optimize.SweepSpec(
        scenario="mitnu",
        axes=(("kT", grid), ("kT0", grid)),
        optimize_g=True,
        g_range=(0.1, 5.0),
    )
    rows = optimize.sweep(spec, workers=workers)
    _rows_csv(outdir / "fig10_g_opt.csv", rows, ("kT", "kT0", "g_opt"))
    _rows_csv(outdir / "fig10_P_max.csv", rows, ("kT", "kT0", "P_max"))
    return {"kT_grid": list(grid), "kT0_grid": list(grid)}


FIGURES = {
    "fig3": _figure_fig3,
    "fig4": _figure_fig4,
    "fig5": _figure_fig5,
    "fig6": _figure_fig6,
    "fig7": _figure_fig7,
    "fig8": _figure_fig8,
    "fig9": _figure_fig9,
    "fig10": _figure_fig10,
}
FIGURE_PRESETS = tuple(FIGURES)


def cmd_figure(args) -> int:
    preset = args.preset
    if preset not in FIGURES:
        raise ConfigError(f"unknown preset {preset!r}")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    meta = FIGURES[preset](outdir, args.workers)
    sidecar = outdir / f"{preset}_params.txt"
    lines = [f"{key} = {value}" for key, value in sorted(meta.items())]
    sidecar.write_text("\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavity-loader",
        description="Loading simulations for trapped-atom quantum memories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, help_text, func in (
        ("simulate", "write a trajectory CSV for one scenario", cmd_simulate),
        ("optimize", "find the optimum coupling rate", cmd_optimize),
    ):
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument("--scenario", required=True)
        cmd.add_argument("--config", default=None)
        for name in _flag_names(command):
            cmd.add_argument(f"--{name}", default=None)
        cmd.set_defaults(func=func)

    fig = sub.add_parser("figure", help="regenerate a figure dataset")
    fig.add_argument("--preset", required=True)
    fig.add_argument("--outdir", default="figures")
    fig.add_argument("--workers", type=int, default=None)
    fig.set_defaults(func=cmd_figure)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built by the first ``main`` call: a parse
    leaves it as it was, and a fresh interpreter need not pay for it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # usage errors and --help: argparse's status
        return exc.code
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (numerics.OdeFailure, numerics.QuadratureFailure) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
