import contextlib
import csv
import io
import itertools
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_loader import cli, lambda_memory, optimize, pulses, two_level


def run(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def test_simulate_two_level_schema(tmp_path):
    out = tmp_path / "traj.csv"
    rc = run(
        [
            "simulate",
            "--scenario",
            "two_level",
            "--kT",
            "2",
            "--g_over_k",
            "1",
            "--pulse",
            "sech",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["t_over_T", "pop_beta", "pop_ce"]
    data = np.asarray(rows)
    assert np.all(np.diff(data[:, 0]) > 0)
    # the sampled maximum matches the closed form on the same grid
    pulse = pulses.make_sech(2.0, 2.0)
    params = two_level.TwoLevelParams(g=1.0, kappa=1.0)
    exact = [two_level.amplitude_closed_form(params, pulse, t)[1] for t in data[:, 0] * 2.0]
    assert data[:, 2].max() == pytest.approx(np.max(np.abs(exact) ** 2), abs=1e-9)
    assert data[:, 2].max() == pytest.approx(0.902, abs=5e-3)


def test_simulate_zero_pulse(tmp_path):
    out = tmp_path / "zero.csv"
    rc = run(
        [
            "simulate",
            "--scenario",
            "two_level",
            "--kT",
            "2",
            "--g_over_k",
            "1",
            "--pulse",
            "zero",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    _, rows = read_csv(out)
    data = np.asarray(rows)
    assert np.all(data[:, 1:] == 0.0)


def test_simulate_missing_kt_names_field(capsys):
    rc = run(["simulate", "--scenario", "two_level", "--g_over_k", "1"])
    assert rc == 2
    assert "kT" in capsys.readouterr().err


def test_simulate_unknown_scenario(capsys):
    rc = run(["simulate", "--scenario", "four_level", "--kT", "2"])
    assert rc == 2


def test_simulate_bad_pulse(capsys):
    rc = run(
        [
            "simulate",
            "--scenario",
            "two_level",
            "--kT",
            "2",
            "--g_over_k",
            "1",
            "--pulse",
            "gaussian",
        ]
    )
    assert rc == 2
    assert "pulse" in capsys.readouterr().err


def test_simulate_lambda_nonadiabatic(tmp_path):
    out = tmp_path / "lam.csv"
    rc = run(
        [
            "simulate",
            "--scenario",
            "lambda_nonadiabatic",
            "--kT",
            "2",
            "--gc_over_k",
            "5",
            "--omega_over_k",
            "5",
            "--delta1_over_k",
            "50",
            "--points",
            "200",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["t_over_T", "pop_beta", "pop_cr", "pop_ce"]
    data = np.asarray(rows)
    # frozen oscillation: the target population is flat at the end
    tail = data[data[:, 0] > 4.5, 3]
    assert np.max(tail) - np.min(tail) < 1e-6


def test_simulate_lambda_nonadiabatic_sign_of_delta1(tmp_path):
    # flipping Delta1 (with the Stark-compensated Delta2 and the carrier
    # shift that follow it) conjugates the equations of motion, so the
    # exact peak search switches off at the same time: a red-detuned
    # control loads as the blue-detuned one does, far from resonance and
    # at detuning ratio 3
    for size in ("20", "3"):
        pops = []
        for delta1 in (size, f"-{size}"):
            out = tmp_path / f"lam{delta1}.csv"
            argv = ["simulate", "--scenario", "lambda_nonadiabatic", "--kT", "2", "--gc_over_k"]
            argv += ["1", "--omega_over_k", "1", f"--delta1_over_k={delta1}", "--out", str(out)]
            assert run(argv) == 0
            pops.append(np.asarray(read_csv(out)[1]))
        assert np.max(np.abs(pops[0] - pops[1])) <= 1e-12
        assert pops[0][:, 3].max() > 0.01


def test_simulate_mitnu(tmp_path):
    out = tmp_path / "mitnu.csv"
    rc = run(
        [
            "simulate",
            "--scenario",
            "mitnu",
            "--kT",
            "2",
            "--kT0",
            "2",
            "--g_over_k",
            "1",
            "--points",
            "150",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["t_over_T", "pop_ce"]
    assert max(r[1] for r in rows) > 0.5


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kT = 2\ng_over_k = 5.0\npulse = sech\n")
    out = tmp_path / "cfg.csv"
    rc = run(
        [
            "simulate",
            "--scenario",
            "two_level",
            "--config",
            str(cfg),
            "--g_over_k",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    _, rows = read_csv(out)
    # g = 1 (flag) not 5 (file): peak just above 0.9
    assert max(r[2] for r in rows) == pytest.approx(0.902, abs=5e-3)


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kT = 2\ncoupling = 1\n")
    rc = run(
        ["simulate", "--scenario", "two_level", "--config", str(cfg), "--g_over_k", "1"]
    )
    assert rc == 2
    assert "coupling" in capsys.readouterr().err


def test_optimize_row_and_determinism(tmp_path):
    out = tmp_path / "opt.csv"
    argv = [
        "optimize",
        "--scenario",
        "two_level",
        "--kT",
        "2",
        "--g_min",
        "0.5",
        "--g_max",
        "3.0",
        "--out",
        str(out),
    ]
    assert run(argv) == 0
    first = out.read_bytes()
    header, rows = read_csv(out)
    assert header == ["g_opt", "P_max", "T_load"]
    assert rows[0][1] > 0.9
    assert run(argv) == 0
    assert out.read_bytes() == first


def test_optimize_range_edge_warns(tmp_path, capsys):
    # two-level loading at kT = 2 peaks near g = kappa: capped at 0.5 the
    # optimum is the range's upper end, which is flagged on stderr only
    out = tmp_path / "edge.csv"
    base = ["optimize", "--scenario", "two_level", "--kT", "2", "--out", str(out)]
    assert run(base + ["--g_max", "0.5"]) == 0
    header, rows = read_csv(out)
    assert header == ["g_opt", "P_max", "T_load"]
    assert rows[0][0] == 0.5
    err = capsys.readouterr().err
    assert "warning" in err and "search range" in err
    assert run(base + ["--g_min", "0.5", "--g_max", "3.0"]) == 0
    assert 0.5 < read_csv(out)[1][0][0] < 3.0
    assert capsys.readouterr().err == ""


def test_optimize_empty_range(capsys):
    rc = run(
        [
            "optimize",
            "--scenario",
            "two_level",
            "--kT",
            "2",
            "--g_min",
            "2.0",
            "--g_max",
            "1.0",
        ]
    )
    assert rc == 2
    assert "g_m" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("g_max", "nan"), ("g_min", "inf")])
def test_optimize_non_finite_range_end_names_the_field(capsys, flag, value):
    rc = run(["optimize", "--scenario", "two_level", "--kT", "2", f"--{flag}", value])
    assert rc == 2
    assert f"field {flag}: must be finite, got '{value}'" in capsys.readouterr().err


def test_optimize_mitnu_needs_kt0(capsys):
    rc = run(["optimize", "--scenario", "mitnu", "--kT", "2"])
    assert rc == 2
    assert "kT0" in capsys.readouterr().err


def test_figure_unknown_preset(capsys):
    rc = run(["figure", "--preset", "fig99"])
    assert rc == 2


def test_figure_fig5_runs_and_is_deterministic(tmp_path):
    outdir = tmp_path / "figs"
    argv = ["figure", "--preset", "fig5", "--outdir", str(outdir)]
    assert run(argv) == 0
    files = sorted(p.name for p in outdir.iterdir())
    assert files == [
        "fig5_exp_decaying.csv",
        "fig5_exp_rising.csv",
        "fig5_params.txt",
        "fig5_rectangular.csv",
        "fig5_sech.csv",
    ]
    blobs = {p.name: p.read_bytes() for p in outdir.iterdir()}
    assert run(argv) == 0
    for p in outdir.iterdir():
        assert p.read_bytes() == blobs[p.name]


def test_csv_round_trip_format(tmp_path):
    out = tmp_path / "fmt.csv"
    cli.write_csv(out, ["a", "b"], [(0.1, 1e-17), (float("nan"), 2.0)])
    text = out.read_text()
    assert "\r" not in text
    header, rows = read_csv(out)
    assert rows[0][0] == 0.1
    assert rows[0][1] == 1e-17
    assert np.isnan(rows[1][0])


@pytest.mark.parametrize("variant", ["tpr", "zed"])
def test_simulate_adiabatic_by_flags(tmp_path, variant):
    out = tmp_path / f"{variant}.csv"
    rc = run(
        [
            "simulate",
            "--scenario",
            f"lambda_adiabatic_{variant}",
            "--kT",
            "4.5",
            "--g_prime_over_k",
            "1",
            "--points",
            "80",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["t_over_T", "pop_beta", "pop_cr", "pop_ce"]
    # the module's run on the same grid, with g' = g_c^2 / Delta1 = 1
    grid = np.linspace(pulses.make_sech(4.5, 4.5).support[0], 5.0 * 4.5, 80)
    detuned = variant == "tpr"
    traj, _ = lambda_memory.adiabatic_load(20.0, 400.0, 1.0, 4.5, detuned=detuned, grid=grid)
    np.testing.assert_allclose(
        np.asarray(rows)[:, 3], traj.population("c_e"), rtol=0.0, atol=1e-12
    )


@pytest.mark.parametrize(
    "argv, field",
    [
        (["simulate", "--scenario", "two_level", "--kT", "2", "--g_over_k", "1",
          "--omega_over_k", "7"], "omega_over_k"),
        (["optimize", "--scenario", "two_level", "--kT", "2", "--kT0", "3"], "kT0"),
        (["optimize", "--scenario", "mitnu", "--kT", "2", "--kT0", "2",
          "--pulse", "sech"], "pulse"),
    ],
)
def test_field_unused_by_scenario_rejected(tmp_path, capsys, argv, field):
    rc = run(argv + ["--out", str(tmp_path / "never.csv")])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "never.csv").exists()


def test_config_key_unused_by_scenario_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kT = 2\nkT0 = 3\n")
    out = tmp_path / "never.csv"
    rc = run(["optimize", "--scenario", "two_level", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "kT0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("points", ["1", "2.7", "0", "-3", "many"])
def test_simulate_points_must_be_integer_of_two_or_more(tmp_path, capsys, points):
    argv = ["simulate", "--scenario", "two_level", "--kT", "2", "--g_over_k", "1"]
    assert run(argv + ["--points", points, "--out", str(tmp_path / "a.csv")]) == 2
    assert "points" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"points = {points}\n")
    assert run(argv + ["--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 2
    assert "points" in capsys.readouterr().err


def test_simulate_two_points_is_enough(tmp_path):
    out = tmp_path / "two.csv"
    argv = ["simulate", "--scenario", "two_level", "--kT", "2", "--g_over_k", "1"]
    assert run(argv + ["--points", "2", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_simulate_non_finite_coupling_rejected(capsys, value):
    rc = run(["simulate", "--scenario", "two_level", "--kT", "2", "--g_over_k", value])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


def test_usage_error_returns_status(capsys):
    # argparse takes "-inf" for an option, so the flag has no value: a usage
    # error, reported by return code rather than SystemExit
    rc = run(["simulate", "--scenario", "two_level", "--kT", "2", "--g_over_k", "-inf"])
    assert rc == 2
    assert "expected one argument" in capsys.readouterr().err


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch, capsys):
    # the first call builds the parser; a usage error between two runs
    # leaves it as it was, so both runs write the same bytes
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(build()) or built[-1])
    cli._parser.cache_clear()
    argv = ["simulate", "--scenario", "two_level", "--kT", "2", "--g_over_k", "1", "--points", "5"]
    try:
        assert run([*argv, "--out", str(tmp_path / "a.csv")]) == 0
        assert run(["simulate", "--scenario", "two_level", "--kT"]) == 2
        assert run([*argv, "--out", str(tmp_path / "b.csv")]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert "expected one argument" in capsys.readouterr().err
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_optimize_cold_start_leaves_scipy_integrate_unloaded(tmp_path):
    # a fresh interpreter runs one optimum per scenario, then the two-level
    # and three-level trajectory writers; none of them may load
    # scipy.integrate, which only the oracle routes need
    script = textwrap.dedent(
        """
        import sys

        from cavity_loader import cli, pulses

        runs = [
            ["--scenario", "two_level", "--kT", "2"],
            ["--scenario", "lambda_nonadiabatic", "--kT", "3"],
            ["--scenario", "mitnu", "--kT", "3", "--kT0", "4"],
            ["--scenario", "lambda_adiabatic_tpr", "--kT", "6"],
            ["--scenario", "lambda_adiabatic_zed", "--kT", "7"],
        ]
        for i, argv in enumerate(runs):
            rc = cli.main(["optimize", *argv, "--out", f"opt{i}.csv"])
            assert rc == 0, (argv, rc)
        writers = [
            ["simulate", "--scenario", "two_level", "--kT", "2", "--g_over_k", "1"],
            *(["figure", "--preset", p, "--outdir", "figs"] for p in ("fig3", "fig5", "fig8")),
        ]
        for argv in writers:
            assert cli.main(argv) == 0, argv
        # the three-level trajectory writer steps exactly too
        argv = ["simulate", "--scenario", "lambda_nonadiabatic", "--kT", "2", "--gc_over_k", "1"]
        argv += ["--omega_over_k", "1", "--delta1_over_k", "20", "--out", "l.csv"]
        assert cli.main(argv) == 0
        assert "scipy.integrate" not in sys.modules
        # the oracle quadrature still works, and does not load it either
        norm = pulses.make_sech(2.0, 2.0).norm_squared()
        assert abs(norm - 1.0) < 1e-8, norm
        assert "scipy.integrate" not in sys.modules
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


_TWO_LEVEL_SIMULATE = ["simulate", "--scenario", "two_level", "--kT", "2"]


def _huge_width_commands():
    """(argv, id) of each command where a pulse width near pulses.MAX_WIDTH
    meets a rate of 1e10, so that the exact stepping's exponents overflow:
    the two-level writer and both two-level optimizers, at each width."""
    for kT in ("1e306", "2.8e306"):
        for field in ("g_over_k", "gamma_over_k", "delta_over_k"):
            rates = {"g_over_k": "1", "gamma_over_k": "0.1", "delta_over_k": "0.5", field: "1e10"}
            argv = ["simulate", "--scenario", "two_level", "--kT", kT, "--pulse", "rectangular"]
            yield argv + [f"--{k}={v}" for k, v in rates.items()], f"simulate-{field}-{kT}"
        for scenario in ("two_level", "lambda_nonadiabatic"):
            for field in ("gamma_over_g", "delta_over_k", "g_max"):
                rates = {"gamma_over_g": "0.1", "delta_over_k": "0.5", "g_max": "5", field: "1e10"}
                argv = ["optimize", "--scenario", scenario, "--kT", kT, "--pulse", "rectangular"]
                yield argv + [f"--{k}={v}" for k, v in rates.items()], f"{scenario}-{field}-{kT}"


_HUGE_WIDTH = list(_huge_width_commands())
_LAMBDA_NONADIABATIC_SIMULATE = [
    "simulate", "--scenario", "lambda_nonadiabatic", "--kT", "2",
    "--gc_over_k", "1", "--omega_over_k", "1", "--delta1_over_k", "20",
]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["optimize", "--scenario", "two_level", "--kT", "2", "--delta_over_k", "1e300"], 2),
        (["optimize", "--scenario", "two_level", "--kT", "2", "--gamma_over_g", "1e300"], 2),
        (
            ["optimize", "--scenario", "lambda_nonadiabatic", "--kT", "2", "--delta_over_k", "1e160"],
            2,
        ),
        (["optimize", "--scenario", "mitnu", "--kT", "2", "--kT0", "1e-9"], 3),
        (["optimize", "--scenario", "mitnu", "--kT", "1e-9", "--kT0", "2"], 3),
        (["simulate", "--scenario", "mitnu", "--kT", "2", "--kT0", "1e-9", "--g_over_k", "1"], 3),
        (
            ["simulate", "--scenario", "lambda_adiabatic_zed", "--kT", "5", "--g_prime_over_k", "-1"],
            2,
        ),
        (_TWO_LEVEL_SIMULATE + ["--g_over_k", "1", "--delta_over_k", "1e300"], 2),
        (_TWO_LEVEL_SIMULATE + ["--g_over_k", "1e300"], 2),
        (_TWO_LEVEL_SIMULATE + ["--g_over_k", "1", "--gamma_over_k", "1e300"], 2),
        (
            ["simulate", "--scenario", "lambda_nonadiabatic", "--kT", "2", "--gc_over_k", "1"]
            + ["--omega_over_k", "1", "--delta1_over_k", "1e300"],
            3,
        ),
        (_LAMBDA_NONADIABATIC_SIMULATE + ["--t_load_over_T", "nan"], 2),
        (_LAMBDA_NONADIABATIC_SIMULATE + ["--t_load_over_T", "inf"], 2),
        (_LAMBDA_NONADIABATIC_SIMULATE + ["--t_load_over_T=-inf"], 2),
        (["optimize", "--scenario", "two_level", "--kT", "2", "--g_max", "inf"], 2),
        (["optimize", "--scenario", "two_level", "--kT", "2", "--tol", "inf"], 2),
        (_LAMBDA_NONADIABATIC_SIMULATE + ["--omega_over_k", "1e200"], 2),
        (_LAMBDA_NONADIABATIC_SIMULATE + ["--omega_over_k", "1e160"], 2),
        (_LAMBDA_NONADIABATIC_SIMULATE + ["--gc_over_k", "1e200"], 2),
        (_LAMBDA_NONADIABATIC_SIMULATE + ["--delta1_over_k", "0", "--delta2_over_k", "0"], 2),
        (
            _LAMBDA_NONADIABATIC_SIMULATE
            + ["--delta1_over_k", "0", "--delta2_over_k", "0", "--t_load_over_T", "1"],
            2,
        ),
        (_LAMBDA_NONADIABATIC_SIMULATE + ["--delta1_over_k=-0.0", "--delta2_over_k", "0"], 2),
        (["optimize", "--scenario", "two_level", "--kT", "1e-310"], 2),
        (["simulate", "--scenario", "two_level", "--kT", "1e-310", "--g_over_k", "1"], 2),
        (
            _LAMBDA_NONADIABATIC_SIMULATE
            + ["--delta1_over_k", "1e-310", "--delta2_over_k", "1", "--t_load_over_T", "1"],
            2,
        ),
        (_LAMBDA_NONADIABATIC_SIMULATE + ["--delta1_over_k", "1e-310"], 2),
        (["optimize", "--scenario", "mitnu", "--kT", "1e-310", "--kT0", "2"], 2),
        (["optimize", "--scenario", "mitnu", "--kT", "2", "--kT0", "1e-310"], 3),
        (
            ["simulate", "--scenario", "lambda_adiabatic_tpr", "--kT", "1e10"]
            + ["--g_prime_over_k", "1e300"],
            3,
        ),
        (["optimize", "--scenario", "lambda_adiabatic_zed", "--kT", "1e300", "--g_max", "1e300"], 3),
        (["optimize", "--scenario", "lambda_adiabatic_tpr", "--kT", "5", "--g_max", "1.7e308"], 3),
        (["optimize", "--scenario", "lambda_adiabatic_zed", "--kT", "5", "--g_max", "1.7e308"], 3),
        (["optimize", "--scenario", "lambda_adiabatic_tpr", "--kT", "5", "--g_max", "1e308"], 3),
        (["optimize", "--scenario", "lambda_adiabatic_zed", "--kT", "5", "--g_max", "1e308"], 3),
        *((argv, 0) for argv, _ in _HUGE_WIDTH),
    ],
    ids=[
        "two_level-delta",
        "two_level-gamma",
        "lambda_nonadiabatic-delta",
        "mitnu-narrow-window",
        "mitnu-narrow-pump",
        "mitnu-simulate",
        "zed-negative-g_prime",
        "two_level-simulate-delta",
        "two_level-simulate-g",
        "two_level-simulate-gamma",
        "lambda_nonadiabatic-simulate-delta1",
        "lambda_nonadiabatic-t_load-nan",
        "lambda_nonadiabatic-t_load-inf",
        "lambda_nonadiabatic-t_load-minus-inf",
        "two_level-g_max-inf",
        "two_level-tol-inf",
        "lambda_nonadiabatic-omega-1e200",
        "lambda_nonadiabatic-omega-1e160",
        "lambda_nonadiabatic-g_c-1e200",
        "lambda_nonadiabatic-delta1-zero",
        "lambda_nonadiabatic-delta1-zero-t_load",
        "lambda_nonadiabatic-delta1-minus-zero",
        "two_level-subnormal-kT",
        "two_level-simulate-subnormal-kT",
        "lambda_nonadiabatic-subnormal-delta1-t_load",
        "lambda_nonadiabatic-subnormal-delta1",
        "mitnu-subnormal-kT",
        "mitnu-subnormal-kT0",
        "tpr-steps-overflow",
        "zed-optimize-steps-overflow",
        "tpr-rate-overflow",
        "zed-rate-overflow",
        "tpr-rate-overflow-1e308",
        "zed-rate-overflow-1e308",
        *(f"huge-width-{name}" for _, name in _HUGE_WIDTH),
    ],
)
def test_contract_for_extreme_inputs(tmp_path, capsys, argv, code):
    # overflowing rates, a pulse width or carrier shift whose amplitude or
    # phase overflows and a negative g' are configuration errors; a pair
    # rule past its node budget, or an adiabatic run whose fastest rate or
    # stable step count overflows, is a numeric failure, raised before the
    # rule or the run is allocated; none of them may leak a traceback or a
    # warning.  A pulse width near the float range with a rate of 1e10 runs
    # to the end: the overflowing kernel exponentials are exact zeros, and no
    # row is nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(argv + ["--out", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert rc == code, err
    assert rc != 0 or "nan" not in (tmp_path / "out.csv").read_text()
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_step_budget_error_is_one_line(tmp_path, capsys):
    # the step count of an overflowing stability bound is printed to three
    # digits, not as a ~300-digit integer
    argv = ["simulate", "--scenario", "lambda_adiabatic_tpr", "--kT", "5"]
    rc = run(argv + ["--g_prime_over_k", "1e300", "--out", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert rc == 3, err
    lines = err.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200, err


# the CLI fuzz: every field of every scenario's simulate and optimize
# commands, the common ones included, in a valid command that sets all of
# them; one field is then set to one of _FUZZ_VALUES, or an optional one
# left out, so that its default runs
_FUZZ_REQUIRED = {
    ("simulate", "two_level"): {"kT": "2", "g_over_k": "1"},
    ("simulate", "lambda_nonadiabatic"): {
        "kT": "2", "gc_over_k": "1", "omega_over_k": "1", "delta1_over_k": "20",
    },
    ("simulate", "lambda_adiabatic_tpr"): {"kT": "5", "g_prime_over_k": "1"},
    ("simulate", "lambda_adiabatic_zed"): {"kT": "5", "g_prime_over_k": "1"},
    ("simulate", "mitnu"): {"kT": "2", "kT0": "1", "g_over_k": "1"},
    ("optimize", "two_level"): {"kT": "2"},
    ("optimize", "lambda_nonadiabatic"): {"kT": "2"},
    ("optimize", "lambda_adiabatic_tpr"): {"kT": "5"},
    ("optimize", "lambda_adiabatic_zed"): {"kT": "5"},
    ("optimize", "mitnu"): {"kT": "2", "kT0": "1"},
}
# small simulate grids and a coarse optimize tolerance keep the fuzz fast
_FUZZ_OPTIONAL = {
    "gamma_over_k": "0.1", "delta_over_k": "0.5", "pulse": "rectangular",
    "delta2_over_k": "20", "gamma_r_over_k": "0.1", "t_load_over_T": "1.5",
    "gamma_over_g": "0.1", "points": "20", "out": "out.csv",
    "g_min": "0.1", "g_max": "5", "tol": "0.1",
}
_FUZZ_VALUES = (
    "0", "-0.0", "1e-300", "1e-310", "1e300", "1.7e308", "-1", "nan", "inf", "abc",
)
# the pairwise fuzz sets two fields at once to these magnitudes; the fields
# that are no magnitude (a pulse family, a grid size, a path) it leaves alone
# (2.8e306, a pulse width near pulses.MAX_WIDTH, reaches the exact
# stepping's overflowing exponents; 1e306 reaches the same commands, and
# adding it too would take the fuzz from ~3 s to ~4.7 s)
_PAIR_VALUES = ("1e10", "1e300", "2.8e306")
_NOT_MAGNITUDES = {"pulse", "points", "out"}


def _fuzz_bases():
    """(command, scenario, the valid fields, the optional names) for each
    scenario's simulate and optimize command with all its fields set."""
    for (command, scenario), required in _FUZZ_REQUIRED.items():
        fields = getattr(optimize.get_scenario(scenario), command)
        optional = [*fields.optional, *cli.COMMON_FIELDS[command]]
        base = {**required, **{key: _FUZZ_OPTIONAL[key] for key in optional}}
        yield command, scenario, base, optional


def _argv(command, scenario, values):
    flags = [f"--{key}={raw}" for key, raw in values.items() if raw is not None]
    return (command, f"--scenario={scenario}", *flags)


def _fuzz_commands():
    """Every fuzzed argv: each field set to each of _FUZZ_VALUES in turn,
    and each optional field left out."""
    for command, scenario, base, optional in _fuzz_bases():
        for name in base:
            for value in _FUZZ_VALUES + ((None,) if name in optional else ()):
                yield _argv(command, scenario, {**base, name: value})


def _pair_fuzz_commands():
    """Every pair of magnitude fields set to every pair of _PAIR_VALUES."""
    for command, scenario, base, _ in _fuzz_bases():
        names = [name for name in base if name not in _NOT_MAGNITUDES]
        for pair in itertools.combinations(names, 2):
            for raw in itertools.product(_PAIR_VALUES, repeat=2):
                yield _argv(command, scenario, {**base, **dict(zip(pair, raw))})


# hypothesis never repeats a draw, so as many examples as commands run each
# command once
_FUZZ_COMMANDS = list(_fuzz_commands())
_PAIR_FUZZ_COMMANDS = list(_pair_fuzz_commands())


@settings(derandomize=True, max_examples=len(_FUZZ_COMMANDS), deadline=None, database=None)
@given(st.sampled_from(_FUZZ_COMMANDS))
def test_cli_fuzz_keeps_the_contract(argv):
    _assert_contract(argv)


@settings(derandomize=True, max_examples=len(_PAIR_FUZZ_COMMANDS), deadline=None, database=None)
@given(st.sampled_from(_PAIR_FUZZ_COMMANDS))
def test_cli_pairwise_fuzz_keeps_the_contract(argv):
    # two extreme fields at once reach what one alone does not, such as an
    # adiabatic run's step count over a long pulse at a large coupling
    _assert_contract(argv)


def _assert_contract(argv):
    # exit 0, 2 or 3 and nothing on stderr but the message, and no nan in
    # what a successful run writes; the run works in a scratch directory,
    # where a default or fuzzed --out lands
    err, cwd = io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                rc = run(list(argv))
        finally:
            os.chdir(cwd)
        written = [path.read_text() for path in Path(scratch).rglob("*") if path.is_file()]
    assert rc in (0, 2, 3), err.getvalue()
    assert rc != 0 or not any("nan" in text for text in written)
    assert "Traceback" not in err.getvalue() and "RuntimeWarning" not in err.getvalue()
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
