import numpy as np
import pytest

from cavity_loader import optimize
from cavity_loader.optimize import SweepSpec


def test_optimize_two_level_basic():
    opt = optimize.optimize_coupling("two_level", {"kT": 2.0}, (0.3, 4.0))
    assert 0.8 < opt.g_opt < 1.5
    assert opt.P_max > 0.9
    assert opt.bracket <= optimize.DEFAULT_G_TOL
    assert not opt.degenerate


def test_optimize_refinement_no_regression():
    fixed = {"kT": 1.0}
    grid = np.geomspace(0.3, 4.0, 40)
    coarse = max(
        optimize.scenario_probability("two_level", float(g), fixed)[0] for g in grid
    )
    opt = optimize.optimize_coupling("two_level", fixed, (0.3, 4.0))
    assert opt.P_max >= coarse - 1e-12


def test_optimize_tol_shrink_stays_in_bracket():
    fixed = {"kT": 1.0}
    a = optimize.optimize_coupling("two_level", fixed, (0.5, 4.0), tol=4e-3)
    b = optimize.optimize_coupling("two_level", fixed, (0.5, 4.0), tol=1e-3)
    assert abs(a.g_opt - b.g_opt) < 4e-3 + 1e-12


def test_optimize_flat_objective_degenerate():
    opt = optimize.optimize_coupling(
        "two_level", {"kT": 2.0}, (1.0, 1.0 + 1e-9), tol=1e-4
    )
    assert opt.degenerate


def test_optimize_validates_range():
    with pytest.raises(ValueError):
        optimize.optimize_coupling("two_level", {"kT": 2.0}, (2.0, 1.0))
    with pytest.raises(ValueError):
        optimize.optimize_coupling("two_level", {"kT": 2.0}, (0.5, 2.0), tol=0.0)


def test_scenario_rejects_unknown():
    with pytest.raises(ValueError):
        optimize.scenario_probability("three_level", 1.0, {"kT": 2.0})


def test_sweep_reproducible_and_ordered():
    spec = SweepSpec(
        scenario="two_level",
        axes=(("kT", (1.0, 2.0, 3.0)),),
        fixed={"g_over_k": 1.0},
    )
    rows1 = optimize.sweep(spec, workers=1)
    rows2 = optimize.sweep(spec, workers=1)
    assert rows1 == rows2
    assert [r["kT"] for r in rows1] == [1.0, 2.0, 3.0]
    assert all(r["error"] == "" for r in rows1)


def test_sweep_2d_row_major():
    spec = SweepSpec(
        scenario="two_level",
        axes=(("kT", (1.0, 2.0)), ("gamma_over_g", (0.0, 0.5))),
        fixed={"g_over_k": 1.0},
    )
    rows = optimize.sweep(spec, workers=1)
    assert [(r["kT"], r["gamma_over_g"]) for r in rows] == [
        (1.0, 0.0),
        (1.0, 0.5),
        (2.0, 0.0),
        (2.0, 0.5),
    ]


def test_sweep_records_cell_failures():
    # mitnu cells without kT0 fail individually; the sweep keeps going
    spec = SweepSpec(
        scenario="mitnu", axes=(("kT", (2.0, 3.0)),), fixed={"g_over_k": 1.0}
    )
    rows = optimize.sweep(spec, workers=1)
    assert len(rows) == 2
    assert all(r["error"] != "" for r in rows)
    assert all(np.isnan(r["P_max"]) for r in rows)


def test_sweep_parallel_matches_serial():
    spec = SweepSpec(
        scenario="two_level",
        axes=(("kT", (1.0, 2.0, 3.0, 4.0)),),
        fixed={"g_over_k": 1.0},
    )
    assert optimize.sweep(spec, workers=2) == optimize.sweep(spec, workers=1)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(scenario="two_level", axes=(("kT", (2.0, 1.0)),))
    with pytest.raises(ValueError):
        SweepSpec(scenario="nope", axes=(("kT", (1.0, 2.0)),))


def test_python_api_rejects_fields_the_scenario_does_not_read():
    with pytest.raises(ValueError, match="does not use field gama_over_g"):
        SweepSpec(
            scenario="two_level",
            axes=(("kT", (2.0,)),),
            fixed={"g_over_k": 1.0, "gama_over_g": 0.5},
        )
    with pytest.raises(ValueError, match="does not use field gama_over_g"):
        optimize.optimize_coupling("two_level", {"kT": 2.0, "gama_over_g": 0.5})
    with pytest.raises(ValueError, match="does not use field g_over_k"):
        SweepSpec(
            scenario="two_level",
            axes=(("kT", (2.0,)),),
            fixed={"g_over_k": 1.0},
            optimize_g=True,
        )


def test_resolve_workers_env(monkeypatch):
    monkeypatch.setenv(optimize.WORKERS_ENV, "1")
    assert optimize.resolve_workers() == 1
    monkeypatch.delenv(optimize.WORKERS_ENV)
    assert optimize.resolve_workers(3) == 3


def test_throughput_equal_designs():
    assert optimize.throughput_compare(2.0, 0.5, 2.0, 0.5) == pytest.approx(1.0)


def test_throughput_paper_example():
    assert optimize.throughput_compare(1.0, 0.75, 4.0, 1.0) == pytest.approx(3.0)


def test_throughput_algebra():
    p_a = 0.8
    ratio = optimize.throughput_compare(1.0, p_a, 4.0, 1.0)
    assert ratio == pytest.approx(4.0 * p_a)


def test_throughput_zero_reference():
    with pytest.raises(ValueError):
        optimize.throughput_compare(1.0, 0.5, 4.0, 0.0)
