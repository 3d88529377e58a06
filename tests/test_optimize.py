import numpy as np
import pytest

from cavity_loader import optimize, two_level
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


MITNU_FIXED = {"kT": 3.0, "kT0": 4.0}


def test_scenario_probability_float_in_float_out():
    for scenario, fixed in (("two_level", {"kT": 2.0}), ("mitnu", MITNU_FIXED)):
        p, t = optimize.scenario_probability(scenario, 0.7, fixed)
        assert type(p) is float and type(t) is float
        probs, times = optimize.scenario_probability(scenario, np.array([0.7]), fixed)
        assert isinstance(probs, np.ndarray) and probs.shape == (1,)
        assert isinstance(times, np.ndarray) and times.shape == (1,)


def test_scenario_probability_rejects_bad_coupling_arrays():
    for bad in (np.ones((2, 2)), np.array([])):
        with pytest.raises(ValueError, match="couplings"):
            optimize.scenario_probability("two_level", bad, {"kT": 2.0})


def test_mitnu_array_call_matches_float_calls():
    grid = np.geomspace(0.1, 5.0, 40)
    probs, times = optimize.scenario_probability("mitnu", grid, MITNU_FIXED)
    for g, p, t in zip(grid, probs, times):
        p1, t1 = optimize.scenario_probability("mitnu", float(g), MITNU_FIXED)
        assert abs(p - p1) <= 1e-14
        assert abs(t - t1) <= 1e-6 * MITNU_FIXED["kT"]


@pytest.mark.parametrize(
    "scenario, fixed, grid",
    [
        ("two_level", {"kT": 2.0, "gamma_over_g": 0.1, "pulse": "exp_rising"},
         np.geomspace(0.3, 4.0, 5)),
        ("lambda_adiabatic_zed", {"kT": 4.5}, np.geomspace(0.2, 5.0, 3)),
        ("lambda_adiabatic_tpr", {"kT": 4.5}, np.geomspace(0.2, 5.0, 3)),
        # the RK4 stability bound gives these couplings 2 and 3 sub-steps per
        # output interval, so the array call runs two groups
        ("lambda_adiabatic_zed", {"kT": 4.5}, np.geomspace(0.2, 50.0, 6)),
    ],
)
def test_array_call_is_bit_identical(scenario, fixed, grid):
    probs, times = optimize.scenario_probability(scenario, grid, fixed)
    singles = [optimize.scenario_probability(scenario, float(g), fixed) for g in grid]
    assert probs.tolist() == [p for p, _ in singles]
    assert times.tolist() == [t for _, t in singles]


def _count_single_calls(monkeypatch):
    """Count objective calls at one coupling; the coarse scan is one array call."""
    calls = {"single": 0, "array": 0}
    original = optimize.scenario_probability

    def counting(scenario, g, fixed):
        calls["array" if np.ndim(g) else "single"] += 1
        return original(scenario, g, fixed)

    monkeypatch.setattr(optimize, "scenario_probability", counting)
    return calls


def test_optimum_counts_distinct_evaluations(monkeypatch):
    calls = _count_single_calls(monkeypatch)
    opt = optimize.optimize_coupling("two_level", {"kT": 2.0}, (0.3, 4.0))
    assert calls["array"] == 1
    assert calls["single"] > 0
    assert opt.n_evals == 40 + calls["single"]


def test_optimum_refines_in_few_couplings():
    # Brent's method: 40 scanned couplings plus 6 refinement calls here; the
    # golden-section search it replaced made 13
    opt = optimize.optimize_coupling("two_level", {"kT": 2.0}, (0.3, 4.0))
    assert opt.n_evals <= 48


def test_degenerate_optimum_counts_the_scan(monkeypatch):
    calls = _count_single_calls(monkeypatch)
    opt = optimize.optimize_coupling("two_level", {"kT": 2.0}, (1.0, 1.0 + 1e-9), tol=1e-4)
    assert opt.degenerate
    assert calls == {"single": 0, "array": 1}
    assert opt.n_evals == 40


def test_objective_calls_of_one_optimum_share_one_scan_grid():
    # the coarse scan and each Brent coupling of one optimum pass the same
    # pulse (make_named gives equal arguments one object), and so read the
    # one memo entry that the first call made
    fixed = {"kT": 2.0, "pulse": "exp_rising", "gamma_over_g": 0.1}
    two_level._SCAN_MEMO.clear()
    optimize._two_level_probability(np.geomspace(0.1, 5.0, 4), fixed)
    (entry,) = two_level._SCAN_MEMO.values()
    optimize._two_level_probability(np.array([1.3]), dict(fixed))
    (again,) = two_level._SCAN_MEMO.values()
    assert again is entry
