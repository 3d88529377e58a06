import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _runs(values):
    return [{"metrics": {"wall_s": {"value": v, "unit": "s"}}} for v in values]


def test_summary_counts_won_pairs_and_quartiles():
    end_to_end = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]
    runs = {"parent": _runs([1.0, 2.0, 3.0, 4.0, 5.0]), "change": _runs([0.5, 2.0, 1.0, 4.5, 1.0])}
    wall = bench_record.summarize(runs, end_to_end)["wall_s"]
    assert (wall["parent_q1"], wall["parent_median"], wall["parent_q3"]) == (2.0, 3.0, 4.0)
    assert wall["change_median"] == 1.0
    assert wall["parent_runs"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    # pair 1 is a tie and counts for neither side; pair 3 the change lost
    assert wall["change_better_pairs"] == 3
    higher = [{**end_to_end[0], "better": "higher"}]
    assert bench_record.summarize(runs, higher)["wall_s"]["change_better_pairs"] == 1


def test_spec_parsing():
    assert bench_record.parse_spec("design_points:1:10") == ("design_points", 1, 10)
    with pytest.raises(Exception, match="WORKLOAD:SEED:PAIRS"):
        bench_record.parse_spec("design_points:1")


def test_compare_takes_the_direction_of_better():
    sides = {"parent": [2.0, 4.0, 6.0], "change": [1.0, 5.0, 3.0]}
    lower = bench_record.compare(sides, "lower")
    assert (lower["parent_q1"], lower["parent_median"], lower["parent_q3"]) == (3.0, 4.0, 5.0)
    assert lower["change_median"] == 3.0
    assert lower["change_runs"] == [1.0, 5.0, 3.0]
    assert lower["change_better_pairs"] == 2
    assert bench_record.compare(sides, "higher")["change_better_pairs"] == 1


def test_cli_timings_alternate_sides_and_summarize(monkeypatch):
    calls = []

    def fake_time_cli(checkout, argv, scratch):
        calls.append((checkout, argv[0]))
        return 2.0 if checkout == "parent-dir" else 1.0

    monkeypatch.setattr(bench_record, "time_cli", fake_time_cli)
    monkeypatch.setattr(bench_record, "CLI_COMMANDS", {"figure_fig3": ["figure", "--preset", "fig3"]})
    order = []
    out = bench_record.cli_timings({"parent": "parent-dir", "change": "change-dir"}, 3, order)
    # even pairs run the parent first, odd pairs the change first
    assert [side for *_, side in order] == ["parent", "change", "change", "parent", "parent", "change"]
    assert [c for c, _ in calls] == ["parent-dir", "change-dir", "change-dir", "parent-dir",
                                     "parent-dir", "change-dir"]
    fig3 = out["figure_fig3"]
    assert fig3["argv"] == ["figure", "--preset", "fig3"]
    assert (fig3["parent_median"], fig3["change_median"]) == (2.0, 1.0)
    assert fig3["change_better_pairs"] == 3


def test_cli_timings_compare_what_each_side_writes(monkeypatch):
    # every run writes a.csv, the same on both sides, and b.csv, which the
    # change writes differently from the parent
    def fake_time_cli(checkout, argv, scratch):
        (scratch / "a.csv").write_text("1,2\n")
        (scratch / "b.csv").write_text(f"{checkout}\n")
        return 1.0

    monkeypatch.setattr(bench_record, "time_cli", fake_time_cli)
    monkeypatch.setattr(bench_record, "CLI_COMMANDS", {"figure_fig3": ["figure", "--preset", "fig3"]})
    out = bench_record.cli_timings({"parent": "parent-dir", "change": "change-dir"}, 2, [])
    assert out["figure_fig3"]["outputs"] == {"identical": False, "files": 2, "differ": ["b.csv"]}


def test_compare_outputs_names_changed_missing_and_added_files():
    parent = {"a.csv": "1", "b.csv": "2", "c.csv": "3"}
    same = bench_record.compare_outputs({"parent": [parent, parent], "change": [parent, parent]})
    assert same == {"identical": True, "files": 3, "differ": []}
    change = {"a.csv": "1", "b.csv": "changed", "d.csv": "4"}
    differ = bench_record.compare_outputs({"parent": [parent], "change": [change]})
    assert differ == {"identical": False, "files": 3, "differ": ["b.csv", "c.csv", "d.csv"]}
    # a parent that writes differently from one run to the next is no reference
    flaky = bench_record.compare_outputs({"parent": [parent, change], "change": [parent]})
    assert not flaky["identical"]


def test_every_figure_preset_is_timed():
    from cavity_loader import cli

    timed = [argv[2] for name, argv in bench_record.CLI_COMMANDS.items() if argv[0] == "figure"]
    assert timed == list(cli.FIGURES)
    assert all(argv[-2:] == ["--workers", "1"] for argv in bench_record.CLI_COMMANDS.values()
               if argv[0] == "figure")
