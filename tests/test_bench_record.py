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
