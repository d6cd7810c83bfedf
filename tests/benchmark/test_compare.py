"""``python -m benchmarks.e2e compare`` labels on synthetic run sets."""

import json

from benchmarks.e2e.cli import main
from benchmarks.e2e.compare import compare, label, quartiles

BENCHMARK = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "ops_per_host_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
    ]
}


def doc(wall_s, ops_per_host_s, error_rate=0.0):
    host = {
        "wall_s": {"value": wall_s},
        "ops_per_host_s": {"value": ops_per_host_s},
    }
    return {"workloads": {"w": {"host": host, "error_rate": error_rate}}}


def test_quartiles():
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0])[1] == 3.0


def test_labels():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert label(steady, [10.05, 9.95, 10.0], "lower", 0.1) == "unchanged"
    assert label(steady, [12.0, 12.1, 11.9], "lower", 0.1) == "worse"
    assert label(steady, [8.0, 8.1, 7.9], "lower", 0.1) == "better"
    assert label(steady, [8.0, 8.1, 7.9], "higher", 0.1) == "worse"


def test_wide_parent_spread_is_unresolved_unless_every_run_wins():
    noisy = [8.0, 12.0, 9.0, 11.0]
    assert label(noisy, [10.5, 10.0, 11.5], "lower", 0.1) == "unresolved"
    assert label(noisy, [7.0, 7.5, 7.9], "lower", 0.1) == "better"


def test_compare_rows_carry_both_error_rates():
    side_a = [doc(10.0, 100.0), doc(10.1, 99.0), doc(9.9, 101.0)]
    side_b = [doc(12.0, 100.0, error_rate=0.25), doc(12.2, 100.5)]
    rows = {row["metric"]: row for row in compare(side_a, side_b, BENCHMARK)}
    assert rows["wall_s"]["label"] == "worse"
    assert rows["ops_per_host_s"]["label"] == "unchanged"
    assert rows["wall_s"]["error_rate_a"] == [0.0, 0.0, 0.0]
    assert rows["wall_s"]["error_rate_b"] == [0.25, 0.0]


def test_main_reads_files_split_by_double_dash(tmp_path, capsys):
    paths = []
    for index, document in enumerate([doc(10.0, 100.0), doc(10.0, 100.0), doc(8.0, 130.0)]):
        path = tmp_path / f"run{index}.json"
        path.write_text(json.dumps(document))
        paths.append(str(path))
    assert main(["compare", paths[0], paths[1], "--", paths[2]]) == 0
    out = capsys.readouterr().out
    assert "wall_s" in out and "better" in out
    assert main(["compare", *paths]) == 2
    assert main(["compare", paths[0], "--"]) == 2
    (tmp_path / "bad.json").write_text("{not json")
    assert main(["compare", str(tmp_path / "bad.json"), "--", paths[2]]) == 2
    assert "cannot read" in capsys.readouterr().err
