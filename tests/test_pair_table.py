"""tools/pair_table.py: pairing benchmark run records of two checkouts by seed."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import pair_table  # noqa: E402

_SPEC = {"end_to_end": [{"name": name, "unit": "ms", "better": "lower", "bound": 0.25}
                        for name in ("leg1_ms", "leg2_ms")]}


def _checkout(root: Path, name: str, legs: dict[int, float], competing=(),
              failed_leg2=()) -> Path:
    # a run in ``failed_leg2`` failed every leg-2 operation: it is not
    # correct and has no leg2_ms
    out = root / name / ".perfbench_out"
    out.mkdir(parents=True)
    (root / name / "BENCHMARK.json").write_text(json.dumps(_SPEC))
    for seed, value in legs.items():
        metrics = {"leg1_ms": value} | ({} if seed in failed_leg2 else {"leg2_ms": value})
        (out / f"run-sample-seed{seed}-trace0.json").write_text(json.dumps({
            "workload": "sample", "seed": seed, "competing_load": seed in competing,
            "correct": seed not in failed_leg2, "failed": int(seed in failed_leg2),
            "metrics": metrics, "probe_ms": [value + 1.0, 100.0, value]}))
    # a traced record and an unpaired seed are left out
    (out / "run-sample-seed1-trace1.json").write_text("not read")
    return root / name


def test_pairs_by_seed_and_reports_medians_iqr_wins_and_bound(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", {1: 10.0, 2: 12.0, 3: 11.0, 4: 13.0, 9: 1.0})
    change = _checkout(tmp_path, "change", {1: 9.0, 2: 12.0, 3: 8.0, 4: 14.0}, competing={3})
    result = pair_table.table(parent, change)
    assert result["sample"]["seeds"] == [1, 2, 3, 4]
    assert result["sample"]["competing_load"] == {"parent": [], "change": [3]}
    assert result["sample"]["not_correct"] == {"parent": [], "change": []}
    assert result["sample"]["left_out"] == []
    m = result["sample"]["metrics"]["leg1_ms"]
    assert (m["parent_median"], m["change_median"]) == (11.5, 10.5)
    assert m["parent_iqr"] == pytest.approx(12.25 - 10.75)
    assert (m["pairs_won"], m["pairs"]) == (2, 4)  # seed 2 is a tie
    # each pair's two probe medians, parent then change
    assert result["sample"]["probe_ms"] == [[11.0, 10.0], [13.0, 13.0], [12.0, 9.0], [14.0, 15.0]]
    assert not m["worse_beyond_bound"]
    slow = _checkout(tmp_path, "slow", {1: 20.0, 2: 20.0, 3: 20.0, 4: 20.0})
    assert pair_table.table(parent, slow)["sample"]["metrics"]["leg1_ms"]["worse_beyond_bound"]
    out = tmp_path / "bench.json"
    assert pair_table.main([str(parent), str(change), "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == result
    assert "sample: probe medians (ms), parent/change by seed: 1 11/10, 2 13/13, 3 12/9" in (
        capsys.readouterr().out)


def test_names_the_runs_that_failed_and_the_metrics_left_out(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", {1: 10.0, 2: 12.0}, failed_leg2={2})
    change = _checkout(tmp_path, "change", {1: 9.0, 2: 11.0}, failed_leg2={1, 2})
    result = pair_table.table(parent, change)["sample"]
    assert result["not_correct"] == {"parent": [2], "change": [1, 2]}
    assert result["left_out"] == ["leg2_ms"]
    assert list(result["metrics"]) == ["leg1_ms"]
    assert pair_table.main([str(parent), str(change), "--out", str(tmp_path / "b.json")]) == 0
    out = capsys.readouterr().out
    assert "not correct parent [2], change [1, 2]" in out
    assert "sample: left out, missing from some run: leg2_ms" in out
