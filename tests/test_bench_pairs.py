"""The summary of tools/bench_pairs.py on fixed run reports."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05},
]


def _report(run_s, rss, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 1822,
        "failed": failed,
        "metrics": {
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        },
    }


def test_summary_on_fixed_reports():
    parent_s = [0.30, 0.26, 0.22, 0.28, 0.25]
    change_s = [0.17, 0.16, 0.23, 0.18, 0.16]
    parent_rss = [21.0, 21.0, 21.0, 21.0, 21.0]
    change_rss = [22.5, 22.5, 22.0, 21.0, 23.0]
    pairs = [
        (_report(p, pr), _report(c, cr, failed=1 if i == 2 else 0))
        for i, (p, c, pr, cr) in enumerate(zip(parent_s, change_s, parent_rss, change_rss))
    ]
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["runs_per_side"] == 5
    assert summary["all_correct"] is True
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["attempted_per_run"] == [1822]
    run_s = summary["run_s"]
    assert run_s["parent_median"] == 0.26
    assert run_s["change_median"] == 0.17
    assert run_s["parent_quartiles"] == pytest.approx([0.25, 0.28])
    assert run_s["parent_iqr"] == pytest.approx(0.03)
    assert run_s["change_lower_pairs"] == 4
    assert run_s["median_change_pct"] == pytest.approx(-34.615, abs=1e-3)
    assert run_s["worse_than_bound"] is False
    assert run_s["pairs"] == [list(pair) for pair in zip(parent_s, change_s)]
    rss = summary["peak_rss_mb"]
    assert rss["change_median"] == 22.5 and rss["change_lower_pairs"] == 0
    assert rss["worse_than_bound"] is True  # +7.1% against a 5% bound
    lines = bench_pairs.report_lines(summary)
    assert lines[0] == "runs per side 5, all correct True, failed parent 0 change 1"
    assert lines[1] == "run_s: parent 0.26 [0.25-0.28] -> change 0.17 s (-34.6%), lower in 4/5"
    assert lines[2].endswith("lower in 0/5, WORSE THAN BOUND")


def test_seed_ranges():
    assert bench_pairs.parse_seeds("71-75,91") == [71, 72, 73, 74, 75, 91]
