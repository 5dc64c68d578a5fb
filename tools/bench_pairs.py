"""Paired benchmark runs of two source trees, parent and change.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload split-sweeps --seeds 71-75,91-95 --seconds 25 \\
        --out BENCH_N.json --round round_1

Each tree is a source checkout holding src/shadowlab and perfbench/.  Before
the runs, every __pycache__ directory under each tree's src/ is deleted, and
the runs set PYTHONDONTWRITEBYTECODE=1, so both sides compile their modules
in every fresh process and no stray bytecode cache moves a metric.  For the
i-th seed, ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
runs in both trees, the parent first when i is even and the change first
when i is odd.  Per end-to-end metric it prints the medians, the parent's
quartiles and how many pairs the change was lower in, and it adds the
summary to the JSON file under the round and workload (the file is created
if missing; other rounds and workloads in it are kept).  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def clear_caches(tree: Path) -> int:
    """Delete every __pycache__ directory under tree/src; returns how many."""
    caches = [p for p in (tree / "src").rglob("__pycache__") if p.is_dir()]
    for cache in caches:
        shutil.rmtree(cache)
    return len(caches)


def parse_seeds(text: str) -> list[int]:
    """'71-75,91' -> [71, 72, 73, 74, 75, 91]."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """The summary of paired run reports.

    pairs holds (parent, change) reports of perfbench/run.py, one pair per
    seed; metrics holds the end-to-end entries of BENCHMARK.json (name,
    unit, better, bound).  A metric is worse than its bound when the
    change's median is past the parent's by more than the bound, as a share
    of the parent's median.
    """
    out: dict = {
        "runs_per_side": len(pairs),
        "all_correct": all(p["correct"] and c["correct"] for p, c in pairs),
        "failed": {
            "parent": sum(p["failed"] for p, _ in pairs),
            "change": sum(c["failed"] for _, c in pairs),
        },
        "attempted_per_run": sorted({r["attempted"] for pair in pairs for r in pair}),
    }
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = [
            [side["metrics"][name]["value"] for side in pair]
            for pair in pairs
            if all(name in side["metrics"] for side in pair)
        ]
        if len(values) < 2:
            continue
        parent = [p for p, _ in values]
        change = [c for _, c in values]
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        parent_q = quartiles(parent)
        pct = (change_median - parent_median) / parent_median * 100 if parent_median else 0.0
        out[name] = {
            "unit": metric["unit"],
            "parent_median": parent_median,
            "parent_quartiles": parent_q,
            "parent_iqr": parent_q[1] - parent_q[0],
            "change_median": change_median,
            "change_quartiles": quartiles(change),
            "change_lower_pairs": sum(c < p for p, c in values),
            "median_change_pct": pct,
            "worse_than_bound": sign * pct > metric["bound"] * 100,
            "pairs": values,
        }
    return out


def report_lines(summary: dict) -> list[str]:
    """One line per metric: medians, the parent's quartiles, lower in x/N."""
    n = summary["runs_per_side"]
    lines = [
        f"runs per side {n}, all correct {summary['all_correct']}, "
        f"failed parent {summary['failed']['parent']} change {summary['failed']['change']}"
    ]
    for name, m in summary.items():
        if not isinstance(m, dict) or "parent_median" not in m:
            continue
        q1, q3 = m["parent_quartiles"]
        lines.append(
            f"{name}: parent {m['parent_median']:.4g} [{q1:.4g}-{q3:.4g}] -> change "
            f"{m['change_median']:.4g} {m['unit']} ({m['median_change_pct']:+.1f}%), "
            f"lower in {m['change_lower_pairs']}/{len(m['pairs'])}"
            + (", WORSE THAN BOUND" if m["worse_than_bound"] else "")
        )
    return lines


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--round", default="round_1")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with open(trees["change"] / "BENCHMARK.json", encoding="utf-8") as fp:
        metrics = json.load(fp)["end_to_end"]
    for side, tree in trees.items():
        print(f"{side}: {tree}, {clear_caches(tree)} __pycache__ removed", flush=True)
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        reports = {side: run_once(trees[side], args.workload, seed, args.seconds)
                   for side in order}
        pairs.append((reports["parent"], reports["change"]))
        print(f"seed {seed}: {', '.join(order)} done", flush=True)
    summary = summarize(pairs, metrics)
    summary["seeds"] = args.seeds
    print("\n".join(report_lines(summary)))
    bench = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "system": platform.system(),
        },
        "environment": "PYTHONDONTWRITEBYTECODE=1, no __pycache__ under either tree's src/",
        "command": "python3 perfbench/run.py --workload W --seed S "
        f"--seconds {args.seconds} --trace 0",
        "pair_order": "pair i runs the parent first when i is even, the change first when odd",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over one side's runs; "
        "'pairs' lists [parent, change] per seed in seed order",
        "rounds": {},
    }
    bench["rounds"].setdefault(args.round, {})[args.workload] = summary
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
