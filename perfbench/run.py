"""shadowlab benchmark: three workloads, end-to-end and per-module metrics.

    python3 perfbench/run.py --workload layer-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the directory holding src/shadowlab).
One client drives the program at a time, and every pass runs in a fresh
process, because users pay for the import and the per-process layer tables
on every invocation.  Each output is checked against computations made apart
from the program (oracle.py, checks.py, reference.json).  The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the run's
passes and processes); with --trace 1 the run instead makes one traced pass
of every workload plus a separate tracemalloc pass, and reports the
per-module metrics.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import checks
import mix
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("layer-sweep", "split-sweeps", "cli-requests")
# nominal seconds per pass: a run makes --seconds / this many passes, so every
# run of a workload attempts the same calls and its percentiles rest on the
# same number of samples, whatever the machine's speed that day
PASS_SECONDS = {"layer-sweep": 12, "split-sweeps": 12, "cli-requests": 6}
SETUP_PROBES = 5
IMPORT_PROBES = 9


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["SHADOWLAB_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str]) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run one program process to its end; returns it with its spawn time on
    the monotonic clock and its wall time from spawn to exit."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    start = time.perf_counter()
    proc = subprocess.run(argv, env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    return proc, spawned, time.perf_counter() - start


def worker(job: dict) -> tuple[dict, float]:
    """One worker process; returns its report and its set-up time."""
    proc, spawned, _ = spawn([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)])
    if proc.returncode != 0:
        raise RuntimeError(f"worker {job.get('kind')} failed:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not report["module"].startswith(SRC + os.sep):
        raise RuntimeError(f"imported shadowlab from {report['module']}, not {SRC}")
    return report, report["import_done"] - spawned


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11]


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.pass_seconds: list[float] = []
        self.setup: list[float] = []
        self.requests: list[float] = []
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fp:
            self.reference = json.load(fp)
        self.relabel = oracle.Relabelings(checks.GROUND)
        self.instances = mix.reduction_batch(seed) if workload == "split-sweeps" else []
        self.units = mix.cli_mix(seed, OUT) if workload == "cli-requests" else []

    def probe_setup(self) -> None:
        module = "shadowlab.cli" if self.workload == "cli-requests" else "shadowlab"
        self.setup.append(worker({"kind": "probe", "import": module})[1])

    def sweep_pass(self, traced: bool = False) -> dict:
        job = {"kind": self.workload, "seed": self.seed, "trace": traced}
        if self.workload == "split-sweeps":
            job["counterexamples"] = mix.COUNTEREXAMPLES
            job["instances"] = self.instances
        report, setup = worker(job)
        self.setup.append(setup)
        self.pass_seconds.append(report["run_s"])
        self.requests += report["requests"]
        self.attempted += len(report["requests"])
        if self.workload == "layer-sweep":
            self.problems += checks.layer_sweep(report["outputs"], self.reference, self.relabel)
        else:
            if len(report["outputs"]["reductions"]) != len(self.instances):
                self.problems.append("the pass skipped reductions")
            self.problems += checks.split_sweeps(report["outputs"], self.instances, self.reference)
        return report

    def cli_pass(self) -> list[tuple[dict, float, float]]:
        """Every request of the mix, one fresh process each, closed loop;
        returns each request with its start (from the pass start) and its
        latency."""
        done = []
        start = time.perf_counter()
        for unit in self.units:
            for req in unit:
                offset = time.perf_counter() - start
                proc, _, seconds = spawn([sys.executable, "-m", "shadowlab.cli"] + req["argv"])
                done.append((req, proc, offset, seconds))
        self.pass_seconds.append(time.perf_counter() - start)
        for req, proc, _, seconds in done:
            self.attempted += 1
            self.requests.append(seconds)
            if req["check"].get("error"):
                if proc.returncode != 2 or not checks.one_line_error(proc.stderr):
                    self.failed += 1
                continue
            # a request fails when it ends without a report; a report with
            # the wrong verdict (exit 0 for 1, or the converse) is incorrect
            try:
                rep = json.loads(proc.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                rep = None
            if proc.returncode not in (0, 1) or not isinstance(rep, dict):
                self.failed += 1
                continue
            try:
                problems = checks.cli_report(req, rep, self.reference, self.relabel)
            except (KeyError, TypeError, ValueError) as exc:
                problems = [f"malformed report ({exc!r})"]
            if proc.returncode != req["expect"]:
                problems.append(f"exit code {proc.returncode}, expected {req['expect']}")
            self.problems += [f"{' '.join(req['argv'])}: {p}" for p in problems]
        return [(req, offset, seconds) for req, _, offset, seconds in done]

    def one_pass(self) -> None:
        if self.workload == "cli-requests":
            self.cli_pass()
        else:
            self.sweep_pass()


def measure(run: Run, seconds: int) -> dict:
    worker({"kind": "probe", "import": "shadowlab.cli"})  # bytecode written, untimed
    # set-up probes are spread over the run, so their median does not rest on
    # the machine's speed at one moment
    for _ in range(max(2, round(seconds / PASS_SECONDS[run.workload]))):
        for _ in range(SETUP_PROBES):
            run.probe_setup()
        run.one_pass()
    for _ in range(SETUP_PROBES):
        run.probe_setup()
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (statistics.median(run.setup), "s"),
        "run_s": (statistics.median(run.pass_seconds), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
        "req_p50_ms": (statistics.median(run.requests) * 1e3, "ms"),
        "req_tail_ms": (tail(run.requests) * 1e3, "ms"),
    }


def traced(seed: int) -> tuple[dict, list[Run]]:
    """One traced pass of every workload, then the tracemalloc pass.  Spans
    are written to out/trace-<seed>.json; none of this runs in a timed run."""
    metrics: dict = {}
    spans: dict = {}
    runs = [Run(w, seed) for w in WORKLOADS]
    layer, split, cli = runs
    for run in (layer, split):
        report = run.sweep_pass(traced=True)
        spans[run.workload] = report["spans"]
        metrics.update(report["metrics"])
        metrics.update(span_metrics(report["spans"]))

    timed = cli.cli_pass()
    spans["cli-requests"] = [{"id": 0, "name": "requests", "parent": None, "start": 0.0,
                              "end": timed[-1][1] + timed[-1][2]}] + [
        {"id": i, "name": f"cli.{req['kind']}", "parent": 0, "item": f"request {i}",
         "start": offset, "end": offset + seconds}
        for i, (req, offset, seconds) in enumerate(timed, start=1)
    ]
    for kind in sorted({req["kind"] for req, _, _ in timed}):
        metrics[f"cli.{kind}_ms"] = statistics.median(
            seconds for req, _, seconds in timed if req["kind"] == kind) * 1e3
    metrics["cli.import_ms"] = statistics.median(
        spawn([sys.executable, "-c", "import shadowlab.cli"])[2] for _ in range(IMPORT_PROBES)
    ) * 1e3

    # the two halves of the memory pass run side by side: only their
    # tracemalloc peaks are kept, and those do not depend on timing
    procs = [
        subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"),
             json.dumps({"kind": "memory", "part": part})],
            env=CHILD_ENV, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for part in ("oracle-characterization", "min-degree")
    ]
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=170)
            if proc.returncode != 0:
                raise RuntimeError(f"memory pass failed:\n{err}")
            metrics.update(json.loads(out.strip().splitlines()[-1])["metrics"])
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{seed}.json"), "w", encoding="utf-8") as fp:
        json.dump(spans, fp)
    return {name: (value, unit_of(name)) for name, value in metrics.items()}, runs


SPAN_TOTALS = {  # seconds summed over the pass's calls
    "extremal.characterization_sweep_s": "extremal.characterization_sweep",
    "extremal.min_degree_sweep_s": "extremal.min_degree_sweep",
    "extremal.iso_classes_s": "extremal.extremal_iso_classes",
    "inequalities.lemma_sweep_s": "inequalities.lemma_sweep",
    "inequalities.general_level_sweep_s": "inequalities.general_level_sweep",
    "inequalities.splits_comparison_s": "inequalities.splits_comparison",
}
SPAN_MEANS = {  # microseconds per call
    "identities.recursive_reduce_us": "identities.recursive_reduce",
    "identities.is_invariantly_zero_us": "identities.is_invariantly_zero",
}


def span_metrics(spans: list[dict]) -> dict:
    def durations(name: str) -> list[float]:
        return [s["end"] - s["start"] for s in spans if s["name"] == name]

    out = {}
    oracle_63 = [s["end"] - s["start"] for s in spans if s.get("item") == "oracle 6,3"]
    if oracle_63:
        out["extremal.oracle_cold_s"] = oracle_63[0]
        out["extremal.oracle_warm_us"] = statistics.fmean(oracle_63[1:]) * 1e6
    for metric, name in SPAN_TOTALS.items():
        if durations(name):
            out[metric] = sum(durations(name))
    for metric, name in SPAN_MEANS.items():
        if durations(name):
            out[metric] = statistics.fmean(durations(name)) * 1e6
    return out


def unit_of(name: str) -> str:
    for suffix, unit in (("_peak_mb", "MiB"), ("_ms", "ms"), ("_us", "us"),
                         ("_ns", "ns"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError(name)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "shadowlab", "__init__.py")):
        sys.stderr.write(f"error: no shadowlab sources under {SRC}; run from the "
                         "root of a source checkout\n")
        return 2
    os.makedirs(OUT, exist_ok=True)

    if args.trace:
        metrics, runs = traced(args.seed)
    else:
        run = Run(args.workload, args.seed)
        metrics, runs = measure(run, args.seconds), [run]
    problems = [p for run in runs for p in run.problems]
    for p in problems[:20]:
        sys.stderr.write(f"check failed: {p}\n")
    result = {
        "correct": not problems,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


CHILD_ENV = child_env()

if __name__ == "__main__":
    sys.exit(main())
