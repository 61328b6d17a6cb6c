"""Layered benchmark for streamscope: one workload per run of this script.

    python3 perfbench/run.py --workload mst-weighted --seed 1 --seconds 40 \
        --trace 0

The benchmark seed gives the workload's inputs, one per program seed of
`workloads.part_seeds`. Each is written as an edge-list file under
.perfbench/ (once per seed, outside any timing). The script checks once that
the library path reproduces what `streamscope run-* --out` writes for the
first input, then repeats closed-loop runs over the inputs in turn, one at a
time and each in a fresh interpreter (perfbench/worker.py), until --seconds
have passed. With --trace 1 only the first input is used, and traced and
untraced runs alternate; the traced ones record spans and counters at every
module boundary and give the per-layer metrics.

Human-readable lines come first. The last line of standard output is one
JSON object: correct, attempted, failed and the metrics named in
BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1). An
end-to-end metric is the mean over the inputs of each input's median over
its runs; a per-layer metric is the median over the traced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
MIN_RUNS = 3        # rounds over the inputs, even past --seconds
DEADLINE_S = 170    # every run of this script ends within 180 s

sys.path.insert(0, str(HERE))

from workloads import (WORKLOADS, cli_args, input_files,  # noqa: E402
                       part_seeds)


def tail_percentile(values):
    """(percentile, value) for the highest percentile with at least ten
    samples beyond it, or None when the sample count supports none."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]


class Part:
    """One input of a run: its program seed, edge list and exact reference,
    the first good report (its same-seed twin) and the results of its
    untraced and traced runs."""

    def __init__(self, seed, edge_list, ref):
        self.seed = seed
        self.edge_list = edge_list
        self.ref = ref
        self.twin = None
        self.twin_digest = None
        self.runs = {False: [], True: []}


class Repetitions:
    def __init__(self, workload, parts, scratch):
        self.workload = workload
        self.parts = parts
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0

    def run_once(self, part, traced):
        """One worker run; a failed run is counted and left out."""
        i = self.attempted
        self.attempted += 1
        out = self.scratch / f"report-{i}.txt"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(part.seed),
               "--out", str(out)]
        if part.edge_list is not None:
            cmd += ["--input", str(part.edge_list)]
        if traced:
            trace_dir = WORK / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out",
                    str(trace_dir / f"{self.workload}-{part.seed}.json")]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, DEADLINE_S - (time.perf_counter() - START)))
        except subprocess.TimeoutExpired:
            print(f"run {i}: timed out")
            self.failed += 1
            return
        if proc.returncode != 0:
            err = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            print(f"run {i}: exit {proc.returncode}: {err[0]}")
            self.failed += 1
            return
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if part.twin is None:
            part.twin = out.read_text(encoding="utf-8")
            part.twin_digest = digest
        if digest != part.twin_digest:
            print(f"run {i}: report differs from its same-seed twin")
            self.failed += 1
            return
        exact = {k: v for k, v in result["checks"].items()
                 if k in ("canonical-replay", "disc-projection") and not v}
        if exact:
            print(f"run {i}: exact checks failed: {sorted(exact)}")
            self.failed += 1
            return
        part.runs[traced].append(result)

    def loop(self, seconds, traced):
        """Closed loop over rounds: each round runs every part once, or with
        tracing the first part untraced and then traced. Starts the next run
        while the time budget, the minimum round count and the hard deadline
        allow it."""
        if traced:
            kinds = [(self.parts[0], False), (self.parts[0], True)]
        else:
            kinds = [(part, False) for part in self.parts]
        walls = []
        begin = time.perf_counter()
        while True:
            for part, kind in kinds:
                have = min(len(p.runs[k]) for p, k in kinds)
                longest = max(walls, default=0.0)
                now = time.perf_counter()
                if now - START + longest > DEADLINE_S:
                    return
                if have >= MIN_RUNS and now - begin + longest > seconds:
                    return
                if self.failed >= MIN_RUNS:
                    return
                t0 = time.perf_counter()
                self.run_once(part, kind)
                walls.append(time.perf_counter() - t0)


def cli_gate(workload, seed, edge_list, scratch):
    """The report `streamscope run-*` writes for the same flags and seed."""
    out = scratch / "cli-report.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-m", "streamscope.cli",
         *cli_args(workload, seed, edge_list, out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        print(f"cli: exit {proc.returncode}: {proc.stderr.strip()}")
        return None
    return out.read_text(encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "streamscope" / "__init__.py").is_file():
        print(f"error: no streamscope sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_map = json.loads((HERE / "metric_map.json").read_text(
        encoding="utf-8"))

    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, spec, metric_map, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, spec, metric_map, scratch) -> int:
    workload = args.workload
    parts = []
    for seed in part_seeds(workload, args.seed, trace=bool(args.trace)):
        edge_list = ref = None
        if workload != "verify-sweep":
            edge_list, ref = input_files(workload, seed, WORK / "inputs")
        parts.append(Part(seed, edge_list, ref))
    reps = Repetitions(workload, parts, scratch)
    gate_ok = True
    cli_report = None
    first = parts[0]
    if first.edge_list is not None:
        cli_report = cli_gate(workload, first.seed, first.edge_list, scratch)
        gate_ok = cli_report is not None
    reps.loop(args.seconds, bool(args.trace))

    traced = first.runs[True]
    if (any(not p.runs[False] for p in parts)
            or (args.trace and not traced)):
        print(f"error: no run of {workload} succeeded on some input "
              f"({reps.failed} of {reps.attempted} failed)",
              file=sys.stderr)
        return 1
    if cli_report is not None and cli_report != first.twin:
        print("cli: `streamscope "
              f"{WORKLOADS[workload]['command']} --out` wrote a different "
              "report")
        gate_ok = False

    print(f"workload {workload}  seed {args.seed}  closed loop, one run at "
          f"a time, each in a fresh interpreter, {len(parts)} input(s)")
    for part in parts:
        print(f"program seed {part.seed}  report sha256 {part.twin_digest}")
        if part.ref is not None:
            estimate = json.loads(part.twin)
            key = "total" if "total" in estimate else "estimate"
            print(f"  estimate {estimate[key]}  exact reference "
                  f"{part.ref.read_text(encoding='utf-8')}")
        else:
            print("  " + part.twin.rstrip().replace("\n", "\n  "))
            print(f"  sweep_violations "
                  f"{part.runs[False][0]['checks']['sweep_violations']}")
    if cli_report is not None and gate_ok:
        print("cli: identical to `streamscope "
              f"{WORKLOADS[workload]['command']} --out` for program seed "
              f"{first.seed}")

    correct = gate_ok and reps.failed == 0
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_run = {
        "run_s": lambda r: r["run_s"],
        "setup_s": lambda r: r["setup_s"],
        "estimate_s": lambda r: r["estimate_s"],
        "edges_per_s": lambda r: r["edges"] / r["estimate_s"],
        "peak_rss_mb": lambda r: r["peak_rss_mb"],
    }
    # Each input's median over its runs, then the mean over the inputs.
    e2e = {}
    for name, value in per_run.items():
        medians = [statistics.median(value(r) for r in p.runs[False])
                   for p in parts]
        e2e[name] = statistics.fmean(medians)
        pooled = [value(r) for p in parts for r in p.runs[False]]
        tail = tail_percentile(pooled)
        tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "no tail"
        print(f"{name:<12} mean of medians {e2e[name]:.6g} "
              f"{units.get(name, '')}  {tail_text}  (count {len(pooled)})")
    print(f"fail_ratio   {reps.failed / reps.attempted:.6g} ratio  "
          f"({reps.failed} failed of {reps.attempted} attempted)")

    if args.trace:
        metrics, repeat_ok = per_layer(traced, first.runs[False], metric_map)
        correct = correct and repeat_ok
        chosen = spec["per_layer"]
    else:
        metrics = e2e
        chosen = spec["end_to_end"]
    out = {"correct": correct, "attempted": reps.attempted,
           "failed": reps.failed,
           "metrics": {m["name"]: {"value": metrics[m["name"]],
                                   "unit": m["unit"]} for m in chosen}}
    print(json.dumps(out))
    return 0


def per_layer(traced, untraced, metric_map):
    """Medians of the traced runs' layer metrics; counts must repeat."""
    layers = [r["layers"] for r in traced]
    metrics = {}
    repeat_ok = True
    for name in layers[0]:
        vals = [lay[name] for lay in layers]
        if isinstance(vals[0], int):
            if len(set(vals)) != 1:
                print(f"count {name} differs across traced runs: {vals}")
                repeat_ok = False
            metrics[name] = vals[0]
        else:
            metrics[name] = statistics.median(vals)
    metrics["trace.overhead_s"] = (
        statistics.median(r["run_s"] for r in traced)
        - statistics.median(r["run_s"] for r in untraced))
    missing = sorted({m for r in traced for m in r["missing"]})
    if missing:
        print(f"trace: names not found, not traced: {', '.join(missing)}")
    print(f"traced runs {len(traced)}, untraced runs {len(untraced)}; "
          f"trace written to {WORK / 'traces'}")
    for name, value in metrics.items():
        target = metric_map["per_layer"].get(name, {})
        moves = (f"-> {target['moves']} on {target['workload']}"
                 if target else "")
        print(f"  {name:<40} {value:<14.6g} {moves}")
    return metrics, repeat_ok


if __name__ == "__main__":
    sys.exit(main())
