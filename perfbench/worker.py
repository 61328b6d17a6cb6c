"""One run of one workload, in a fresh interpreter.

`canonical._CODE_CACHE` and the memo inside `make_component_mis_oracle` live
as long as the process, and `ru_maxrss` only rises, so every timed run gets
its own interpreter: it pays what one `streamscope run-*` invocation pays and
its peak memory is its own.

The run calls the public functions the `streamscope run-*` and `verify`
commands call, in the same order and with the same `split_seed` labels, and
looks every name up through its module at call time so that the trace
wrappers see the calls. It writes the report to --out and prints one JSON
line of timings.

    python3 perfbench/worker.py --workload cc-sparse --seed 1 \
        --input cc.el --out report.txt [--trace-out trace.json]
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, derived_seed  # noqa: E402

perf_counter = time.perf_counter


def run_estimator(workload: str, seed: int, edge_list: str):
    """run-cc, run-mst or run-mis on one edge-list file."""
    from streamscope import estimators, graphs, oracles, streams

    flags = WORKLOADS[workload]["flags"]
    t0 = perf_counter()
    with open(edge_list, "rb") as fh:
        text = fh.read()
    g = graphs.load_edge_list(text)
    if workload == "disc-mis":
        oracle = oracles.make_component_mis_oracle(
            g, flags["mis-component-cap"])
    stream = streams.shuffle_stream(
        g, streams.split_seed(seed, "permutation"))
    t1 = perf_counter()
    params = estimators.EstimatorParams(
        tau=flags["tau"], s=flags["samples"], k_max=flags.get("kmax", 1),
        seed=streams.split_seed(seed, "estimator"))
    if workload == "cc-sparse":
        report = estimators.num_cc(stream, g.n, params)
    elif workload == "mst-weighted":
        report = estimators.mst_weight(stream, g.n, g.W, params)
    else:
        k, d = flags["k"], flags["d"]
        disc = estimators.num_disc(stream, g.n, k + 1, d, params)
        report = estimators.mis_estimate(
            disc, g.n, d, k, flags["mis-samples"], oracle,
            seed=streams.split_seed(seed, "mis"),
            oracle_name="exact-component")
    out = report.to_json()
    t2 = perf_counter()
    return {"run_s": t2 - t0, "setup_s": t1 - t0, "estimate_s": t2 - t1,
            "edges": g.m, "checks": {}}, out


def run_verify(seed: int):
    """The sweep, replay and projection checks at the workload's counts.

    The benchmark seed drives the sweep's Monte-Carlo trials. Replay and
    projection keep the seeds `streamscope verify` gives them: their random
    graph sizes would otherwise change their work by about 14% from seed to
    seed. setup_s is the build of the tiny-graph corpus the sweep starts
    from, timed on its own; the sweep builds it again inside run_s. edges
    counts the stream edges the sweep's Monte-Carlo trials replay.
    """
    from streamscope import corpus, verification

    cfg = WORKLOADS["verify-sweep"]["checks"]
    sweep = cfg["enumerator_montecarlo"]
    t0 = perf_counter()
    tiny = corpus.all_graphs_up_to(sweep["max_n"], sweep["max_m"])
    t1 = perf_counter()
    results = [verification.check_enumerator_montecarlo(
        trials=sweep["trials"], k_max=sweep["k_max"],
        taus=tuple(sweep["taus"]), seed=derived_seed(seed, "sweep"),
        max_n=sweep["max_n"], max_m=sweep["max_m"])]
    t2 = perf_counter()
    results.append(verification.check_canonical_replay(
        **cfg["canonical_replay"]))
    results.append(verification.check_disc_projection(
        **cfg["disc_projection"]))
    t3 = perf_counter()
    out = "".join(r.line() + "\n" for r in results)
    found = re.search(r"(\d+) three-sigma violations", results[0].details)
    checks = {r.name: r.passed for r in results}
    checks["sweep_violations"] = int(found.group(1)) if found else -1
    edges = sweep["trials"] * len(sweep["taus"]) * sum(g.m for g in tiny)
    return {"run_s": t3 - t1, "setup_s": t1 - t0, "estimate_s": t2 - t1,
            "edges": edges, "checks": checks}, out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--input", help="edge-list file (estimator workloads)")
    ap.add_argument("--out", required=True, help="report file")
    ap.add_argument("--trace-out", help="trace file; tracing is off without")
    args = ap.parse_args()

    rec = None
    if args.trace_out:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)
    if args.workload == "verify-sweep":
        body = functools.partial(run_verify, args.seed)
    else:
        body = functools.partial(run_estimator, args.workload, args.seed,
                                 args.input)
    if rec is not None:
        body = rec.wrap(body, "run", record=True)
    result, report = body()
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(report, encoding="utf-8")
    if rec is not None:
        result["layers"] = tracing.layer_metrics(rec, result["edges"],
                                                 result["checks"])
        result["missing"] = rec.missing
        rec.write(Path(args.trace_out), {"result": result})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
