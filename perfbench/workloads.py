"""Workload definitions and the seeded input generators the benchmark owns.

Each estimator workload is one edge-list file per program seed plus the
`streamscope run-*` flags it is run with; a benchmark seed gives `parts`
program seeds. The files are written once per seed with
`graphs.serialize_edge_list` and reused, so generation never falls inside a
timed run; the program only ever sees the files.

`corpus.random_graph` and `corpus.random_connected_weighted` enumerate all
n(n-1)/2 candidate pairs and cannot reach the sizes below, so the three
generators here sample sparse graphs directly.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path

# Estimator workloads: generator sizes plus the CLI flags of the run.
# verify-sweep has no input file; its case counts go to the checks' public
# parameters. Sizes keep one repetition near a second, so that a 40 s run
# of the benchmark holds 15 to 50 cold-interpreter repetitions, at least
# three of each input. On a shared 2-CPU machine single repetitions vary by
# about 10%, and the machine's speed shifts by up to 1.6x for stretches of
# 20 s to several minutes. cc-sparse is not in BENCHMARK.json (see
# metric_map.json) but runs by hand.
WORKLOADS = {
    "cc-sparse": {
        "command": "run-cc",
        "parts": 1,
        "shape": {"n": 20_000, "m": 40_000},
        "flags": {"tau": 0.1, "samples": 8_000, "kmax": 8},
    },
    "mst-weighted": {
        "command": "run-mst",
        "parts": 4,
        "shape": {"n": 10_000, "extra": 10_001, "W": 8},
        "flags": {"tau": 0.1, "samples": 1_000, "kmax": 8},
    },
    "disc-mis": {
        "command": "run-mis",
        "parts": 8,
        "shape": {"n": 15_000, "max_size": 8, "chord_p": 0.2},
        "flags": {"tau": 0.3, "samples": 15_000, "k": 2, "d": 3,
                  "mis-samples": 1_500, "mis-component-cap": 8},
    },
    "verify-sweep": {
        "command": "verify",
        "parts": 1,
        "checks": {
            # all 44 graphs with <= 5 vertices and <= 6 edges
            "enumerator_montecarlo": {"trials": 500, "k_max": 5,
                                      "taus": [0.1, 0.3], "max_n": 5,
                                      "max_m": 6},
            "canonical_replay": {"n_graphs": 15, "tree_k": 5, "disc_k": 3,
                                 "disc_d": 3},
            "disc_projection": {"n_graphs": 15, "k_max": 2, "d_max": 3},
        },
    },
}


def part_seeds(workload: str, seed: int, trace: bool = False) -> list:
    """Program seeds of the inputs one run measures: seed*parts + j.

    An untraced run measures its workload's `parts` inputs in turn and
    averages their medians, because one input says little about the next.
    On disc-mis the oracle solves 61 to 315 distinct components across
    program seeds 1..10, which moves estimate_s by up to a third; on
    mst-weighted estimate_s moves by about a tenth. On cc-sparse and
    verify-sweep it moves by about 2%, so they keep one input. A traced run
    measures the first input only."""
    parts = WORKLOADS[workload]["parts"]
    return [seed * parts + j for j in range(1 if trace else parts)]


def derived_seed(seed: int, label: str) -> int:
    """64-bit child seed of the benchmark seed, one per use."""
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sparse_gnm(n: int, m: int, rng: random.Random):
    """Uniform simple graph with exactly m edges, by rejection sampling."""
    if m > n * (n - 1) // 2:
        raise ValueError(f"m={m} exceeds the {n * (n - 1) // 2} possible edges")
    pairs = set()
    while len(pairs) < m:
        u = rng.randrange(1, n + 1)
        v = rng.randrange(1, n + 1)
        if u != v:
            pairs.add((u, v) if u < v else (v, u))
    return sorted(pairs)


def connected_weighted(n: int, extra: int, W: int, rng: random.Random):
    """A random recursive spanning tree over shuffled labels plus `extra`
    distinct non-tree edges, each weight uniform in 1..W."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    pairs = set()
    for i in range(1, n):
        a, b = labels[i], labels[rng.randrange(i)]
        pairs.add((a, b) if a < b else (b, a))
    target = len(pairs) + extra
    if target > n * (n - 1) // 2:
        raise ValueError(f"{extra} extra edges do not fit on {n} vertices")
    while len(pairs) < target:
        u = rng.randrange(1, n + 1)
        v = rng.randrange(1, n + 1)
        if u != v:
            pairs.add((u, v) if u < v else (v, u))
    return [(u, v, rng.randint(1, W)) for u, v in sorted(pairs)]


def small_components(n: int, max_size: int, chord_p: float,
                     rng: random.Random):
    """Disjoint random trees of 1..max_size vertices; a tree of three or more
    vertices gains one chord with probability chord_p. Labels are a random
    permutation of 1..n, so components do not occupy label ranges."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    pairs = []
    start = 0
    while start < n:
        size = min(rng.randint(1, max_size), n - start)
        comp = labels[start:start + size]
        start += size
        local = set()
        for i in range(1, size):
            a, b = comp[i], comp[rng.randrange(i)]
            local.add((a, b) if a < b else (b, a))
        if size >= 3 and rng.random() < chord_p:
            while True:
                a, b = rng.sample(comp, 2)
                e = (a, b) if a < b else (b, a)
                if e not in local:
                    local.add(e)
                    break
        pairs.extend(local)
    return sorted(pairs)


def build_graph(workload: str, seed: int):
    """The workload's input graph for one benchmark seed."""
    from streamscope.graphs import Graph, edge

    shape = WORKLOADS[workload]["shape"]
    rng = random.Random(derived_seed(seed, f"input:{workload}"))
    if workload == "cc-sparse":
        pairs = sparse_gnm(shape["n"], shape["m"], rng)
        return Graph(shape["n"], [edge(u, v) for u, v in pairs])
    if workload == "mst-weighted":
        triples = connected_weighted(shape["n"], shape["extra"], shape["W"],
                                     rng)
        g = Graph(shape["n"], [edge(u, v, w) for u, v, w in triples],
                  weighted=True)
        if g.W != shape["W"]:
            raise ValueError(f"seed {seed}: no edge of weight {shape['W']}")
        return g
    if workload == "disc-mis":
        pairs = small_components(shape["n"], shape["max_size"],
                                 shape["chord_p"], rng)
        return Graph(shape["n"], [edge(u, v) for u, v in pairs])
    raise KeyError(f"workload {workload!r} has no input graph")


def exact_reference(workload: str, g) -> dict:
    """The oracle answer printed beside each estimate, for context only."""
    from streamscope import oracles

    flags = WORKLOADS[workload]["flags"]
    if workload == "cc-sparse":
        hist = oracles.exact_cc_histogram(g)
        return {"exact_cc_histogram_total": sum(hist.values()),
                "components_up_to_kmax": sum(
                    c for k, c in hist.items() if k <= flags["kmax"])}
    if workload == "mst-weighted":
        return {"kruskal_mst": oracles.kruskal_mst(g)}
    # exact_mis sums over components but scans every edge per component;
    # solving each component as its own graph gives the same sum in O(m).
    from streamscope.graphs import Graph, connected_components, edge

    comp_of, local = {}, {}
    comps = connected_components(g)
    for ci, comp in enumerate(comps):
        for i, v in enumerate(comp, start=1):
            comp_of[v], local[v] = ci, i
    edges = [[] for _ in comps]
    for e in g.edges:
        edges[comp_of[e.u]].append(edge(local[e.u], local[e.v]))
    return {"exact_mis": sum(
        oracles.exact_mis(Graph(len(comp), es), flags["mis-component-cap"])[0]
        for comp, es in zip(comps, edges))}


def input_files(workload: str, seed: int, directory: Path):
    """Paths of the workload's edge list and its reference for this seed,
    writing both first if they are missing. The name carries a digest of the
    workload definition, so a changed definition never reuses a stale file."""
    spec = json.dumps(WORKLOADS[workload], sort_keys=True)
    tag = hashlib.sha256(spec.encode()).hexdigest()[:12]
    stem = directory / f"{workload}-{seed}-{tag}"
    edge_list, ref = stem.with_suffix(".el"), stem.with_suffix(".ref.json")
    if not (edge_list.exists() and ref.exists()):
        from streamscope.graphs import serialize_edge_list

        directory.mkdir(parents=True, exist_ok=True)
        g = build_graph(workload, seed)
        doc = {"m": g.m, **exact_reference(workload, g)}
        for path, text in ((edge_list, serialize_edge_list(g)),
                           (ref, json.dumps(doc, sort_keys=True))):
            tmp = path.with_suffix(path.suffix + f".{os.getpid()}.tmp")
            tmp.write_text(text, encoding="utf-8")
            tmp.replace(path)
    return edge_list, ref


def cli_args(workload: str, seed: int, edge_list: Path, out: Path) -> list:
    """`streamscope` arguments that produce the workload's report."""
    w = WORKLOADS[workload]
    args = [w["command"], "--input", str(edge_list), "--seed", str(seed),
            "--out", str(out)]
    for name, value in w["flags"].items():
        args += [f"--{name}", str(value)]
    return args
