"""In-memory spans and counters at the module boundaries of `streamscope`.

Modules bind imported names at import time, so each wrapper replaces the
name where it is called (for example `streamscope.estimators.materialize_disc`
rather than the definition in `canonical`), and class methods are replaced on
the class. Coarse calls record a span (name, start, end, parent); hot calls
only add to per-name totals, and the per-detector `update` wrappers only
count. A name that no longer exists is skipped and listed in `missing`, so a
refactor of `src/` degrades the trace instead of breaking the run.

Self time of a call is its duration minus the time of the wrapped calls made
inside it; a layer's self time is the sum over the names it owns.
"""

from __future__ import annotations

import json
import time
from collections import Counter

perf_counter = time.perf_counter

LAYERS = ("graphs", "streams", "estimators", "detectors", "canonical",
          "oracles", "enumeration", "corpus", "verification")


class Recorder:
    def __init__(self):
        self.spans = []            # (id, parent id, name, start, end)
        self.stats = {}            # name -> [calls, total s, self s]
        self.counts = Counter()
        self.distinct = set()
        self.missing = []
        self.updates = [0]         # detector update calls
        self._stack = [[0, 0.0]]   # [id of nearest recorded span, child s]
        self._next_id = 1

    def wrap(self, fn, name, record=False, after=None):
        """`fn` timed under `name`; `after(result, args)` runs on return."""
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if record:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent[0]
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                parent[1] += took
                stat[0] += 1
                stat[1] += took
                stat[2] += took - frame[1]
                if record:
                    spans.append((span_id, parent[0], name, start, end))
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def patch(self, owner, attr, name, record=False, after=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, self.wrap(fn, name, record, after))

    def count_updates(self, cls):
        """Replace `cls.update` by one that only counts its calls."""
        fn = getattr(cls, "update", None)
        if fn is None:
            self.missing.append(f"{cls.__name__}.update")
            return
        cell = self.updates

        def update(self, a, b, t):
            cell[0] += 1
            return fn(self, a, b, t)

        cls.update = update

    def total(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def layer_self(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += self_s
        return out

    def write(self, path, extra):
        doc = {"spans": [{"id": i, "parent": p, "name": n, "start": s,
                          "end": e} for i, p, n, s, e in self.spans],
               "stats": {n: {"calls": c, "total_s": t, "self_s": s}
                         for n, (c, t, s) in sorted(self.stats.items())},
               "missing": self.missing, **extra}
        path.write_text(json.dumps(doc), encoding="utf-8")


def install(rec: Recorder) -> None:
    """Wrap every module boundary the benchmark's workloads cross."""
    from streamscope import (canonical, detectors, estimators, graphs,
                             oracles, streams, verification)

    counts = rec.counts

    rec.patch(graphs, "load_edge_list", "graphs.load_edge_list", record=True)
    rec.patch(graphs.Graph, "__init__", "graphs.Graph")
    rec.patch(streams, "shuffle_stream", "streams.shuffle_stream", record=True)

    def coins_of_run(_result, args):
        counts["streams.coin_flips"] += args[0].t

    def coins_of_disc(report, _args):
        counts["streams.coin_flips"] += report.m_observed

    def draws(report, _args):
        counts["estimators.mis_draws"] += report.samples

    for fn in ("num_cc", "mst_weight"):
        rec.patch(estimators, fn, f"estimators.{fn}", record=True)
    rec.patch(estimators, "num_disc", "estimators.num_disc", record=True,
              after=coins_of_disc)
    rec.patch(estimators, "mis_estimate", "estimators.mis_estimate",
              record=True, after=draws)
    rec.patch(estimators.NumCCRun, "__init__", "estimators.NumCCRun.__init__",
              record=True)
    rec.patch(estimators.NumCCRun, "finalize", "estimators.NumCCRun.finalize",
              record=True, after=coins_of_run)

    rec.count_updates(detectors.TreeDetector)
    rec.count_updates(detectors.DiscDetector)
    grid = detectors.DetectorGrid
    updates = rec.updates

    def built(_result, args):
        counts["detectors.count"] += len(args[0].detectors)

    rec.patch(grid, "__init__", "detectors.DetectorGrid.__init__",
              record=True, after=built)
    feed = rec.wrap(grid.feed, "detectors.DetectorGrid.feed")

    def feed_counting_hits(self, a, b, t):
        before = updates[0]
        feed(self, a, b, t)
        if updates[0] != before:
            counts["detectors.edges_hit"] += 1

    grid.feed = feed_counting_hits

    outcome_key = {detectors.GOOD: "good",
                   detectors.BAD_VIOLATING: "violating",
                   detectors.BAD_LARGE: "large",
                   detectors.BAD_SMALL: "small",
                   detectors.BAD_LATE: "late"}

    def outcomes(result, args):
        counts["detectors.peak_slots"] += args[0].peak_slots
        for out in result:
            # a disc detector's Good outcome is its DiscType
            key = outcome_key.get(out, "other") if isinstance(out, str) \
                else "good"
            counts[f"detectors.outcome.{key}"] += 1

    rec.patch(grid, "finalize", "detectors.DetectorGrid.finalize",
              record=True, after=outcomes)
    for fn in ("run_tree_detector", "run_disc_detector"):
        rec.patch(verification, fn, f"detectors.{fn}")

    rec.patch(detectors, "disc_code", "canonical.disc_code")
    rec.patch(canonical, "disc_code", "canonical.disc_code")
    rec.patch(canonical, "canonical_rooted_code",
              "canonical.canonical_rooted_code")
    for fn in ("materialize_disc", "project_extended_disc"):
        rec.patch(estimators, fn, f"canonical.{fn}")
    for fn in ("cbfs_tree", "cbfs_edge_order", "cano_disc",
               "cano_disc_edge_order", "project_extended_disc",
               "bounded_disc_code"):
        rec.patch(verification, fn, f"canonical.{fn}")

    make_oracle = rec.wrap(oracles.make_component_mis_oracle,
                           "oracles.make_component_mis_oracle", record=True)
    oracles.make_component_mis_oracle = lambda *a, **kw: rec.wrap(
        make_oracle(*a, **kw), "oracles.mis_oracle")
    rec.patch(oracles, "_max_independent_sets", "oracles.max_independent_sets")

    def replayed(_result, args):
        rec.distinct.add((tuple(args[0]), args[1]))

    rec.patch(verification, "tree_replay_profile",
              "enumeration.tree_replay_profile", after=replayed)

    rec.patch(verification, "all_graphs_up_to", "corpus.all_graphs_up_to",
              record=True)
    rec.patch(verification, "random_graph", "corpus.random_graph")
    for fn in ("check_enumerator_montecarlo", "check_canonical_replay",
               "check_disc_projection"):
        rec.patch(verification, fn, f"verification.{fn}", record=True)
    rec.patch(verification, "montecarlo_good_counts",
              "verification.montecarlo_good_counts")
    rec.patch(verification, "_tree_good_profiles",
              "verification.tree_good_profiles")


def layer_metrics(rec: Recorder, edges: int, checks: dict) -> dict:
    """The per-layer metrics of one traced run, by name."""
    def ratio(num, den):
        return num / den if den else 0.0

    count = rec.counts.__getitem__
    feeds = rec.calls("detectors.DetectorGrid.feed")
    pass_s = rec.total("detectors.DetectorGrid.feed")
    load_s = rec.total("graphs.load_edge_list")
    built = count("detectors.count")
    code_calls = rec.calls("canonical.disc_code")
    replays = rec.calls("enumeration.tree_replay_profile")
    m = {
        "graphs.load_s": load_s,
        "graphs.edges_per_s": ratio(edges, load_s),
        "streams.shuffle_s": rec.total("streams.shuffle_stream"),
        "streams.coin_flips": count("streams.coin_flips"),
        "estimators.construct_s": rec.total("estimators.NumCCRun.__init__"),
        "estimators.instances": rec.calls("estimators.NumCCRun.__init__"),
        "estimators.finalize_s": rec.total("estimators.NumCCRun.finalize"),
        "estimators.mis_s": rec.total("estimators.mis_estimate"),
        "estimators.mis_draws": count("estimators.mis_draws"),
        "detectors.pass_s": pass_s,
        "detectors.ns_per_edge": ratio(pass_s * 1e9, feeds),
        "detectors.count": built,
        "detectors.updates": rec.updates[0],
        "detectors.edges_hit_ratio": ratio(count("detectors.edges_hit"),
                                           feeds),
        "detectors.peak_slots": count("detectors.peak_slots"),
    }
    for key in ("good", "violating", "large", "small", "late"):
        m[f"detectors.outcome.{key}"] = count(f"detectors.outcome.{key}")
    m["detectors.good_ratio"] = ratio(m["detectors.outcome.good"], built)
    m.update({
        "canonical.disc_code_calls": code_calls,
        "canonical.code_cache_hit_ratio": ratio(
            code_calls - rec.calls("canonical.canonical_rooted_code"),
            code_calls),
        "canonical.materialize_s": rec.total("canonical.materialize_disc"),
        "canonical.project_s": rec.total("canonical.project_extended_disc"),
        "oracles.mis_oracle_calls": rec.calls("oracles.mis_oracle"),
        "oracles.mis_oracle_s": rec.total("oracles.mis_oracle"),
        "oracles.components_solved": rec.calls("oracles.max_independent_sets"),
        "enumeration.replays": replays,
        "enumeration.replay_s": rec.total("enumeration.tree_replay_profile"),
        "enumeration.distinct_replay_ratio": ratio(len(rec.distinct), replays),
        "corpus.all_graphs_s": rec.total("corpus.all_graphs_up_to"),
    })
    for check in ("enumerator_montecarlo", "canonical_replay",
                  "disc_projection"):
        m[f"verification.{check}_s"] = rec.total(
            f"verification.check_{check}")
    m["verification.montecarlo_s"] = rec.total(
        "verification.montecarlo_good_counts")
    m["verification.sweep_violations"] = checks.get("sweep_violations", 0)
    for layer, self_s in rec.layer_self().items():
        m[f"{layer}.self_s"] = self_s
    return m
