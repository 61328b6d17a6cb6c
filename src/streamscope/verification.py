"""Named verification checks: every probability and identity the library can
verify at desk scale, each as one pass/fail line.

The enumerator vs Monte-Carlo sweep replays each (edge order, root) of a
tiny graph once. A size-k collector behaves exactly like the unbounded
replay until it accepts its k-th edge and dies of overgrowth, so the
profile of accept times plus the first violation time determines every k
at once; an order leaves each root pending in at most one cell. The table
from every order to its pending cells is built once per edge list, on the
largest vertex count the corpus gives it: the exact side counts its t_last
values for each tau, and every Monte-Carlo trial looks its drawn order up
in it. Property tests cross-check these reductions against the real
detectors and the enumerator.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool
from typing import Dict, List, Optional, Tuple

from . import canonical
from .canonical import (bounded_disc_codes, cano_disc, cbfs_tree,
                        grow_cano_disc, project_extended_disc)
from .corpus import all_graphs_up_to, random_connected_weighted, random_graph
from .detectors import BAD_SMALL, GOOD, DiscDetector, TreeDetector, replay
from .enumeration import (binomial_tails, enumerate_outcomes,
                          montecarlo_outcomes, three_sigma,
                          tree_replay_profile, within_three_sigma,
                          _as_fraction)
from .errors import StreamscopeError
from .graphs import Graph, connected_components, edge
from .oracles import kruskal_mst, mst_identity_value
from .streams import _count_heads, split_seed


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.details}"


@contextmanager
def mutated_depth_gap(gap: int):
    """Perturb the violating-edge depth test (meta-testing only): the exact
    probability checks must notice."""
    old = canonical.DEPTH_GAP
    canonical.DEPTH_GAP = gap
    try:
        yield
    finally:
        canonical.DEPTH_GAP = old


# ---------------------------------------------------------------------------
# Exact detection probabilities (triangle and 4-path witnesses)


def check_exact_probabilities(trials: int = 1_000_000,
                              seed: int = 20_240_601) -> CheckResult:
    tau = Fraction(3, 10)
    tri = Graph(3, [edge(1, 2), edge(1, 3), edge(2, 3)])
    p4 = Graph(4, [edge(1, 2), edge(2, 3), edge(3, 4)])
    enum_tri = enumerate_outcomes(tri, 1, 3, None, tau).probability(GOOD)
    enum_p4 = enumerate_outcomes(p4, 1, 3, None, tau).probability(GOOD)
    closed_tri = tau ** 2 / 2 - tau ** 3 / 6
    closed_p4 = tau ** 3 / 3
    problems = []
    if enum_tri != closed_tri:
        problems.append(f"triangle {enum_tri} != {closed_tri}")
    if float(enum_tri) != 0.0405:
        problems.append(f"triangle float {float(enum_tri)} != 0.0405")
    if enum_p4 != closed_p4:
        problems.append(f"4-path {enum_p4} != {closed_p4}")
    if float(enum_p4) != 0.009:
        problems.append(f"4-path float {float(enum_p4)} != 0.009")
    for g, name, p in ((tri, "triangle", float(closed_tri)),
                       (p4, "4-path", float(closed_p4))):
        mc = montecarlo_outcomes(g, 1, 3, None, 0.3, trials,
                                 split_seed(seed, name))
        p_hat = mc.probability_float(GOOD)
        if not within_three_sigma(p, p_hat, trials):
            problems.append(f"{name} monte-carlo off by {abs(p_hat - p):.2e} "
                            f"> 3s={three_sigma(p, trials):.2e}")
    if problems:
        return CheckResult("exact-probabilities", False, "; ".join(problems))
    return CheckResult(
        "exact-probabilities", True,
        f"triangle=0.0405, 4-path=0.009 exact; monte-carlo within 3 sigma "
        f"({trials} trials)")


# ---------------------------------------------------------------------------
# Enumerator vs Monte-Carlo sweep over all tiny graphs


def _pending_cells(order, roots,
                   k_max: int) -> List[Tuple[Tuple[int, int], int]]:
    """The cells [((root, k), t_last)] that one edge order leaves pending.

    Good can only land on the k matching a root's final tree size (smaller k
    overflow, larger k starve), so an order leaves a root pending in at most
    one cell: k is that size when the root saw no violation and k <= k_max,
    and t_last is its last accept time (0 for a bare root). Every other
    (root, k) cell is Bad whatever the threshold.
    """
    cells = []
    for v in roots:
        accepts, t_violate = tree_replay_profile(order, v)
        k = len(accepts) + 1
        if t_violate is None and k <= k_max:
            cells.append(((v, k), accepts[-1] if accepts else 0))
    return cells


def _tree_good_profiles(g: Graph, k_max: int):
    """Map each edge order of g to its pending cells (_pending_cells). One
    replay per (order, root) serves both the exact and the Monte-Carlo side
    of the sweep."""
    roots = range(1, g.n + 1)
    return {order: _pending_cells(order, roots, k_max) for order in
            itertools.permutations([(e.u, e.v) for e in g.edges])}


def _last_time_counts(table) -> Dict[Tuple[int, int], Counter]:
    """Per pending cell, how many edge orders leave it pending at each
    t_last."""
    counts: Dict[Tuple[int, int], Counter] = {}
    for cells in table.values():
        for cell, t_last in cells:
            counts.setdefault(cell, Counter())[t_last] += 1
    return counts


def exact_good_probability(counts: Counter, n_perms: int,
                           tails: List[Fraction]) -> Fraction:
    """Good probability of one cell from its t_last counts over n_perms
    orders; tails = binomial_tails(m, tau)."""
    return sum((c * tails[t] for t, c in counts.items()),
               Fraction(0)) / n_perms


def montecarlo_good_counts(g: Graph, table, tau: float, trials: int,
                           seed: int, k_max: int) -> Dict[Tuple[int, int], int]:
    """Shared-trial empirical Good counts for every (root, k) cell.

    Each trial draws its shuffle and its coins exactly as the stream
    generator does, then looks its order up in `table`
    (_tree_good_profiles): a pending cell is Good when its t_last is within
    the trial's threshold.
    """
    perm_rng = random.Random(split_seed(seed, "permutation"))
    coin_rng = random.Random(split_seed(seed, "coins"))
    edges = [(e.u, e.v) for e in g.edges]
    m = len(edges)
    good: Dict[Tuple[int, int], int] = {(v, k): 0 for v in range(1, g.n + 1)
                                        for k in range(1, k_max + 1)}
    for _ in range(trials):
        perm_rng.shuffle(edges)
        lam = _count_heads(m, tau, coin_rng)
        for cell, t_last in table[tuple(edges)]:
            if t_last <= lam:
                good[cell] += 1
    return good


def _sweep_cell_violations(g: Graph, table, runs, trials: int,
                           k_max: int) -> List[Tuple[int, int, List[str]]]:
    """(cells, violations, messages) for each (tau, seed) in runs, from g's
    order table (_tree_good_profiles), which does not depend on tau."""
    counts = _last_time_counts(table)
    out = []
    for tau, seed in runs:
        good = montecarlo_good_counts(g, table, tau, trials, seed, k_max)
        tails = binomial_tails(g.m, _as_fraction(tau))
        cells = violations = 0
        messages: List[str] = []
        for v in range(1, g.n + 1):
            for k in range(1, k_max + 1):
                cells += 1
                p = float(exact_good_probability(
                    counts.get((v, k), Counter()), len(table), tails))
                p_hat = good[(v, k)] / trials
                if not within_three_sigma(p, p_hat, trials):
                    violations += 1
                    if len(messages) < 5:
                        messages.append(f"m={g.m} root={v} k={k} tau={tau}: "
                                        f"{p_hat:.5f} vs {p:.5f}")
        out.append((cells, violations, messages))
    return out


def _sweep_worker(args):
    """Sweep results of the graphs that share one edge list, by increasing
    n. The order table is built once, on the largest n: a graph on fewer
    vertices keeps the cells of its own roots, which are exactly the cells
    its own table would hold, so no (edge order, root) is replayed twice."""
    edges, ns, runs_per_graph, trials, k_max = args
    graphs = [Graph(n, [edge(u, v) for u, v in edges]) for n in ns]
    largest = _tree_good_profiles(graphs[-1], k_max)
    out = []
    for g, runs in zip(graphs, runs_per_graph):
        table = largest if g is graphs[-1] else {
            order: [c for c in cells if c[0][0] <= g.n]
            for order, cells in largest.items()}
        out.append(_sweep_cell_violations(g, table, runs, trials, k_max))
    return out


def check_enumerator_montecarlo(trials: int = 100_000, k_max: int = 5,
                                taus=(0.1, 0.3), seed: int = 77,
                                jobs: int = 1, max_n: int = 5,
                                max_m: int = 6) -> CheckResult:
    graphs = all_graphs_up_to(max_n, max_m)
    # graph indices by edge list; all_graphs_up_to lists graphs by
    # increasing n, so each group's vertex counts increase too
    groups: Dict[tuple, List[int]] = {}
    for gi, g in enumerate(graphs):
        groups.setdefault(tuple((e.u, e.v) for e in g.edges), []).append(gi)
    tasks = [(edges, [graphs[gi].n for gi in members],
              [[(tau, split_seed(seed, f"sweep-{gi}-{ti}"))
                for ti, tau in enumerate(taus)] for gi in members],
              trials, k_max) for edges, members in groups.items()]
    if jobs > 1:
        with Pool(min(jobs, len(tasks))) as pool:
            per_group = pool.map(_sweep_worker, tasks)
    else:
        per_group = [_sweep_worker(t) for t in tasks]
    per_graph = [None] * len(graphs)
    for members, outs in zip(groups.values(), per_group):
        for gi, runs in zip(members, outs):
            per_graph[gi] = runs
    results = [r for runs in per_graph for r in runs]
    cells = sum(r[0] for r in results)
    violations = sum(r[1] for r in results)
    budget = max(1, int(0.005 * cells))
    messages = [m for r in results for m in r[2]][:5]
    passed = violations <= budget
    detail = (f"{len(graphs)} graphs, {cells} cells x {trials} trials: "
              f"{violations} three-sigma violations (budget {budget})")
    if messages and not passed:
        detail += " | " + "; ".join(messages)
    return CheckResult("enumerator-montecarlo", passed, detail)


# ---------------------------------------------------------------------------
# Canonical replay


def check_canonical_replay(n_graphs: int = 500, seed: int = 31,
                           tree_k: int = 5, disc_k: int = 3,
                           disc_d: int = 3) -> CheckResult:
    rng = random.Random(seed)
    tree_cases = disc_cases = 0
    for _ in range(n_graphs):
        n = rng.randint(1, 30)
        m = rng.randint(0, min(n * (n - 1) // 2, 60))
        g = random_graph(n, m, rng.randrange(2 ** 32))
        for v in range(1, n + 1):
            for k in range(1, tree_k + 1):
                tree_cases += 1
                ct = cbfs_tree(g, v, k)
                order = ct.edge_order
                out, det = replay(TreeDetector(v, k), order, len(order))
                # accepting exactly ct's edges, equal depths pin every parent
                same = det.dep == ct.dep
                want = GOOD if ct.size == k else BAD_SMALL
                if out != want or not same:
                    return CheckResult(
                        "canonical-replay", False,
                        f"tree replay mismatch: n={n} m={m} root={v} k={k}")
            for k in range(0, disc_k + 1):
                for d in range(1, disc_d + 1):
                    disc_cases += 1
                    cd, order = grow_cano_disc(g, v, k, d)
                    out, det = replay(DiscDetector(v, k, d), order,
                                      len(order))
                    if (isinstance(out, str) or det.adj != cd.adj
                            or det.dep != cd.dep):
                        return CheckResult(
                            "canonical-replay", False,
                            f"disc replay mismatch: n={n} m={m} root={v} "
                            f"k={k} d={d}")
    return CheckResult(
        "canonical-replay", True,
        f"{n_graphs} graphs: {tree_cases} tree + {disc_cases} disc replays exact")


# ---------------------------------------------------------------------------
# Spanning-weight identity


def check_mst_identity(n_graphs: int = 200, seed: int = 41) -> CheckResult:
    rng = random.Random(seed)
    for i in range(n_graphs):
        n = rng.randint(2, 50)
        W = rng.randint(1, 5)
        g = random_connected_weighted(n, W, rng.randrange(2 ** 32))
        lhs = mst_identity_value(g)
        rhs = kruskal_mst(g)
        if lhs != rhs:
            return CheckResult(
                "mst-identity", False,
                f"graph {i} (n={n}, W={W}): identity {lhs} != kruskal {rhs}")
    return CheckResult("mst-identity", True,
                       f"{n_graphs} connected weighted graphs: identity exact")


# ---------------------------------------------------------------------------
# Disc projection equivalence


def check_disc_projection(n_graphs: int = 200, seed: int = 53,
                          k_max: int = 2, d_max: int = 3) -> CheckResult:
    rng = random.Random(seed)
    cases = 0
    for _ in range(n_graphs):
        n = rng.randint(1, 40)
        m = rng.randint(0, min(n * (n - 1) // 2, 80))
        g = random_graph(n, m, rng.randrange(2 ** 32))
        wants = {(k, d): bounded_disc_codes(g, range(1, n + 1), k, d)
                 for k in range(1, k_max + 1) for d in range(1, d_max + 1)}
        for v in range(1, n + 1):
            for k in range(1, k_max + 1):
                for d in range(1, d_max + 1):
                    cases += 1
                    got = project_extended_disc(cano_disc(g, v, k + 1, d), k, d)
                    want = wants[k, d][v - 1]
                    if got != want:
                        return CheckResult(
                            "disc-projection", False,
                            f"n={n} m={m} v={v} k={k} d={d}: "
                            f"{got.hex} != {want.hex}")
    return CheckResult("disc-projection", True,
                       f"{n_graphs} graphs, {cases} projections exact")


# ---------------------------------------------------------------------------
# Detection-rate window and false-positive suppression


def check_detection_window(seed: int = 67) -> CheckResult:
    rng = random.Random(seed)
    graphs = [g for g in all_graphs_up_to(5, 6)]
    checked = 0
    for g in graphs:
        comps = {v: len(c) for c in connected_components(g) for v in c}
        for tau in (Fraction(1, 10), Fraction(3, 10)):
            for v in range(1, g.n + 1):
                k = comps[v]
                if k > 5:
                    continue
                checked += 1
                p = enumerate_outcomes(g, v, k, None, tau).probability(GOOD)
                gk = tau ** (k - 1) / math.factorial(k - 1)
                bound = Fraction(k ** (2 * k)) * tau * gk
                if abs(p - gk) > bound:
                    return CheckResult(
                        "detection-window", False,
                        f"m={g.m} root={v} k={k} tau={tau}: |{p}-{gk}| > {bound}")
    return CheckResult(
        "detection-window", True,
        f"{checked} size-matched roots inside the first-order window")


def check_false_positive_ratio() -> CheckResult:
    p4 = Graph(4, [edge(1, 2), edge(2, 3), edge(3, 4)])
    ratios = []
    for tau in (Fraction(3, 10), Fraction(1, 10), Fraction(1, 20)):
        p = enumerate_outcomes(p4, 1, 3, None, tau).probability(GOOD)
        gk = tau ** 2 / 2
        ratio = p / gk
        if ratio != Fraction(2, 3) * tau:
            return CheckResult(
                "false-positive-ratio", False,
                f"tau={tau}: ratio {ratio} != (2/3)tau")
        ratios.append(ratio)
    if not all(ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1)):
        return CheckResult("false-positive-ratio", False,
                           "ratio not decreasing in tau")
    return CheckResult(
        "false-positive-ratio", True,
        "oversize-component acceptance is exactly (2/3)tau of the in-size rate "
        "on the 4-path witness and vanishes with tau")


# ---------------------------------------------------------------------------
# Suite driver


def run_checks(only: Optional[str] = None, jobs: int = 1, fast: bool = False,
               mutate: Optional[str] = None) -> List[CheckResult]:
    """Run the named checks (all by default). fast=True shrinks the randomized
    case counts for a quick smoke pass; mutate injects a deliberate defect so
    the caller can confirm the suite notices. A StreamscopeError raised
    inside a check becomes that check's FAIL result.
    """
    mc_trials = 20_000 if fast else 100_000
    exact_trials = 100_000 if fast else 1_000_000
    plan = {
        "exact-probabilities": lambda: check_exact_probabilities(exact_trials),
        "enumerator-montecarlo": lambda: check_enumerator_montecarlo(
            mc_trials, jobs=jobs),
        "canonical-replay": lambda: check_canonical_replay(
            100 if fast else 500),
        "mst-identity": lambda: check_mst_identity(50 if fast else 200),
        "disc-projection": lambda: check_disc_projection(50 if fast else 200),
        "detection-window": check_detection_window,
        "false-positive-ratio": check_false_positive_ratio,
    }
    if only is not None:
        if only not in plan:
            raise KeyError(f"unknown check {only!r}; have {sorted(plan)}")
        plan = {only: plan[only]}
    if mutate not in (None, "depth-gap"):
        raise KeyError(f"unknown mutation {mutate!r}")
    with mutated_depth_gap(canonical.DEPTH_GAP + 1) if mutate \
            else nullcontext():
        return [_run_check(name, fn) for name, fn in plan.items()]


def _run_check(name: str, fn) -> CheckResult:
    """A check's result; a typed error raised inside it fails that check."""
    try:
        return fn()
    except StreamscopeError as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
