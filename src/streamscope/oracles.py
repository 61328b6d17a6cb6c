"""Exact combinatorial oracles the estimators are verified against."""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from .canonical import DiscType, bounded_disc_codes, cano_disc, disc_code
from .errors import ComponentTooLargeError, DisconnectedError
from .graphs import Graph, UnionFind, connected_components


def exact_cc_histogram(g: Graph) -> Dict[int, int]:
    """Component-size histogram {size: count}, isolated vertices included."""
    return dict(Counter(map(len, connected_components(g))))


def threshold_components(g: Graph, t: int) -> int:
    """Number of components after dropping every edge heavier than t."""
    uf = UnionFind(g.n)
    for e in g.edges:
        if e.w <= t:
            uf.union(e.u, e.v)
    return uf.count


def kruskal_mst(g: Graph) -> int:
    """Exact minimum-spanning-tree weight of a connected weighted graph."""
    if not g.weighted:
        raise DisconnectedError("kruskal_mst needs a weighted graph")
    uf = UnionFind(g.n)
    total = 0
    used = 0
    for e in sorted(g.edges, key=lambda e: (e.w, e.u, e.v)):
        if uf.union(e.u, e.v):
            total += e.w
            used += 1
    if used != g.n - 1:
        raise DisconnectedError(f"graph has {g.n - used} components")
    return total


def mst_identity_value(g: Graph) -> int:
    """n - W + sum of exact threshold component counts; equals the MST weight
    on every connected weighted graph."""
    W = g.W
    return g.n - W + sum(threshold_components(g, t) for t in range(1, W))


def _max_independent_sets(g: Graph, comp: List[int],
                          size_cap: int) -> List[int]:
    """Lexicographically smallest maximum independent set of one whole
    component of g (its sorted vertex list); components above size_cap are
    refused. The branch and bound tries each label, in increasing order, in
    the set before out, so it meets maximum sets in lexicographic order. It
    keeps strict gains only, and the path to the first maximum leaf always
    has potential >= alpha > len(best), so that leaf is the witness.
    """
    if len(comp) > size_cap:
        raise ComponentTooLargeError(
            f"component of size {len(comp)} exceeds cap {size_cap}")
    n = len(comp)
    adj = [g.neighbors_sorted(v) for v in comp]
    best: List[int] = []

    def search(i: int, chosen: List[int], blocked: set) -> None:
        nonlocal best
        if n - i + len(chosen) <= len(best):
            return
        if i == n:
            best = chosen[:]
            return
        v = comp[i]
        if v not in blocked:
            chosen.append(v)
            search(i + 1, chosen, blocked.union(adj[i]))
            chosen.pop()
        search(i + 1, chosen, blocked)

    search(0, [], set())
    del search  # a self-recursive closure is a cycle until its cell is cleared
    return best


def exact_mis(g: Graph, size_cap: int = 20) -> Tuple[int, List[int]]:
    """Exact maximum independent set size with the lexicographically smallest
    witness, component by component. Components above size_cap are refused.
    """
    witness: List[int] = []
    for comp in connected_components(g):
        witness += _max_independent_sets(g, comp, size_cap)
    return len(witness), sorted(witness)


def make_component_mis_oracle(g: Graph, size_cap: int = 20):
    """Reference root-membership oracle: answers whether a root belongs to the
    lexicographically smallest maximum independent set of its own component
    in g. Deterministic per (component, root); local views are ignored. A
    component is solved at the first query of any of its vertices.
    """
    cache: Dict[int, set] = {}

    def oracle(local_view, root: int) -> bool:
        hit = cache.get(root)
        if hit is None:
            comp, todo = {root}, [root]
            while todo:
                for w in g.neighbors_sorted(todo.pop()):
                    if w not in comp:
                        comp.add(w)
                        todo.append(w)
            hit = set(_max_independent_sets(g, sorted(comp), size_cap))
            cache.update(dict.fromkeys(comp, hit))
        return root in hit

    return oracle


def exact_disc_freq(g: Graph, k: int, d: int) -> Dict[DiscType, int]:
    """Histogram of canonical extended (d+1)-bounded k-disc types over all
    roots of g."""
    return {dt: len(roots) for dt, roots in exact_disc_roots(g, k, d).items()}


def exact_disc_roots(g: Graph, k: int, d: int) -> Dict[DiscType, List[int]]:
    """Roots grouped by their canonical extended disc type."""
    groups: Dict[DiscType, List[int]] = {}
    for v in range(1, g.n + 1):
        dt = disc_code(cano_disc(g, v, k, d))
        groups.setdefault(dt, []).append(v)
    return groups


def exact_bounded_disc_freq(g: Graph, k: int, d: int) -> Dict[DiscType, int]:
    """Histogram of d-bounded k-disc types computed directly on the
    degree-truncated graph (the projection's independent reference)."""
    hist: Dict[DiscType, int] = {}
    for dt in bounded_disc_codes(g, range(1, g.n + 1), k, d):
        hist[dt] = hist.get(dt, 0) + 1
    return hist
