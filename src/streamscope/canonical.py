"""Canonical rooted constructions and the violating-edge rule.

Everything the streaming detectors must reproduce lives here: canonical BFS
trees, canonical extended bounded discs, the rule that witnesses a collected
structure as non-canonical, canonical codes for rooted graphs, and the
projection that recovers a degree-truncated disc from its extended form.

Trees, discs and the detectors built on them grow through one base,
`Rooted`, which holds exactly what the violating-edge rule reads and the one
`attach` that writes it. The rule exists once, in `classify_edge`. The
stream detectors, the public `is_violating_*` predicates, the static disc
construction (`grow_cano_disc`) and the enumerator's tree replay all call
it, which makes replaying a canonical edge order through a detector
reproduce the construction exactly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .errors import (
    DiscTooLargeError,
    EdgeAlreadyInDiscError,
    EdgeAlreadyInTreeError,
    InvalidKError,
    InvariantError,
    RadiusMismatchError,
)
from .graphs import Edge, Graph, truncate_high_degree

# Minimum depth gap that exposes a late attachment. The verification suite's
# mutation mode perturbs this to prove the probability checks are sensitive.
DEPTH_GAP = 2

DISC_SIZE_CAP = 64


# ---------------------------------------------------------------------------
# The rooted core and rooted trees


class Rooted:
    """A rooted structure grown one new vertex at a time: exactly the state
    the violating-edge rule reads. dep maps each collected vertex to its
    depth, largest maps a vertex to the largest label of a new vertex it has
    attached, and maxdep is the deepest level present.
    """

    __slots__ = ("root", "dep", "largest", "maxdep")

    def __init__(self, root: int):
        self.root = root
        self.dep: Dict[int, int] = {root: 0}
        self.largest: Dict[int, int] = {}
        self.maxdep = 0

    @property
    def size(self) -> int:
        return len(self.dep)

    def attach(self, u: int, w: int) -> None:
        """Add new vertex w under u (no validity checks)."""
        d = self.dep[u] + 1
        self.dep[w] = d
        if w > self.largest.get(u, 0):
            self.largest[u] = w
        if d > self.maxdep:
            self.maxdep = d


class RootedTree(Rooted):
    """A rooted tree with its edges in attach order, the static reference
    that cbfs_tree builds and is_violating_tree checks an edge against.
    """

    __slots__ = ("edge_order",)

    def __init__(self, root: int):
        super().__init__(root)
        self.edge_order: List[Tuple[int, int]] = []

    def edge_set(self) -> Set[Tuple[int, int]]:
        return {(min(a, b), max(a, b)) for a, b in self.edge_order}

    def attach(self, u: int, w: int) -> None:
        super().attach(u, w)
        self.edge_order.append((u, w))


OUTSIDE = "outside"
INSIDE = "inside"
NEW_VERTEX = "new-vertex"
VIOLATING = "violating"


def classify_edge(s: Rooted, a: int, b: int) -> Tuple[str, int, int]:
    """The one violating-edge rule, shared by trees and discs; it reads s's
    dep, maxdep and largest and changes nothing. Returns (kind, u, w). An
    edge is VIOLATING when it proves the collection cannot be a canonical
    prefix: a new vertex w hooks onto a vertex u at least DEPTH_GAP above the
    deepest level, or onto a u that already attached a larger label; or a
    collected pair spans DEPTH_GAP levels, or its shallower endpoint u
    already attached a larger label than the deeper endpoint w. Otherwise it
    is OUTSIDE (neither endpoint collected), INSIDE (both collected) or
    NEW_VERTEX (u collected, w not). DEPTH_GAP is read on every call, so a
    perturbed gap takes effect at once.
    """
    dep = s.dep
    da = dep.get(a)
    db = dep.get(b)
    if da is None and db is None:
        return OUTSIDE, a, b
    if da is not None and db is not None:
        if da == db:
            return INSIDE, a, b
        if da > db:
            a, b, da, db = b, a, db, da
        if db - da >= DEPTH_GAP or s.largest.get(a, 0) > b:
            return VIOLATING, a, b
        return INSIDE, a, b
    if da is None:
        a, b, da = b, a, db
    if s.maxdep - da >= DEPTH_GAP or s.largest.get(a, 0) > b:
        return VIOLATING, a, b
    return NEW_VERTEX, a, b


def is_violating_tree(t: RootedTree, e: Edge) -> bool:
    """Does e witness that t is not a canonical BFS tree? e must not be in t."""
    a, b = (e.u, e.v) if e.u < e.v else (e.v, e.u)
    if (a, b) in t.edge_set():
        raise EdgeAlreadyInTreeError(f"edge ({a},{b}) already in tree")
    return classify_edge(t, a, b)[0] == VIOLATING


def cbfs_tree(g: Graph, v: int, k: int) -> RootedTree:
    """Canonical BFS tree of v up to k vertices: FIFO exploration, neighbors
    taken in ascending label order, stopping the instant k vertices are in.
    """
    if k < 1:
        raise InvalidKError(f"k must be >= 1, got {k}")
    t = RootedTree(v)
    queue = [v]
    head = 0
    while t.size < k and head < len(queue):
        u = queue[head]
        head += 1
        for w in g.neighbors_sorted(u):
            if w in t.dep:
                continue
            t.attach(u, w)
            if t.size == k:
                return t
            queue.append(w)
    return t


# ---------------------------------------------------------------------------
# Rooted bounded discs


def bfs_depths(adj, root: int,
               radius: float = float("inf")) -> Dict[int, int]:
    """BFS distances from root, up to radius, in the graph adj (vertex to
    neighbors; a vertex without an entry has none)."""
    dist = {root: 0}
    queue = [root]
    for u in queue:
        du = dist[u] + 1
        if du > radius:
            break
        for w in adj.get(u, ()):
            if w not in dist:
                dist[w] = du
                queue.append(w)
    return dist


class RootedDisc(Rooted):
    """Rooted graph grown under the extended bounded-disc rule.

    dep holds shortest-path distance to the root within the disc. adj is the
    one record of the kept edges: `edges` and `num_edges` are derived from it.
    Only a vertex with a kept edge has an adj entry: a bare root has none.
    """

    __slots__ = ("k", "d", "adj")

    def __init__(self, root: int, k: int, d: int):
        super().__init__(root)
        self.k = k
        self.d = d
        self.adj: Dict[int, Set[int]] = {}

    @property
    def edges(self) -> Set[Tuple[int, int]]:
        """The kept edges as (smaller, larger) label pairs."""
        return {(u, w) for u, ws in self.adj.items() for w in ws if u < w}

    @property
    def num_edges(self) -> int:
        return sum(map(len, self.adj.values())) // 2

    def degree(self, v: int) -> int:
        return len(self.adj.get(v, ()))


def disc_classify(f: RootedDisc, a: int, b: int) -> Tuple[str, int, int]:
    """classify_edge plus the disc's budget; read-only. An edge joining two
    collected vertices is always kept (once the gap test passed it cannot
    move a depth or add a vertex); one reaching a new vertex only while the
    radius stays within k and the attachment point's collected degree within
    d+1. A new vertex the budget refuses comes back OUTSIDE (ignored).
    """
    kind, u, w = classify_edge(f, a, b)
    if kind == NEW_VERTEX and (f.dep[u] >= f.k
                               or len(f.adj.get(u, ())) > f.d):
        return OUTSIDE, u, w
    return kind, u, w


def disc_apply(f: RootedDisc, kind: str, u: int, w: int) -> None:
    """Keep an edge disc_classify returned as INSIDE or NEW_VERTEX (w new).

    Only new-vertex attachments go through attach and so update largest,
    exactly as in a tree: a closing edge between collected vertices says
    nothing about either endpoint's own lexicographic scan, and letting it
    raise largest makes a later canonical scan trip over its own edges. The
    attachment point's adj entry is made on its first edge.
    """
    if kind == NEW_VERTEX:
        f.attach(u, w)
        f.adj[w] = {u}
    else:
        f.adj[w].add(u)
    if u in f.adj:
        f.adj[u].add(w)
    else:
        f.adj[u] = {w}


def is_violating_disc(f: RootedDisc, e: Edge) -> bool:
    """Disc analogue of is_violating_tree; dep is distance-to-root in f."""
    a, b = (e.u, e.v) if e.u < e.v else (e.v, e.u)
    if b in f.adj.get(a, ()):
        raise EdgeAlreadyInDiscError(f"edge ({a},{b}) already in disc")
    return classify_edge(f, a, b)[0] == VIOLATING


def grow_cano_disc(g: Graph, v: int, k: int,
                   d: int) -> Tuple[RootedDisc, List[Tuple[int, int]]]:
    """Canonical extended (d+1)-bounded k-disc of v, with the order in which
    its edges were inserted.

    BFS over collected vertices, each processed once; a popped vertex scans
    only its first min(deg, d+1) neighbors in ascending label order, and each
    scanned edge goes through exactly the stream-collection rule above.
    Depth stability (no accepted edge moves a collected vertex's distance)
    is checked once, at the end (InvariantError): no stored depth is ever
    rewritten and edges never raise a distance, so a moved depth stays low.
    """
    if k < 0:
        raise InvalidKError(f"k must be >= 0, got {k}")
    if d < 1:
        raise InvalidKError(f"d must be >= 1, got {d}")
    f = RootedDisc(v, k, d)
    order: List[Tuple[int, int]] = []
    queue = [v]
    for u in queue:
        nbrs = g.neighbors_sorted(u)
        for w in nbrs[:min(len(nbrs), d + 1)]:
            if w in f.adj.get(u, ()):
                continue
            kind, a, b = disc_classify(f, u, w)
            if kind == INSIDE or kind == NEW_VERTEX:
                disc_apply(f, kind, a, b)
                order.append((u, w))
                if kind == NEW_VERTEX:
                    queue.append(w)
    after = bfs_depths(f.adj, f.root)
    if after != f.dep:
        x = next(x for x, dx in f.dep.items() if after[x] != dx)
        raise InvariantError(f"an accepted edge moved collected vertex {x} "
                             f"from depth {f.dep[x]} to {after[x]}")
    return f, order


def cano_disc(g: Graph, v: int, k: int, d: int) -> RootedDisc:
    """Canonical extended (d+1)-bounded k-disc of v (grow_cano_disc without
    the insertion order)."""
    return grow_cano_disc(g, v, k, d)[0]


# ---------------------------------------------------------------------------
# Canonical codes for rooted graphs


class DiscType:
    """Canonical identifier of a rooted graph up to root-preserving
    isomorphism. The code is self-describing: vertex count followed by the
    edge list under canonical labels (root is always label 0), so a
    representative disc can be rebuilt from it.
    """

    __slots__ = ("code", "num_edges")

    def __init__(self, code: bytes, num_edges: int):
        self.code = code
        self.num_edges = num_edges

    def __eq__(self, other):
        return isinstance(other, DiscType) and self.code == other.code

    def __hash__(self):
        return hash(self.code)

    def __lt__(self, other):
        return self.code < other.code

    def __repr__(self):
        return f"DiscType({self.code.hex()}, t={self.num_edges})"

    @property
    def hex(self) -> str:
        return self.code.hex()

    @property
    def num_vertices(self) -> int:
        return self.code[0]

    def decode(self) -> Tuple[int, List[Tuple[int, int]]]:
        """(vertex count, edge list over labels 0..n-1 with root 0)."""
        n = self.code[0]
        body = self.code[1:]
        edges = [(body[i], body[i + 1]) for i in range(0, len(body), 2)]
        return n, edges

    @classmethod
    def from_hex(cls, s: str) -> "DiscType":
        code = bytes.fromhex(s)
        return cls(code, (len(code) - 1) // 2)


def _refine_colors(n: int, adj: List[Set[int]], colors: List[int]) -> List[int]:
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in adj[v])))
                for v in range(n)]
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [ranking[sigs[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def _twin_classes(cell: List[int], adj: List[Set[int]]) -> List[int]:
    """One representative per true-twin class (swapping twins is an
    automorphism, so only one branch needs exploring)."""
    reps: List[int] = []
    for x in cell:
        dup = False
        for r in reps:
            if adj[x] - {r} == adj[r] - {x}:
                dup = True
                break
        if not dup:
            reps.append(x)
    return reps


def canonical_rooted_code(n: int, edges, root: int,
                          deps: Dict[int, int]) -> bytes:
    """Minimal adjacency encoding over label permutations that fix the root.

    Vertices are pre-partitioned by (root flag, depth, degree) and refined by
    neighbor colors; the backtracking search then assigns positions cell by
    cell, pruning on the partial encoding and collapsing true twins. The
    caller (disc_code) has already refused a disc above DISC_SIZE_CAP.
    """
    adj: List[Set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    base = [(0 if v == root else 1, deps[v], len(adj[v])) for v in range(n)]
    ranking = {sig: i for i, sig in enumerate(sorted(set(base)))}
    colors = _refine_colors(n, adj, [ranking[base[v]] for v in range(n)])

    best: List[Optional[Tuple[int, ...]]] = [None]

    def rec(placed: List[int], pos_of: Dict[int, int], key: List[int],
            remaining: List[List[int]]):
        if not remaining:
            tup = tuple(key)
            if best[0] is None or tup < best[0]:
                best[0] = tup
            return
        cell = remaining[0]
        rest = remaining[1:]
        for x in (_twin_classes(cell, adj) if len(cell) > 1 else cell):
            mask = 0
            for w in adj[x]:
                q = pos_of.get(w)
                if q is not None:
                    mask |= 1 << q
            key.append(mask)
            if best[0] is not None:
                prefix = best[0][:len(key)]
                if tuple(key) > prefix:
                    key.pop()
                    continue
            pos_of[x] = len(placed)
            placed.append(x)
            nxt = [c for c in ([y for y in cell if y != x],) if c]
            rec(placed, pos_of, key, nxt + rest)
            placed.pop()
            del pos_of[x]
            key.pop()

    cells: Dict[int, List[int]] = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    ordered = [cells[c] for c in sorted(cells)]
    rec([], {}, [], ordered)
    del rec  # rec's own cell holds rec: free the cycle without the collector

    # Recover the canonical edge list from the winning masks.
    masks = best[0]
    out = [n]
    canon_edges = []
    for p, mask in enumerate(masks):
        q = 0
        while mask:
            if mask & 1:
                canon_edges.append((q, p))
            mask >>= 1
            q += 1
    for a, b in sorted(canon_edges):
        out.append(a)
        out.append(b)
    return bytes(out)


_CODE_CACHE: Dict[tuple, DiscType] = {}


def disc_code(f: RootedDisc) -> DiscType:
    """Canonical code of a rooted disc; equal codes iff a root-preserving
    isomorphism exists between the discs.
    """
    verts = sorted(f.dep)
    if len(verts) > DISC_SIZE_CAP:
        raise DiscTooLargeError(f"disc has {len(verts)} vertices, cap "
                                f"{DISC_SIZE_CAP}")
    idx = {v: i for i, v in enumerate(verts)}
    edges = tuple(sorted((idx[a], idx[b]) for a, ws in f.adj.items()
                         for b in ws if a < b))
    cache_key = (len(verts), idx[f.root], edges)
    hit = _CODE_CACHE.get(cache_key)
    if hit is not None:
        return hit
    deps = {idx[v]: f.dep[v] for v in verts}
    code = canonical_rooted_code(len(verts), edges, idx[f.root], deps)
    dt = DiscType(code, len(edges))
    if len(_CODE_CACHE) < 200_000:
        _CODE_CACHE[cache_key] = dt
    return dt


def materialize_disc(dt: DiscType, k: int, d: int) -> RootedDisc:
    """Representative rooted disc of a type, labels 1..n with root 1."""
    n, edges = dt.decode()
    f = RootedDisc(1, k, d)
    for a, b in edges:
        u, w = a + 1, b + 1
        f.adj.setdefault(u, set()).add(w)
        f.adj.setdefault(w, set()).add(u)
    f.dep = bfs_depths(f.adj, f.root)
    if len(f.dep) != n:
        raise InvariantError(f"disc code {dt.hex} is not root-connected")
    f.maxdep = max(f.dep.values(), default=0)
    return f


# ---------------------------------------------------------------------------
# Projection back to degree-truncated discs


def _ball_code(root: int, adj, k: int, d: int) -> DiscType:
    """Code of the radius-k ball around root in the graph adj (vertex to
    neighbors; a vertex without an entry has none)."""
    dist = bfs_depths(adj, root, k)
    sub = RootedDisc(root, k, d)
    sub.dep = dist
    sub.adj = {v: ws for v in dist
               if (ws := {w for w in adj.get(v, ()) if w in dist})}
    sub.maxdep = max(dist.values())
    return disc_code(sub)


def project_extended_disc(gamma: RootedDisc, k: int, d: int) -> DiscType:
    """Recover the d-bounded k-disc type from an extended disc built with
    radius k+1 and per-vertex budget d+1.

    A vertex that collected d+1 or more edges is certainly high degree in the
    source graph; every edge at such a vertex is dropped, and the code of the
    radius-k ball around the root in what remains is returned. A high-degree
    root therefore projects to the singleton type.
    """
    if gamma.k != k + 1:
        raise RadiusMismatchError(
            f"extended disc built with radius {gamma.k}, need {k + 1}")
    if gamma.d != d:
        raise RadiusMismatchError(
            f"extended disc built with budget {gamma.d}, need {d}")
    high = {v for v, ws in gamma.adj.items() if len(ws) > d}
    adj = {v: ws - high for v, ws in gamma.adj.items() if v not in high}
    return _ball_code(gamma.root, adj, k, d)


def bounded_disc_codes(g: Graph, roots: Iterable[int], k: int,
                       d: int) -> List[DiscType]:
    """Types of the k-discs of roots computed directly on the
    degree-truncated graph: the independent reference the projection is
    checked against. The graph is truncated once for all the roots.
    """
    g2 = truncate_high_degree(g, d)
    adj = {u: g2.neighbors_sorted(u) for u in range(1, g2.n + 1)}
    return [_ball_code(v, adj, k, d) for v in roots]
