"""Static simple undirected graphs with integer labels in [1..n].

The vertex set is always [1..n] with n explicit, so isolated vertices exist
even though they never show up in an edge list. Graphs are immutable after
construction and safe to share.
"""

from __future__ import annotations

import functools
import gc
import math
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import (
    BadWeightError,
    DuplicateEdgeError,
    LabelOutOfRangeError,
    MissingVertexCountError,
    ParseError,
    SelfLoopError,
    VertexCountMismatchError,
)


def _without_cycle_collection(fn):
    """Run fn with CPython's cyclic collector off, then restore the state
    the call found, also when fn raises. The loads and runs that wear it
    build no reference cycle, so reference counting alone frees them on time
    (README, design notes).
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()
    return paused


class Edge(NamedTuple):
    u: int
    v: int
    w: Optional[int] = None


def edge(u: int, v: int, w: Optional[int] = None) -> Edge:
    """Normalized edge: smaller label first, no self loops."""
    if u == v:
        raise SelfLoopError(f"self loop at {u}")
    if u > v:
        u, v = v, u
    return Edge(u, v, w)


class Graph:
    """Simple undirected graph on vertex set [1..n], optionally weighted.

    Edges are stored in canonical order (smaller endpoint first, sorted by
    endpoint pair) so every seeded downstream computation is reproducible.

    The build checks every caller's edges and pays once per edge. It
    normalizes them, checking that each has a weight exactly when the graph
    is weighted, and sorts them. Copies of a pair then sit next to each
    other, so the one pass that fills a list per vertex also finds
    duplicates. The labels are checked once, through the smallest on the
    sorted list and the largest vertex with a neighbour, and the weights
    once, in one loop over the sorted edges. When the edges
    hold several faults, the first refused is, in this order: the first
    edge in the caller's order that is a self loop or has a missing or
    unexpected weight, a duplicate, a label above n, a label below 1, a
    weight outside [1..W].
    """

    __slots__ = ("n", "edges", "weighted", "W", "_adj")

    def __init__(self, n: int, edges: Iterable[Edge], weighted: bool = False,
                 W: Optional[int] = None):
        if n < 0:
            raise LabelOutOfRangeError("n must be >= 0")
        es = []
        add = es.append
        for e in edges:
            # EdgeLines already yields normalized Edges; anything else,
            # including a self loop, goes through edge()'s checks
            if type(e) is not Edge or e[0] >= e[1]:
                e = edge(e.u, e.v, e.w)
            if (e[2] is None) == weighted:
                raise BadWeightError(
                    f"edge ({e.u},{e.v}) missing weight" if weighted else
                    f"edge ({e.u},{e.v}) has weight on unweighted graph")
            add(e)
        # the weights are all None or all set, so the sort only compares
        # them between copies of one pair
        es.sort()
        adj = {}
        get = adj.get
        for u, v, _ in es:
            nbrs = get(u)
            if nbrs is None:
                adj[u] = [v]
            elif nbrs[-1] == v:
                # copies of a pair are adjacent in (u, v) order, and only
                # the pair (u, v) appends v to u's list
                raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
            else:
                nbrs.append(v)
            nbrs = get(v)
            if nbrs is None:
                adj[v] = [u]
            else:
                nbrs.append(u)
        if es:
            top = max(adj)
            if top > n:
                raise LabelOutOfRangeError(f"label {top} > n={n}")
            if es[0].u < 1:
                raise LabelOutOfRangeError(f"label {es[0].u} < 1")
        if weighted:
            if W is None:
                W = max((e.w for e in es), default=1)
            for e in es:
                if not 1 <= e.w <= W:
                    raise BadWeightError(
                        f"weight {e.w} of edge ({e.u},{e.v}) outside [1..{W}]")
        else:
            W = None
        # In (u, v) order a vertex meets its smaller neighbours first, in
        # increasing order, then its larger ones: each list is sorted.
        for v, nbrs in adj.items():
            adj[v] = tuple(nbrs)
        self.n = n
        self.edges = tuple(es)
        self.weighted = weighted
        self.W = W
        self._adj = adj

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors_sorted(self, v: int) -> tuple:
        if not 1 <= v <= self.n:
            raise LabelOutOfRangeError(f"vertex {v} outside [1..{self.n}]")
        return self._adj.get(v, ())

    def degree(self, v: int) -> int:
        return len(self.neighbors_sorted(v))

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and self.edges == other.edges and self.weighted == other.weighted
                and self.W == other.W)

    def __hash__(self):
        return hash((self.n, self.edges, self.weighted, self.W))

    def __repr__(self):
        kind = f"weighted W={self.W}" if self.weighted else "unweighted"
        return f"Graph(n={self.n}, m={self.m}, {kind})"


class EdgeLines:
    """One pass over the lines of an edge-list document, yielding normalized
    edges and holding one line at a time.

    Lines hold "u v" or "u v w" (whitespace separated), each field an ASCII
    decimal integer with an optional sign; '#' starts a comment; an optional
    "n=<int>" line, allowed only as the first data line, sets `n` when the
    caller gave none and must equal it otherwise (VertexCountMismatchError).
    All lines must agree on whether a weight column is present. Labels must
    be >= 1, and <= n once n is known; weights must be >= 1; self loops are
    refused. A line with several faults is refused for the first in this
    order: a misplaced header, the field count, a non-integer field, a
    mixed weight column, then the rest as listed.

    One loop reads every line: it splits the line once, sends the fields
    to int() directly, runs each check above once and builds the normalized
    Edge in place.
    """

    def __init__(self, lines: Iterable[str], n: Optional[int] = None):
        self.lines = lines
        self.n = n

    def __iter__(self) -> Iterator[Edge]:
        n = self.n
        top = math.inf if n is None else n
        width = None    # the field count of the edge lines, once one is read
        first = True    # no data line read yet, so a header may come
        new_edge = tuple.__new__  # Edge() would add a Python-level call
        for line_no, raw in enumerate(self.lines, start=1):
            if "#" in raw:
                raw = raw.split("#", 1)[0]
            fields = raw.split()
            if not fields:
                continue
            if first:
                first = False
                if fields[0].startswith("n="):
                    line = raw.strip()
                    value = line[2:]
                    try:
                        n_header = int(value)
                    except ValueError:
                        raise ParseError(line_no,
                                         f"bad n= header {line!r}") from None
                    if "_" in value or not value.strip().isascii():
                        raise ParseError(line_no,
                                         f"non-integer field in {line!r}")
                    if n is None:
                        n = self.n = n_header
                    elif n != n_header:
                        raise VertexCountMismatchError(
                            f"line {line_no}: n={n_header} header disagrees "
                            f"with the given vertex count {n}")
                    top = n
                    continue
            k = len(fields)
            try:
                # int() alone also reads digit-group underscores and
                # non-ASCII digits; the join runs only when the line holds a
                # non-ASCII character, which may be whitespace between fields
                if (k != 2 and k != 3 or "_" in raw
                        or not (raw.isascii() or "".join(fields).isascii())):
                    raise ValueError
                u = int(fields[0])
                v = int(fields[1])
                w = int(fields[2]) if k == 3 else None
            except ValueError:
                # a line that is not two or three integers; a later header
                # is one too, since "n=..." is no integer
                line = raw.strip()
                if line.startswith("n="):
                    raise ParseError(line_no, "n= header must be the first "
                                              "data line") from None
                if k != 2 and k != 3:
                    raise ParseError(line_no, f"expected 2 or 3 fields, "
                                              f"got {k}") from None
                raise ParseError(line_no,
                                 f"non-integer field in {line!r}") from None
            if k != width:
                if width is not None:
                    raise ParseError(line_no,
                                     "mixed weighted and unweighted lines")
                width = k
            if u > v:
                u, v = v, u
            if u < 1:
                raise ParseError(line_no,
                                 f"labels must be >= 1 in {raw.strip()!r}")
            if v > top:
                raise LabelOutOfRangeError(
                    f"line {line_no}: label {v} > n={n}")
            if w is not None and w < 1:
                raise BadWeightError(f"line {line_no}: weight {w} < 1")
            if u == v:
                edge(u, v, w)  # raises the self-loop refusal
            yield new_edge(Edge, (u, v, w))


@_without_cycle_collection
def load_edge_list(text, n_override: Optional[int] = None,
                   w_override: Optional[int] = None,
                   infer_n: bool = True) -> Graph:
    """Parse an edge-list document (see EdgeLines) into a validated Graph.

    The vertex count is n_override, else the n= header, else the maximum
    label seen; n_override and a header must agree. With infer_n=False a
    document that names no n raises MissingVertexCountError once its lines
    have parsed. Runs with the cyclic collector paused: the edges and
    adjacency lists it builds are acyclic.
    """
    if hasattr(text, "read"):
        text = text.read()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = EdgeLines(text.splitlines(), n_override)
    edges = list(lines)
    n = lines.n
    if n is None:
        if not infer_n:
            raise MissingVertexCountError(
                "the edge list names no vertex count")
        n = max((e.v for e in edges), default=0)
    return Graph(n, edges, weighted=bool(edges) and edges[0].w is not None,
                 W=w_override)


def serialize_edge_list(g: Graph) -> str:
    """Canonical text form: n= header, then one edge per line, smaller label
    first, lines sorted by (u, v). load_edge_list(serialize_edge_list(g)) == g.
    """
    lines = [f"n={g.n}"]
    for e in g.edges:
        if g.weighted:
            lines.append(f"{e.u} {e.v} {e.w}")
        else:
            lines.append(f"{e.u} {e.v}")
    return "\n".join(lines) + "\n"


def truncate_high_degree(g: Graph, d: int) -> Graph:
    """Subgraph keeping only edges whose both endpoints have degree <= d in g."""
    if d < 1:
        raise LabelOutOfRangeError("d must be >= 1")
    kept = [e for e in g.edges if g.degree(e.u) <= d and g.degree(e.v) <= d]
    return Graph(g.n, kept, weighted=g.weighted, W=g.W)


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n + 1))
        self.size = [1] * (n + 1)
        self.count = n

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.count -= 1
        return True


def connected_components(g: Graph) -> list:
    """Components as sorted vertex lists (includes isolated vertices)."""
    uf = UnionFind(g.n)
    for e in g.edges:
        uf.union(e.u, e.v)
    comps = {}
    for v in range(1, g.n + 1):
        comps.setdefault(uf.find(v), []).append(v)
    return sorted(comps.values())
