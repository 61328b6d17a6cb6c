"""Static simple undirected graphs with integer labels in [1..n].

The vertex set is always [1..n] with n explicit, so isolated vertices exist
even though they never show up in an edge list. Graphs are immutable after
construction and safe to share.
"""

from __future__ import annotations

import functools
import gc
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
    """

    __slots__ = ("n", "edges", "weighted", "W", "_adj")

    def __init__(self, n: int, edges: Iterable[Edge], weighted: bool = False,
                 W: Optional[int] = None):
        if n < 0:
            raise LabelOutOfRangeError("n must be >= 0")
        seen = set()
        normalized = []
        for e in edges:
            # EdgeLines already yields normalized Edges; anything else,
            # including a self loop, goes through edge()'s checks
            if type(e) is not Edge or e.u >= e.v:
                e = edge(e.u, e.v, e.w)
            if (e.u, e.v) in seen:
                raise DuplicateEdgeError(f"duplicate edge ({e.u}, {e.v})")
            seen.add((e.u, e.v))
            if e.v > n:
                raise LabelOutOfRangeError(f"label {e.v} > n={n}")
            if e.u < 1:
                raise LabelOutOfRangeError(f"label {e.u} < 1")
            if weighted:
                if e.w is None:
                    raise BadWeightError(f"edge ({e.u},{e.v}) missing weight")
            elif e.w is not None:
                raise BadWeightError(f"edge ({e.u},{e.v}) has weight on unweighted graph")
            normalized.append(e)
        # (u, v) pairs are unique here, so tuple order is (u, v) order
        normalized.sort()
        if weighted:
            max_w = max((e.w for e in normalized), default=1)
            if W is None:
                W = max_w
            for e in normalized:
                if not 1 <= e.w <= W:
                    raise BadWeightError(
                        f"weight {e.w} of edge ({e.u},{e.v}) outside [1..{W}]")
        else:
            W = None
        self.n = n
        self.edges = tuple(normalized)
        self.weighted = weighted
        self.W = W
        adj = {}
        for e in self.edges:
            adj.setdefault(e.u, []).append(e.v)
            adj.setdefault(e.v, []).append(e.u)
        # In (u, v) order a vertex meets its smaller neighbours first, in
        # increasing order, then its larger ones: each list is sorted.
        self._adj = {v: tuple(nbrs) for v, nbrs in adj.items()}

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

    Lines hold "u v" or "u v w" (whitespace separated); '#' starts a comment;
    an optional "n=<int>" line, allowed only as the first data line, sets
    `n` when the caller gave none and must equal it otherwise
    (VertexCountMismatchError). All lines must agree on whether a weight
    column is present. Labels must be >= 1, and <= n once n is known;
    weights must be >= 1; self loops are refused.
    """

    def __init__(self, lines: Iterable[str], n: Optional[int] = None):
        self.lines = lines
        self.n = n

    def __iter__(self) -> Iterator[Edge]:
        weighted = n_header = None
        n = self.n
        for line_no, raw in enumerate(self.lines, start=1):
            if "#" in raw:
                raw = raw.split("#", 1)[0]
            line = raw.strip()
            if not line:
                continue
            if line.startswith("n="):
                if weighted is not None or n_header is not None:
                    raise ParseError(line_no, "n= header must be the first "
                                              "data line")
                try:
                    n_header = int(line[2:])
                except ValueError:
                    raise ParseError(line_no,
                                     f"bad n= header {line!r}") from None
                if n is None:
                    n = self.n = n_header
                elif n != n_header:
                    raise VertexCountMismatchError(
                        f"line {line_no}: n={n_header} header disagrees "
                        f"with the given vertex count {n}")
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ParseError(line_no,
                                 f"expected 2 or 3 fields, got {len(parts)}")
            try:
                nums = list(map(int, parts))
            except ValueError:
                raise ParseError(line_no,
                                 f"non-integer field in {line!r}") from None
            has_w = len(nums) == 3
            if weighted is None:
                weighted = has_w
            elif weighted != has_w:
                raise ParseError(line_no,
                                 "mixed weighted and unweighted lines")
            u, v = nums[0], nums[1]
            if u < 1 or v < 1:
                raise ParseError(line_no, f"labels must be >= 1 in {line!r}")
            if n is not None and (u > n or v > n):
                raise LabelOutOfRangeError(
                    f"line {line_no}: label {max(u, v)} > n={n}")
            if has_w and nums[2] < 1:
                raise BadWeightError(f"line {line_no}: weight {nums[2]} < 1")
            yield edge(u, v, nums[2] if has_w else None)


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


def connected_components(g: Graph) -> list:
    """Components as sorted vertex lists (includes isolated vertices)."""
    parent = list(range(g.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in g.edges:
        ru, rv = find(e.u), find(e.v)
        if ru != rv:
            parent[ru] = rv
    comps = {}
    for v in range(1, g.n + 1):
        comps.setdefault(find(v), []).append(v)
    return sorted(comps.values())
