"""Seeded random-order edge streams and their phase-threshold coins.

A run derives independent child generators from one master seed through
labeled splits, so the permutation draw and the phase-threshold coin flips
never share randomness.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator, Optional, Tuple

from .errors import BadWError, StreamscopeError, UnweightedStreamError
from .graphs import Edge, Graph


def split_seed(master: int, label: str) -> int:
    """Deterministic 64-bit child seed for a labeled stream of randomness."""
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class EdgeStream:
    """A fixed ordering of an edge set.

    Iterating yields the edges in order; the pass that reads them numbers
    them 1..m on its own clock. Streams are immutable values; estimators
    enforce their single read through CountingStream.
    """

    __slots__ = ("edges", "weighted", "W")

    def __init__(self, edges, weighted: bool = False, W: Optional[int] = None):
        self.edges: Tuple[Edge, ...] = tuple(edges)
        self.weighted = weighted
        self.W = W

    @property
    def m(self) -> int:
        return len(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def __eq__(self, other):
        return (isinstance(other, EdgeStream) and self.edges == other.edges
                and self.weighted == other.weighted and self.W == other.W)

    def __repr__(self):
        return f"EdgeStream(m={self.m}, weighted={self.weighted})"


def _count_heads(m: int, tau: float, rng: random.Random) -> int:
    """Heads in m independent tau-coin flips, one flip per position."""
    rand = rng.random
    heads = 0
    for _ in range(m):
        if rand() < tau:
            heads += 1
    return heads


def shuffle_stream(g: Graph, seed: int) -> EdgeStream:
    """Uniformly random ordering of g's edges; same seed, same stream.

    `Random.shuffle` swaps item i with item `_randbelow(i + 1)` for i from
    len - 1 down to 1, the draw `randrange(i + 1)` makes, so it gives the
    same permutation as that explicit Fisher-Yates loop (pinned by
    tests/test_streams.py); the checks' Monte-Carlo twins shuffle alike.
    """
    items = list(g.edges)
    random.Random(seed).shuffle(items)
    return EdgeStream(items, weighted=g.weighted, W=g.W)


def given_order_stream(g: Graph) -> EdgeStream:
    """The edges in canonical storage order (debugging aid, not random)."""
    return EdgeStream(g.edges, weighted=g.weighted, W=g.W)


def threshold_view(stream: EdgeStream, t: int) -> EdgeStream:
    """Subsequence of edges with weight <= t, keeping relative order; a
    pass over it numbers them 1..m'. A uniform source order induces a
    uniform order here.
    """
    if not stream.weighted:
        raise UnweightedStreamError("threshold_view needs a weighted stream")
    W = stream.W if stream.W is not None else max(
        (e.w for e in stream.edges), default=1)
    if not 1 <= t <= W - 1:
        raise BadWError(f"threshold {t} outside [1..{W - 1}]")
    kept = [e for e in stream.edges if e.w <= t]
    return EdgeStream(kept, weighted=True, W=stream.W)


class CountingStream:
    """Single-pass guard: yields each item once, refuses a second pass, and
    raises StreamscopeError when a pass reads other than len(stream) items."""

    def __init__(self, stream):
        self._stream = stream
        self.reads = 0
        self._consumed = False

    def __iter__(self):
        if self._consumed:
            raise RuntimeError("stream already consumed; estimators are single-pass")
        self._consumed = True
        for item in self._stream:
            self.reads += 1
            yield item
        m = len(self._stream)
        if self.reads != m:
            raise StreamscopeError(f"estimator read {self.reads} of {m} "
                                   f"stream edges; it must read each "
                                   f"exactly once")
