"""Benchmark corpora and random graph generators used by tests and the CLI.

Everything is seeded and deterministic; graphs come back in canonical form so
downstream seeded runs are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Optional, Tuple

from .graphs import Graph, edge


def disjoint_union(blocks: List[List[Tuple[int, int]]],
                   sizes: List[int],
                   weights: Optional[List[List[int]]] = None) -> Graph:
    """Assemble disjoint components; block i's local labels 1..sizes[i] are
    shifted past all earlier blocks."""
    offset = 0
    edges = []
    for i, block in enumerate(blocks):
        ws = weights[i] if weights else [None] * len(block)
        for (u, v), w in zip(block, ws):
            edges.append(edge(u + offset, v + offset, w))
        offset += sizes[i]
    return Graph(offset, edges, weighted=weights is not None)


def triangle_block() -> List[Tuple[int, int]]:
    return [(1, 2), (1, 3), (2, 3)]


def path_block(n: int) -> List[Tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)]


def cycle_block(n: int) -> List[Tuple[int, int]]:
    return path_block(n) + [(1, n)]


def mixed_components(triangles: int = 0, edges_: int = 0,
                     singletons: int = 0, p3s: int = 0) -> Graph:
    """Disjoint triangles, single edges, isolated vertices and 3-paths."""
    if min(triangles, edges_, singletons, p3s) < 0:
        raise ValueError("component counts must be >= 0")
    blocks: List[List[Tuple[int, int]]] = []
    sizes: List[int] = []
    for _ in range(triangles):
        blocks.append(triangle_block())
        sizes.append(3)
    for _ in range(edges_):
        blocks.append([(1, 2)])
        sizes.append(2)
    for _ in range(p3s):
        blocks.append(path_block(3))
        sizes.append(3)
    for _ in range(singletons):
        blocks.append([])
        sizes.append(1)
    return disjoint_union(blocks, sizes)


def cc_benchmark() -> Graph:
    """50 triangles + 30 edges + 20 singletons: n=230, 100 components."""
    return mixed_components(triangles=50, edges_=30, singletons=20)


def disc_benchmark() -> Graph:
    """40 triangles + 40 3-paths: n=240."""
    return mixed_components(triangles=40, p3s=40)


def weighted_path(n: int = 200, heavy_every: int = 4, W: int = 2) -> Graph:
    """Path on n vertices; every heavy_every-th edge starting with the first
    carries weight W, the rest weight 1. For n=200 the spanning weight is 249
    and the weight-1 threshold graph has 51 components."""
    edges = []
    for i in range(1, n):
        w = W if (i - 1) % heavy_every == 0 else 1
        edges.append(edge(i, i + 1, w))
    return Graph(n, edges, weighted=True, W=W)


def padded_triangles(m_target: int) -> Graph:
    """Disjoint triangles totalling at least m_target edges (pass-scaling
    corpora for the space and update-cost checks)."""
    if m_target < 0:
        raise ValueError(f"m_target must be >= 0, got {m_target}")
    count = (m_target + 2) // 3
    return mixed_components(triangles=count)


def random_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform simple graph with exactly m edges on [1..n]."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    if m > len(pairs):
        raise ValueError(f"m={m} exceeds {len(pairs)} possible edges")
    rng.shuffle(pairs)
    return Graph(n, [edge(u, v) for u, v in pairs[:m]])


def random_connected_weighted(n: int, W: int, seed: int,
                              extra_edges: Optional[int] = None) -> Graph:
    """Connected weighted graph: a random spanning tree plus extra edges,
    weights uniform in [1..W]."""
    rng = random.Random(seed)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    pairs = set()
    for i in range(1, n):
        a = labels[i]
        b = labels[rng.randrange(i)]
        pairs.add((min(a, b), max(a, b)))
    if extra_edges is None:
        extra_edges = rng.randrange(0, n + 1)
    candidates = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                  if (u, v) not in pairs]
    rng.shuffle(candidates)
    pairs.update(candidates[:extra_edges])
    edges = [edge(u, v, rng.randint(1, W)) for u, v in sorted(pairs)]
    return Graph(n, edges, weighted=True, W=W)


def random_small_components(n_target: int, max_size: int, seed: int) -> Graph:
    """Disjoint random components, each a path or cycle of size <= max_size.

    The size distribution is deliberately skewed toward 1..3 so that most of
    the vertex mass sits in components whose radius-3 discs have at most two
    edges; larger components appear as a small fraction. Deeper disc types
    are effectively invisible at practical phase probabilities, so a corpus
    dominated by them could not be resolved by any frequency-based pipeline.
    """
    rng = random.Random(seed)
    blocks: List[List[Tuple[int, int]]] = []
    sizes: List[int] = []
    total = 0
    size_pool = [1] * 30 + [2] * 40 + [3] * 25 + list(range(4, max_size + 1))
    while total < n_target:
        size = min(rng.choice(size_pool), n_target - total)
        if size <= 2:
            blocks.append([] if size == 1 else [(1, 2)])
        elif size == 3:
            blocks.append(path_block(3))
        elif rng.random() < 0.5:
            blocks.append(path_block(size))
        else:
            blocks.append(cycle_block(size))
        sizes.append(size)
        total += size
    return disjoint_union(blocks, sizes)


def all_graphs_up_to(max_n: int, max_m: int) -> List[Graph]:
    """One representative per isomorphism class with n <= max_n, m <= max_m.

    Labeled edge sets are met in bit order, and the first member of a class
    is its representative. Emitting it marks all n! relabelings as seen, so
    every later member costs one set lookup: the work is n! per class rather
    than n! per labeled graph, and (6, 6) builds in a fraction of a second.
    """
    out: List[Graph] = []
    for n in range(1, max_n + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        bit = {p: 1 << i for i, p in enumerate(pairs)}
        images = [[bit[(min(p[u], p[v]), max(p[u], p[v]))] for u, v in pairs]
                  for p in itertools.permutations(range(n))]
        seen = set()
        for bits in range(1 << len(pairs)):
            if bits in seen or bits.bit_count() > max_m:
                continue
            chosen = [i for i in range(len(pairs)) if bits >> i & 1]
            seen.update(sum(image[i] for i in chosen) for image in images)
            out.append(Graph(n, [edge(pairs[i][0] + 1, pairs[i][1] + 1)
                                 for i in chosen]))
    return out
