import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from streamscope.canonical import cano_disc, disc_code
from streamscope.corpus import (all_graphs_up_to, mixed_components,
                                weighted_path)
from streamscope.errors import ComponentTooLargeError, DisconnectedError
from streamscope.graphs import Graph, edge
from streamscope.oracles import (exact_bounded_disc_freq, exact_cc_histogram,
                                 exact_disc_freq, exact_mis, kruskal_mst,
                                 make_component_mis_oracle, mst_identity_value,
                                 threshold_components)

K3W = Graph(3, [edge(1, 2, 1), edge(1, 3, 2), edge(2, 3, 3)], weighted=True)


def test_cc_histogram_examples():
    assert exact_cc_histogram(Graph(3, [])) == {1: 3}
    g = Graph(6, [edge(1, 2), edge(1, 3), edge(2, 3), edge(4, 5)])
    assert exact_cc_histogram(g) == {3: 1, 2: 1, 1: 1}
    p5 = Graph(5, [edge(i, i + 1) for i in range(1, 5)])
    assert exact_cc_histogram(p5) == {5: 1}


@given(st.integers(1, 9), st.integers(0, 2 ** 32))
@settings(max_examples=60)
def test_cc_histogram_sums_to_n(n, seed):
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    rng.shuffle(pairs)
    g = Graph(n, [edge(u, v) for u, v in pairs[:rng.randint(0, len(pairs))]])
    hist = exact_cc_histogram(g)
    assert sum(k * c for k, c in hist.items()) == n


def test_kruskal_examples():
    assert kruskal_mst(K3W) == 3
    p5 = Graph(5, [edge(i, i + 1, 1) for i in range(1, 5)], weighted=True)
    assert kruskal_mst(p5) == 4
    assert kruskal_mst(weighted_path()) == 249


def test_kruskal_disconnected():
    g = Graph(4, [edge(1, 2, 1)], weighted=True)
    with pytest.raises(DisconnectedError):
        kruskal_mst(g)


def test_mst_identity_k3():
    # thresholds: c(1) = 2 components, c(2) = 1; 3 - 3 + (2 + 1) = 3
    assert threshold_components(K3W, 1) == 2
    assert threshold_components(K3W, 2) == 1
    assert mst_identity_value(K3W) == 3 == kruskal_mst(K3W)


def test_exact_mis_examples():
    pairs = Graph(6, [edge(1, 2), edge(3, 4), edge(5, 6)])
    assert exact_mis(pairs) == (3, [1, 3, 5])
    tri = Graph(3, [edge(1, 2), edge(1, 3), edge(2, 3)])
    assert exact_mis(tri) == (1, [1])
    p4 = Graph(4, [edge(1, 2), edge(2, 3), edge(3, 4)])
    assert exact_mis(p4) == (2, [1, 3])


def test_exact_mis_component_cap():
    p9 = Graph(9, [edge(i, i + 1) for i in range(1, 9)])
    with pytest.raises(ComponentTooLargeError):
        exact_mis(p9, size_cap=5)
    assert exact_mis(p9, size_cap=9)[0] == 5


@given(st.integers(2, 8), st.integers(0, 2 ** 32))
@settings(max_examples=50, deadline=None)
def test_exact_mis_monotone_under_edge_deletion(n, seed):
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    rng.shuffle(pairs)
    chosen = pairs[:rng.randint(1, len(pairs))]
    g = Graph(n, [edge(u, v) for u, v in chosen])
    smaller = Graph(n, [edge(u, v) for u, v in chosen[1:]])
    assert exact_mis(smaller)[0] >= exact_mis(g)[0]


def test_component_oracle_matches_witness():
    g = mixed_components(triangles=2, edges_=2, singletons=2)
    oracle = make_component_mis_oracle(g, 6)
    size, witness = exact_mis(g, 6)
    member = {v for v in range(1, g.n + 1) if oracle(None, v)}
    assert member == set(witness)
    assert len(member) == size


def _brute_force_mis(g):
    """Lexicographically smallest maximum independent set, by subset search
    in decreasing size and, within a size, in lexicographic order."""
    adjacent = {(e.u, e.v) for e in g.edges}
    for size in range(g.n, -1, -1):
        for subset in itertools.combinations(range(1, g.n + 1), size):
            if not any(pair in adjacent
                       for pair in itertools.combinations(subset, 2)):
                return size, list(subset)


def _assert_matches_brute_force(g, cap):
    size, witness = _brute_force_mis(g)
    assert exact_mis(g, size_cap=cap) == (size, witness)
    oracle = make_component_mis_oracle(g, cap)
    assert [v for v in range(1, g.n + 1) if oracle(None, v)] == witness


@given(st.lists(st.integers(0, 3), min_size=1, max_size=12),
       st.lists(st.booleans(), min_size=66, max_size=66))
@settings(max_examples=150, deadline=None)
def test_exact_mis_and_oracle_match_brute_force(groups, keep):
    # Vertex v joins group groups[v-1]; a same-group pair is an edge when
    # its keep bit is set, so the graph falls into several small components
    # whose labels interleave.
    n = len(groups)
    pairs = itertools.combinations(range(1, n + 1), 2)
    g = Graph(n, [edge(u, v) for (u, v), bit in zip(pairs, keep)
                  if bit and groups[u - 1] == groups[v - 1]])
    _assert_matches_brute_force(g, 12)


def test_exact_mis_and_oracle_match_brute_force_on_every_small_graph():
    # Every isomorphism class up to 6 vertices, under 4 seeded relabelings
    # each: the witness is the smallest in label order, so it moves with
    # the labels.
    rng = random.Random(6)
    for h in all_graphs_up_to(6, 15):
        for _ in range(4):
            perm = list(range(1, h.n + 1))
            rng.shuffle(perm)
            _assert_matches_brute_force(
                Graph(h.n, [edge(perm[e.u - 1], perm[e.v - 1])
                            for e in h.edges]), 6)


def test_component_oracle_refuses_a_drawn_component_above_cap():
    # a 9-path next to two edges: the small components answer, the path
    # raises only when one of its roots is drawn
    g = Graph(13, [edge(i, i + 1) for i in range(1, 9)]
              + [edge(10, 11), edge(12, 13)])
    oracle = make_component_mis_oracle(g, 5)
    assert [oracle(None, v) for v in (10, 11, 12, 13)] == [True, False,
                                                           True, False]
    with pytest.raises(ComponentTooLargeError):
        oracle(None, 4)


def test_disc_freq_triangles():
    g = mixed_components(triangles=4)
    hist = exact_disc_freq(g, 1, 2)
    assert list(hist.values()) == [12]
    (only_type,) = hist
    assert only_type == disc_code(cano_disc(g, 1, 1, 2))


def test_disc_freq_empty_graph():
    hist = exact_disc_freq(Graph(5, []), 2, 2)
    (dt,) = hist
    assert dt.num_vertices == 1 and hist[dt] == 5


def test_disc_freq_star():
    star = Graph(5, [edge(1, v) for v in (2, 3, 4, 5)])
    hist = exact_disc_freq(star, 1, 2)
    assert sorted(hist.values()) == [1, 4]


def test_bounded_disc_freq_respects_truncation():
    star = Graph(5, [edge(1, v) for v in (2, 3, 4, 5)])
    hist = exact_bounded_disc_freq(star, 1, 2)
    # center has degree 4 > 2, so every vertex sees a singleton disc
    (dt,) = hist
    assert dt.num_vertices == 1 and hist[dt] == 5
