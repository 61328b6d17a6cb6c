import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from disc_helpers import disc_update
from streamscope.canonical import (INSIDE, NEW_VERTEX, DiscType, RootedDisc,
                                   RootedTree, bfs_depths, bounded_disc_codes,
                                   cano_disc, cbfs_tree, disc_apply,
                                   disc_classify, disc_code, grow_cano_disc,
                                   is_violating_disc, is_violating_tree,
                                   materialize_disc, project_extended_disc)
from streamscope.errors import (DiscTooLargeError, EdgeAlreadyInTreeError,
                                InvalidKError, InvariantError,
                                RadiusMismatchError)
from streamscope.graphs import Graph, edge
from streamscope.verification import mutated_depth_gap

TRIANGLE = Graph(3, [edge(1, 2), edge(1, 3), edge(2, 3)])
P4 = Graph(4, [edge(1, 2), edge(2, 3), edge(3, 4)])
STAR5 = Graph(5, [edge(5, 1), edge(5, 2), edge(5, 3), edge(5, 4)])


def test_cbfs_tree_examples():
    path = Graph(3, [edge(1, 2), edge(2, 3)])
    t = cbfs_tree(path, 2, 3)
    assert t.edge_order == [(2, 1), (2, 3)]

    t = cbfs_tree(TRIANGLE, 1, 3)
    assert t.edge_order == [(1, 2), (1, 3)]

    t = cbfs_tree(STAR5, 5, 3)
    assert t.edge_order == [(5, 1), (5, 2)]


def test_cbfs_edge_order_examples():
    assert cbfs_tree(TRIANGLE, 1, 3).edge_order == [(1, 2), (1, 3)]
    assert cbfs_tree(P4, 1, 3).edge_order == [(1, 2), (2, 3)]
    assert cbfs_tree(P4, 1, 1).edge_order == []


def test_cbfs_rejects_bad_k():
    with pytest.raises(InvalidKError):
        cbfs_tree(P4, 1, 0)


def test_cbfs_independent_of_storage_order():
    a = Graph(4, [edge(1, 3), edge(1, 2), edge(2, 4)])
    b = Graph(4, [edge(2, 4), edge(1, 2), edge(1, 3)])
    assert cbfs_tree(a, 1, 4).edge_order == cbfs_tree(b, 1, 4).edge_order


def _tree(root, attachments):
    t = RootedTree(root)
    for u, w in attachments:
        t.attach(u, w)
    return t


def test_violating_tree_case1_label():
    t = _tree(1, [(1, 3)])
    assert is_violating_tree(t, edge(1, 2)) is True


def test_violating_tree_case1_depth_gap():
    t = _tree(1, [(1, 2), (2, 4)])
    assert is_violating_tree(t, edge(1, 5)) is True


def test_violating_tree_case2_equal_depth():
    t = _tree(1, [(1, 2), (1, 3)])
    assert is_violating_tree(t, edge(2, 3)) is False


def test_violating_tree_parent_edge_is_not_a_child():
    # 2 -> 3 -> 1 is a legitimate canonical tree; the edge (3,1) must not be
    # flagged just because 3's tree edge to its parent 2 has a larger label.
    t = _tree(2, [(2, 3)])
    assert is_violating_tree(t, edge(3, 1)) is False


def test_violating_tree_rejects_present_edge():
    t = _tree(1, [(1, 2)])
    with pytest.raises(EdgeAlreadyInTreeError):
        is_violating_tree(t, edge(1, 2))


def test_violating_tree_both_outside():
    t = _tree(1, [(1, 2)])
    assert is_violating_tree(t, edge(3, 4)) is False


def test_cano_disc_star_leaf():
    star = Graph(5, [edge(1, 2), edge(1, 3), edge(1, 4), edge(1, 5)])
    f = cano_disc(star, 2, 2, 2)
    assert f.edges == {(1, 2), (1, 3), (1, 4)}
    assert f.degree(1) == 3


def _moves_a_depth_at_some_insertion(g, v, k, d):
    """grow_cano_disc's scan with a depth check after every kept edge: True
    when some kept edge changes the BFS distance of a vertex collected
    before it."""
    f = RootedDisc(v, k, d)
    queue = [v] if k > 0 else []
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for w in g.neighbors_sorted(u)[:d + 1]:
            if w in f.adj.get(u, ()):
                continue
            kind, a, b = disc_classify(f, u, w)
            if kind == INSIDE or kind == NEW_VERTEX:
                before = dict(f.dep)
                disc_apply(f, kind, a, b)
                after = bfs_depths(f.adj, f.root)
                if any(after[x] != dx for x, dx in before.items()):
                    return True
                if kind == NEW_VERTEX:
                    queue.append(w)
    return False


small_graphs = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(1, n), st.integers(1, n))
                        .filter(lambda p: p[0] < p[1]), max_size=12)))


@pytest.mark.parametrize("gap", [2, 3])
@given(small_graphs, st.integers(1, 7), st.integers(0, 3), st.integers(1, 3))
@example((4, {(1, 2), (1, 3), (1, 4), (2, 4)}), 1, 2, 1)
@settings(max_examples=300, deadline=None)
def test_depth_check_at_the_end_matches_a_check_per_insertion(gap, graph,
                                                              v, k, d):
    """Under the default and the mutated depth gap, grow_cano_disc raises
    exactly when a depth check after every kept edge would."""
    n, pairs = graph
    g = Graph(n, [edge(a, b) for a, b in pairs])
    v = min(v, n)
    with mutated_depth_gap(gap):
        expected = _moves_a_depth_at_some_insertion(g, v, k, d)
        try:
            grow_cano_disc(g, v, k, d)
            raised = False
        except InvariantError as err:
            assert "moved collected vertex" in str(err)
            raised = True
    assert raised == expected


def test_cano_disc_k0_singleton():
    f = cano_disc(TRIANGLE, 2, 0, 2)
    assert f.size == 1 and f.num_edges == 0


def test_cano_disc_triangle_k1():
    f = cano_disc(TRIANGLE, 1, 1, 2)
    assert f.edges == {(1, 2), (1, 3), (2, 3)}


def test_violating_disc_examples():
    f = RootedDisc(1, 2, 2)
    assert disc_update(f, 1, 3) == 3
    assert is_violating_disc(f, edge(1, 2)) is True

    g = RootedDisc(1, 3, 2)
    for a, b in ((1, 2), (1, 3), (2, 4)):
        assert disc_update(g, a, b) == b
    assert is_violating_disc(g, edge(3, 4)) is False
    assert is_violating_disc(g, edge(8, 9)) is False
    assert disc_update(g, 2, 3) == "accepted"


def test_disc_code_relabeling_invariance():
    a = cano_disc(Graph(3, [edge(1, 2), edge(2, 3)]), 1, 2, 2)
    b = cano_disc(Graph(9, [edge(7, 4), edge(4, 9)]), 7, 2, 2)
    mid = cano_disc(Graph(3, [edge(1, 2), edge(2, 3)]), 2, 2, 2)
    assert disc_code(a) == disc_code(b)
    assert disc_code(a) != disc_code(mid)


def test_disc_code_random_relabelings():
    rng = random.Random(5)
    g = Graph(6, [edge(1, 2), edge(1, 3), edge(2, 4), edge(3, 5), edge(4, 6),
                  edge(5, 6)])
    base = disc_code(cano_disc(g, 1, 3, 3))
    for _ in range(100):
        perm = list(range(1, 7))
        rng.shuffle(perm)
        mapping = {v: perm[v - 1] for v in range(1, 7)}
        h = Graph(6, [edge(mapping[e.u], mapping[e.v]) for e in g.edges])
        assert disc_code(cano_disc(h, mapping[1], 3, 3)) == base


def _brute_force_rooted_isomorphic(f1, f2):
    v1, v2 = sorted(f1.dep), sorted(f2.dep)
    if len(v1) != len(v2) or len(f1.edges) != len(f2.edges):
        return False
    for perm in itertools.permutations(v2):
        mapping = dict(zip(v1, perm))
        if mapping[f1.root] != f2.root:
            continue
        if {tuple(sorted((mapping[a], mapping[b]))) for a, b in f1.edges} == f2.edges:
            return True
    return False


def test_disc_code_matches_brute_force_classes():
    # Codes over all rooted 1-discs of every graph on <= 4 vertices agree
    # with explicit root-preserving isomorphism testing.
    from streamscope.corpus import all_graphs_up_to

    discs = []
    for g in all_graphs_up_to(4, 6):
        for v in range(1, g.n + 1):
            discs.append(cano_disc(g, v, 1, 2))
    codes = [disc_code(f) for f in discs]
    for i in range(len(discs)):
        for j in range(i + 1, len(discs)):
            same = _brute_force_rooted_isomorphic(discs[i], discs[j])
            assert same == (codes[i] == codes[j]), (i, j)


def test_disc_code_size_cap():
    # a star on 69 vertices: adj holds exactly the kept edges' endpoints
    big = RootedDisc(1, 1, 1)
    big.adj[1] = set()
    for v in range(2, 70):
        big.dep[v] = 1
        big.adj[1].add(v)
        big.adj[v] = {1}
    big.maxdep = 1
    with pytest.raises(DiscTooLargeError):
        disc_code(big)


def test_disc_type_round_trip():
    f = cano_disc(TRIANGLE, 1, 2, 2)
    dt = disc_code(f)
    assert DiscType.from_hex(dt.hex) == dt
    assert disc_code(materialize_disc(dt, 2, 2)) == dt
    assert dt.num_edges == 3


def test_projection_examples():
    star = Graph(5, [edge(1, 2), edge(1, 3), edge(1, 4), edge(1, 5)])
    g_ext = cano_disc(star, 2, 2, 2)
    assert project_extended_disc(g_ext, 1, 2).num_vertices == 1

    tri_ext = cano_disc(TRIANGLE, 1, 2, 2)
    assert project_extended_disc(tri_ext, 1, 2) == \
        bounded_disc_codes(TRIANGLE, (1,), 1, 2)[0]

    # high-degree root projects to the singleton
    center_ext = cano_disc(star, 1, 2, 2)
    assert project_extended_disc(center_ext, 1, 2).num_vertices == 1


def test_projection_radius_mismatch():
    f = cano_disc(TRIANGLE, 1, 1, 2)
    with pytest.raises(RadiusMismatchError):
        project_extended_disc(f, 1, 2)
    with pytest.raises(RadiusMismatchError):
        project_extended_disc(cano_disc(TRIANGLE, 1, 2, 2), 1, 3)


def test_cano_disc_edge_order_matches_disc():
    # One growth yields the disc and its insertion order: every disc edge
    # exactly once, and the same disc cano_disc builds.
    for g in (TRIANGLE, P4, STAR5):
        for v in range(1, g.n + 1):
            f, order = grow_cano_disc(g, v, 2, 2)
            assert len(order) == len(f.edges)
            assert {tuple(sorted(e)) for e in order} == f.edges
            ref = cano_disc(g, v, 2, 2)
            assert (ref.edges, ref.dep) == (f.edges, f.dep)
    assert grow_cano_disc(TRIANGLE, 1, 1, 2)[1] == [(1, 2), (1, 3), (2, 3)]
    assert grow_cano_disc(TRIANGLE, 1, 0, 2)[1] == []


def _relabel_disc(f, mapping):
    clone = RootedDisc(mapping[f.root], f.k, f.d)
    clone.dep = {mapping[v]: d for v, d in f.dep.items()}
    clone.adj = {mapping[v]: {mapping[w] for w in ws} for v, ws in f.adj.items()}
    clone.maxdep = f.maxdep
    return clone


def test_disc_code_relabel_invariance_larger_discs():
    # Collection itself depends on label order (the scan window is
    # lexicographic), so invariance is over relabelings of the disc, not of
    # the source graph.
    rng = random.Random(97)
    for trial in range(60):
        n = rng.randint(5, 7)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        rng.shuffle(pairs)
        g = Graph(n, [edge(u, v) for u, v in pairs[:rng.randint(n - 1, len(pairs))]])
        f = cano_disc(g, rng.randint(1, n), 3, 3)
        base = disc_code(f)
        perm = rng.sample(range(1, 51), len(f.dep))
        mapping = {v: perm[i] for i, v in enumerate(sorted(f.dep))}
        assert disc_code(_relabel_disc(f, mapping)) == base


def test_disc_code_fast_on_symmetric_star():
    import time
    star = Graph(13, [edge(1, v) for v in range(2, 14)])
    f = cano_disc(star, 1, 1, 12)
    t0 = time.perf_counter()
    dt = disc_code(f)
    assert time.perf_counter() - t0 < 0.5  # twin collapse kills the 12! blowup
    assert dt.num_vertices == 13 and dt.num_edges == 12
