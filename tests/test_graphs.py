import gc
import io

import pytest
from hypothesis import assume, given, strategies as st

from streamscope.errors import (BadWeightError, DuplicateEdgeError,
                                LabelOutOfRangeError, ParseError,
                                SelfLoopError, VertexCountMismatchError)
from streamscope.graphs import (Edge, Graph, edge, load_edge_list,
                                serialize_edge_list, truncate_high_degree)


def test_load_basic_unweighted():
    g = load_edge_list(io.BytesIO(b"1 2\n2 3\n"), n_override=4)
    assert g.n == 4 and g.m == 2 and not g.weighted


def test_load_weighted_infers_w():
    g = load_edge_list("1 2 1\n1 3 2\n2 3 3\n")
    assert g.weighted and g.W == 3 and g.m == 3


def test_load_self_loop():
    with pytest.raises(SelfLoopError):
        load_edge_list("1 1\n")


def test_load_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        load_edge_list("1 2\n2 1\n")


def test_load_label_out_of_range():
    with pytest.raises(LabelOutOfRangeError):
        load_edge_list("1 5\n", n_override=3)


def test_load_header_must_match_the_given_n():
    with pytest.raises(VertexCountMismatchError, match="n=5 .* count 3"):
        load_edge_list("n=5\n1 2\n", n_override=3)
    assert load_edge_list("n=5\n1 2\n", n_override=5).n == 5


def test_load_bad_weight():
    with pytest.raises(BadWeightError):
        load_edge_list("1 2 7\n", w_override=3)
    with pytest.raises(BadWeightError):
        load_edge_list("1 2 0\n")


def test_load_parse_error_has_line_number():
    with pytest.raises(ParseError) as exc:
        load_edge_list("1 2\nnonsense here here here\n")
    assert exc.value.line_no == 2


def test_load_mixed_weight_columns():
    with pytest.raises(ParseError):
        load_edge_list("1 2\n1 3 4\n")


def test_header_and_comments():
    g = load_edge_list("# a comment\nn=6\n1 2  # trailing\n\n2 3\n")
    assert g.n == 6 and g.m == 2


def test_neighbors_sorted_examples():
    star = Graph(4, [edge(1, 4), edge(1, 2), edge(1, 3)])
    assert star.neighbors_sorted(1) == (2, 3, 4)
    assert star.neighbors_sorted(2) == (1,)
    iso = Graph(3, [edge(1, 2)])
    assert iso.neighbors_sorted(3) == ()
    path = Graph(3, [edge(1, 2), edge(2, 3)])
    assert path.neighbors_sorted(2) == (1, 3)
    with pytest.raises(LabelOutOfRangeError):
        path.neighbors_sorted(9)


def test_truncate_examples():
    star = Graph(5, [edge(1, v) for v in (2, 3, 4, 5)])
    assert truncate_high_degree(star, 2).m == 0
    tri = Graph(3, [edge(1, 2), edge(1, 3), edge(2, 3)])
    assert truncate_high_degree(tri, 2) == tri
    p4 = Graph(4, [edge(1, 2), edge(2, 3), edge(3, 4)])
    assert truncate_high_degree(p4, 1).m == 0


@st.composite
def graphs(draw, max_n=8, weighted=False):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    if weighted:
        ws = draw(st.lists(st.integers(1, 5), min_size=len(chosen),
                           max_size=len(chosen)))
        return Graph(n, [edge(u, v, w) for (u, v), w in zip(chosen, ws)],
                     weighted=True)
    return Graph(n, [edge(u, v) for u, v in chosen])


@given(graphs())
def test_serialize_round_trip(g):
    assert load_edge_list(serialize_edge_list(g)) == g


@given(graphs(weighted=True))
def test_serialize_round_trip_weighted(g):
    # weightedness is witnessed by weight columns, so the edgeless graph
    # canonically reads back unweighted
    assume(g.m > 0)
    assert load_edge_list(serialize_edge_list(g)) == g


@given(graphs(), st.integers(1, 5))
def test_truncate_idempotent(g, d):
    once = truncate_high_degree(g, d)
    assert truncate_high_degree(once, d) == once


@given(graphs())
def test_neighbors_unique_and_degree(g):
    for v in range(1, g.n + 1):
        nbrs = g.neighbors_sorted(v)
        assert len(set(nbrs)) == len(nbrs) == g.degree(v)
        assert list(nbrs) == sorted(nbrs)
        assert v not in nbrs


@pytest.mark.parametrize("edges, error, message", [
    ([Edge(2, 2)], SelfLoopError, "self loop at 2"),
    ([edge(1, 3), Edge(3, 3)], SelfLoopError, "self loop at 3"),
    ([edge(1, 2), Edge(2, 1)], DuplicateEdgeError, "duplicate edge (1, 2)"),
    ([Edge(3, 1), Edge(1, 3)], DuplicateEdgeError, "duplicate edge (1, 3)"),
    ([Edge(4, 1)], LabelOutOfRangeError, "label 4 > n=3"),
    ([Edge(2, 0)], LabelOutOfRangeError, "label 0 < 1"),
], ids=["self-loop", "self-loop-after-edge", "reversed-duplicate",
        "reversed-then-normal", "reversed-above-n", "reversed-zero"])
def test_graph_refuses_raw_edges_with_the_same_errors(edges, error, message):
    # Raw Edges that are reversed or self loops still go through edge(), and
    # every refusal keeps its type and message.
    with pytest.raises(error) as exc:
        Graph(3, edges)
    assert str(exc.value) == message


def test_graph_normalizes_reversed_edges():
    g = Graph(4, [Edge(3, 1, 2), Edge(4, 2, 1), edge(1, 2, 3)], weighted=True)
    assert g.edges == (Edge(1, 2, 3), Edge(1, 3, 2), Edge(2, 4, 1))
    assert g == Graph(4, [edge(3, 1, 2), edge(4, 2, 1), edge(1, 2, 3)],
                      weighted=True)
    assert g.neighbors_sorted(1) == (2, 3)


def test_load_restores_the_collector_state():
    assert gc.isenabled()
    load_edge_list("n=3\n1 2\n2 3\n")
    assert gc.isenabled()
    with pytest.raises(ParseError):
        load_edge_list("1 2\n1 x\n")
    assert gc.isenabled()
    gc.disable()
    try:
        load_edge_list("1 2\n")
        assert not gc.isenabled()
        with pytest.raises(ParseError):
            load_edge_list("1 2\n1 x\n")
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_load_leaves_no_cycles():
    # load_edge_list pauses the cyclic collector, which is only safe while a
    # load creates no reference cycle.
    text = serialize_edge_list(Graph(40, [edge(u, v, 1 + (u * v) % 4)
                                          for u in range(1, 40)
                                          for v in range(u + 1, 41, 7)],
                                     weighted=True))
    gc.collect()
    gc.disable()
    try:
        g = load_edge_list(text)
        assert gc.collect() == 0
        del g
        assert gc.collect() == 0
        with pytest.raises(ParseError):
            load_edge_list(text + "1 x 1\n")
        assert gc.collect() == 0
    finally:
        gc.enable()
