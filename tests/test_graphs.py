import io

import pytest
from hypothesis import assume, given, strategies as st

from streamscope.errors import (BadWeightError, DuplicateEdgeError,
                                LabelOutOfRangeError, ParseError,
                                SelfLoopError)
from streamscope.graphs import (Graph, edge, load_edge_list,
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
