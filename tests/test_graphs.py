import gc
import io

import pytest
from hypothesis import assume, given, settings, strategies as st

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


@pytest.mark.parametrize("text, line", [
    ("1 2_0\n", "1 2_0"),          # int() reads this as 20
    ("1 ٣\n", "1 ٣"),    # an Arabic-Indic 3
    ("1_0 2\n", "1_0 2"),
    ("1 2 1\n2 3 1_0\n", "2 3 1_0"),
    ("1 2\n３ 1\n", "３ 1"),  # a fullwidth 3
], ids=["underscore", "arabic-indic", "underscore-first", "weight",
        "fullwidth"])
def test_load_refuses_non_ascii_and_underscore_fields(text, line):
    with pytest.raises(ParseError) as exc:
        load_edge_list(text)
    assert str(exc.value) == \
        f"line {text.count(chr(10))}: non-integer field in {line!r}"


@pytest.mark.parametrize("header", ["n=1_0", "n=٥"])
def test_load_refuses_a_malformed_header_count(header):
    with pytest.raises(ParseError) as exc:
        load_edge_list(f"{header}\n1 2\n")
    assert str(exc.value) == f"line 1: non-integer field in {header!r}"


def test_load_keeps_signs_leading_zeros_and_unicode_spacing():
    # fields are ASCII; the spacing between them may be any whitespace
    g = load_edge_list("n=+4\n+1 02\n3\u00a04\n")
    assert g.n == 4 and g.edges == (Edge(1, 2), Edge(3, 4))
    g = load_edge_list("1 2 +1\n4\u20033 07\n")
    assert g.edges == (Edge(1, 2, 1), Edge(3, 4, 7))
    with pytest.raises(ParseError, match="labels must be >= 1"):
        load_edge_list("1 -2\n")


@pytest.mark.parametrize("n, edges, weighted, error, message", [
    # the self loop comes first whatever precedes it
    (4, [edge(1, 2), edge(1, 2), Edge(3, 3)], False, SelfLoopError,
     "self loop at 3"),
    # a missing weight comes before a duplicate
    (4, [edge(1, 2, 1), edge(1, 2, 1), edge(2, 3)], True, BadWeightError,
     "edge (2,3) missing weight"),
    # a duplicate comes before a label fault on an earlier edge
    (3, [edge(1, 5), edge(1, 2), Edge(2, 1)], False, DuplicateEdgeError,
     "duplicate edge (1, 2)"),
    # of two duplicated pairs, the smaller is named
    (4, [edge(3, 4), edge(3, 4), edge(1, 2), edge(1, 2)], False,
     DuplicateEdgeError, "duplicate edge (1, 2)"),
    # a label above n comes before a label below 1, and names the largest
    (3, [Edge(0, 2), edge(1, 4), edge(2, 9)], False, LabelOutOfRangeError,
     "label 9 > n=3"),
], ids=["self-loop-last", "missing-weight-last", "duplicate-after-label",
        "two-duplicates", "label-high-and-low"])
def test_graph_multi_fault_precedence(n, edges, weighted, error, message):
    # Graph sorts before it checks, so with several faults the first
    # refused follows the order in its docstring, not the caller's order
    with pytest.raises(error) as exc:
        Graph(n, edges, weighted=weighted)
    assert str(exc.value) == message


def test_load_names_the_smallest_duplicated_pair():
    with pytest.raises(DuplicateEdgeError) as exc:
        load_edge_list("n=4\n3 4\n4 3\n1 2\n2 1\n")
    assert str(exc.value) == "duplicate edge (1, 2)"


_LINE_STYLE = st.tuples(
    st.booleans(),                                  # reversed pair
    st.sampled_from(["{}", "+{}", "0{}"]),           # label spelling
    st.sampled_from([" ", "  ", "\t"]),              # field separator
    st.sampled_from(["", " ", "\t"]),               # padding
    st.sampled_from(["", " # ", " # n=3", " #1 1"]),  # trailing comment
    st.sampled_from([[], [""], ["   ", "# note"], ["#"]]),  # filler lines
    st.sampled_from(["\n", "\r\n"]),               # line end
    st.integers(1, 5))                              # weight


@st.composite
def edge_list_documents(draw):
    """A valid edge-list document: comments, blank lines, an optional
    header, reversed pairs, signs and leading zeros."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs))) if pairs else []
    styles = draw(st.lists(_LINE_STYLE, min_size=len(chosen),
                           max_size=len(chosen)))
    weighted = draw(st.booleans())
    lines = [f"n={n}\n"] if draw(st.booleans()) else []
    for (u, v), (flip, spell, sep, pad, comment, filler, end, w) in zip(
            chosen, styles):
        fields = [spell.format(x) for x in ((v, u) if flip else (u, v))]
        if weighted:
            fields.append(str(w))
        lines.append(pad + sep.join(fields) + pad + comment + end)
        lines.extend(x + end for x in filler)
    return "".join(lines)


def _load_line_by_line(text):
    """The reference: each data line through edge(), then the Graph rules
    written out plainly: a set for duplicates, sorted storage and
    neighbour lists from the edge set."""
    n, edges = None, []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n="):
            n = int(line[2:])
            continue
        edges.append(edge(*(int(x) for x in line.split())))
    pairs = {(e.u, e.v) for e in edges}
    assert len(pairs) == len(edges)
    if n is None:
        n = max((e.v for e in edges), default=0)
    weighted = bool(edges) and edges[0].w is not None
    W = max(e.w for e in edges) if weighted else None
    nbrs = {v: tuple(sorted({a for a, b in pairs if b == v}
                            | {b for a, b in pairs if a == v}))
            for v in range(1, n + 1)}
    return n, tuple(sorted(edges)), weighted, W, nbrs


@given(edge_list_documents())
@settings(max_examples=300, deadline=None)
def test_load_matches_a_line_by_line_reference(text):
    n, edges, weighted, W, nbrs = _load_line_by_line(text)
    g = load_edge_list(text)
    assert (g.n, g.edges, g.weighted, g.W) == (n, edges, weighted, W)
    assert {v: g.neighbors_sorted(v) for v in range(1, g.n + 1)} == nbrs
    assert g == load_edge_list(text.encode("utf-8"), n_override=n)
