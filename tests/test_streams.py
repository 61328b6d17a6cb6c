import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from streamscope.errors import (BadWError, InvariantError, StreamscopeError,
                               UnweightedStreamError)
from streamscope.graphs import Graph, edge
from streamscope.detectors import TreeDetector
from streamscope.estimators import EstimatorParams, RootPass
from streamscope.streams import (CountingStream, _count_heads, shuffle_stream,
                                 split_seed, threshold_view)

TRIANGLE = Graph(3, [edge(1, 2), edge(1, 3), edge(2, 3)])


def test_shuffle_deterministic_per_seed():
    a = shuffle_stream(TRIANGLE, 42)
    b = shuffle_stream(TRIANGLE, 42)
    c = shuffle_stream(TRIANGLE, 43)
    assert a == b
    assert any(shuffle_stream(TRIANGLE, s) != a for s in range(10, 20))
    assert a.m == 3 and c.m == 3


def test_shuffle_single_edge_and_empty():
    single = Graph(2, [edge(1, 2)])
    assert list(shuffle_stream(single, 7)) == [edge(1, 2)]
    empty = Graph(3, [])
    assert shuffle_stream(empty, 0).m == 0


def test_shuffle_uniform_over_orders():
    # 6 * 10^4 seeded shuffles of a triangle: each of the 6 orders within
    # 3 sigma of the uniform count.
    counts = Counter()
    for seed in range(60_000):
        counts[shuffle_stream(TRIANGLE, seed).edges] += 1
    assert len(counts) == 6
    expect = 10_000
    sigma = math.sqrt(60_000 * (1 / 6) * (5 / 6))
    for order, c in counts.items():
        assert abs(c - expect) <= 3 * sigma, (order, c)


def test_lambda_zero_edges():
    assert _count_heads(0, 0.3, random.Random(5)) == 0


def test_lambda_two_flip_histogram():
    # tau = 1/2, m = 2: outcomes 0/1/2 with mass 1/4, 1/2, 1/4.
    counts = Counter(_count_heads(2, 0.5, random.Random(seed))
                     for seed in range(40_000))
    for value, p in ((0, 0.25), (1, 0.5), (2, 0.25)):
        sigma = math.sqrt(40_000 * p * (1 - p))
        assert abs(counts[value] - 40_000 * p) <= 3 * sigma


def test_lambda_mean_small_scale():
    # Scaled instance of the binomial-moment check: the full-size version
    # (m = 10^6 over 1000 seeds) follows the same formula.
    m, tau, seeds = 10_000, 0.1, 300
    mean = sum(_count_heads(m, tau, random.Random(s)) for s in range(seeds)) / seeds
    tol = 3 * math.sqrt(m * tau * (1 - tau) / seeds)
    assert abs(mean - m * tau) <= tol


def test_lambda_single_large_draw():
    m, tau = 1_000_000, 0.1
    lam = _count_heads(m, tau, random.Random(123))
    assert abs(lam - m * tau) <= 3 * math.sqrt(m * tau * (1 - tau))


def test_root_pass_heads_is_the_coin_count():
    # The estimators draw Λ with the routine the Λ-law tests above and the
    # Monte-Carlo twins draw from, one coin per edge of the stream, on the
    # pass's "coins" child seed, before the pass, where it also becomes the
    # grid's cutoff.
    g = Graph(30, [edge(u, u + 1) for u in range(1, 30)])
    for seed, tau in ((3, 0.3), (8, 0.5)):
        params = EstimatorParams(tau=tau, s=10, k_max=3, seed=seed)
        want = _count_heads(g.m, tau, random.Random(split_seed(seed, "coins")))
        rp = RootPass(g.n, params, TreeDetector, (3,), g.m)
        assert rp.grid.cutoff == want
        rp.read(shuffle_stream(g, seed))
        assert rp.t == g.m and rp.heads == want


@pytest.mark.parametrize("m", [4, 6])
def test_root_pass_fed_other_than_m_edges_is_a_typed_error(m):
    g = Graph(6, [edge(u, u + 1) for u in range(1, 6)])
    params = EstimatorParams(tau=0.5, s=3, k_max=2, seed=1)
    rp = RootPass(g.n, params, TreeDetector, (2,), m)
    for e in g.edges:
        rp.feed(e.u, e.v)
    with pytest.raises(InvariantError, match=f"fed 5 edges .* for {m}"):
        rp.heads


def test_lambda_independent_of_permutation_stream():
    # Labeled splits of one master seed give unrelated child streams.
    master = 99
    assert split_seed(master, "permutation") != split_seed(master, "coins")
    assert split_seed(master, "coins") == split_seed(master, "coins")


WEIGHTED_TRIANGLE = Graph(3, [edge(1, 2, 1), edge(1, 3, 2), edge(2, 3, 3)],
                          weighted=True)


def test_threshold_view_examples():
    s = shuffle_stream(WEIGHTED_TRIANGLE, 1)
    v1 = threshold_view(s, 1)
    assert v1.edges == (edge(1, 2, 1),)
    v2 = threshold_view(s, 2)
    assert len(v2) == 2
    assert [e for e in s.edges if e.w <= 2] == list(v2.edges)
    heavy = Graph(2, [edge(1, 2, 5)], weighted=True, W=5)
    assert threshold_view(shuffle_stream(heavy, 0), 4).m == 0


def test_threshold_view_rejects_unweighted():
    with pytest.raises(UnweightedStreamError):
        threshold_view(shuffle_stream(TRIANGLE, 0), 1)
    with pytest.raises(BadWError):
        threshold_view(shuffle_stream(WEIGHTED_TRIANGLE, 0), 9)


@given(st.integers(0, 2 ** 32), st.integers(1, 2), st.integers(1, 2))
@settings(max_examples=50)
def test_threshold_view_composes(seed, t1, t2):
    s = shuffle_stream(WEIGHTED_TRIANGLE, seed)
    assert threshold_view(threshold_view(s, t1), t2) == \
        threshold_view(s, min(t1, t2))


def test_threshold_view_order_uniform():
    # Relative order of the two qualifying edges stays uniform.
    first = Counter()
    for seed in range(20_000):
        v = threshold_view(shuffle_stream(WEIGHTED_TRIANGLE, seed), 2)
        first[v.edges[0]] += 1
    sigma = math.sqrt(20_000 * 0.25)
    assert abs(first[edge(1, 2, 1)] - 10_000) <= 3 * sigma


def test_counting_stream_single_pass():
    s = shuffle_stream(TRIANGLE, 3)
    c = CountingStream(s)
    assert len(list(c)) == 3 and c.reads == 3
    with pytest.raises(RuntimeError):
        list(c)


def test_counting_stream_refuses_a_short_pass():
    class Overstated(type(shuffle_stream(TRIANGLE, 3))):
        def __len__(self):
            return super().__len__() + 1

    c = CountingStream(Overstated(TRIANGLE.edges))
    with pytest.raises(StreamscopeError, match="read 3 of 4"):
        list(c)


def test_time_steps_run_one_to_m():
    # a stream yields bare edges; the pass that reads it numbers them 1..m
    s = shuffle_stream(TRIANGLE, 3)
    assert list(s) == list(s.edges)
    rp = RootPass(TRIANGLE.n, EstimatorParams(tau=0.5, s=3), TreeDetector,
                  (3,), s.m)
    fed = []
    # the grid has __slots__, so the pass gets a stand-in that only records
    rp.grid = SimpleNamespace(feed=lambda a, b, t: fed.append(((a, b), t)))
    rp.read(s)
    assert fed == [((e.u, e.v), t) for t, e in enumerate(s.edges, start=1)]


def test_threshold_view_rejects_when_w_is_one():
    g1 = Graph(2, [edge(1, 2, 1)], weighted=True, W=1)
    with pytest.raises(BadWError):
        threshold_view(shuffle_stream(g1, 0), 1)


def _randrange_fisher_yates(items, rng):
    # Reference draw: the explicit randrange Fisher-Yates loop. Every seeded
    # stream, report and check of the library was drawn with it, so
    # Random.shuffle must permute exactly alike.
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 40 + 3,
                                  split_seed(5, "permutation")])
def test_fisher_yates_matches_the_randrange_loop(seed):
    for length in range(51):
        want = list(range(length))
        _randrange_fisher_yates(want, random.Random(seed))
        got = list(range(length))
        random.Random(seed).shuffle(got)
        assert got == want, length
    # the generators end in the same state too, so later draws agree
    a, b = random.Random(seed), random.Random(seed)
    _randrange_fisher_yates(list(range(50)), a)
    b.shuffle(list(range(50)))
    assert a.random() == b.random()
