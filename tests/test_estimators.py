import gc
import math
import random
import statistics
import time
import types

import pytest
from hypothesis import given, settings, strategies as st

from streamscope import canonical, estimators
from streamscope.canonical import (DiscType, disc_code, materialize_disc,
                                   project_extended_disc)
from streamscope.corpus import (mixed_components, random_connected_weighted,
                               random_graph, random_small_components,
                               weighted_path)
from streamscope.detectors import (GOOD, DiscDetector, TreeDetector,
                                   replay)
from streamscope.errors import (AllEstimatesNonpositiveError, BadWError,
                                EmptyVertexSetError, RadiusMismatchError,
                                StreamscopeError, UnweightedStreamError)
from streamscope.estimators import (EstimatorParams, NumCCRun, RootPass,
                                    cc_param_scales, disc_param_scales,
                                    disc_report_from_exact, gamma_disc,
                                    gamma_k, mis_estimate, mst_weight, num_cc,
                                    num_disc)
from streamscope.graphs import Graph, edge
from streamscope.oracles import (exact_cc_histogram, exact_mis, kruskal_mst,
                                 make_component_mis_oracle, mst_identity_value)
from streamscope.streams import EdgeStream, shuffle_stream, split_seed


def test_gamma_k_values():
    assert gamma_k(1, 0.2) == 1.0
    assert gamma_k(3, 0.5) == 0.125
    assert math.isclose(gamma_k(4, 0.1), 1e-3 / 6, rel_tol=1e-12)


def test_gamma_disc_values():
    assert gamma_disc(0, 0.5) == 1.0
    assert gamma_disc(2, 0.5) == 0.125
    assert math.isclose(gamma_disc(3, 0.1), 1e-3 / 6, rel_tol=1e-12)


def test_gamma_log_space_for_deep_collections():
    v = gamma_k(400, 0.01)
    assert 0.0 <= v < 1e-300 or v == 0.0
    assert gamma_k(2, 1e-200) > 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        EstimatorParams(tau=0.0, s=1)
    with pytest.raises(ValueError):
        EstimatorParams(tau=0.5, s=0)


def test_num_cc_isolated_vertices_exact():
    g = Graph(3, [])
    rep = num_cc(shuffle_stream(g, 1), 3,
                 EstimatorParams(tau=0.3, s=3, k_max=2, seed=4))
    assert rep.total == 3.0
    assert rep.per_k[1] == 3.0 and rep.per_k[2] == 0.0
    assert rep.sample_mode == "without_replacement"


def test_num_cc_empty_vertex_set():
    with pytest.raises(EmptyVertexSetError):
        num_cc(shuffle_stream(Graph(0, []), 0), 0,
               EstimatorParams(tau=0.3, s=1))


def test_num_cc_formula_exactness():
    g = mixed_components(edges_=5, singletons=2)
    params = EstimatorParams(tau=0.25, s=12, k_max=3, seed=9)
    rep = num_cc(shuffle_stream(g, 2), g.n, params)
    for k, value in rep.per_k.items():
        expected = (rep.indicator_counts[k] / params.s) * (g.n / k) \
            / gamma_k(k, params.tau)
        assert value == expected


@given(st.integers(1, 8), st.integers(0, 28), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.1, 0.3, 0.5, 0.9]), st.integers(1, 12),
       st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_one_detector_per_root_matches_one_per_target_size(n, m, seed, tau,
                                                           s, k_max):
    """NumCCRun's k_max-capped detector per root books exactly what k_max
    separate size-k detectors per root would."""
    g = random_graph(n, min(m, n * (n - 1) // 2), seed)
    stream = shuffle_stream(g, split_seed(seed, "permutation"))
    run = NumCCRun(g.n, EstimatorParams(tau=tau, s=s, k_max=k_max, seed=seed),
                   g.m)
    for e in stream:
        run.feed(e.u, e.v)
    rep = run.finalize()
    order = [(e.u, e.v) for e in stream.edges]
    want = {k: 0 for k in range(1, k_max + 1)}
    for v, weight in run.roots.items():
        for k in range(1, k_max + 1):
            if replay(TreeDetector(v, k), order, run.heads)[0] == GOOD:
                want[k] += weight
    assert rep.indicator_counts == want
    assert rep.peak_tree_slots <= s * (k_max + 1)


@pytest.mark.parametrize("estimate", [
    lambda s, n, p: num_cc(s, n, p),
    lambda s, n, p: num_disc(s, n, 1, 2, p),
    lambda s, n, p: mst_weight(s, n, 3, p),
], ids=["num_cc", "num_disc", "mst_weight"])
def test_read_once_check_is_a_typed_error(estimate):
    class Overstated(EdgeStream):
        def __len__(self):
            return super().__len__() + 1

    g = Graph(4, [edge(1, 2, 1), edge(2, 3, 2), edge(3, 4, 3)], weighted=True)
    stream = Overstated(shuffle_stream(g, 1).edges, weighted=True, W=3)
    with pytest.raises(StreamscopeError, match="exactly once"):
        estimate(stream, g.n, EstimatorParams(tau=0.3, s=3, k_max=2))


def test_num_cc_slot_bound_is_a_typed_error():
    g = mixed_components(edges_=3)
    run = NumCCRun(g.n, EstimatorParams(tau=0.3, s=3, k_max=2), 0)
    run.grid.peak_slots = 3 * (2 + 1) + 1
    with pytest.raises(StreamscopeError, match="exceeded bound 9"):
        run.finalize()


def test_num_cc_disjoint_edges_expectation():
    # 10 disjoint edges: a root is Good for k=2 exactly when its edge lands
    # in the first phase, so E[C_2] = 10 exactly. The two roots of one edge
    # are perfectly correlated and distinct edges are independent, giving
    # Var(C_2) = 10 (1 - tau) / tau per run.
    g = mixed_components(edges_=10)
    tau, seeds = 0.3, 400
    vals = []
    for seed in range(seeds):
        rep = num_cc(shuffle_stream(g, split_seed(seed, "perm")), g.n,
                     EstimatorParams(tau=tau, s=20, k_max=4,
                                     seed=split_seed(seed, "est")))
        vals.append(rep.per_k[2])
    sigma_mean = math.sqrt(10 * (1 - tau) / tau / seeds)
    assert abs(statistics.mean(vals) - 10) <= 3 * sigma_mean


def test_num_cc_ignores_large_components_with_bounded_deficit():
    # One 20-path plus 5 singletons, k_max=4: the big component is invisible
    # and the deficit is bounded by n / k_max.
    blocks = [[(i, i + 1) for i in range(1, 20)]] + [[]] * 5
    from streamscope.corpus import disjoint_union
    g = disjoint_union(blocks, [20, 1, 1, 1, 1, 1])
    hist = exact_cc_histogram(g)
    cc = sum(hist.values())
    cc_small = sum(c for k, c in hist.items() if k <= 4)
    assert cc - cc_small <= g.n / 4
    vals = []
    for seed in range(200):
        rep = num_cc(shuffle_stream(g, split_seed(seed, "perm")), g.n,
                     EstimatorParams(tau=0.3, s=g.n, k_max=4,
                                     seed=split_seed(seed, "est")))
        vals.append(rep.total)
    assert abs(statistics.mean(vals) - cc_small) <= 1.5


def test_mst_weight_trivial_w1():
    g = Graph(2, [edge(1, 2, 1)], weighted=True)
    rep = mst_weight(shuffle_stream(g, 0), 2, 1,
                     EstimatorParams(tau=0.3, s=2, k_max=2, seed=1))
    assert rep.estimate == 1  # n - W with an empty threshold sum


def test_mst_weight_identity_on_k3():
    k3 = Graph(3, [edge(1, 2, 1), edge(1, 3, 2), edge(2, 3, 3)], weighted=True)
    assert mst_identity_value(k3) == kruskal_mst(k3) == 3


def test_mst_weight_rejects_unweighted():
    g = Graph(3, [edge(1, 2)])
    with pytest.raises(UnweightedStreamError):
        mst_weight(shuffle_stream(g, 0), 3, 2,
                   EstimatorParams(tau=0.3, s=2))


def test_mst_weight_estimates_weighted_path():
    g = weighted_path()
    rep = mst_weight(shuffle_stream(g, 5), g.n, 2,
                     EstimatorParams(tau=0.05, s=5000, k_max=8, seed=6))
    assert 0.5 * 249 <= rep.estimate <= 1.5 * 249
    assert set(rep.per_threshold) == {1}


def test_num_disc_k0_counts_everything():
    g = mixed_components(triangles=3, singletons=2)
    rep = num_disc(shuffle_stream(g, 3), g.n, 0, 2,
                   EstimatorParams(tau=0.4, s=g.n, seed=8))
    (dt,) = rep.per_type
    assert dt.num_vertices == 1
    assert rep.per_type[dt] == g.n


def test_num_disc_formula_exactness():
    g = mixed_components(triangles=2, edges_=2)
    params = EstimatorParams(tau=0.35, s=g.n, seed=10)
    rep = num_disc(shuffle_stream(g, 11), g.n, 1, 2, params)
    for dt, value in rep.per_type.items():
        expected = (rep.indicator_counts[dt] / params.s) * g.n \
            / gamma_disc(dt.num_edges, params.tau)
        assert value == expected
        assert len(rep.witness_roots[dt]) > 0


def test_mis_estimate_isolated_vertices_exact():
    g = Graph(12, [])
    oracle = make_component_mis_oracle(g, 6)
    rep = num_disc(shuffle_stream(g, 2), g.n, 3, 2,
                   EstimatorParams(tau=0.3, s=12, seed=3))
    mis = mis_estimate(rep, g.n, 2, 2, 300, oracle, seed=17)
    assert mis.estimate == 12.0


def test_mis_estimate_disjoint_edges():
    # True MIS is n/2; the lexicographic oracle accepts exactly the smaller
    # endpoint of each edge, so the estimate concentrates near n/2.
    g = mixed_components(edges_=30)
    oracle = make_component_mis_oracle(g, 6)
    rep = disc_report_from_exact(g, 3, 2)
    mis = mis_estimate(rep, g.n, 2, 2, 4000, oracle, seed=23)
    sigma = math.sqrt(0.25 / 4000) * g.n
    assert abs(mis.estimate - 30) <= 3 * sigma


def test_mis_exact_pipeline_expectation_is_mis():
    # With oracle-substituted exact frequencies every root is a witness, so
    # the per-draw acceptance probability is exactly MIS / n.
    g = mixed_components(triangles=4, edges_=4, singletons=4, p3s=4)
    size, _ = exact_mis(g, 6)
    oracle = make_component_mis_oracle(g, 6)
    rep = disc_report_from_exact(g, 3, 2)
    bits = sum(oracle(None, r) for roots in rep.witness_roots.values()
               for r in roots)
    assert bits == size
    mis = mis_estimate(rep, g.n, 2, 2, 6000, oracle, seed=29)
    sigma = math.sqrt((size / g.n) * (1 - size / g.n) / 6000) * g.n
    assert abs(mis.estimate - size) <= 3.5 * sigma


def test_mis_estimate_top_draw_picks_last_positive_type(monkeypatch):
    # The largest value random() can return must land on the last type with
    # a positive estimate. Added left to right these weights end at
    # 123.29999999999998, but their compensated sum (math.fsum, and sum()
    # from Python 3.12 on) is 123.30000000000001: a total taken apart from
    # the cumulative table would put that draw past the table's end.
    weights = [36.1, 46.5, 21.1, 19.6]
    assert math.fsum(weights) > (((36.1 + 46.5) + 21.1) + 19.6)

    class TopDraw(random.Random):
        def random(self):
            return 1.0 - 2.0 ** -53

        def getrandbits(self, k):
            # keeps randrange on getrandbits, as in random.Random itself
            return super().getrandbits(k)

    monkeypatch.setattr(estimators, "random",
                        types.SimpleNamespace(Random=TopDraw))
    g = mixed_components(triangles=2, edges_=2, p3s=2, singletons=1)
    rep = disc_report_from_exact(g, 3, 2)
    order = sorted(rep.per_type)
    assert len(order) == len(weights) + 1
    rep.per_type = dict(zip(order, weights + [0.0]))
    asked = []
    mis = mis_estimate(rep, g.n, 2, 2, 20,
                       lambda view, root: asked.append(root) or True, seed=5)
    assert mis.accepted == 20
    assert set(asked) <= set(rep.witness_roots[order[-2]])


def test_mis_estimate_shows_the_drawn_types_projected_view():
    # The oracle's local view is the drawn type's extended disc projected to
    # the d-bounded k-disc, whichever earlier draws built it.
    g = mixed_components(triangles=3, edges_=3, p3s=3, singletons=2)
    rep = disc_report_from_exact(g, 3, 2)
    type_of = {r: dt for dt, roots in rep.witness_roots.items()
               for r in roots}
    seen = []

    def oracle(view, root):
        expected = project_extended_disc(
            materialize_disc(type_of[root], 3, 2), 2, 2)
        assert disc_code(view) == expected
        seen.append(type_of[root])
        return True

    mis_estimate(rep, g.n, 2, 2, 200, oracle, seed=3)
    assert len(set(seen)) == len(rep.per_type)


def test_mis_estimate_validates_radius():
    g = mixed_components(edges_=4)
    rep = disc_report_from_exact(g, 2, 2)
    oracle = make_component_mis_oracle(g, 6)
    with pytest.raises(RadiusMismatchError):
        mis_estimate(rep, g.n, 2, 2, 10, oracle, seed=1)


def test_mis_estimate_requires_positive_weights():
    g = mixed_components(edges_=4)
    rep = disc_report_from_exact(g, 3, 2)
    rep.per_type = {dt: 0.0 for dt in rep.per_type}
    oracle = make_component_mis_oracle(g, 6)
    with pytest.raises(AllEstimatesNonpositiveError):
        mis_estimate(rep, g.n, 2, 2, 10, oracle, seed=1)


def test_cc_param_scales_documented_values():
    log_tau, log_s = cc_param_scales(0.5, 1 / 3)
    assert math.isclose(log_tau, -27 * math.log10(8) + math.log10(1 / 3),
                        rel_tol=1e-12)
    assert abs(log_tau - (-24.86)) < 0.01
    assert math.isclose(log_s, 120 * math.log10(8) + 5 * math.log10(3),
                        rel_tol=1e-12)
    assert abs(log_s - 110.76) < 0.01


def test_cc_param_scales_monotone_in_epsilon():
    taus = [cc_param_scales(e, 0.25)[0] for e in (0.1, 0.2, 0.3, 0.4, 0.5)]
    assert all(a < b for a, b in zip(taus, taus[1:]))


def test_disc_param_scales_finite():
    log_tau, log_s = disc_param_scales(2, 3, 0.25, 0.25)
    assert log_tau < 0 < log_s
    assert math.isfinite(log_tau) and math.isfinite(log_s)


def test_reports_serialize_deterministically():
    g = mixed_components(triangles=2, singletons=1)
    params = EstimatorParams(tau=0.2, s=5, k_max=3, seed=2)
    a = num_cc(shuffle_stream(g, 1), g.n, params).to_json()
    b = num_cc(shuffle_stream(g, 1), g.n, params).to_json()
    assert a == b
    assert a.endswith("\n")


def test_mst_instances_equal_num_cc_on_threshold_views():
    # The shared physical pass must be observationally identical to running
    # one component-count estimation per materialized threshold view.
    from streamscope.streams import threshold_view

    g = weighted_path(n=60, heavy_every=3, W=3)
    params = EstimatorParams(tau=0.15, s=80, k_max=4, seed=31)
    stream = shuffle_stream(g, 77)
    rep = mst_weight(stream, g.n, 3, params)
    for t in (1, 2):
        sub_params = EstimatorParams(
            tau=params.tau, s=params.s, k_max=params.k_max,
            seed=split_seed(params.seed, f"threshold-{t}"))
        direct = num_cc(threshold_view(shuffle_stream(g, 77), t), g.n,
                        sub_params)
        assert rep.threshold_reports[t].per_k == direct.per_k
        assert rep.threshold_reports[t].indicator_counts == direct.indicator_counts


@st.composite
def _weighted_graphs(draw):
    """A random simple graph on 1..10 vertices with W in 1..6 and weights
    drawn from 1..W, so some weights below W may go unused."""
    n = draw(st.integers(1, 10))
    W = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs))) if pairs else []
    weights = draw(st.lists(st.integers(1, W), min_size=len(chosen),
                            max_size=len(chosen)))
    return Graph(n, [edge(u, v, w) for (u, v), w in zip(chosen, weights)],
                 weighted=True, W=W), W


@given(_weighted_graphs(), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.1, 0.3, 0.6]), st.integers(1, 12),
       st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_mst_threshold_reports_equal_num_cc_on_views(graph_w, seed, tau, s,
                                                     k_max):
    # Each threshold knows its view's length from the weight histogram, draws
    # Λ before the pass and cuts its grid there, exactly as num_cc on the
    # materialized view does; skipping a threshold whose grid watches
    # neither endpoint changes nothing. num_cc itself is held to the uncut
    # one-detector-per-(root, k) replay above.
    from streamscope.streams import threshold_view

    g, W = graph_w
    params = EstimatorParams(tau=tau, s=s, k_max=k_max, seed=seed)
    stream = shuffle_stream(g, split_seed(seed, "permutation"))
    rep = mst_weight(stream, g.n, W, params)
    assert sorted(rep.threshold_reports) == list(range(1, W))
    for t, got in rep.threshold_reports.items():
        view = threshold_view(stream, t)
        sub = EstimatorParams(tau=tau, s=s, k_max=k_max,
                              seed=split_seed(seed, f"threshold-{t}"))
        want = num_cc(view, g.n, sub)
        assert got.to_json() == want.to_json()
        assert got.m_observed == want.m_observed
        assert got.peak_tree_slots == want.peak_tree_slots


@pytest.mark.parametrize("bad", [0, 10 ** 6 + 1])
def test_mst_weight_refuses_a_bad_weight_before_building_grids(bad):
    # A million thresholds would take about a minute and gigabytes to build,
    # so a refusal within a fraction of a second shows that none was built.
    stream = EdgeStream([edge(1, 2, 1), edge(2, 3, bad)], weighted=True,
                        W=10 ** 6)
    start = time.perf_counter()
    with pytest.raises(BadWError):
        mst_weight(stream, 3, 10 ** 6, EstimatorParams(tau=0.3, s=3, k_max=2))
    assert time.perf_counter() - start < 0.25


@given(st.integers(1, 10), st.integers(0, 45), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.1, 0.3, 0.6]), st.integers(1, 12),
       st.integers(0, 3), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_num_disc_books_what_an_uncut_replay_per_root_books(n, m, seed, tau,
                                                            s, k, d):
    """num_disc's grid, cut at the Λ it draws before the pass, books exactly
    the types that replaying each sampled root alone through an uncut disc
    detector and finalizing it at the same Λ books."""
    g = random_graph(n, min(m, n * (n - 1) // 2), seed)
    stream = shuffle_stream(g, split_seed(seed, "permutation"))
    params = EstimatorParams(tau=tau, s=s, seed=seed)
    rep = num_disc(stream, g.n, k, d, params)
    run = RootPass(g.n, params, DiscDetector, (k, d), g.m)
    run.read(stream)
    order = [(e.u, e.v) for e in stream.edges]
    want, witnesses = {}, {}
    for v, weight in run.roots.items():
        outcome = replay(DiscDetector(v, k, d), order, run.heads)[0]
        if isinstance(outcome, DiscType):
            want[outcome] = want.get(outcome, 0) + weight
            witnesses.setdefault(outcome, []).append(v)
    assert rep.indicator_counts == want
    assert {dt: sorted(r) for dt, r in rep.witness_roots.items()} == \
        {dt: sorted(r) for dt, r in witnesses.items()}


def test_num_disc_triangle_indicators_match_enumeration():
    # Disjoint triangles, every root sampled: the empirical per-root
    # detection rate of the full-triangle type must sit within 3 sigma of
    # the exhaustively enumerated probability, which itself never exceeds
    # the fixed-order collection rate tau^3/6.
    from fractions import Fraction
    from streamscope.canonical import cano_disc, disc_code
    from streamscope.enumeration import enumerate_outcomes

    tau = 0.3
    one = mixed_components(triangles=1)
    tri_type = disc_code(cano_disc(one, 1, 1, 2))
    exact = enumerate_outcomes(one, 1, 1, 2, tau).probability(tri_type)
    assert exact <= Fraction(3, 10) ** 3 / 6
    g = mixed_components(triangles=12)
    hits = trials = 0
    for seed in range(120):
        rep = num_disc(shuffle_stream(g, split_seed(seed, "perm")), g.n, 1, 2,
                       EstimatorParams(tau=tau, s=g.n,
                                       seed=split_seed(seed, "est")))
        hits += rep.indicator_counts.get(tri_type, 0)
        trials += g.n
    p = float(exact)
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 3 * sigma


def _run_each_estimator():
    """One small num_cc, mst_weight and num_disc + mis_estimate run each."""
    g = random_graph(30, 40, 5)
    num_cc(shuffle_stream(g, 1), g.n,
           EstimatorParams(tau=0.4, s=20, k_max=4, seed=2))
    w = random_connected_weighted(25, 4, 6)
    mst_weight(shuffle_stream(w, 3), w.n, w.W,
               EstimatorParams(tau=0.4, s=20, k_max=4, seed=4))
    c = random_small_components(120, 6, 7)
    oracle = make_component_mis_oracle(c, 6)
    disc = num_disc(shuffle_stream(c, 5), c.n, 3, 2,
                    EstimatorParams(tau=0.6, s=c.n, seed=6))
    mis_estimate(disc, c.n, 2, 2, 300, oracle, seed=7)


def test_estimators_restore_the_collector_state():
    _run_each_estimator()
    assert gc.isenabled()
    stream = EdgeStream([edge(1, 2, 1), edge(2, 3, 5), edge(3, 4, 1)],
                        weighted=True, W=3)
    with pytest.raises(BadWError):
        mst_weight(stream, 4, 3, EstimatorParams(tau=0.3, s=4, k_max=2))
    assert gc.isenabled()
    gc.disable()
    try:
        _run_each_estimator()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_estimator_runs_leave_no_cycles():
    # The estimators pause the cyclic collector, which is only safe while a
    # run creates no reference cycle: anything cyclic would stay allocated
    # until some later collection. An emptied code cache makes the run
    # compute canonical codes itself.
    canonical._CODE_CACHE.clear()
    gc.collect()
    gc.disable()
    try:
        _run_each_estimator()
        assert gc.collect() == 0
    finally:
        gc.enable()
