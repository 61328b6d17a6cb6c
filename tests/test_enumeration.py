from fractions import Fraction

import pytest

from streamscope.canonical import cano_disc, disc_code
from streamscope.detectors import BAD_SMALL, GOOD
from streamscope.enumeration import (binomial_tails, enumerate_outcomes,
                                     montecarlo_outcomes,
                                     within_three_sigma)
from streamscope.errors import TooManyEdgesError
from streamscope.graphs import Graph, edge

TRIANGLE = Graph(3, [edge(1, 2), edge(1, 3), edge(2, 3)])
P4 = Graph(4, [edge(1, 2), edge(2, 3), edge(3, 4)])


def _agree(mc, exact, key):
    return within_three_sigma(exact.probability_float(key),
                              mc.probability_float(key), mc.trials)


def test_within_three_sigma():
    assert within_three_sigma(0.5, 0.5 + 0.014, 10_000)
    assert not within_three_sigma(0.5, 0.5 + 0.016, 10_000)
    assert within_three_sigma(0.0, 0.0, 10) and within_three_sigma(1.0, 1.0, 10)
    assert not within_three_sigma(0.0, 0.1, 10)


def test_triangle_closed_form():
    tau = Fraction(3, 10)
    dist = enumerate_outcomes(TRIANGLE, 1, 3, None, tau)
    assert dist.probability(GOOD) == tau ** 2 / 2 - tau ** 3 / 6
    assert float(dist.probability(GOOD)) == 0.0405


def test_p4_closed_form():
    tau = Fraction(3, 10)
    dist = enumerate_outcomes(P4, 1, 3, None, tau)
    assert dist.probability(GOOD) == tau ** 3 / 3
    assert float(dist.probability(GOOD)) == 0.009


def test_closed_forms_across_taus():
    # Enumerator must match the closed forms for any exactly representable tau.
    for num, den in ((1, 10), (1, 4), (1, 2), (2, 5)):
        tau = Fraction(num, den)
        tri = enumerate_outcomes(TRIANGLE, 1, 3, None, tau).probability(GOOD)
        p4 = enumerate_outcomes(P4, 1, 3, None, tau).probability(GOOD)
        assert tri == tau ** 2 / 2 - tau ** 3 / 6
        assert p4 == tau ** 3 / 3


def test_single_edge_gamma():
    g = Graph(2, [edge(1, 2)])
    dist = enumerate_outcomes(g, 1, 2, None, Fraction(1, 2))
    assert dist.probability(GOOD) == Fraction(1, 2)


def test_small_component_is_certain():
    g = Graph(3, [edge(1, 2)])
    dist = enumerate_outcomes(g, 1, 3, None, Fraction(1, 2))
    assert dist.probability(BAD_SMALL) == 1


def test_probabilities_sum_to_one_exactly():
    dist = enumerate_outcomes(TRIANGLE, 2, 2, None, Fraction(1, 3))
    assert sum(dist.exact.values()) == 1


def test_edge_cap():
    g = Graph(5, [edge(u, v) for u in range(1, 5) for v in range(u + 1, 6)])
    assert g.m == 10
    with pytest.raises(TooManyEdgesError):
        enumerate_outcomes(g, 1, 3, None, Fraction(1, 2))


def test_binomial_tails():
    tails = binomial_tails(2, Fraction(1, 2))
    assert tails == [Fraction(1), Fraction(3, 4), Fraction(1, 4)]


def test_montecarlo_agreement_small():
    exact = enumerate_outcomes(TRIANGLE, 1, 3, None, 0.3)
    mc = montecarlo_outcomes(TRIANGLE, 1, 3, None, 0.3, 50_000, 11)
    for key in set(exact.keys()) | set(mc.keys()):
        assert _agree(mc, exact, key), key


def test_montecarlo_point_mass():
    dist = montecarlo_outcomes(TRIANGLE, 1, 3, None, 0.3, 1, 5)
    assert sum(dist.exact.values()) == 1 and len(dist.exact) == 1


def test_montecarlo_deterministic_per_seed():
    a = montecarlo_outcomes(P4, 1, 3, None, 0.3, 2000, 9)
    b = montecarlo_outcomes(P4, 1, 3, None, 0.3, 2000, 9)
    assert a.exact == b.exact


@pytest.mark.parametrize("g, root, k, d", [
    (TRIANGLE, 1, 3, None), (P4, 2, 3, None), (P4, 1, 2, 2),
    (Graph(5, [edge(1, 2), edge(1, 3), edge(2, 4), edge(3, 4), edge(4, 5)]),
     4, 1, 2)])
def test_montecarlo_counts_every_trial(g, root, k, d):
    """Each distinct draw is replayed once; the counts equal those of a
    fresh replay on every trial, drawn from the same generators."""
    import random

    from streamscope.detectors import DiscDetector, TreeDetector, replay
    from streamscope.streams import _count_heads, split_seed

    trials, seed, tau = 3000, 23, 0.4
    perm_rng = random.Random(split_seed(seed, "permutation"))
    coin_rng = random.Random(split_seed(seed, "coins"))
    edges = [(e.u, e.v) for e in g.edges]
    counts = {}
    for _ in range(trials):
        perm_rng.shuffle(edges)
        lam = _count_heads(len(edges), tau, coin_rng)
        det = TreeDetector(root, k) if d is None else DiscDetector(root, k, d)
        key = replay(det, edges, lam)[0]
        counts[key] = counts.get(key, 0) + 1
    mc = montecarlo_outcomes(g, root, k, d, tau, trials, seed)
    assert mc.exact == {key: Fraction(c, trials) for key, c in counts.items()}


def test_disc_enumeration_triangle():
    # Full-triangle collection at k=1 happens only in the canonical order,
    # entirely in phase: exactly tau^3/6 = the fixed-order collection rate.
    tau = Fraction(3, 10)
    dist = enumerate_outcomes(TRIANGLE, 1, 1, 2, tau)
    tri_type = disc_code(cano_disc(TRIANGLE, 1, 1, 2))
    p = dist.probability(tri_type)
    gamma = tau ** 3 / 6
    assert p == gamma
    assert sum(dist.exact.values()) == 1


def test_disc_enumeration_monte_carlo_agreement():
    tau = 0.3
    exact = enumerate_outcomes(TRIANGLE, 1, 1, 2, tau)
    mc = montecarlo_outcomes(TRIANGLE, 1, 1, 2, tau, 40_000, 3)
    for key in set(exact.keys()) | set(mc.keys()):
        assert _agree(mc, exact, key), key


def test_disc_enumeration_k0():
    dist = enumerate_outcomes(TRIANGLE, 2, 0, 2, Fraction(1, 2))
    (key,) = dist.exact
    assert key.num_vertices == 1 and dist.exact[key] == 1


def test_agreement_on_seven_and_eight_edge_graphs():
    # The sweep criterion stops at m=6; spot-check the enumeration cap range.
    k4_pendant = Graph(5, [edge(1, 2), edge(1, 3), edge(1, 4), edge(2, 3),
                           edge(2, 4), edge(3, 4), edge(4, 5)])
    assert k4_pendant.m == 7
    wheelish = Graph(5, [edge(1, 2), edge(1, 3), edge(1, 4), edge(1, 5),
                         edge(2, 3), edge(3, 4), edge(4, 5), edge(2, 5)])
    assert wheelish.m == 8
    for g, root, k in ((k4_pendant, 1, 4), (k4_pendant, 5, 3),
                       (wheelish, 2, 5)):
        exact = enumerate_outcomes(g, root, k, None, 0.3)
        mc = montecarlo_outcomes(g, root, k, None, 0.3, 40_000, 13)
        for key in set(exact.keys()) | set(mc.keys()):
            assert _agree(mc, exact, key), (root, k, key)


def test_disc_agreement_on_seven_edge_graph():
    g = Graph(5, [edge(1, 2), edge(1, 3), edge(1, 4), edge(2, 3),
                  edge(2, 4), edge(3, 4), edge(4, 5)])
    exact = enumerate_outcomes(g, 5, 2, 2, 0.25)
    mc = montecarlo_outcomes(g, 5, 2, 2, 0.25, 40_000, 17)
    for key in set(exact.keys()) | set(mc.keys()):
        assert _agree(mc, exact, key), key


def test_agreement_at_half_phase_probability():
    # tau = 0.5 belongs to the agreement envelope even though the big sweep
    # only runs the two smaller values.
    two_comp = Graph(5, [edge(1, 2), edge(1, 3), edge(2, 3), edge(4, 5)])
    for root, k in ((1, 3), (4, 2), (2, 4)):
        exact = enumerate_outcomes(two_comp, root, k, None, 0.5)
        mc = montecarlo_outcomes(two_comp, root, k, None, 0.5, 40_000, 19)
        for key in set(exact.keys()) | set(mc.keys()):
            assert _agree(mc, exact, key), (root, k, key)


@pytest.mark.parametrize("g", [
    TRIANGLE,
    P4,
    Graph(4, [edge(1, 2), edge(1, 3), edge(2, 3), edge(3, 4)]),
    Graph(5, [edge(1, 2), edge(2, 3), edge(3, 4), edge(1, 4), edge(4, 5)]),
    Graph(3, [edge(1, 2)]),
], ids=["triangle", "4-path", "triangle-pendant", "5-edge", "isolated-root"])
def test_sweep_order_table_matches_enumerator(g):
    """The sweep's exact side, read from its one table of edge orders,
    gives every (root, k) Good probability the enumerator gives."""
    from streamscope.verification import (_last_time_counts,
                                          _tree_good_profiles,
                                          exact_good_probability)

    k_max = 5
    table = _tree_good_profiles(g, k_max)
    counts = _last_time_counts(table)
    for tau in (Fraction(1, 10), Fraction(3, 10)):
        tails = binomial_tails(g.m, tau)
        for v in range(1, g.n + 1):
            for k in range(1, k_max + 1):
                got = exact_good_probability(counts.get((v, k), {}),
                                             len(table), tails)
                want = enumerate_outcomes(g, v, k, None, tau).probability(GOOD)
                assert got == want, (v, k, tau)
