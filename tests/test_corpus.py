import itertools

import pytest

from streamscope.corpus import all_graphs_up_to


def _canon_unrooted(n, pairs):
    """Minimal sorted edge list over all n! relabelings of a labeled graph on
    0..n-1: equal exactly for isomorphic graphs."""
    best = None
    for perm in itertools.permutations(range(n)):
        relabeled = tuple(sorted(tuple(sorted((perm[a], perm[b])))
                                 for a, b in pairs))
        if best is None or relabeled < best:
            best = relabeled
    return best


def _brute_force_classes(max_n, max_m):
    """First labeled edge set in bit order of each isomorphism class, as
    (n, edge list), by comparing every edge set's canonical form."""
    out = []
    for n in range(1, max_n + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        seen = set()
        for bits in range(1 << len(pairs)):
            chosen = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            if len(chosen) > max_m:
                continue
            key = _canon_unrooted(n, chosen)
            if key in seen:
                continue
            seen.add(key)
            out.append((n, [(u + 1, v + 1) for u, v in chosen]))
    return out


@pytest.mark.parametrize("max_n,max_m", [(4, 6), (5, 6), (5, 10)])
def test_all_graphs_up_to_matches_brute_force(max_n, max_m):
    got = [(g.n, [(e.u, e.v) for e in g.edges])
           for g in all_graphs_up_to(max_n, max_m)]
    assert got == _brute_force_classes(max_n, max_m)


def test_all_graphs_up_to_class_counts():
    # Unlabeled graphs on n = 1..5 vertices (OEIS A000088).
    by_n = [g.n for g in all_graphs_up_to(5, 10)]
    assert [by_n.count(n) for n in range(1, 6)] == [1, 2, 4, 11, 34]
