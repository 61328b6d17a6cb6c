"""Exact outcome distributions by brute-force enumeration, and their seeded
Monte-Carlo counterparts.

The enumerator walks every permutation of the edge set and every phase
threshold value weighted by its binomial point mass, replaying the real
detector; probabilities are accumulated as rationals, so derived values are
exact for the given (binary) tau. The threshold is treated as independent of
the permutation, which matches generating the order by iid priorities.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .canonical import NEW_VERTEX, VIOLATING, DiscType, Rooted, classify_edge
from .detectors import BAD_LATE, GOOD, DiscDetector, TreeDetector, replay
from .errors import InvariantError, TooManyEdgesError
from .graphs import Graph
from .streams import _count_heads, split_seed

OutcomeKey = Union[str, DiscType]

ENUMERATION_EDGE_CAP = 8


class OutcomeDistribution:
    """Distribution over detector outcomes; exact rationals that sum to one.

    Empirical (Monte-Carlo) instances carry the trial count and hold the
    observed frequencies as rationals as well.
    """

    def __init__(self, exact: Dict[OutcomeKey, Fraction],
                 trials: Optional[int] = None):
        total = sum(exact.values())
        if total != 1:
            raise InvariantError(f"probabilities sum to {total}")
        self.exact = dict(exact)
        self.trials = trials

    def probability(self, key: OutcomeKey) -> Fraction:
        return self.exact.get(key, Fraction(0))

    def probability_float(self, key: OutcomeKey) -> float:
        return float(self.probability(key))

    def keys(self):
        return self.exact.keys()

    def __repr__(self):
        kind = "empirical" if self.trials else "exact"
        body = ", ".join(f"{k}: {float(v):.6g}" for k, v in sorted(
            self.exact.items(), key=lambda kv: str(kv[0])))
        return f"OutcomeDistribution({kind}, {{{body}}})"


def binomial_tails(m: int, tau: Fraction) -> List[Fraction]:
    """tails[t] = Pr[Bi(m, tau) >= t] for t in 0..m, exact."""
    pmf = [Fraction(math.comb(m, j)) * tau ** j * (1 - tau) ** (m - j)
           for j in range(m + 1)]
    tails = [Fraction(0)] * (m + 2)
    for t in range(m, -1, -1):
        tails[t] = tails[t + 1] + pmf[t]
    return tails[:m + 1]


def _as_fraction(tau) -> Fraction:
    # Fraction(float) is exact for the binary value actually supplied, so
    # closed forms evaluated over the same Fraction agree to all digits.
    return tau if isinstance(tau, Fraction) else Fraction(tau)


def tree_replay_profile(order, root: int) -> Tuple[List[int], Optional[int]]:
    """One capacity-free replay that determines every k at once.

    Returns (accept time steps in order, first violation time step or None).
    A detector with target size k behaves identically until it accepts its
    k-th vertex-adding edge and dies of overgrowth, so its outcome is a pure
    function of this profile:

      len(accepts) >= k            -> large component
      violation observed           -> violating edge
      len(accepts) + 1 < k         -> small component
      otherwise                    -> Good iff last accept <= threshold
    """
    tree = Rooted(root)
    accepts: List[int] = []
    for t, (a, b) in enumerate(order, 1):
        kind, u, w = classify_edge(tree, a, b)
        if kind == NEW_VERTEX:
            tree.attach(u, w)
            accepts.append(t)
        elif kind == VIOLATING:
            return accepts, t
    return accepts, None


def _edge_pairs(g: Graph) -> List[Tuple[int, int]]:
    return [(e.u, e.v) for e in g.edges]


def _detector(root: int, k: int, d: Optional[int]):
    """The tree detector for d=None, otherwise the disc detector with budget
    d."""
    return TreeDetector(root, k) if d is None else DiscDetector(root, k, d)


def enumerate_outcomes(g: Graph, root: int, k: int, d: Optional[int],
                       tau) -> OutcomeDistribution:
    """Exact outcome distribution over (uniform permutation, binomial
    threshold) for one detector. d=None runs the tree detector, otherwise the
    disc detector with that budget.

    Each order is replayed once through the real detector at the largest
    threshold m. A Bad outcome there holds for every threshold; otherwise
    the outcome is kept exactly when t_last is within the threshold and is
    late when not.
    """
    m = g.m
    if m > ENUMERATION_EDGE_CAP:
        raise TooManyEdgesError(f"m={m} exceeds enumeration cap")
    tails = binomial_tails(m, _as_fraction(tau))
    per_perm = Fraction(1, math.factorial(m))
    dist: Dict[OutcomeKey, Fraction] = {}

    def add(key: OutcomeKey, p: Fraction) -> None:
        if p:
            dist[key] = dist.get(key, Fraction(0)) + p

    for order in itertools.permutations(_edge_pairs(g)):
        key, det = replay(_detector(root, k, d), order, m)
        if isinstance(key, str) and key != GOOD:
            add(key, per_perm)
            continue
        good_p = tails[det.t_last]
        add(key, per_perm * good_p)
        add(BAD_LATE, per_perm * (1 - good_p))
    return OutcomeDistribution(dist)


def montecarlo_outcomes(g: Graph, root: int, k: int, d: Optional[int], tau,
                        trials: int, seed: int) -> OutcomeDistribution:
    """Seeded empirical twin of enumerate_outcomes.

    Each trial shuffles the edges and counts phase coins exactly as the
    stream generator does, from two independent child generators split off
    the given seed, then replays the real detector. The outcome depends on
    the draw (order, threshold) alone, so each distinct draw is replayed
    once and its outcome reused; the memo holds at most
    min(trials, m!·(m+1)) draws.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    perm_rng = random.Random(split_seed(seed, "permutation"))
    coin_rng = random.Random(split_seed(seed, "coins"))
    edges = _edge_pairs(g)
    m = len(edges)
    counts: Dict[OutcomeKey, int] = {}
    outcome_of: Dict[Tuple[tuple, int], OutcomeKey] = {}
    for _ in range(trials):
        perm_rng.shuffle(edges)
        lam = _count_heads(m, tau, coin_rng)
        draw = (tuple(edges), lam)
        key = outcome_of.get(draw)
        if key is None:
            key = outcome_of[draw] = replay(_detector(root, k, d), edges,
                                            lam)[0]
        counts[key] = counts.get(key, 0) + 1
    dist = {key: Fraction(c, trials) for key, c in counts.items()}
    return OutcomeDistribution(dist, trials=trials)


def three_sigma(p: float, trials: int) -> float:
    """Three binomial standard deviations of a frequency over trials draws
    whose probability is p."""
    return 3 * math.sqrt(p * (1 - p) / trials)


def within_three_sigma(p: float, p_hat: float, trials: int) -> bool:
    """Does the observed frequency p_hat over trials draws agree with the
    exact probability p? A point mass (p 0 or 1) must be matched exactly."""
    band = three_sigma(p, trials)
    return abs(p_hat - p) <= band if band > 0 else p_hat == p
