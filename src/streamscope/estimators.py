"""End-to-end estimators over a single random-order pass.

All estimators follow one shape, written once as RootPass: sample roots,
run one detector per root over one shared pass through the stream, and
compare each detector's last-accept time against the phase threshold (one
coin per edge read). Every stream says its length, so the threshold is drawn
before the pass (for a weight-threshold view, from the stream's weight
histogram), and the grid retires a detector as soon as it accepts an edge
too late to count. A tree detector capped at k_max decides every target
size k <= k_max, and a disc detector's collected structure names its type,
so no root needs more than one detector. Estimates then rescale the
surviving indicator counts by the exact first-phase collection probability.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Tuple

from .canonical import DiscType, materialize_disc, project_extended_disc
from .detectors import (BAD_SMALL, GOOD, DetectorGrid, DiscDetector,
                        TreeDetector)
from .errors import (AllEstimatesNonpositiveError, BadWError,
                     EmptyVertexSetError, InvariantError, RadiusMismatchError,
                     StreamscopeError, UnweightedStreamError)
from .graphs import _without_cycle_collection
from .streams import CountingStream, EdgeStream, _count_heads, split_seed

WITHOUT_REPLACEMENT = "without_replacement"
WITH_REPLACEMENT = "with_replacement"


def gamma_disc(t_edges: int, tau: float) -> float:
    """Probability that t fixed edges land in the first phase in one fixed
    relative order: tau^t / t!."""
    if t_edges < 0:
        raise ValueError("t_edges must be >= 0")
    if t_edges == 0:
        return 1.0
    if t_edges < 120:
        direct = tau ** t_edges / math.factorial(t_edges)
        if direct > 0.0:
            return direct
    # log space keeps very deep collections representable
    return math.exp(t_edges * math.log(tau) - math.lgamma(t_edges + 1))


def gamma_k(k: int, tau: float) -> float:
    """First-phase collection probability of a fixed (k-1)-edge tree order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return gamma_disc(k - 1, tau)


@dataclass(frozen=True)
class EstimatorParams:
    """Run parameters. tau, s and k_max are chosen by the caller; the
    asymptotic settings the analysis would demand are exposed separately as a
    documentation calculator because their constants are impractically large.
    """

    tau: float
    s: int
    k_max: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0,1), got {self.tau}")
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        # gamma falls as k grows, so no smaller k underflows either
        if gamma_k(self.k_max, self.tau) == 0.0:
            raise ValueError(f"tau={self.tau} and k_max={self.k_max} underflow "
                             f"the rescaling: gamma_k(k_max, tau) is 0.0")

    def to_dict(self) -> dict:
        return {"tau": self.tau, "s": self.s, "k_max": self.k_max,
                "seed": self.seed}


def sample_roots(n: int, s: int, seed: int) -> Tuple[Dict[int, int], str]:
    """Root multiset as {root: multiplicity}. Distinct draws when s <= n,
    else independent draws with replacement (duplicate draws of one root are
    perfectly correlated anyway, so they are folded into a weight).
    """
    if n <= 0:
        raise EmptyVertexSetError("graph has no vertices")
    rng = random.Random(seed)
    if s <= n:
        return {v: 1 for v in rng.sample(range(1, n + 1), s)}, WITHOUT_REPLACEMENT
    counts = Counter(rng.randrange(1, n + 1) for _ in range(s))
    return dict(counts), WITH_REPLACEMENT


class Report:
    """Reports serialize to sorted-key JSON, so identical runs give identical
    bytes."""

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True) + "\n"


@dataclass
class EstimateReport(Report):
    algorithm: str
    n: int
    m_observed: int
    params: EstimatorParams
    sample_mode: str
    per_k: Dict[int, float]
    indicator_counts: Dict[int, int]
    total: float
    peak_tree_slots: int = 0

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "m": self.m_observed,
            "params": self.params.to_dict(),
            "sample_mode": self.sample_mode,
            "per_k": {str(k): v for k, v in sorted(self.per_k.items())},
            "indicator_counts": {str(k): v for k, v in
                                 sorted(self.indicator_counts.items())},
            "total": self.total,
        }


class RootPass:
    """One random-order pass seen by a sample of roots.

    Samples the roots; the grid builds a root's detector, cls(root, *args),
    at the first edge that reaches it. Feed every qualifying edge exactly
    once, in stream order; the pass keeps its own clock, so several passes
    can share one physical read of differently filtered views. Its phase
    threshold Λ (`heads`) is one tau-coin for each of the m edges the pass
    will feed, from the pass's own coin generator: only m decides it. The
    pass draws Λ once, before its first edge, and hands it to the grid as
    the cutoff past which a detector's accept retires it (see DetectorGrid).
    num_cc and num_disc take m from len(stream); mst_weight's threshold
    views take it from the stream's weight histogram, the per-threshold
    version of len(stream).
    """

    def __init__(self, n: int, params: EstimatorParams, cls, args: tuple,
                 m: int):
        self.n = n
        self.params = params
        self.roots, self.sample_mode = sample_roots(
            n, params.s, split_seed(params.seed, "sample"))
        self.t = 0
        self.m = m
        self.grid = DetectorGrid(
            sorted(self.roots), cls, args,
            _count_heads(m, params.tau,
                         random.Random(split_seed(params.seed, "coins"))))

    def feed(self, u: int, v: int) -> None:
        self.t += 1
        self.grid.feed(u, v, self.t)

    def read(self, stream: EdgeStream) -> None:
        """Feed a whole stream, read exactly once."""
        for e in CountingStream(stream):
            self.feed(e.u, e.v)

    @property
    def heads(self) -> int:
        """Λ: heads among the coins of the m edges, drawn before the pass;
        valid once the pass has fed exactly those m edges."""
        if self.t != self.m:
            raise InvariantError(f"the pass fed {self.t} edges but drew its "
                                 f"phase threshold for {self.m}")
        return self.grid.cutoff

    def outcomes(self, lam: int):
        """(detector, outcome) pairs at lam; a dead entry is its reason."""
        outcomes = self.grid.finalize(lam)
        return zip(self.grid.detectors, outcomes)


class NumCCRun(RootPass):
    """One online component-count estimation instance: a k_max-capped tree
    detector per root."""

    def __init__(self, n: int, params: EstimatorParams, m: int):
        super().__init__(n, params, TreeDetector, (params.k_max,), m)

    def finalize(self) -> EstimateReport:
        params = self.params
        lam = self.heads
        indicators: Dict[int, int] = {k: 0 for k in range(1, params.k_max + 1)}
        # A size-k detector behaves exactly like this k_max-capped one until
        # it accepts its k-th edge, so a root is Good for k = its final tree
        # size exactly when the capped detector survives (Good or small) and
        # its last accept is in phase; every other k is Bad for that root.
        for det, outcome in self.outcomes(lam):
            if outcome in (GOOD, BAD_SMALL) and det.t_last <= lam:
                indicators[det.size] += self.roots[det.root]
        per_k = {}
        for k in range(1, params.k_max + 1):
            per_k[k] = (indicators[k] / params.s) * (self.n / k) \
                / gamma_k(k, params.tau)
        slot_bound = params.s * (params.k_max + 1)
        if self.grid.peak_slots > slot_bound:
            raise StreamscopeError(f"detector memory {self.grid.peak_slots} "
                                   f"exceeded bound {slot_bound}")
        return EstimateReport(
            algorithm="num-cc", n=self.n, m_observed=self.t, params=params,
            sample_mode=self.sample_mode, per_k=per_k,
            indicator_counts=indicators, total=sum(per_k.values()),
            peak_tree_slots=self.grid.peak_slots)


@_without_cycle_collection
def num_cc(stream: EdgeStream, n: int, params: EstimatorParams) -> EstimateReport:
    """Estimate the number of connected components from one pass.

    Components larger than k_max are invisible to the estimate; they can
    shrink the result by at most n / k_max.
    """
    run = NumCCRun(n, params, len(stream))
    run.read(stream)
    return run.finalize()


@dataclass
class MstReport(Report):
    n: int
    W: int
    m_observed: int
    params: EstimatorParams
    estimate: float
    per_threshold: Dict[int, float]
    threshold_reports: Dict[int, EstimateReport] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "algorithm": "mst-weight",
            "n": self.n,
            "W": self.W,
            "m": self.m_observed,
            "params": self.params.to_dict(),
            "per_threshold": {str(t): v for t, v in
                              sorted(self.per_threshold.items())},
            "estimate": self.estimate,
        }


@_without_cycle_collection
def mst_weight(stream: EdgeStream, n: int, W: int,
               params: EstimatorParams) -> MstReport:
    """Estimate minimum-spanning-tree weight of a connected weighted graph.

    One component-count instance per weight threshold t < W runs over the
    filtered view of edges with weight <= t; all instances share the single
    physical pass, each counting only the edges that qualify for it, so each
    draws its phase threshold over its own view. The stream's weight
    histogram is the per-threshold version of its length: it gives every
    view's length m_t before the pass, so each threshold draws Λ_t before it
    and cuts its grid there. The histogram is also the one weight check,
    made before any grid is built. The estimate is n - W plus the threshold
    estimates. Connectivity of the input is the caller's responsibility.
    """
    if not stream.weighted:
        raise UnweightedStreamError("mst_weight needs a weighted stream")
    if W < 1:
        raise BadWError(f"W must be >= 1, got {W}")
    if n <= 0:
        raise EmptyVertexSetError("graph has no vertices")
    hist = Counter(e.w for e in stream.edges)
    for w in hist:
        if w is None or not 1 <= w <= W:
            raise BadWError(f"edge weight {w} outside [1..{W}]")
    lengths = itertools.accumulate(hist[t] for t in range(1, W))
    runs = [NumCCRun(n, replace(
        params, seed=split_seed(params.seed, f"threshold-{t}")), m_t)
        for t, m_t in enumerate(lengths, start=1)]
    views = [(run, run.grid.index, run.grid.feed) for run in runs]
    counting = CountingStream(stream)
    for u, v, w in counting:
        # thresholds t >= w see the edge; each counts it on its own clock
        # but feeds its grid only when the grid watches an endpoint, as
        # DetectorGrid.feed would otherwise return without an update
        for run, watched, feed in views[w - 1:]:
            run.t += 1
            if u in watched or v in watched:
                feed(u, v, run.t)
    reports = {t: run.finalize() for t, run in enumerate(runs, start=1)}
    per_threshold = {t: rep.total for t, rep in reports.items()}
    estimate = n - W + sum(per_threshold.values())
    return MstReport(n=n, W=W, m_observed=counting.reads, params=params,
                     estimate=estimate, per_threshold=per_threshold,
                     threshold_reports=reports)


@dataclass
class DiscReport(Report):
    n: int
    m_observed: int
    k: int
    d: int
    params: EstimatorParams
    sample_mode: str
    per_type: Dict[DiscType, float]
    indicator_counts: Dict[DiscType, int]
    witness_roots: Dict[DiscType, List[int]]

    def frequency(self, dt: DiscType) -> float:
        """C for a type; types never observed estimate to zero."""
        return self.per_type.get(dt, 0.0)

    def to_dict(self) -> dict:
        return {
            "algorithm": "num-disc",
            "n": self.n,
            "m": self.m_observed,
            "k": self.k,
            "d": self.d,
            "params": self.params.to_dict(),
            "sample_mode": self.sample_mode,
            "per_type": {dt.hex: v for dt, v in sorted(self.per_type.items())},
            "indicator_counts": {dt.hex: v for dt, v in
                                 sorted(self.indicator_counts.items())},
        }


@_without_cycle_collection
def num_disc(stream: EdgeStream, n: int, k: int, d: int,
             params: EstimatorParams) -> DiscReport:
    """Estimate the frequency of extended (d+1)-bounded k-disc types.

    One detector runs per sampled root; each survivor is classified by the
    canonical code of whatever it collected, which is observationally the
    same as running one detector per (root, type) pair but linearly cheaper.
    """
    run = RootPass(n, params, DiscDetector, (k, d), len(stream))
    run.read(stream)
    indicators: Dict[DiscType, int] = {}
    witnesses: Dict[DiscType, List[int]] = {}
    for det, outcome in run.outcomes(run.heads):
        if isinstance(outcome, DiscType):
            indicators[outcome] = indicators.get(outcome, 0) \
                + run.roots[det.root]
            witnesses.setdefault(outcome, []).append(det.root)
    per_type = {dt: (cnt / params.s) * n / gamma_disc(dt.num_edges, params.tau)
                for dt, cnt in indicators.items()}
    return DiscReport(n=n, m_observed=run.t, k=k, d=d, params=params,
                      sample_mode=run.sample_mode, per_type=per_type,
                      indicator_counts=indicators, witness_roots=witnesses)


def disc_report_from_exact(g, k: int, d: int) -> DiscReport:
    """Oracle-substituted report: exact type frequencies with every root as a
    witness. Lets the downstream pipeline run with estimation noise removed.
    """
    from .oracles import exact_disc_roots

    groups = exact_disc_roots(g, k, d)
    per_type = {dt: float(len(roots)) for dt, roots in groups.items()}
    indicators = {dt: len(roots) for dt, roots in groups.items()}
    params = EstimatorParams(tau=0.5, s=max(g.n, 1), k_max=1, seed=0)
    return DiscReport(n=g.n, m_observed=g.m, k=k, d=d, params=params,
                      sample_mode="exact", per_type=per_type,
                      indicator_counts=indicators,
                      witness_roots={dt: list(r) for dt, r in groups.items()})


RootMembershipOracle = Callable[[object, int], bool]


@dataclass
class MisReport(Report):
    n: int
    k: int
    d: int
    samples: int
    accepted: int
    estimate: float
    oracle_name: str

    def to_dict(self) -> dict:
        return {
            "algorithm": "mis",
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "samples": self.samples,
            "accepted": self.accepted,
            "estimate": self.estimate,
            "oracle": self.oracle_name,
        }


def mis_estimate(disc_report: DiscReport, n: int, d: int, k: int,
                 samples: int, oracle: RootMembershipOracle, seed: int,
                 oracle_name: str = "custom") -> MisReport:
    """Estimate maximum-independent-set size from disc-type frequencies.

    Types are sampled proportionally to their (positive) estimated
    frequencies; each draw picks one recorded witness root of the type and
    asks the membership oracle whether that root belongs to the chosen
    independent set of its part, showing it the type's representative
    extended disc projected down to the d-bounded k-disc (built once per
    type). The answer fraction scales to n.

    The disc report must have been built at radius k+1 with budget d.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if disc_report.k != k + 1 or disc_report.d != d:
        raise RadiusMismatchError(
            f"disc report built at (k={disc_report.k}, d={disc_report.d}), "
            f"need (k={k + 1}, d={d})")
    weighted = [(dt, c) for dt, c in sorted(disc_report.per_type.items())
                if c > 0.0]
    if not weighted:
        raise AllEstimatesNonpositiveError("no type has a positive estimate")
    cumulative = list(itertools.accumulate(c for _, c in weighted))
    # the table's own last entry is the total, so every draw lands in it
    total_w = cumulative[-1]
    rng = random.Random(split_seed(seed, "mis-sampling"))
    accepted = 0
    views = {}  # the projected local view of each type drawn so far
    for _ in range(samples):
        x = rng.random() * total_w
        chosen = weighted[bisect.bisect_left(cumulative, x)][0]
        roots = disc_report.witness_roots[chosen]
        root = roots[rng.randrange(len(roots))]
        local_view = views.get(chosen)
        if local_view is None:
            gamma = materialize_disc(chosen, k + 1, d)
            local_view = views[chosen] = materialize_disc(
                project_extended_disc(gamma, k, d), k, d)
        if oracle(local_view, root):
            accepted += 1
    return MisReport(n=n, k=k, d=d, samples=samples, accepted=accepted,
                     estimate=accepted / samples * n, oracle_name=oracle_name)


def cc_param_scales(epsilon: float, rho: float) -> Tuple[float, float]:
    """Base-10 magnitudes of the analysis-mandated phase probability and
    sample count for component counting, with all hidden constants set to
    one. Documentation only: the magnitudes are far beyond practical runs.
    """
    if not (0.0 < epsilon <= 0.5 and 0.0 < rho <= 0.5):
        raise ValueError("epsilon and rho must lie in (0, 1/2]")
    base = math.log10(4.0 / epsilon)
    log10_tau = (-6.0 / epsilon ** 2 - 3.0) * base + math.log10(rho)
    log10_s = (15.0 / epsilon ** 3) * base + (2.0 / epsilon + 1.0) * math.log10(1.0 / rho)
    return log10_tau, log10_s


def disc_param_scales(k: int, d: int, delta: float, rho: float) -> Tuple[float, float]:
    """Analogous documentation calculator for disc-frequency estimation,
    with the type count bounded by 2^((d+1)^(k+1))."""
    if not (0.0 < delta < 1.0 and 0.0 < rho < 1.0):
        raise ValueError("delta and rho must lie in (0, 1)")
    if k < 0 or d < 1:
        raise ValueError("need k >= 0 and d >= 1")
    log10_j = (d + 1) ** (k + 1) * math.log10(2.0)
    log10_2d = math.log10(2.0 * d)
    log10_tau = math.log10(rho * delta) - log10_j \
        - 4.0 * k * (d + 1) ** (2 * k) * log10_2d
    log10_s = (d + 1) ** (2 * k) * (log10_j - math.log10(rho * delta)) \
        + 4.0 * k * (d + 1) ** (4 * k) * log10_2d
    return log10_tau, log10_s
