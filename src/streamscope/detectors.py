"""Single-pass per-root detectors and the shared dispatch grid.

Each detector is a sequential state machine fed the stream edges in time
order, and only the time step of its last accepted edge is compared against
the phase threshold at finalize time. An update decides before it collects,
so a detector never collects on the edge that kills it. A detector is live
exactly while its reason is None; Bad is absorbing.
The estimators draw the threshold before the pass and hand it to every
detector as its cutoff: an accept past it can no longer finish Good, so the
detector dies there as late.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .canonical import (NEW_VERTEX, OUTSIDE, VIOLATING, Rooted, RootedDisc,
                        classify_edge, disc_apply, disc_classify, disc_code)
from .errors import InvalidKError, OutOfOrderTimeStepError

GOOD = "good"
BAD_VIOLATING = "bad:violating-edge"
BAD_LARGE = "bad:large-component"
BAD_SMALL = "bad:small-component"
BAD_LATE = "bad:late-completion"


class TreeDetector(Rooted):
    """A canonical-BFS-consistent tree of up to k vertices rooted at v,
    collected from a single pass; finalize decides Good against the phase
    threshold.

    k=1 roots take the general path: they finish Good only when no incident
    edge ever arrives, with the empty tree's last-accept time pinned at 0.
    """

    __slots__ = ("k", "t_last", "t_seen", "reason", "cutoff")

    def __init__(self, v: int, k: int):
        if k < 1:
            raise InvalidKError(f"k must be >= 1, got {k}")
        super().__init__(v)
        self.k = k
        self.t_last = 0
        self.t_seen = 0
        self.reason: Optional[str] = None
        self.cutoff = math.inf

    @staticmethod
    def late_reason(k: int) -> str:
        """What a bare detector dies of on a first edge past its cutoff."""
        return BAD_LARGE if k == 1 else BAD_LATE

    def update(self, a: int, b: int, t: int) -> Optional[int]:
        """Feed one edge; returns the newly collected vertex, if any."""
        if t <= self.t_seen:
            raise OutOfOrderTimeStepError(f"time step {t} after {self.t_seen}")
        self.t_seen = t
        if self.reason is not None:
            return None
        kind, u, w = classify_edge(self, a, b)
        if kind == NEW_VERTEX:
            if len(self.dep) == self.k:
                self.reason = BAD_LARGE
            elif t > self.cutoff:
                self.reason = BAD_LATE
            else:
                self.attach(u, w)
                self.t_last = t
                return w
        elif kind == VIOLATING:
            self.reason = BAD_VIOLATING
        return None

    def finalize(self, lam: int) -> str:
        if self.reason is not None:
            return self.reason
        if len(self.dep) < self.k:
            return BAD_SMALL
        if self.t_last > lam:
            return BAD_LATE
        return GOOD


class DiscDetector(RootedDisc):
    """An extended (d+1)-bounded k-disc collected from a single pass.

    finalize returns the disc's canonical type when the last accepted edge
    fell inside the first phase, else a Bad marker. At k=0 the radius budget
    refuses every edge, so the disc stays the singleton type whatever the
    stream.
    """

    __slots__ = ("t_last", "t_seen", "reason", "cutoff")

    def __init__(self, v: int, k: int, d: int):
        if k < 0:
            raise InvalidKError(f"k must be >= 0, got {k}")
        if d < 1:
            raise InvalidKError(f"d must be >= 1, got {d}")
        super().__init__(v, k, d)
        self.t_last = 0
        self.t_seen = 0
        self.reason: Optional[str] = None
        self.cutoff = math.inf

    @staticmethod
    def late_reason(k: int, d: int) -> Optional[str]:
        """As for trees, whatever d; None for k = 0, which never dies."""
        return BAD_LATE if k else None

    def update(self, a: int, b: int, t: int) -> Optional[int]:
        if t <= self.t_seen:
            raise OutOfOrderTimeStepError(f"time step {t} after {self.t_seen}")
        self.t_seen = t
        if self.reason is not None:
            return None
        kind, u, w = disc_classify(self, a, b)
        if kind == OUTSIDE:
            return None
        if kind == VIOLATING:
            self.reason = BAD_VIOLATING
        elif t > self.cutoff:
            self.reason = BAD_LATE
        else:
            disc_apply(self, kind, u, w)
            self.t_last = t
            return w if kind == NEW_VERTEX else None
        return None

    def finalize(self, lam: int):
        """DiscType when collection finished in phase, else a Bad marker."""
        if self.reason is not None:
            return self.reason
        if self.t_last > lam:
            return BAD_LATE
        return disc_code(self)


class DetectorGrid:
    """All live detectors over one shared stream, dispatched by vertex.

    An edge can only change a detector whose collected structure already
    contains one of its endpoints, so the grid keeps an index from vertex to
    the detectors watching it and touches nothing else. Until an edge (which
    has the root as an endpoint) reaches roots[i], detectors[i] is None and
    the root costs only its bucket; feed then builds cls(roots[i], *args),
    unless the edge is past the cutoff and the class names a late reason,
    cls.late_reason(*args), for it: a detector would die on that edge, so
    the root is unindexed with that reason. A dead detector holds exactly
    the vertices it was indexed under, since it never collects on the edge
    that kills it, so the grid unindexes it through its dep and keeps only
    its reason, all finalize needs. Without a cutoff, results are identical
    to feeding every edge to every detector sequentially.

    A finite cutoff, the phase threshold drawn before the pass, goes to
    every detector; one that would accept an edge past it dies as BAD_LATE.
    Every Good outcome and its last-accept time stay as without the cutoff;
    only the reason a Bad detector records can change (late where a later
    edge would have found it violating or small).
    """

    __slots__ = ("roots", "cls", "args", "detectors", "cutoff", "late",
                 "index", "_slots", "peak_slots", "last_t")

    def __init__(self, roots, cls, args: tuple, cutoff: float = math.inf):
        self.roots: List[int] = roots
        self.cls = cls
        self.args = args
        self.detectors: List = [None] * len(roots)
        self.cutoff = cutoff
        self.late: Optional[str] = cls.late_reason(*args)
        # vertex -> ids of the live detectors whose structure contains it,
        # an unbuilt one's being its root; read-only outside the grid
        self.index: Dict[int, Set[int]] = {}
        for i, v in enumerate(roots):
            self.index.setdefault(v, set()).add(i)
        self._slots = self.peak_slots = len(roots)
        self.last_t = 0

    def _build(self, i: int):
        det = self.detectors[i] = self.cls(self.roots[i], *self.args)
        det.cutoff = self.cutoff
        return det

    def feed(self, a: int, b: int, t: int) -> None:
        if t <= self.last_t:
            raise OutOfOrderTimeStepError(
                f"time step {t} after {self.last_t}")
        self.last_t = t
        index = self.index
        hit = index.get(a)
        other = index.get(b)
        if hit is None:
            if other is None:
                return
            hit = other
        elif other is not None:
            hit = hit | other
        # Buckets are never empty. With one endpoint watched, an update can
        # only add the other endpoint, so the bucket iterated is not changed.
        detectors = self.detectors
        dead = None
        for i in hit:
            det = detectors[i]
            if det is None:
                if self.late is not None and t > self.cutoff:
                    if dead is None:
                        dead = []
                    dead.append(i)
                    continue
                det = self._build(i)
            added = det.update(a, b, t)
            if added is not None:
                index.setdefault(added, set()).add(i)
                self._slots += 1
                if self._slots > self.peak_slots:
                    self.peak_slots = self._slots
            elif det.reason is not None:
                if dead is None:
                    dead = []
                dead.append(i)
        for i in dead or ():
            det = detectors[i]
            members = (self.roots[i],) if det is None else det.dep
            for v in members:
                bucket = index[v]
                bucket.discard(i)
                if not bucket:
                    del index[v]
            self._slots -= len(members)
            detectors[i] = self.late if det is None else det.reason

    def finalize(self, lam: int) -> List:
        """Builds every root no edge reached, then each outcome at lam."""
        detectors = self.detectors
        for i, det in enumerate(detectors):
            if det is None:
                self._build(i)
        return [det if isinstance(det, str) else det.finalize(lam)
                for det in detectors]


def replay(det, edges: Iterable[Tuple[int, int]], lam: int):
    """Feed an edge sequence to one detector, at time steps 1, 2, ..., and
    finalize it at lam; returns (outcome, detector). A dead detector is fed
    nothing more: Bad is absorbing."""
    for t, (a, b) in enumerate(edges, start=1):
        det.update(a, b, t)
        if det.reason is not None:
            break
    return det.finalize(lam), det
