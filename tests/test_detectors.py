import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from disc_helpers import disc_update
from streamscope.canonical import (Rooted, RootedDisc, RootedTree, cano_disc,
                                   disc_code, is_violating_disc,
                                   is_violating_tree, materialize_disc)
from streamscope.detectors import (BAD_LARGE, BAD_LATE, BAD_SMALL,
                                   BAD_VIOLATING, GOOD, DetectorGrid,
                                   DiscDetector, TreeDetector, replay)
from streamscope.errors import InvalidKError, OutOfOrderTimeStepError
from streamscope.graphs import Graph, edge


def test_new_detector_state():
    det = TreeDetector(3, 2)
    assert det.reason is None and det.size == 1 and det.t_last == 0
    det1 = TreeDetector(1, 1)
    assert det1.reason is None
    with pytest.raises(InvalidKError):
        TreeDetector(1, 0)


def test_update_accepts_extension():
    det = TreeDetector(1, 3)
    det.update(1, 2, 1)
    det.update(2, 3, 5)
    assert det.dep[3] == 2 and det.t_last == 5 and det.reason is None


def test_update_violating_label():
    det = TreeDetector(1, 3)
    det.update(1, 3, 1)
    det.update(1, 2, 2)
    assert det.reason == BAD_VIOLATING


def test_update_ignores_equal_depth_pair():
    det = TreeDetector(1, 3)
    det.update(1, 2, 1)
    det.update(1, 3, 2)
    det.update(2, 3, 3)
    assert det.reason is None and det.finalize(3) == GOOD


def test_update_out_of_order_time():
    det = TreeDetector(1, 3)
    det.update(1, 2, 4)
    with pytest.raises(OutOfOrderTimeStepError):
        det.update(2, 3, 4)


def test_bad_is_absorbing():
    det = TreeDetector(1, 2)
    det.update(1, 3, 1)
    det.update(1, 2, 2)          # violating: child 3 outranks 2
    assert det.reason is not None
    det.update(2, 3, 3)          # no-op
    assert det.reason == BAD_VIOLATING
    assert det.finalize(3) == BAD_VIOLATING


def test_finalize_isolated_k1_good():
    det = TreeDetector(5, 1)
    assert det.finalize(0) == GOOD


def test_k1_dies_on_any_incident_edge():
    det = TreeDetector(5, 1)
    det.update(5, 2, 1)
    assert det.reason == BAD_LARGE


def test_finalize_triangle_traces():
    out, _ = replay(TreeDetector(1, 3), [(1, 2), (1, 3), (2, 3)], 3)
    assert out == GOOD
    out, _ = replay(TreeDetector(1, 3), [(1, 2), (1, 3), (2, 3)], 1)
    assert out == BAD_LATE
    out, _ = replay(TreeDetector(1, 3), [(1, 2)], 1)
    assert out == BAD_SMALL


def test_disc_detector_k0_returns_singleton():
    det = DiscDetector(4, 0, 2)
    det.update(4, 5, 1)
    code = det.finalize(0)
    assert code.num_vertices == 1 and code.num_edges == 0


def test_disc_detector_star_canonical_stream():
    star = Graph(5, [edge(1, 2), edge(1, 3), edge(1, 4), edge(1, 5)])
    out, det = replay(DiscDetector(2, 2, 2), [(2, 1), (1, 3), (1, 4), (1, 5)],
                      4)
    assert out == disc_code(cano_disc(star, 2, 2, 2))


def test_disc_detector_hijacked_triangle():
    # (2,3) passes while both endpoints are unknown, so the detector later
    # reports the 2-edge star type, not the triangle.
    out, det = replay(DiscDetector(1, 1, 2), [(2, 3), (1, 2), (1, 3)], 3)
    star3 = Graph(3, [edge(1, 2), edge(1, 3)])
    assert out == disc_code(cano_disc(star3, 1, 1, 2))
    assert det.edges == {(1, 2), (1, 3)}


def test_disc_detector_late_completion():
    out, _ = replay(DiscDetector(1, 1, 2), [(1, 2), (1, 3)], 1)
    assert out == BAD_LATE


class _Root(int):
    """A root label carrying the prebuilt detector for its position, so a
    test can give a grid several detectors on one root: the grid builds a
    position from the label it holds for it."""


class _Given:
    """A detector class for mixed grids: building it from a _Root label
    returns the detector the label carries. It names no late reason, so the
    grid builds every root an edge reaches."""

    def __new__(cls, root):
        return root.det

    @staticmethod
    def late_reason():
        return None


def _grid(dets, cutoff=math.inf):
    """A grid over the given detectors, each handed out when the grid first
    builds its position."""
    roots = []
    for det in dets:
        root = _Root(det.root)
        root.det = det
        roots.append(root)
    return DetectorGrid(roots, _Given, (), cutoff)


def test_grid_matches_sequential():
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(2, 10)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        rng.shuffle(pairs)
        stream = pairs[:rng.randint(0, len(pairs))]
        dets_grid = [TreeDetector(v, k) for v in range(1, n + 1)
                     for k in (1, 2, 3)]
        dets_seq = [TreeDetector(v, k) for v in range(1, n + 1)
                    for k in (1, 2, 3)]
        grid = _grid(dets_grid)
        for t, (a, b) in enumerate(stream, start=1):
            grid.feed(a, b, t)
            for det in dets_seq:
                det.update(a, b, t)
        lam = rng.randint(0, len(stream))
        assert grid.finalize(lam) == [d.finalize(lam) for d in dets_seq]


def test_grid_peak_slot_accounting():
    dets = [TreeDetector(1, 3), TreeDetector(2, 3)]
    grid = _grid(dets)
    assert grid.peak_slots == 2
    grid.feed(1, 2, 1)   # both detectors accept
    assert grid.peak_slots == 4


edge_seqs = st.lists(
    st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(lambda p: p[0] != p[1]),
    max_size=12, unique_by=lambda p: frozenset(p))


@given(edge_seqs, st.integers(1, 7), st.integers(1, 5))
@settings(max_examples=300, deadline=None)
def test_detector_matches_standalone_predicate(seq, root, k):
    """The incremental detector's violation decisions equal the public
    predicate evaluated on a snapshot of its tree."""
    det = TreeDetector(root, k)
    shadow = RootedTree(root)
    for t, (a, b) in enumerate(seq, start=1):
        if det.reason is not None:
            break
        in_tree = (min(a, b), max(a, b)) in shadow.edge_set()
        if not in_tree:
            expected_violating = is_violating_tree(shadow, edge(a, b))
        added = det.update(a, b, t)
        if not in_tree and expected_violating:
            assert det.reason == BAD_VIOLATING
            break
        if added is not None:
            shadow.attach(a if added == b else b, added)


@given(edge_seqs, st.integers(1, 7), st.integers(0, 12))
@settings(max_examples=300, deadline=None)
def test_profile_reduction_matches_detector(seq, root, lam):
    """The verification sweep's reduction: for every k <= 5 the real
    detector is Good exactly when the sweep books (root, k) pending with
    t_last within the threshold."""
    from streamscope.verification import _pending_cells

    booked = dict(_pending_cells(seq, [root], 5))
    assert len(booked) <= 1
    for k in range(1, 6):
        out, _ = replay(TreeDetector(root, k), seq, lam)
        t_last = booked.get((root, k))
        assert (out == GOOD) == (t_last is not None and t_last <= lam), k


@pytest.mark.parametrize("n,pairs", [
    (3, [(1, 2), (1, 3), (2, 3)]),
    (4, [(1, 2), (2, 3), (3, 4)]),
    (4, [(1, 2), (1, 3), (1, 4), (2, 3)]),
    (5, [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5)]),
])
def test_montecarlo_good_counts_matches_fresh_detectors(n, pairs):
    """The sweep's table-driven shared-trial counts equal a direct replay of
    every trial's order through fresh detectors on the same draws."""
    from streamscope.streams import _count_heads, split_seed
    from streamscope.verification import (_tree_good_profiles,
                                          montecarlo_good_counts)

    g = Graph(n, [edge(u, v) for u, v in pairs])
    tau, trials, seed, k_max = 0.5, 300, 11, 5
    got = montecarlo_good_counts(g, _tree_good_profiles(g, k_max), tau,
                                 trials, seed, k_max)
    perm_rng = random.Random(split_seed(seed, "permutation"))
    coin_rng = random.Random(split_seed(seed, "coins"))
    order = [(e.u, e.v) for e in g.edges]
    want = {(v, k): 0 for v in range(1, n + 1) for k in range(1, k_max + 1)}
    for _ in range(trials):
        perm_rng.shuffle(order)
        lam = _count_heads(len(order), tau, coin_rng)
        for v, k in want:
            if replay(TreeDetector(v, k), order, lam)[0] == GOOD:
                want[(v, k)] += 1
    assert got == want
    assert sum(got.values()) > 0


@given(edge_seqs, st.integers(1, 7), st.integers(0, 3), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_disc_detector_matches_standalone_predicate(seq, root, k, d):
    det = DiscDetector(root, k, d)
    shadow = RootedDisc(root, k, d)
    for t, (a, b) in enumerate(seq, start=1):
        if det.reason is not None:
            break
        if (min(a, b), max(a, b)) in shadow.edges:
            det.update(a, b, t)
            continue
        expected = is_violating_disc(shadow, edge(a, b))
        added = det.update(a, b, t)
        if expected:
            assert det.reason == BAD_VIOLATING
            break
        res = disc_update(shadow, a, b)
        assert shadow.edges == det.edges
        assert added == (None if isinstance(res, str) else res)


@given(edge_seqs, st.integers(1, 7), st.integers(0, 3), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_disc_adj_holds_exactly_the_kept_edge_endpoints(seq, root, k, d):
    """After any edge sequence, through the detector or through disc_update,
    a disc's adj has an entry for exactly the endpoints of its kept edges,
    and no entry is empty."""
    det = DiscDetector(root, k, d)
    shadow = RootedDisc(root, k, d)
    for t, (a, b) in enumerate(seq, start=1):
        det.update(a, b, t)
        disc_update(shadow, a, b)
        for f in (det, shadow):
            assert set(f.adj) == {x for e in f.edges for x in e}
            assert all(f.adj.values())


def test_no_rooted_instance_has_a_dict():
    # One class without __slots__ anywhere in the chain would give every
    # sampled root a __dict__; disc-mis peak memory rests on per-root bytes.
    for obj in (Rooted(1), RootedTree(1), RootedDisc(1, 2, 2),
                TreeDetector(1, 3), DiscDetector(1, 2, 2)):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_bare_disc_has_no_adj_entry():
    singleton = materialize_disc(disc_code(RootedDisc(1, 0, 1)), 3, 3)
    for f in (DiscDetector(4, 3, 3), singleton):
        assert f.adj == {} and f.degree(f.root) == 0


@given(edge_seqs, st.integers(1, 7), st.integers(1, 5), st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_good_implies_full_size_tree(seq, root, k, lam):
    out, det = replay(TreeDetector(root, k), seq, lam)
    if out == GOOD:
        assert det.size == k
        assert det.t_last <= lam


def test_disc_grid_matches_sequential():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 9)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        rng.shuffle(pairs)
        stream = pairs[:rng.randint(0, len(pairs))]
        mk = lambda: [DiscDetector(v, k, 2) for v in range(1, n + 1)
                      for k in (0, 1, 2)]
        dets_seq = mk()
        grid = _grid(mk())
        for t, (a, b) in enumerate(stream, start=1):
            grid.feed(a, b, t)
            for det in dets_seq:
                det.update(a, b, t)
        lam = rng.randint(0, len(stream))
        assert grid.finalize(lam) == [d.finalize(lam) for d in dets_seq]


detector_specs = st.lists(
    st.tuples(st.sampled_from(("tree", "disc")), st.integers(1, 7),
              st.integers(0, 4), st.integers(1, 3)),
    min_size=1, max_size=10)


def _make_detectors(specs):
    return [TreeDetector(root, max(k, 1)) if kind == "tree"
            else DiscDetector(root, k, d) for kind, root, k, d in specs]


@given(detector_specs, edge_seqs, st.integers(0, 12))
@example([("tree", 1, 2, 1), ("disc", 3, 1, 2), ("tree", 5, 1, 1)],
         [(1, 2), (2, 3), (1, 3), (5, 6)], 2)
@settings(max_examples=300, deadline=None)
def test_grid_matches_sequential_detectors(specs, seq, lam):
    """Tree and disc detectors behind the grid end exactly as the same
    detectors fed every edge in turn. After each edge the index holds the
    members of the live detectors only, so a dead detector's vertices are
    unwatched, and peak_slots is the largest sum over the detectors live
    before an edge of their member counts after it (a detector that dies
    on the edge keeps its count from before)."""
    reference = _make_detectors(specs)
    grid = _grid(_make_detectors(specs))
    peak = sum(len(det.dep) for det in reference)
    assert grid.peak_slots == peak
    for t, (a, b) in enumerate(seq, start=1):
        live = [(det, len(det.dep)) for det in reference
                if det.reason is None]
        grid.feed(a, b, t)
        for det in reference:
            det.update(a, b, t)
        peak = max(peak, sum(len(det.dep) if det.reason is None else before
                             for det, before in live))
        watched = {}
        for i, det in enumerate(reference):
            if det.reason is None:
                for v in det.dep:
                    watched.setdefault(v, set()).add(i)
        assert grid.index == watched
        assert grid.peak_slots == peak
    assert grid.finalize(lam) == [det.finalize(lam) for det in reference]


@given(detector_specs, edge_seqs, st.integers(0, 12))
@example([("tree", 1, 3, 1), ("disc", 1, 2, 2)],
         [(1, 2), (2, 3), (1, 3)], 1)
@settings(max_examples=300, deadline=None)
def test_cutoff_keeps_every_outcome_that_can_count(specs, seq, cutoff):
    """A grid cut at Λ and one without a cutoff, finalized at Λ, agree on
    every outcome an estimator counts: Good or a disc type, and a tree
    detector that stays small with its last accept in phase (num_cc books
    it at its size). They agree on its last-accept time and collected
    vertices too. Every other outcome of the cut grid is Bad, and cutting
    never raises the peak slot count."""
    uncut = _grid(_make_detectors(specs))
    cut = _grid(_make_detectors(specs), cutoff)
    for t, (a, b) in enumerate(seq, start=1):
        uncut.feed(a, b, t)
        cut.feed(a, b, t)
    for want, got, ref, det in zip(uncut.finalize(cutoff),
                                   cut.finalize(cutoff), uncut.detectors,
                                   cut.detectors):
        if not isinstance(want, str) or want == GOOD or (
                want == BAD_SMALL and ref.t_last <= cutoff):
            assert got == want
            assert det.t_last == ref.t_last
            assert list(det.dep) == list(ref.dep)
        else:
            assert isinstance(got, str) and got != GOOD
    assert cut.peak_slots <= uncut.peak_slots


def test_cutoff_retires_a_late_accept():
    tree, disc, k1 = TreeDetector(1, 3), DiscDetector(4, 1, 2), \
        TreeDetector(6, 1)
    grid = _grid([tree, disc, k1], cutoff=1)
    grid.feed(1, 2, 1)      # in phase: the tree detector keeps collecting
    assert tree.reason is None and 2 in grid.index
    grid.feed(2, 3, 2)      # a tree accept after the cutoff
    grid.feed(4, 5, 3)      # a disc accept after the cutoff
    grid.feed(6, 7, 4)      # too large already: the reason stays
    assert tree.reason == BAD_LATE
    assert disc.reason == BAD_LATE
    assert k1.reason == BAD_LARGE
    assert grid.index == {}
    assert grid.finalize(1) == [BAD_LATE, BAD_LATE, BAD_LARGE]


@given(detector_specs, edge_seqs, st.one_of(st.just(math.inf),
                                            st.integers(0, 12)))
@example([("tree", 1, 2, 1), ("disc", 1, 1, 2), ("tree", 2, 3, 1)],
         [(1, 2), (2, 3), (1, 3), (3, 4)], 1)
@settings(max_examples=300, deadline=None)
def test_index_is_exactly_the_live_members(specs, seq, cutoff):
    """Cut or uncut, after every edge the index maps each vertex to the live
    detectors holding it and to nothing else, so no dead detector sits in a
    bucket, and the slot count is the sum of the live member counts. A
    detector not built yet is live and holds its root."""
    grid = _grid(_make_detectors(specs), cutoff)

    def members(i):
        det = grid.detectors[i]
        return {grid.roots[i]} if det is None else det.dep

    def is_live(i):
        det = grid.detectors[i]
        return det is None or (not isinstance(det, str)
                               and det.reason is None)

    for t, (a, b) in enumerate(seq, start=1):
        grid.feed(a, b, t)
        live = [i for i in range(len(grid.detectors)) if is_live(i)]
        watched = {}
        for i in live:
            for v in members(i):
                watched.setdefault(v, set()).add(i)
        assert grid.index == watched
        assert all(is_live(i) for bucket in grid.index.values()
                   for i in bucket)
        assert grid._slots == sum(len(members(i)) for i in live)
        assert grid._slots <= grid.peak_slots


@given(detector_specs, edge_seqs, st.one_of(st.just(math.inf),
                                            st.integers(0, 12)),
       st.integers(0, 12))
@example([("tree", 1, 2, 1), ("disc", 1, 1, 2), ("tree", 4, 3, 1)],
         [(1, 2), (2, 3), (1, 3), (3, 4)], 1, 2)
@settings(max_examples=300, deadline=None)
def test_grid_builds_at_the_first_edge_and_keeps_a_reason(specs, seq,
                                                          cutoff, lam):
    """Against eager detectors fed every edge: after each edge a root's
    entry is None exactly while no edge so far touched it, and a dead entry
    is the reference detector's reason. The outcomes match at the end."""
    reference = _make_detectors(specs)
    for det in reference:
        det.cutoff = cutoff
    grid = _grid(_make_detectors(specs), cutoff)
    touched = set()
    for t, (a, b) in enumerate(seq, start=1):
        grid.feed(a, b, t)
        touched.update((a, b))
        for i, ref in enumerate(reference):
            ref.update(a, b, t)
            entry = grid.detectors[i]
            assert (entry is None) == (ref.root not in touched)
            if ref.reason is not None:
                assert entry == ref.reason
            elif entry is not None:
                assert entry.reason is None
    assert grid.finalize(lam) == [det.finalize(lam) for det in reference]
    assert None not in grid.detectors


def _structure(det):
    """Everything a detector's collected structure holds, copied."""
    if isinstance(det, TreeDetector):
        return dict(det.dep), dict(det.largest), det.maxdep
    return (dict(det.dep), {v: set(ws) for v, ws in det.adj.items()},
            dict(det.largest), det.maxdep)


@pytest.mark.parametrize("make,before,last,cutoff,reason", [
    # a new vertex below a vertex that already attached a larger label
    (lambda: TreeDetector(1, 3), [(1, 3)], (1, 2), math.inf, BAD_VIOLATING),
    (lambda: DiscDetector(1, 2, 2), [(1, 3)], (1, 2), math.inf,
     BAD_VIOLATING),
    # a third vertex for k = 2, past the cutoff too: large before late
    (lambda: TreeDetector(1, 2), [(1, 2)], (2, 3), math.inf, BAD_LARGE),
    (lambda: TreeDetector(1, 2), [(1, 2)], (2, 3), 1, BAD_LARGE),
    (lambda: TreeDetector(5, 1), [], (5, 6), 0, BAD_LARGE),
    # accepts past the cutoff: a tree vertex, a disc vertex, a disc chord
    (lambda: TreeDetector(1, 3), [(1, 2)], (2, 3), 1, BAD_LATE),
    (lambda: DiscDetector(1, 2, 2), [(1, 2)], (2, 3), 1, BAD_LATE),
    (lambda: DiscDetector(1, 1, 2), [(1, 2), (1, 3)], (2, 3), 2, BAD_LATE),
    # a new vertex over the degree budget is ignored, not a kill
    (lambda: DiscDetector(1, 1, 1), [(1, 2), (1, 3)], (1, 4), 2, None),
])
def test_a_killing_edge_leaves_the_structure_untouched(make, before, last,
                                                       cutoff, reason):
    det = make()
    det.cutoff = cutoff
    for t, (a, b) in enumerate(before, start=1):
        assert det.update(a, b, t) is not None
    assert det.reason is None
    kept = _structure(det)
    t_last = det.t_last
    assert det.update(*last, len(before) + 1) is None
    assert _structure(det) == kept and det.t_last == t_last
    if reason is None:
        assert det.reason is None
    else:
        assert det.reason == reason
        assert det.finalize(len(before) + 1) == reason


bare_specs = st.one_of(
    st.tuples(st.just("tree"), st.integers(1, 8), st.just(1)),
    st.tuples(st.just("disc"), st.integers(0, 3), st.integers(1, 3)))


def _class_and_args(kind, k, d):
    """A homogeneous grid's detector class and constructor arguments, as the
    estimators pass them."""
    if kind == "tree":
        return TreeDetector, (k,)
    return DiscDetector, (k, d)


@given(bare_specs, st.integers(1, 10**6), st.integers(1, 10**6),
       st.booleans(), st.integers(0, 50), st.integers(1, 50))
@settings(max_examples=300, deadline=None)
def test_late_reason_is_what_a_bare_detector_dies_of(spec, root, other,
                                                     flip, cutoff, past):
    """A bare detector's first edge past its cutoff kills it with exactly
    late_reason, whatever the root, the other endpoint, their order and t,
    or leaves it live when late_reason is None. The grid skips building
    such a root on the strength of this."""
    assume(root != other)
    cls, args = _class_and_args(*spec)
    late = cls.late_reason(*args)
    det = cls(root, *args)
    det.cutoff = cutoff
    a, b = (other, root) if flip else (root, other)
    assert det.update(a, b, cutoff + past) is None
    assert det.reason == late
    assert det.size == 1


@given(st.integers(1, 7), st.integers(1, 3), edge_seqs,
       st.one_of(st.just(math.inf), st.integers(0, 12)), st.integers(0, 12))
@settings(max_examples=300, deadline=None)
def test_k0_disc_stays_alive_and_bare(root, d, seq, cutoff, lam):
    """At k = 0 the radius budget refuses every edge: whatever the edges and
    the cutoff, the disc stays live and holds its root alone, collects
    nothing, and finalizes to the singleton type."""
    det = DiscDetector(root, 0, d)
    det.cutoff = cutoff
    assert DiscDetector.late_reason(0, d) is None
    for t, (a, b) in enumerate(seq, start=1):
        assert det.update(a, b, t) is None
        assert det.reason is None
        assert det.dep == {root: 0} and det.adj == {} and det.t_last == 0
    assert det.finalize(lam) == disc_code(RootedDisc(root, 0, d))
    assert det.finalize(lam).num_vertices == 1


@given(bare_specs, st.lists(st.integers(1, 7), min_size=1, max_size=8),
       edge_seqs, st.integers(0, 12), st.integers(0, 12))
@example(("tree", 3, 1), [1, 4, 6], [(1, 2), (2, 3), (4, 5), (6, 4)], 2, 2)
@example(("tree", 1, 1), [1, 2], [(1, 2), (3, 2)], 0, 0)
@example(("disc", 0, 1), [1, 2], [(1, 2)], 0, 0)
@settings(max_examples=300, deadline=None)
def test_grid_skips_a_root_first_reached_past_the_cutoff(spec, roots, seq,
                                                         cutoff, lam):
    """A homogeneous grid ends as eager detectors fed every edge: after each
    edge the same reasons, the index of the live members and the peak slot
    count; at the end the same outcomes. It builds no root whose first edge
    came past the cutoff, unless its class names no late reason."""
    cls, args = _class_and_args(*spec)
    late = cls.late_reason(*args)
    built = []

    class Counting(cls):
        __slots__ = ()

        def __init__(self, v, *args):
            built.append(v)
            super().__init__(v, *args)

    reference = [cls(v, *args) for v in roots]
    for det in reference:
        det.cutoff = cutoff
    grid = DetectorGrid(roots, Counting, args, cutoff)
    assert grid.late == late
    peak = len(roots)
    first = {}
    for t, (a, b) in enumerate(seq, start=1):
        live = [(det, len(det.dep)) for det in reference
                if det.reason is None]
        grid.feed(a, b, t)
        first.setdefault(a, t)
        first.setdefault(b, t)
        for det in reference:
            det.update(a, b, t)
        peak = max(peak, sum(len(det.dep) if det.reason is None else before
                             for det, before in live))
        watched = {}
        for i, (det, entry) in enumerate(zip(reference, grid.detectors)):
            if det.reason is None:
                for v in det.dep:
                    watched.setdefault(v, set()).add(i)
            else:
                assert entry == det.reason
        assert grid.index == watched
        assert grid.peak_slots == peak
    assert sorted(built) == sorted(
        v for v in roots if v in first
        and (late is None or first[v] <= cutoff))
    assert grid.finalize(lam) == [det.finalize(lam) for det in reference]
