"""A string-valued one-call disc update for tests that grow a shadow disc
beside a detector."""

from streamscope.canonical import (NEW_VERTEX, OUTSIDE, VIOLATING,
                                   disc_apply, disc_classify)


def disc_update(f, a, b):
    """Apply one arriving edge: disc_classify, then disc_apply if kept.

    Returns "violating", "ignored", "accepted" (an edge between two collected
    vertices was kept), or the label of the vertex the edge attached.
    """
    kind, u, w = disc_classify(f, a, b)
    if kind == OUTSIDE:
        return "ignored"
    if kind == VIOLATING:
        return "violating"
    disc_apply(f, kind, u, w)
    return w if kind == NEW_VERTEX else "accepted"
