#!/usr/bin/env python3
"""Bytes per sampled root, before the pass and once every root is built.

Builds a DetectorGrid of 15,000 roots with a finite cutoff, once with
TreeDetector(v, 8) and once with DiscDetector(v, 3, 3), and prints the
memory tracemalloc sees allocated, divided by the root count: `bare` right
after the grid is built, when no root has a detector yet, and `built` after
finalize, which builds every root no edge reached (the outcome list
included). The root list itself belongs to the sampler and is not counted.
Sizes depend on the CPython version.
"""

import tracemalloc

from streamscope.detectors import DetectorGrid, DiscDetector, TreeDetector

ROOTS = 15_000


def bytes_per_root(cls, args):
    roots = list(range(1, ROOTS + 1))  # the sampler's list, not counted
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    grid = DetectorGrid(roots, cls, args, cutoff=ROOTS)
    bare = tracemalloc.get_traced_memory()[0]
    outcomes = grid.finalize(ROOTS)
    built = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    del grid, outcomes  # kept alive until `built` was read
    return (bare - before) / ROOTS, (built - before) / ROOTS


def main():
    print(f"{'detector':>8} {'k':>2} {'d':>2} {'bare':>6} {'built':>6}")
    for name, k, d, cls, args in (
            ("tree", 8, "-", TreeDetector, (8,)),
            ("disc", 3, 3, DiscDetector, (3, 3))):
        bare, built = bytes_per_root(cls, args)
        print(f"{name:>8} {k:>2} {d:>2} {bare:>6.0f} {built:>6.0f}")


if __name__ == "__main__":
    main()
