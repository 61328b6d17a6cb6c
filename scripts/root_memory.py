#!/usr/bin/env python3
"""Bytes per sampled root before the pass.

Builds a DetectorGrid of 15,000 roots with a finite cutoff, once with
TreeDetector(v, 8) and once with DiscDetector(v, 3, 3), and prints the
memory tracemalloc sees allocated by the build, divided by the root count.
Sizes depend on the CPython version.
"""

import tracemalloc

from streamscope.detectors import DetectorGrid, DiscDetector, TreeDetector

ROOTS = 15_000


def bytes_per_root(make) -> float:
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    grid = DetectorGrid([make(v) for v in range(1, ROOTS + 1)],
                        cutoff=ROOTS)
    after = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    del grid  # kept alive until `after` was read
    return (after - before) / ROOTS


def main():
    print(f"{'detector':>8} {'k':>2} {'d':>2} {'bytes/root':>10}")
    for name, k, d, make in (
            ("tree", 8, "-", lambda v: TreeDetector(v, 8)),
            ("disc", 3, 3, lambda v: DiscDetector(v, 3, 3))):
        print(f"{name:>8} {k:>2} {d:>2} {bytes_per_root(make):>10.0f}")


if __name__ == "__main__":
    main()
