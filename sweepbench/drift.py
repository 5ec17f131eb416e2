"""Machine drift: time one fixed block of work ten times back to back.

    python3 sweepbench/drift.py

The block is the diagrams of 30 seeded point clouds, the sweep's costliest
layer. The spread of these ten times is the machine's own drift, which the
benchmark's bounds must allow for. CPU steal time is read from /proc/stat
where the system has one.
"""

import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from pdsemcom import synth_dataset, vr_diagram  # noqa: E402


def steal_ticks():
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 else None


def main():
    objects = synth_dataset(per_class=10, n_points=48, noise=0.2,
                            seed=7).objects
    times = []
    steal0 = steal_ticks()
    for _ in range(10):
        t0 = time.perf_counter()
        for obj in objects:
            vr_diagram(obj.points, gamma_max=16.0)
        times.append(time.perf_counter() - t0)
    steal1 = steal_ticks()
    print("block times (s):", " ".join(f"{t:.2f}" for t in times))
    print(f"min {min(times):.2f}  median {statistics.median(times):.2f}  "
          f"max {max(times):.2f}  max/min {max(times) / min(times):.2f}")
    if steal0 is not None and steal1 is not None:
        print(f"steal ticks during the blocks: {steal1 - steal0}")


if __name__ == "__main__":
    main()
