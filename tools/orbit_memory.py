"""Memory that ``iterate`` holds and peaks at, in bytes (tracemalloc).

One row per long-orbit pair of the benchmark, line/ball in order ab and
plane/parallel line in order ba (the pairs of ``tools/layer_times.py``),
each iterated with ``stop_tol`` 0:

- ``held``: what the returned orbit holds after --steps steps;
- ``peak``: the most that was allocated during that call;
- ``B/step``: the held bytes that each step past a full history cap
  adds, (held at --steps - held at 2 --cap steps) / (--steps - 2 --cap).
  Once the cap is full the tail's ring of row blocks takes one more
  block, by 1.5 --cap steps at the latest; from 2 --cap steps on, a
  step adds only its residual;
- ``B/row``: the held bytes per kept row at a full cap, (held at
  --cap - 1 steps, less 8 bytes per residual) / --cap; the orbit of
  --cap - 1 steps is the first whose kept rows fill the cap.

Usage: PYTHONPATH=src python3 tools/orbit_memory.py [--steps 50000] [--cap 10000]

Only the standard library, numpy and drorder are used.
"""

from __future__ import annotations

import argparse
import tracemalloc

import numpy as np

from drorder import splitting
from layer_times import BALL, LINE, PARALLEL_LINE, PLANE


def _traced(T, x0, steps: int, cap: int) -> tuple[int, int]:
    """(held, peak) bytes of one ``iterate`` call, above what was traced
    before it."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    orbit = splitting.iterate(T, x0, steps, 0.0, cap)  # alive while measured
    held, peak = tracemalloc.get_traced_memory()
    return held - before, peak - before


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=50_000, help="steps of the measured orbit")
    parser.add_argument("--cap", type=int, default=splitting.DEFAULT_HISTORY_CAP,
                        help="history cap of iterate")
    args = parser.parse_args()
    if args.cap < 4 or args.steps <= 2 * args.cap:
        parser.error("--cap must be at least 4 and --steps above 2 --cap")

    rows = []
    tracemalloc.start()
    for name, T, x0 in (
        ("iterate line/ball ab", splitting.SplitOperator(LINE, BALL), np.array([3.0, -1.5])),
        ("iterate plane/line ba", splitting.SplitOperator(PARALLEL_LINE, PLANE),
         np.array([3.0, -1.5, 2.0])),
    ):
        full, _ = _traced(T, x0, args.cap - 1, args.cap)
        ring, _ = _traced(T, x0, 2 * args.cap, args.cap)
        held, peak = _traced(T, x0, args.steps, args.cap)
        rows.append((name, held, peak, (held - ring) / (args.steps - 2 * args.cap),
                     (full - 8 * (args.cap - 1)) / args.cap))
    tracemalloc.stop()

    width = max(len(name) for name, *_ in rows)
    print(f"{f'steps {args.steps}, cap {args.cap}':<{width}} {'held B':>10} {'peak B':>10} "
          f"{'B/step':>8} {'B/row':>8}")
    for name, held, peak, per_step, per_row in rows:
        print(f"{name:<{width}} {held:10d} {peak:10d} {per_step:8.2f} {per_row:8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
