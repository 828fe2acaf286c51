"""Time the layers of one Douglas-Rachford step, in microseconds.

Rows, each the median wall time of one call over --repeat calls (the
``iterate`` rows divide one call by its steps):

- ``as_point`` and ``_as_points`` on a finite point of R^2;
- the one-point ``resolve`` of each catalog kind, in R^2 (the block
  kind holds a halfspace and a ball, so its point lies in R^4), and the
  same point as a (1, d) batch: the gap is what a one-point kernel
  saves, where there is one (the ball's, which the inverse, rotation and
  block rows also reach);
- ``dr_step`` on the line/ball pair of the long-orbit benchmark, with
  and without J_first x handed in;
- ``iterate`` per step on the two long-orbit pairs, line/ball in order
  ab and plane/parallel line in order ba, --steps steps each with
  ``stop_tol`` 0, from the benchmark's own kind of start point.

Usage: PYTHONPATH=src python3 tools/layer_times.py [--repeat 201] [--steps 20000]

Only the standard library, numpy and drorder are used.  BLAS is pinned
to one thread, as in the benchmark, before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import math
import statistics
import time

import numpy as np

from drorder import operators, splitting
from drorder.operators import (
    AffineRelation,
    BlockSeparable,
    Inverse,
    LinearMonotone,
    NormalConeAffineSubspace,
    NormalConeBall,
    NormalConeBox,
    NormalConeHalfspace,
    NormalConeRay,
    Rotation,
    SphereSelection,
)

MATRIX = [[1.0, 1.0], [-1.0, 0.0]]
BALL = NormalConeBall([2.0, 3.0], 1.0)
LINE = NormalConeAffineSubspace([0.0, 0.0], [[2.0 / math.sqrt(5.0)], [1.0 / math.sqrt(5.0)]])
PLANE = NormalConeAffineSubspace([0.0, 0.0, 0.0], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
PARALLEL_LINE = NormalConeAffineSubspace([0.0, 0.0, 1.0], [[1.0], [0.5], [0.0]])
KINDS = (
    LinearMonotone(MATRIX),
    AffineRelation(MATRIX, [0.5, -1.0]),
    LINE,
    NormalConeHalfspace([0.6, 0.8], 0.5),
    BALL,
    NormalConeRay([0.0, 1.0]),
    NormalConeBox([-1.0, -1.0], [1.0, 1.0]),
    SphereSelection([2.0, 1.0], 1.0, [0.0, 1.0]),
    Inverse(BALL),
    Rotation(BALL),
    BlockSeparable([NormalConeHalfspace([0.6, 0.8], 0.5), BALL]),
)


def _median_us(call, repeat: int, per: int = 1) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times) / per


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=201, help="calls timed per row")
    parser.add_argument("--steps", type=int, default=20_000,
                        help="steps of each timed iterate call")
    args = parser.parse_args()
    if args.repeat < 1 or args.steps < 1:
        parser.error("--repeat and --steps must be positive")

    x = np.array([3.0, -1.5])
    rows = [("as_point", _median_us(lambda: operators.as_point(x, 2), args.repeat)),
            ("_as_points", _median_us(lambda: operators._as_points(x, 2), args.repeat))]
    for op in KINDS:
        point = np.resize(x, op.dim)
        rows.append((f"resolve {op.kind}", _median_us(lambda: op.resolve(point), args.repeat)))
        rows.append((f"resolve {op.kind}, (1, d) batch",
                     _median_us(lambda: op.resolve(point[None]), args.repeat)))
    jx = LINE.resolve(x)
    rows.append(("dr_step line/ball",
                 _median_us(lambda: splitting.dr_step(LINE, BALL, x), args.repeat)))
    rows.append(("dr_step line/ball, J_first x given",
                 _median_us(lambda: splitting.dr_step(LINE, BALL, x, jx), args.repeat)))
    repeat = max(1, args.repeat // 40)
    for name, T, x0 in (
        ("iterate line/ball ab, per step", splitting.SplitOperator(LINE, BALL), x),
        ("iterate plane/line ba, per step", splitting.SplitOperator(PARALLEL_LINE, PLANE),
         np.array([3.0, -1.5, 2.0])),
    ):
        rows.append((name, _median_us(
            lambda: splitting.iterate(T, x0, args.steps, 0.0), repeat, args.steps)))

    width = max(len(name) for name, _ in rows)
    print(f"{'median us':<{width}} {'':>9}")
    for name, us in rows:
        print(f"{name:<{width}} {us:9.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
