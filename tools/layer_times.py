"""Time the layers of one Douglas-Rachford step, in microseconds.

Rows, each the median wall time of one call over --repeat calls (the
``iterate`` rows divide one call by its steps):

- ``as_point`` and ``_as_points`` on a finite point of R^2;
- ``_row_norms``, the one norm, on a (20, 12, 2) batch of defects (20
  probe points, 12 orbit steps, R^2) of which every other row is exactly
  zero, as most defect rows of a passing identity are;
- the one-point ``resolve`` of each catalog kind, in R^2 (the block
  kind holds a halfspace and a ball, so its point lies in R^4); its
  unchecked ``_kernel`` on the same point, the gap being what the kind's
  validation costs; and ``resolve`` of the same point as a (1, d) batch:
  that gap is what a one-point kernel saves, where there is one (the
  ball's, which the inverse, rotation and block rows also reach);
- ``dr_step`` on the line/ball pair of the long-orbit benchmark, and
  ``SplitOperator.apply`` on that pair in form borwein_tam, two steps
  after one validation;
- ``iterate`` per step on the two long-orbit pairs, line/ball in order
  ab and plane/parallel line in order ba, --steps steps each with
  ``stop_tol`` 0, from the benchmark's own kind of start point;
- ``dr_matrix`` in forms dr and borwein_tam on the corpus pair
  linear-asymmetric (R^2) and on the lift of 20 lines through the
  origin of R^2 (R^40), where it evaluates T at 41 basis rows;
- on the 100-member lift of ``tools/ab_times.py`` (50 halfspaces and 50
  balls in R^3, as in the benchmark's consensus-lift), the product
  kernel on its first start, a point of R^300, and ``iterate`` per step
  from that start, to ``stop_tol`` 1e-10 or --steps steps;
- the product kernel of a lift of 20 rays in R^2 and of one of 20 boxes
  in R^3, each kind resolved as one stack of members.

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

import drorder
from ab_times import lift_problem
from drorder import operators, splitting
from drorder.harness import load_corpus
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
    defects = np.random.default_rng(2024).normal(size=(20, 12, 2))
    defects.reshape(-1, 2)[::2] = 0.0
    rows.append(("_row_norms (20, 12, 2), half the rows zero",
                 _median_us(lambda: operators._row_norms(defects), args.repeat)))
    for op in KINDS:
        point = np.resize(x, op.dim)
        rows.append((f"resolve {op.kind}", _median_us(lambda: op.resolve(point), args.repeat)))
        rows.append((f"kernel {op.kind}", _median_us(lambda: op._kernel(point), args.repeat)))
        rows.append((f"resolve {op.kind}, (1, d) batch",
                     _median_us(lambda: op.resolve(point[None]), args.repeat)))
    rows.append(("dr_step line/ball",
                 _median_us(lambda: splitting.dr_step(LINE, BALL, x), args.repeat)))
    composite = splitting.SplitOperator(LINE, BALL, splitting.FORM_BORWEIN_TAM)
    rows.append(("apply line/ball, borwein_tam",
                 _median_us(lambda: composite.apply(x), args.repeat)))
    repeat = max(1, args.repeat // 40)
    for name, T, x0 in (
        ("iterate line/ball ab, per step", splitting.SplitOperator(LINE, BALL), x),
        ("iterate plane/line ba, per step", splitting.SplitOperator(PARALLEL_LINE, PLANE),
         np.array([3.0, -1.5, 2.0])),
    ):
        rows.append((name, _median_us(
            lambda: splitting.iterate(T, x0, args.steps, 0.0), repeat, args.steps)))

    corpus = {inst.name: inst.config for inst in load_corpus()}
    asymmetric = corpus["linear-asymmetric"]
    lines = [NormalConeAffineSubspace([0.0, 0.0], [[math.cos(t)], [math.sin(t)]])
             for t in np.linspace(0.0, math.pi, 20, endpoint=False)]
    lifted = splitting.lift(lines, 2)
    for name, first, second in (
        ("linear-asymmetric", asymmetric.operator_a, asymmetric.operator_b),
        ("lift m=20", lifted.diagonal, lifted.product),
    ):
        for form in (splitting.FORM_DR, splitting.FORM_BORWEIN_TAM):
            T = splitting.SplitOperator(first, second, form)
            rows.append((f"dr_matrix {name}, {form}",
                         _median_us(lambda: splitting.dr_matrix(T), args.repeat)))

    T, starts = lift_problem(drorder)
    rows.append(("product kernel lift m=100",
                 _median_us(lambda: T.second._kernel(starts[0]), args.repeat)))
    steps = splitting.iterate(T, starts[0], args.steps, 1e-10).iterations
    rows.append(("iterate lift m=100, per step", _median_us(
        lambda: splitting.iterate(T, starts[0], args.steps, 1e-10), repeat, steps)))
    rng = np.random.default_rng(2034)
    for name, members in (
        ("rays R^2", [NormalConeRay(rng.normal(size=2)) for _ in range(20)]),
        ("boxes R^3", [NormalConeBox(-np.abs(rng.normal(size=3)), np.abs(rng.normal(size=3)))
                       for _ in range(20)]),
    ):
        product = BlockSeparable(members)
        point = rng.normal(size=product.dim) * 2.0
        rows.append((f"product kernel lift of 20 {name}",
                     _median_us(lambda: product._kernel(point), args.repeat)))

    width = max(len(name) for name, _ in rows)
    print(f"{'median us':<{width}} {'':>9}")
    for name, us in rows:
        print(f"{name:<{width}} {us:9.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
