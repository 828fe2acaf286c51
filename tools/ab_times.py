"""Time two source trees of drorder against each other, in one process.

Usage: python3 tools/ab_times.py OLD_SRC NEW_SRC [--rounds 20] [--steps 10000]

Each SRC is a directory that holds a ``drorder`` package, such as the
``src/`` of a checkout.  Both trees are imported into this process, as
the packages ``drorder_old`` and ``drorder_new``, and each runs three
workloads built from its own classes:

- ``long-orbit``: ``iterate`` on the two long-orbit pairs of the
  benchmark, line/ball in order ab and plane/parallel line in order ba
  (the pairs of ``tools/layer_times.py``), --steps steps each with
  ``stop_tol`` 0;
- ``lift``: ``iterate`` on a lift of 100 members in R^3 (50 halfspaces
  and 50 balls, seeded, each holding the ball of radius 0.01 about the
  origin, as in the benchmark's consensus-lift) from 4 seeded starts,
  to ``stop_tol`` 1e-10;
- ``corpus-verify``: the tree's ``cli.main`` on ``verify --corpus`` and
  on ``verify --config`` for each config of its corpus manifest, as the
  benchmark's corpus-verify calls them.  While a tree runs,
  ``sys.modules["drorder"]`` is that tree, since ``verify --corpus``
  finds the manifest through the package name.

First each tree runs each workload once, and the two must give the same
bits: step counts, residuals, and the kept governing and shadow rows of
the orbits, and the exit codes and stdout bytes of the CLI calls.
If they do not, the tool names the workload on stderr and exits 1.
Then it times --rounds rounds.  A round times both trees on each
workload, and which tree runs first alternates from round to round, so
a change of the machine's speed state falls on both sides of a round
rather than on one tree's runs.  Per workload it prints each tree's
median and quartiles of its round times, in ms, and the rounds it won
(a tie counts for neither); then the median and quartiles over the
rounds of the ratio old time / new time (above 1: the new tree is
faster).

Only the standard library and numpy are used.  BLAS is pinned to one
thread, as in the benchmark, before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib.util
import io
import json
import math
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("old", "new")
ORBIT_STEPS = 10_000
LIFT_MEMBERS, LIFT_DIM, LIFT_STARTS, LIFT_MARGIN = 100, 3, 4, 0.01


def _import_tree(src: Path, name: str):
    """The drorder package under ``src``, imported as the package ``name``."""
    init = src / "drorder" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"{src}: no drorder package there")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _long_orbit(dr, steps: int):
    ops, splitting = dr.operators, dr.splitting
    line = ops.NormalConeAffineSubspace([0.0, 0.0], [[2.0 / math.sqrt(5.0)],
                                                     [1.0 / math.sqrt(5.0)]])
    ball = ops.NormalConeBall([2.0, 3.0], 1.0)
    plane = ops.NormalConeAffineSubspace([0.0, 0.0, 0.0], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    parallel_line = ops.NormalConeAffineSubspace([0.0, 0.0, 1.0], [[1.0], [0.5], [0.0]])
    runs = ((splitting.SplitOperator(line, ball), np.array([3.0, -1.5])),
            (splitting.SplitOperator(parallel_line, plane), np.array([3.0, -1.5, 2.0])))
    return lambda: [splitting.iterate(T, x0, steps, 0.0) for T, x0 in runs]


def lift_problem(dr):
    """The lifted operator T of the ``lift`` workload, built from the
    package ``dr``, and its seeded starts."""
    ops, splitting = dr.operators, dr.splitting
    rng = np.random.default_rng(2024)
    members = []
    for i in range(LIFT_MEMBERS):
        u = rng.normal(size=LIFT_DIM)
        u /= np.linalg.norm(u)
        if i < LIFT_MEMBERS // 2:
            members.append(ops.NormalConeHalfspace(u, LIFT_MARGIN))
        else:
            radius = float(rng.uniform(0.5, 2.5))
            members.append(ops.NormalConeBall(-(radius - LIFT_MARGIN) * u, radius))
    lifted = splitting.lift(members, LIFT_DIM)
    starts = [lifted.embed(rng.normal(0.0, 3.0, LIFT_DIM)) for _ in range(LIFT_STARTS)]
    return lifted.split(), starts


def _lift(dr):
    T, starts = lift_problem(dr)
    return lambda: [dr.splitting.iterate(T, x0, stop_tol=1e-10) for x0 in starts]


def _corpus_verify(dr, tmp: Path):
    """The ``verify --corpus`` call and one ``verify --config`` call per
    config of the tree's manifest, whose configs are written under tmp;
    a run returns each call's exit code and stdout."""
    cli = importlib.import_module(f"{dr.__name__}.cli")
    manifest = Path(dr.__file__).parent / "data" / "corpus.json"
    tmp.mkdir()
    calls = [["verify", "--corpus"]]
    for entry in json.loads(manifest.read_text()):
        path = tmp / f"{entry['name']}.json"
        path.write_text(json.dumps(entry["config"]))
        calls.append(["verify", "--config", str(path)])

    def run():
        outputs = []
        sys.modules["drorder"] = dr
        for argv in calls:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            outputs.append((code, out.getvalue()))
        return outputs
    return run


def _bits(outputs) -> list:
    """What must agree between the trees: each orbit's step count,
    residuals and kept rows, as bytes and counts; each CLI call's
    (exit code, stdout) as it is."""
    return [output if isinstance(output, tuple) else
            (output.iterations, output.converged,
             np.asarray(output.residuals, dtype=float).tobytes(),
             b"".join(row.tobytes() for row in output.governing),
             b"".join(row.tobytes() for row in output.shadow)) for output in outputs]


def _quartiles(values) -> tuple[float, float, float]:
    return tuple(float(q) for q in np.percentile(values, [50, 25, 75]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path, help="source tree of the old drorder")
    parser.add_argument("new_src", type=Path, help="source tree of the new drorder")
    parser.add_argument("--rounds", type=int, default=20, help="timed rounds")
    parser.add_argument("--steps", type=int, default=ORBIT_STEPS,
                        help="steps of each long-orbit run")
    args = parser.parse_args()
    if args.rounds < 1 or args.steps < 1:
        parser.error("--rounds and --steps must be positive")

    trees = {side: _import_tree(src.resolve(), f"drorder_{side}")
             for side, src in zip(SIDES, (args.old_src, args.new_src))}
    with tempfile.TemporaryDirectory(prefix="ab_times_") as tmp:
        return _compare(trees, args, Path(tmp))


def _compare(trees, args, tmp: Path) -> int:
    """Check that the trees agree on every workload, then time them."""
    workloads = {"long-orbit": {side: _long_orbit(dr, args.steps) for side, dr in trees.items()},
                 "lift": {side: _lift(dr) for side, dr in trees.items()},
                 "corpus-verify": {side: _corpus_verify(dr, tmp / side)
                                   for side, dr in trees.items()}}
    for name, runs in workloads.items():
        if _bits(runs["old"]()) != _bits(runs["new"]()):
            print(f"{name}: the two trees give different outputs", file=sys.stderr)
            return 1

    times = {name: {side: [] for side in SIDES} for name in workloads}
    for r in range(args.rounds):
        for name, runs in workloads.items():
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                start = time.perf_counter()
                runs[side]()
                times[name][side].append(time.perf_counter() - start)

    print(f"rounds {args.rounds}, steps {args.steps}, lift of {LIFT_MEMBERS} members "
          f"in R^{LIFT_DIM} from {LIFT_STARTS} starts")
    # the old and new rows are round times in ms, old/new their ratio per round
    print(f"{'workload':<13} {'side':<7} {'median':>10} {'q1':>10} {'q3':>10} {'won':>5}")
    for name, by_side in times.items():
        old, new = (np.array(by_side[side]) for side in SIDES)
        for side, own, other in (("old", old, new), ("new", new, old)):
            median, q1, q3 = _quartiles(1e3 * own)
            print(f"{name:<13} {side:<7} {median:10.3f} {q1:10.3f} {q3:10.3f} "
                  f"{int(np.sum(own < other)):5d}")
        median, q1, q3 = _quartiles(old / new)
        print(f"{name:<13} {'old/new':<7} {median:10.4f} {q1:10.4f} {q3:10.4f} {'':>5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
