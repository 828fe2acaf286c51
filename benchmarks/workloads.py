"""The three seeded benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as
set-up), then ``run_round`` performs one unit of fixed work through the
public entry points, timing every operation and calling ``between()``
before each one, and ``check`` compares each operation's output with a
closed form or a fixed expectation.  An operation is one CLI call or one
``iterate`` call; it fails if it raises, returns an unexpected exit
code, or fails its check.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from drorder import cli, harness, splitting
from drorder.config import ProblemConfig
from drorder.operators import (
    NormalConeAffineSubspace,
    NormalConeBall,
    NormalConeHalfspace,
)


@dataclass
class Op:
    """One timed operation and what its check needs."""

    label: str
    seconds: float
    output: object = None
    error: str | None = None


def _timed_main(argv: list[str], stdout_path: Path, stderr_path: Path) -> Op:
    """Call ``cli.main`` with stdout and stderr captured to files."""
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:
            return Op(argv[0], time.perf_counter() - t0,
                      error=traceback.format_exc(limit=3))
        seconds = time.perf_counter() - t0
    return Op(argv[0], seconds, output=(code, stdout_path))


def _write_input(path: Path, text: str) -> None:
    """Write an input file, overwriting an existing one in place.

    Every set-up writes the same bytes again.  Truncating the old file
    first would free and reallocate its blocks, which takes about ten
    times as long as the write itself and varies with the disk's state.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o644), "w") as fh:
        fh.write(text)
        fh.truncate()


class Workload:
    name = ""
    work_unit = ""   # what work_per_s counts
    rate_name = ""   # the name work_per_s is printed under

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def setup(self) -> None:
        raise NotImplementedError

    def ops_per_round(self) -> int:
        raise NotImplementedError

    def run_round(self, between) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, index: int) -> tuple[str | None, int]:
        """(failure message or None, work units) for one operation."""
        raise NotImplementedError


# --------------------------------------------------------------------------

# reports each `verify --config` call emits; the count depends on the
# instance, not on the --seed of the probe points
CORPUS_REPORTS = {
    "ray-vs-axis": 12,
    "linear-asymmetric": 13,
    "bt-not-firm": 7,
    "parallel-lines": 16,
    "subspace-ball": 11,
    "halfspace-ball": 6,
    "three-halfspace-lift": 11,
}
CORPUS_ALL_REPORTS = 23
CORPUS_PASSES = 8  # one --corpus and seven --config calls each: 64 calls


class CorpusVerify(Workload):
    """Many short verifications over every checker and corpus resolvent."""

    name = "corpus-verify"
    work_unit = "reports"
    rate_name = "reports_per_s"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        manifest = harness.write_manifest(self.tmp / "manifest.json")
        self.config_paths = {}
        for entry in json.loads(manifest.read_text()):
            path = self.tmp / f"{entry['name']}.json"
            _write_input(path, json.dumps(entry["config"]))
            self.config_paths[entry["name"]] = path
        loaded = [inst.name for inst in harness.load_corpus(manifest)]
        if sorted(loaded) != sorted(CORPUS_REPORTS):
            raise RuntimeError(f"corpus manifest names {loaded}")
        self.calls: list[tuple[list[str], int]] = []
        for _ in range(CORPUS_PASSES):
            self.calls.append((["verify", "--corpus"], CORPUS_ALL_REPORTS))
            for name, path in self.config_paths.items():
                probe_seed = str(int(rng.integers(0, 2**31 - 1)))
                self.calls.append((["verify", "--config", str(path), "--seed", probe_seed],
                                   CORPUS_REPORTS[name]))

    def ops_per_round(self) -> int:
        return len(self.calls)

    def run_round(self, between) -> list[Op]:
        ops = []
        err = self.tmp / "verify.stderr"
        for i, (argv, _) in enumerate(self.calls):
            between()
            ops.append(_timed_main(argv, self.tmp / f"verify-{i}.json", err))
        return ops

    def check(self, op: Op, index: int):
        code, path = op.output
        if code != 0:
            return f"exit code {code}", 0
        reports = json.loads(Path(path).read_text())
        expected = self.calls[index][1]
        if len(reports) != expected:
            return f"{len(reports)} reports, expected {expected}", len(reports)
        failed = [r["identity_name"] for r in reports if not r["passed"]]
        if failed:
            return f"failed reports {failed}", len(reports)
        return None, len(reports)


# --------------------------------------------------------------------------

ORBIT_STEPS = 50_000
ORBIT_CSV_ROWS = 10_000        # the default history cap of iterate
LIMIT_TOL = 1e-9
LINE_DIRECTION = np.array([1.0, 0.5])
BALL_CENTER = np.array([2.0, 3.0])
PLANE_LINE_OFFSET = np.array([0.0, 0.0, 1.0])
PLANE_LINE_DIRECTION = np.array([1.0, 0.5, 0.0])


class LongOrbit(Workload):
    """Two long sequential orbits on inconsistent pairs, with CSV output."""

    name = "long-orbit"
    work_unit = "DR steps"
    rate_name = "steps_per_s"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        unit = LINE_DIRECTION / np.linalg.norm(LINE_DIRECTION)
        # line through 0 against a ball it misses: the gap is 4/sqrt(5) - 1
        line_ball = ProblemConfig(
            dimension=2,
            operator_a=NormalConeAffineSubspace([0.0, 0.0], unit.reshape(2, 1)),
            operator_b=NormalConeBall(BALL_CENTER, 1.0),
            start_points=[rng.uniform(-5.0, 5.0, 2)],
            max_iter=ORBIT_STEPS, stop_tol=0.0,
        )
        # the plane z = 0 and a parallel line one unit above it
        x0 = rng.uniform(-5.0, 5.0, 3)
        plane_line = ProblemConfig(
            dimension=3,
            operator_a=NormalConeAffineSubspace([0.0, 0.0, 0.0],
                                                [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
            operator_b=NormalConeAffineSubspace(PLANE_LINE_OFFSET,
                                                PLANE_LINE_DIRECTION.reshape(3, 1)),
            start_points=[x0],
            max_iter=ORBIT_STEPS, stop_tol=0.0,
        )
        d = PLANE_LINE_DIRECTION
        self.runs = []
        for name, config, order, residual, z in (
            ("line-ball", line_ball, "ab", 4.0 / math.sqrt(5.0) - 1.0,
             np.array([2.8, 1.4])),
            # order ba puts the line first: its shadow stays at the foot of
            # x0 on the line, and every step moves one unit down
            ("plane-line", plane_line, "ba", 1.0,
             PLANE_LINE_OFFSET + (x0 @ d) / (d @ d) * d),
        ):
            path = self.tmp / f"{name}.json"
            _write_input(path, json.dumps(config.to_dict()))
            argv = ["run", "--config", str(path), "--order", order,
                    "--out", str(self.tmp / f"{name}.csv")]
            self.runs.append((argv, residual, z))

    def ops_per_round(self) -> int:
        return len(self.runs)

    def run_round(self, between) -> list[Op]:
        ops = []
        err = self.tmp / "run.stderr"
        for i, (argv, _, _) in enumerate(self.runs):
            between()
            ops.append(_timed_main(argv, self.tmp / f"run-{i}.json", err))
        return ops

    def check(self, op: Op, index: int):
        _, residual, z = self.runs[index]
        code, path = op.output
        if code != 0:
            return f"exit code {code}", 0
        run = json.loads(Path(path).read_text())["runs"][0]
        steps = run["iterations"]
        if steps != ORBIT_STEPS:
            return f"{steps} iterations, expected {ORBIT_STEPS}", steps
        if abs(run["final_residual"] - residual) > LIMIT_TOL:
            return f"final_residual {run['final_residual']!r}, expected {residual!r}", steps
        if float(np.max(np.abs(np.asarray(run["z"]) - z))) > LIMIT_TOL:
            return f"z {run['z']}, expected {list(z)}", steps
        with open(run["csv"]) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != ORBIT_CSV_ROWS:
            return f"{rows} CSV rows, expected {ORBIT_CSV_ROWS}", steps
        return None, steps


# --------------------------------------------------------------------------

MEMBERS = 100
LIFT_DIM = 3
LIFT_STARTS = 16
LIFT_STOP_TOL = 1e-10
LIFT_TOL = 1e-8
MARGIN = 0.01


class ConsensusLift(Workload):
    """A 100-member feasibility problem lifted to the product space R^300."""

    name = "consensus-lift"
    work_unit = "DR steps"
    rate_name = "steps_per_s"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        # every member contains the ball of radius MARGIN about the origin
        ops = []
        self.halfspaces, self.balls = [], []
        for i in range(MEMBERS):
            u = rng.normal(size=LIFT_DIM)
            u /= np.linalg.norm(u)
            if i < MEMBERS // 2:
                ops.append(NormalConeHalfspace(u, MARGIN))
                self.halfspaces.append(u)
            else:
                radius = float(rng.uniform(0.5, 2.5))
                center = -(radius - MARGIN) * u
                ops.append(NormalConeBall(center, radius))
                self.balls.append((center, radius))
        self.lifted = splitting.lift(ops, LIFT_DIM)
        self.starts = [rng.normal(0.0, 3.0, LIFT_DIM) for _ in range(LIFT_STARTS)]

    def ops_per_round(self) -> int:
        return len(self.starts)

    def run_round(self, between) -> list[Op]:
        ops = []
        L = self.lifted
        for x0 in self.starts:
            between()
            t0 = time.perf_counter()
            try:
                orbit = splitting.iterate(L.split(), L.embed(x0), stop_tol=LIFT_STOP_TOL)
            except Exception:
                ops.append(Op("iterate", time.perf_counter() - t0,
                              error=traceback.format_exc(limit=3)))
                continue
            seconds = time.perf_counter() - t0
            ops.append(Op("iterate", seconds,
                          output=(orbit.iterations, orbit.converged, orbit.final_shadow)))
        return ops

    def check(self, op: Op, index: int):
        steps, converged, shadow = op.output
        if not converged:
            return f"not converged after {steps} steps", steps
        blocks = shadow.reshape(MEMBERS, LIFT_DIM)
        z = blocks.mean(axis=0)
        spread = float(np.max(np.abs(blocks - z)))
        if spread > LIFT_TOL:
            return f"block spread {spread:.3e}", steps
        violation = max(
            max(float(u @ z) - MARGIN for u in self.halfspaces),
            max(float(np.linalg.norm(z - c)) - r for c, r in self.balls),
        )
        if violation > LIFT_TOL:
            return f"member violation {violation:.3e}", steps
        return None, steps


WORKLOADS = {w.name: w for w in (CorpusVerify, LongOrbit, ConsensusLift)}
