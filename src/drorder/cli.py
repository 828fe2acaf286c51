"""Command-line front end: run iterations, verify identities, compare orders.

Subcommands:
  run      iterate the selected operator order from each start point,
           one orbit CSV per start, JSON convergence summary on stdout
  verify   run every applicable identity check for a config
           (``analysis.report_config``), or the whole named corpus with
           --corpus; emits an identity report array, exit 3 on any
           failed report
  compare  side-by-side CSV of the two orbit sequences related by the
           conjugation identity, T_ab^m R_A x0 and T_ba^m x0 from the
           first start point x0, with the per-step defect

The environment variable DR_ORDER_TOL overrides the instance's tau_num,
which only ``verify --config`` reads; ``run``, ``compare`` and
``verify --corpus`` still exit 2 on a malformed value.
Output files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .analysis import _pair_defects, _Words, report_config
from .config import ConfigError, ORDERS, ProblemConfig
from .harness import load_corpus, run_instance
from .operators import MonotonicityError, NonFinitePointError, _row_norms, _to_json, _tolerance
from .splitting import DivergenceError, _count, _write_rows, iterate

ENV_TOL = "DR_ORDER_TOL"


def _atomic_write(path, write_fn) -> None:
    """Write through a temp file in the target directory, then rename; a
    path that cannot be written (a missing directory, a directory) is a
    ConfigError, and no temp file is left behind."""
    path = Path(path)
    parent = path.parent if str(path.parent) else Path(".")
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=parent, prefix=f".{path.name}.", suffix=".tmp")
        os.close(fd)
        write_fn(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _env_tau_num() -> float | None:
    """The DR_ORDER_TOL override of tau_num, or None when it is unset."""
    env = os.environ.get(ENV_TOL)
    if env is None:
        return None
    try:
        tau = float(env)
    except ValueError:
        raise ConfigError(f"{ENV_TOL}={env!r} is not a number") from None
    # apart from the parse, since a ConfigError is a ValueError
    return _tolerance(tau, ENV_TOL, ConfigError)


def _load_config(path: str) -> ProblemConfig:
    config = ProblemConfig.from_path(path)
    tau = _env_tau_num()
    if tau is not None:
        config.tolerances = dataclasses.replace(config.tolerances, tau_num=tau)
    return config


def _orbit_path(base: str, index: int, count: int) -> Path:
    path = Path(base)
    if count == 1:
        return path
    return path.with_name(f"{path.stem}_{index}{path.suffix}")


def cmd_run(args) -> int:
    config = _load_config(args.config)
    T = config.split(args.order)
    tau_graph = config.tolerances.tau_graph
    runs = []
    for i, start in enumerate(config.start_points):
        diverged = False
        try:
            orbit = iterate(T, start, config.max_iter, config.stop_tol)
        except DivergenceError as exc:
            orbit = exc.orbit
            diverged = True
        csv_path = _orbit_path(args.out, i, len(config.start_points))
        _atomic_write(csv_path, orbit.write_csv)

        z = orbit.final_shadow
        k = orbit.final - z
        cert_a = cert_b = None
        if not diverged:
            # null certificates where a graph test does not apply
            with contextlib.suppress(MonotonicityError, NonFinitePointError):
                cert_a, cert_b = (defect <= tau_graph
                                  for defect in _pair_defects(T.first, T.second, z, k))
        runs.append({
            "start_index": i,
            "csv": str(csv_path),
            "iterations": orbit.iterations,
            "converged": orbit.converged,
            "diverged": diverged,
            "final_residual": orbit.final_residual,
            "z": z.tolist(),
            "k": k.tolist(),
            "cert_a": cert_a,
            "cert_b": cert_b,
        })
    print(json.dumps(_to_json({"config": args.config, "order": args.order, "runs": runs}),
                     indent=2))
    return 1 if any(run["diverged"] for run in runs) else 0


def cmd_verify(args) -> int:
    if args.corpus:
        _env_tau_num()  # rejected when malformed; the expectations keep their tolerances
        reports = []
        for instance in load_corpus():
            reports.extend(run_instance(instance))
    else:
        if args.config is None:
            raise ConfigError("verify needs --config or --corpus")
        config = _load_config(args.config)
        reports = report_config(config, args.seed, args.n)

    payload = json.dumps(_to_json([r.to_dict() for r in reports]), indent=2)
    if args.out:
        _atomic_write(args.out, lambda tmp: Path(tmp).write_text(payload + "\n"))
    else:
        print(payload)
    failed = [r for r in reports if not r.passed]
    if failed:
        for r in failed:
            print(f"FAILED {r.identity_name}: violation {r.max_violation:.3e} "
                  f"(tolerance {r.tolerance:.1e})", file=sys.stderr)
        return 3
    return 0


def cmd_compare(args) -> int:
    config = _load_config(args.config)
    a = config.operator_a
    ab, ba = _Words(a, config.operator_b, config.start_points[0]).orbits(args.n)
    left, right = ab[:, 1], ba[:, 0]  # T_ab^m R_A x0 and T_ba^m x0
    conj = _row_norms(right - a.reflect(left)).tolist()
    chunk = (range(args.n + 1), np.hstack([left, right]), conj)
    _atomic_write(args.out, lambda tmp: _write_rows(
        tmp, config.dimension, ("left", "right", "conj_residual"), [chunk]))
    return 0


def _nonnegative_int(text: str) -> int:
    return _count(int(text), "value", 0, argparse.ArgumentTypeError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drorder",
        description="Order-dependent Douglas-Rachford splitting: iterate, "
                    "verify identities, compare operand orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="iterate an operator order from each start point")
    p_run.add_argument("--config", required=True, help="problem config JSON")
    p_run.add_argument("--order", choices=ORDERS, default="ab",
                       help="operand order: ab, ba, or the composite bt")
    p_run.add_argument("--out", required=True, help="orbit CSV path (indexed per start)")

    p_verify = sub.add_parser("verify", help="run identity checks, emit a report array")
    source = p_verify.add_mutually_exclusive_group()
    source.add_argument("--config", help="problem config JSON")
    source.add_argument("--corpus", action="store_true",
                        help="verify the whole named corpus instead of a config")
    p_verify.add_argument("--out", help="report JSON path (default: stdout)")
    p_verify.add_argument("--seed", type=_nonnegative_int, default=0,
                          help="seed for the randomized probe points")
    p_verify.add_argument("--n", type=_nonnegative_int, default=20,
                          help="iteration depth for the power identities")

    p_compare = sub.add_parser("compare",
                               help="side-by-side orbits of the two orders")
    p_compare.add_argument("--config", required=True, help="problem config JSON")
    p_compare.add_argument("--n", type=_nonnegative_int, default=10,
                           help="number of steps")
    p_compare.add_argument("--out", required=True, help="comparison CSV path")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the command is looked up by name on every call, so a rebound
    # cmd_run/cmd_verify module attribute is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        # overflow is reported as divergence, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonFinitePointError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
