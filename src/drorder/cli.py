"""Command-line front end: run iterations, verify identities, compare orders.

Subcommands:
  run      iterate the selected operator order from each start point,
           one orbit CSV per start, JSON convergence summary on stdout
  verify   run every applicable identity check for a config, or the
           whole named corpus with --corpus; emits an identity report
           array, exit 3 on any failed report
  compare  side-by-side CSV of the two orbit sequences related by the
           conjugation identity, with the per-step defect

The environment variable DR_ORDER_TOL overrides the instance's tau_num.
Output files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .analysis import (
    IdentityReport,
    _certified_fixed_points,
    power_orbit,
    report_identities,
)
from .config import ConfigError, ORDERS, ProblemConfig
from .harness import load_corpus, run_instance
from .operators import (
    GraphPair,
    MonotonicityError,
    NonFinitePointError,
    _to_json,
    graph_contains,
)
from .splitting import DivergenceError, _write_rows, iterate

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
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ConfigError(f"{ENV_TOL}={env!r} must be finite and nonnegative")
    return tau


def _load_config(path: str) -> ProblemConfig:
    config = ProblemConfig.from_path(path)
    tau = _env_tau_num()
    if tau is not None:
        config.tolerances = config.tolerances.with_tau_num(tau)
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
    diverged_any = False
    for i, start in enumerate(config.start_points):
        diverged = False
        try:
            orbit = iterate(T, start, config.max_iter, config.stop_tol)
        except DivergenceError as exc:
            orbit = exc.orbit
            diverged = True
            diverged_any = True
        csv_path = _orbit_path(args.out, i, len(config.start_points))
        _atomic_write(csv_path, orbit.write_csv)

        z = orbit.final_shadow
        k = orbit.final - z
        cert_a = cert_b = None
        if not diverged:
            try:
                cert_a = graph_contains(T.first, GraphPair(z, k), tau_graph)
                cert_b = graph_contains(T.second, GraphPair(z, -k), tau_graph)
            except (MonotonicityError, NonFinitePointError):
                cert_a = cert_b = None
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
    return 1 if diverged_any else 0


def _probe_points(config: ProblemConfig, seed: int) -> np.ndarray:
    """The probe points of ``verify --config``: the start points, then 10
    points drawn from N(0, 4 I) with the given seed."""
    rng = np.random.default_rng(seed)
    return np.array([*config.start_points,
                     *(rng.normal(0.0, 2.0, config.dimension) for _ in range(10))])


def _verify_config(config: ProblemConfig, seed: int, depth: int) -> list[IdentityReport]:
    """Every identity of ``analysis.IDENTITIES`` whose requirements the
    operands meet (``analysis.report_identities``), worst case over the
    start points plus seeded random probe points, and the solution
    certificates when both operands are monotone (their graph
    certificates need monotone operands)."""
    a, b = config.operator_a, config.operator_b
    reports = report_identities(a, b, _probe_points(config, seed), depth,
                                config.tolerances.tau_num)
    if a.monotone and b.monotone:
        reports.extend(_verify_solutions(config))
    return reports


def _verify_solutions(config: ProblemConfig) -> list[IdentityReport]:
    """Convergence-dependent certificates: runs that reach a fixed point
    must extract a certified primal/dual pair, transfer it to the
    swapped order, and respect the bijection between the fixed sets."""
    tau = config.tolerances
    fixed, cert = _certified_fixed_points(config)
    if not fixed:
        return []
    if cert is None:
        return [IdentityReport.from_violation("solution-certificates", float("inf"),
                                              len(fixed), tau.tau_graph)]
    reports = [
        IdentityReport.from_violation("solution-certificates", cert.certificate,
                                      len(fixed), tau.tau_graph),
        IdentityReport.from_violation("fixed-point-bijection", cert.bijection,
                                      len(fixed), tau.tau_graph),
    ]
    if len(fixed) > 1:
        reports.append(IdentityReport.from_violation(
            "fixed-point-isometry", cert.isometry,
            len(fixed) * (len(fixed) - 1) // 2, tau.tau_num))
    reports.append(IdentityReport.from_violation("dual-symmetry", cert.dual,
                                                 len(fixed), 3.0 * tau.tau_graph))
    return reports


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
        reports = _verify_config(config, args.seed, args.n)

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
    a, b = config.operator_a, config.operator_b
    x0 = config.start_points[0]
    left = power_orbit(a, b, a.reflect(x0), args.n)   # T_ab orbit started at R_a x0
    right = power_orbit(b, a, x0, args.n)             # T_ba orbit started at x0
    rows = [(m, lv, rv, float(np.linalg.norm(rv - a.reflect(lv))))
            for m, (lv, rv) in enumerate(zip(left, right))]
    _atomic_write(args.out, lambda tmp: _write_rows(
        tmp, config.dimension, ("left", "right", "conj_residual"), rows))
    return 0


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


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
