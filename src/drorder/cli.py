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
import csv
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .analysis import (
    CertificateError,
    FixedPointBudgetError,
    IdentityReport,
    certify_fixed_points,
    check_commutation,
    check_commutator,
    check_conjugation,
    check_defect_decomposition,
    check_dual_symmetry,
    check_firmly_nonexpansive,
    check_nonexpansive_transfer,
    check_shadow_equality,
    find_fixed_point,
    power_orbit,
)
from .config import ConfigError, ORDERS, ProblemConfig
from .harness import load_corpus, run_instance
from .operators import (
    GraphPair,
    MonotonicityError,
    NonFinitePointError,
    NormalConeAffineSubspace,
    graph_contains,
)
from .splitting import (
    FORM_BORWEIN_TAM,
    DivergenceError,
    SplitOperator,
    dr_step,
    iterate,
)

ENV_TOL = "DR_ORDER_TOL"


def _atomic_write(path, write_fn) -> None:
    """Write through a temp file in the target directory, then rename."""
    path = Path(path)
    parent = path.parent if str(path.parent) else Path(".")
    try:
        fd, tmp = tempfile.mkstemp(dir=parent, prefix=f".{path.name}.", suffix=".tmp")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config(path: str) -> ProblemConfig:
    config = ProblemConfig.from_path(path)
    env = os.environ.get(ENV_TOL)
    if env is not None:
        try:
            tau = float(env)
        except ValueError:
            raise ConfigError(f"{ENV_TOL}={env!r} is not a number") from None
        if not (math.isfinite(tau) and tau >= 0.0):
            raise ConfigError(f"{ENV_TOL}={env!r} must be finite and nonnegative")
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
        if not config.generalized and not diverged:
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
    print(json.dumps({"config": args.config, "order": args.order, "runs": runs},
                     indent=2))
    return 1 if diverged_any else 0


def _verify_config(config: ProblemConfig, seed: int, depth: int) -> list[IdentityReport]:
    """Every identity check applicable to the instance, worst case over
    the start points plus seeded random probe points."""
    rng = np.random.default_rng(seed)
    a, b = config.operator_a, config.operator_b
    points = [p.copy() for p in config.start_points]
    points += [rng.normal(0.0, 2.0, config.dimension) for _ in range(10)]
    pairs = [(points[i], points[(i + 1) % len(points)]) for i in range(len(points))]
    standard = not config.generalized
    subspace_a = isinstance(a, NormalConeAffineSubspace)
    subspaces = subspace_a and isinstance(b, NormalConeAffineSubspace)
    T = config.split("ab")
    bt_ab = SplitOperator(a, b, FORM_BORWEIN_TAM, config.generalized)
    bt_ba = SplitOperator(b, a, FORM_BORWEIN_TAM, config.generalized)

    def gap(u, v) -> float:
        return float(np.linalg.norm(u - v))

    def checked(check, *args):
        return lambda x: check(a, b, x, *args).max_violation

    def firm(S):
        return lambda pair: max(0.0, -check_firmly_nonexpansive(S, *pair))

    def bt_factorization(x):
        # T_ab T_ba = (T_ab R_a)^2 = R_a (T_ba T_ab) R_a
        composite = dr_step(a, b, dr_step(b, a, x))
        squared = dr_step(a, b, a.reflect(dr_step(a, b, a.reflect(x))))
        conjugated = a.reflect(dr_step(b, a, dr_step(a, b, a.reflect(x))))
        return max(gap(composite, squared), gap(composite, conjugated))

    # (name, applies, samples, reported samples per sample, violation at a sample)
    table = [
        ("dr-form-equivalence", True, points, 1,
         lambda x: gap(dr_step(a, b, x), 0.5 * (x + b.reflect(a.reflect(x))))),
        ("defect-decomposition", True, points, 1, checked(check_defect_decomposition)),
        ("dr-firmly-nonexpansive", standard, pairs, 1, firm(T)),
        ("commutation", a.affine, points, depth, checked(check_commutation, depth)),
        ("conjugation", subspace_a, points, depth, checked(check_conjugation, depth)),
        ("shadow-equality", subspace_a, points, depth,
         checked(check_shadow_equality, depth)),
        ("nonexpansive-transfer", subspace_a and standard, pairs, 1,
         lambda pair: check_nonexpansive_transfer(a, b, *pair).max_violation),
        ("bt-factorization", subspace_a, points, 1, bt_factorization),
        ("commutator", a.affine and b.affine and standard, points, 1,
         checked(check_commutator)),
        ("bt-order-invariance", subspaces, points, 1, lambda x: gap(bt_ab(x), bt_ba(x))),
        ("bt-half-sum", subspaces, points, 1,
         lambda x: gap(bt_ab(x), 0.5 * (dr_step(a, b, x) + dr_step(b, a, x)))),
        ("bt-firmly-nonexpansive", subspaces, pairs, 1, firm(bt_ab)),
    ]
    reports = [
        IdentityReport.from_violation(name, max(map(violation, samples)),
                                      len(samples) * scale, config.tolerances.tau_num)
        for name, applies, samples, scale, violation in table if applies
    ]
    if standard:
        reports.extend(_verify_solutions(config))
    return reports


def _verify_solutions(config: ProblemConfig) -> list[IdentityReport]:
    """Convergence-dependent certificates: runs that reach a fixed point
    must extract a certified primal/dual pair, transfer it to the
    swapped order, and respect the bijection between the fixed sets."""
    a, b = config.operator_a, config.operator_b
    tau = config.tolerances
    T = config.split("ab")
    fixed = []
    for start in config.start_points:
        try:
            fixed.append(find_fixed_point(T, start, config.stop_tol, config.max_iter))
        except FixedPointBudgetError:
            continue
    if not fixed:
        return []
    try:
        cert = certify_fixed_points(a, b, fixed,
                                    fix_tol=3.0 * max(config.stop_tol, 1e-15),
                                    graph_tol=tau.tau_graph)
    except CertificateError:
        return [IdentityReport("solution-certificates", float("inf"),
                               len(fixed), tau.tau_graph, False)]
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
    try:
        reports.append(check_dual_symmetry(a, b, cert.pairs,
                                           graph_tol=tau.tau_graph,
                                           tol=3.0 * tau.tau_graph))
    except CertificateError:
        reports.append(IdentityReport("dual-symmetry", float("inf"),
                                      len(cert.pairs), tau.tau_graph, False))
    return reports


def cmd_verify(args) -> int:
    if args.corpus:
        reports = []
        for instance in load_corpus():
            reports.extend(run_instance(instance))
    else:
        if args.config is None:
            raise ConfigError("verify needs --config or --corpus")
        config = _load_config(args.config)
        reports = _verify_config(config, args.seed, args.n)

    payload = json.dumps([r.to_dict() for r in reports], indent=2)
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
    d = config.dimension
    left = power_orbit(a, b, a.reflect(x0), args.n)   # T_ab orbit started at R_a x0
    right = power_orbit(b, a, x0, args.n)             # T_ba orbit started at x0

    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["n"]
                + [f"left_{i + 1}" for i in range(d)]
                + [f"right_{i + 1}" for i in range(d)]
                + ["conj_residual"]
            )
            for m, (lv, rv) in enumerate(zip(left, right)):
                defect = float(np.linalg.norm(rv - a.reflect(lv)))
                writer.writerow(
                    [m]
                    + [format(v, ".17g") for v in lv]
                    + [format(v, ".17g") for v in rv]
                    + [format(defect, ".17g")]
                )

    _atomic_write(args.out, write)
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
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run identity checks, emit a report array")
    source = p_verify.add_mutually_exclusive_group()
    source.add_argument("--config", help="problem config JSON")
    source.add_argument("--corpus", action="store_true",
                        help="verify the whole named corpus instead of a config")
    p_verify.add_argument("--out", help="report JSON path (default: stdout)")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for the randomized probe points")
    p_verify.add_argument("--n", type=_nonnegative_int, default=20,
                          help="iteration depth for the power identities")
    p_verify.set_defaults(func=cmd_verify)

    p_compare = sub.add_parser("compare",
                               help="side-by-side orbits of the two orders")
    p_compare.add_argument("--config", required=True, help="problem config JSON")
    p_compare.add_argument("--n", type=_nonnegative_int, default=10,
                           help="number of steps")
    p_compare.add_argument("--out", required=True, help="comparison CSV path")
    p_compare.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # overflow is reported as divergence, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonFinitePointError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
