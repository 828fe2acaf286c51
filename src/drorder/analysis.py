"""Fixed points, exchange-identity certification, and primal/dual extraction.

The reflected resolvent of the first operand maps the fixed point set of
the (A, B)-ordered splitting operator isometrically onto that of the
(B, A)-ordered one, with the second reflector as its inverse; on fixed
points it acts as z + k -> z - k, where z is the primal solution
(shadow of the fixed point) and k = f - z the dual solution.  The
checkers in this module certify these statements pointwise, together
with the stronger commutation, conjugation, and shadow identities that
hold when the first operand is affine (or a normal cone of an affine
subspace), and the failure probes that show where they break.

All checkers are pure; randomized callers can fan trials out across
workers and merge the reports by taking the worst violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .operators import (
    GraphPair,
    NonFinitePointError,
    NormalConeAffineSubspace,
    NotAffineError,
    Operator,
    TAU_GRAPH,
    TAU_NUM,
    as_point,
    graph_contains,
)
from .splitting import DivergenceError, SplitOperator, dr_step, iterate, require_operands

__all__ = [
    "FixedPointBudgetError",
    "CertificateError",
    "SolutionPair",
    "IdentityReport",
    "find_fixed_point",
    "extract_solution",
    "map_fixed_point",
    "FixedPointCertificates",
    "certify_fixed_points",
    "power_orbit",
    "check_commutation",
    "check_conjugation",
    "probe_conjugation",
    "check_shadow_equality",
    "check_nonexpansive_transfer",
    "check_commutator",
    "check_defect_decomposition",
    "check_firmly_nonexpansive",
    "check_dual_symmetry",
]


class FixedPointBudgetError(RuntimeError):
    """Iteration budget ran out; carries the last iterate whose step
    residual is known (``best``) and that residual."""

    def __init__(self, message: str, best: np.ndarray, residual: float):
        super().__init__(message)
        self.best = best
        self.residual = residual


class CertificateError(RuntimeError):
    """A graph-membership or fixed-point certificate failed."""


@dataclass(eq=False)
class SolutionPair:
    """A primal/dual pair (z, k): (z, k) in gra A and (z, -k) in gra B,
    which place z among the zeros of A + B and (z, -k) in the extended
    solution set of the ordered pair."""

    z: np.ndarray
    k: np.ndarray


@dataclass
class IdentityReport:
    """Outcome of one identity check: worst violation over the samples."""

    identity_name: str
    max_violation: float
    sample_count: int
    tolerance: float
    passed: bool

    @classmethod
    def from_violation(cls, name: str, violation: float, samples: int,
                       tolerance: float) -> "IdentityReport":
        return cls(name, float(violation), int(samples), float(tolerance),
                   bool(violation <= tolerance))

    def to_dict(self) -> dict:
        return dict(vars(self))


def find_fixed_point(T: SplitOperator, x0, tol: float = 1e-10,
                     max_iter: int = 10_000) -> np.ndarray:
    """Return x with ||T x - x|| <= tol, by ``iterate`` from x0.

    The result is the orbit's second-to-last point, the one whose step
    residual passed.  When the budget runs out, FixedPointBudgetError
    carries the last iterate whose residual is known, with that
    residual; for a nonexpansive T (monotone operands) residuals never
    increase in exact arithmetic, so it is the least one up to rounding,
    and the iteration converges whenever T has a fixed point.  A
    non-finite iterate raises NonFinitePointError; ``iterate`` rejects
    max_iter < 1 and tol < 0 with ValueError.
    """
    try:
        orbit = iterate(T, x0, max_iter, tol, history_cap=4)
    except DivergenceError as exc:
        raise NonFinitePointError(str(exc)) from None
    if not orbit.converged:
        raise FixedPointBudgetError(
            f"no fixed point to tolerance {tol:.1e} within {max_iter} iterations "
            f"(best residual {orbit.final_residual:.3e})",
            orbit.governing[-2],
            orbit.final_residual,
        )
    return orbit.governing[-2]


def _require_fixed_point(first: Operator, second: Operator, f: np.ndarray,
                         fix_tol: float) -> None:
    residual = float(np.linalg.norm(dr_step(first, second, f) - f))
    if residual > fix_tol:
        raise CertificateError(
            f"not a fixed point: residual {residual:.3e} > {fix_tol:.1e}"
        )


def extract_solution(A: Operator, B: Operator, fixed_point, *,
                     fix_tol: float = TAU_GRAPH,
                     graph_tol: float = TAU_GRAPH) -> SolutionPair:
    """Split a fixed point f of the (A, B) operator into z = J_A f, k = f - z.

    Both graph certificates are validated; a failure signals that f was
    not a fixed point to sufficient accuracy.
    """
    f = as_point(fixed_point, A.dim)
    _require_fixed_point(A, B, f, fix_tol)
    z = A.resolve(f)
    k = f - z
    if not graph_contains(A, GraphPair(z, k), graph_tol):
        raise CertificateError("certificate (z, k) in gra A failed")
    if not graph_contains(B, GraphPair(z, -k), graph_tol):
        raise CertificateError("certificate (z, -k) in gra B failed")
    return SolutionPair(z=z, k=k)


def map_fixed_point(A: Operator, B: Operator, f, direction: str = "ab", *,
                    fix_tol: float = TAU_GRAPH) -> np.ndarray:
    """Carry a fixed point across orders by the matching reflector.

    direction "ab" maps Fix T_(A,B) -> Fix T_(B,A) via the first
    reflector; "ba" is the reverse map via the second reflector.  On a
    fixed point with solution pair (z, k) the image is z - k, and the
    two directions are mutually inverse isometries.
    """
    if direction not in ("ab", "ba"):
        raise ValueError("direction must be 'ab' or 'ba'")
    f = as_point(f, A.dim)
    reflector, partner = (A, B) if direction == "ab" else (B, A)
    _require_fixed_point(reflector, partner, f, fix_tol)
    return reflector.reflect(f)


def power_orbit(first: Operator, second: Operator, x: np.ndarray,
                n: int) -> list[np.ndarray]:
    """The points x, T x, ..., T^n x of T = T_(first, second), by dr_step."""
    orbit = [x]
    for _ in range(int(n)):
        orbit.append(dr_step(first, second, orbit[-1]))
    return orbit


def _worst_gap(left, right) -> float:
    """Largest ||l - r|| over paired points; 0 when there are none."""
    return max((float(np.linalg.norm(l - r)) for l, r in zip(left, right)),
               default=0.0)


@dataclass(eq=False)
class FixedPointCertificates:
    """Worst defects of the certificates over a list of fixed points.

    ``certificate`` is the worst graph defect ||J_A(z + k) - z|| or
    ||J_B(z - k) - z|| of the extracted pairs; ``bijection`` the worst
    round trip ||R_B R_A f - f|| or reflector image ||R_A f - (z - k)||;
    ``isometry`` the worst | ||R_A f - R_A g|| - ||f - g|| | over the
    pairs of distinct fixed points (0 for a single fixed point);
    ``dual`` the worst ||R_A(z + k) - (z - k)||, the defect that
    ``check_dual_symmetry`` reports for the same pairs.
    """

    pairs: list[SolutionPair]
    certificate: float
    bijection: float
    isometry: float
    dual: float


def certify_fixed_points(A: Operator, B: Operator, fixed: list[np.ndarray], *,
                         fix_tol: float = TAU_GRAPH,
                         graph_tol: float = TAU_GRAPH) -> FixedPointCertificates:
    """Extract the solution pair of each fixed point of T_ab and measure the
    certificates, the bijection/isometry of R_A between the fixed sets,
    and the transfer z + k -> z - k of each pair to the swapped order.

    Raises CertificateError when a pair cannot be extracted.
    """
    pairs = [extract_solution(A, B, f, fix_tol=fix_tol, graph_tol=graph_tol)
             for f in fixed]
    images = [A.reflect(f) for f in fixed]
    primal = [p.z for p in pairs]
    certificate = max(_worst_gap([A.resolve(p.z + p.k) for p in pairs], primal),
                      _worst_gap([B.resolve(p.z - p.k) for p in pairs], primal))
    bijection = max(_worst_gap([B.reflect(image) for image in images], fixed),
                    _worst_gap(images, [p.z - p.k for p in pairs]))
    isometry = max(
        (abs(float(np.linalg.norm(images[i] - images[j]))
             - float(np.linalg.norm(fixed[i] - fixed[j])))
         for i in range(len(fixed)) for j in range(i + 1, len(fixed))),
        default=0.0,
    )
    dual = _worst_gap([A.reflect(p.z + p.k) for p in pairs], [p.z - p.k for p in pairs])
    return FixedPointCertificates(pairs, certificate, bijection, isometry, dual)


def _require_subspace_first(A: Operator, identity: str) -> None:
    if not isinstance(A, NormalConeAffineSubspace):
        raise NotAffineError(
            f"{identity} requires an affine-subspace normal cone first operand"
        )


def check_commutation(A: Operator, B: Operator, x, n: int, *,
                      tol: float = TAU_NUM) -> IdentityReport:
    """Worst defect of R_A T_ab^m x = T_ba^m R_A x over 1 <= m <= n.

    Requires an affine first operand; the second may be a projector
    selection only when the first is an affine-subspace normal cone.
    """
    if not A.affine:
        raise NotAffineError("commutation requires an affine first operand")
    require_operands(A, B, generalized=True)
    x = as_point(x, A.dim)
    forward = power_orbit(A, B, x, n)[1:]
    reflected = power_orbit(B, A, A.reflect(x), n)[1:]
    worst = _worst_gap([A.reflect(f) for f in forward], reflected)
    return IdentityReport.from_violation("commutation", worst, int(n), tol)


def _conjugation_violation(A: Operator, B: Operator, x, n: int) -> float:
    x = as_point(x, A.dim)
    rx = A.reflect(x)
    conjugated_ab = [A.reflect(p) for p in power_orbit(A, B, rx, n)[1:]]
    conjugated_ba = [A.reflect(p) for p in power_orbit(B, A, rx, n)[1:]]
    return max(_worst_gap(power_orbit(B, A, x, n)[1:], conjugated_ab),
               _worst_gap(power_orbit(A, B, x, n)[1:], conjugated_ba))


def check_conjugation(A: Operator, B: Operator, x, n: int, *,
                      tol: float = TAU_NUM) -> IdentityReport:
    """Worst defect over m <= n of both conjugation identities

        T_ba^m x = R_A T_ab^m R_A x   and   T_ab^m x = R_A T_ba^m R_A x.

    The first operand must be an affine-subspace normal cone (so that
    its reflector is an involution); the second operand may also be a
    projector selection.
    """
    _require_subspace_first(A, "conjugation")
    worst = _conjugation_violation(A, B, x, n)
    return IdentityReport.from_violation("conjugation", worst, int(n), tol)


def probe_conjugation(A: Operator, B: Operator, x, n: int, *,
                      tol: float = TAU_NUM) -> IdentityReport:
    """Precondition-waived conjugation probe.

    Evaluates the same defect as check_conjugation without requiring an
    affine-subspace first operand.  This is the designated entry point
    for exhibiting counterexamples (e.g. a halfspace in the first slot);
    contract-honoring code paths should call check_conjugation instead.
    """
    worst = _conjugation_violation(A, B, x, n)
    return IdentityReport.from_violation("conjugation-probe", worst, int(n), tol)


def check_shadow_equality(A: Operator, B: Operator, x, n: int, *,
                          tol: float = TAU_NUM) -> IdentityReport:
    """Worst defect over m <= n of J_A T_ba^m x = J_A T_ab^m (R_A x)."""
    _require_subspace_first(A, "shadow equality")
    require_operands(A, B, generalized=True)
    x = as_point(x, A.dim)
    worst = _worst_gap([A.resolve(p) for p in power_orbit(B, A, x, n)],
                       [A.resolve(p) for p in power_orbit(A, B, A.reflect(x), n)])
    return IdentityReport.from_violation("shadow-equality", worst, int(n) + 1, tol)


def check_nonexpansive_transfer(A: Operator, B: Operator, x, y, *,
                                tol: float = TAU_NUM) -> IdentityReport:
    """Certify ||T_ab x - T_ab y|| = ||T_ba R_A x - T_ba R_A y|| <= ||R_A x - R_A y||.

    The report's violation is the worse of the equality defect and any
    excess over the inequality.  The inequality needs a nonexpansive
    T_ba, so B must be monotone.
    """
    _require_subspace_first(A, "nonexpansive transfer")
    require_operands(A, B)
    x = as_point(x, A.dim)
    y = as_point(y, A.dim)
    direct = float(np.linalg.norm(dr_step(A, B, x) - dr_step(A, B, y)))
    rx, ry = A.reflect(x), A.reflect(y)
    swapped = float(np.linalg.norm(dr_step(B, A, rx) - dr_step(B, A, ry)))
    bound = float(np.linalg.norm(rx - ry))
    violation = max(abs(direct - swapped), swapped - bound, 0.0)
    return IdentityReport.from_violation("nonexpansive-transfer", violation, 1, tol)


def check_commutator(A: Operator, B: Operator, x, *,
                     tol: float = TAU_NUM) -> IdentityReport:
    """Certify the affine-pair commutator identities at x.

    Checks 4(T_ab T_ba - T_ba T_ab) x = (R_B R_A^2 R_B - R_A R_B^2 R_A) x
    and the exchange T_ab R_B R_A x = R_B R_A T_ab x; when both operands
    are affine-subspace normal cones (reflectors are involutions) it
    additionally certifies that the two product orders coincide.
    """
    if not (A.affine and B.affine):
        raise NotAffineError("commutator requires affine operands")
    x = as_point(x, A.dim)
    ab_ba = dr_step(A, B, dr_step(B, A, x))
    ba_ab = dr_step(B, A, dr_step(A, B, x))
    lhs = 4.0 * (ab_ba - ba_ab)
    rhs = (B.reflect(A.reflect(A.reflect(B.reflect(x))))
           - A.reflect(B.reflect(B.reflect(A.reflect(x)))))
    violation = float(np.linalg.norm(lhs - rhs))

    exchange = float(np.linalg.norm(
        dr_step(A, B, B.reflect(A.reflect(x)))
        - B.reflect(A.reflect(dr_step(A, B, x)))
    ))
    violation = max(violation, exchange)

    if isinstance(A, NormalConeAffineSubspace) and isinstance(B, NormalConeAffineSubspace):
        violation = max(violation, float(np.linalg.norm(ab_ba - ba_ab)))
    return IdentityReport.from_violation("commutator", violation, 1, tol)


def check_defect_decomposition(A: Operator, B: Operator, x, *,
                               tol: float = TAU_NUM) -> IdentityReport:
    """Certify the unconditional decomposition of the commutation defect,

        (R_A T_ab - T_ba R_A) x = (2 J_A T_ab - J_A - J_A R_B R_A) x,

    which holds for arbitrary operand pairs (no affinity needed).
    """
    x = as_point(x, A.dim)
    tab = dr_step(A, B, x)
    lhs = A.reflect(tab) - dr_step(B, A, A.reflect(x))
    rhs = 2.0 * A.resolve(tab) - A.resolve(x) - A.resolve(B.reflect(A.reflect(x)))
    violation = float(np.linalg.norm(lhs - rhs))
    return IdentityReport.from_violation("defect-decomposition", violation, 1, tol)


def check_firmly_nonexpansive(T: Callable[[np.ndarray], np.ndarray], x, y) -> float:
    """The inner product <Tx - Ty, (Id - T)x - (Id - T)y>.

    Nonnegative for every firmly nonexpansive map; the caller interprets
    the sign.  ``T`` is any point-to-point callable (a SplitOperator, a
    bound resolvent, ...).
    """
    x = as_point(x)
    y = as_point(y)
    tx = as_point(T(x), x.shape[0])
    ty = as_point(T(y), y.shape[0])
    return float((tx - ty) @ ((x - tx) - (y - ty)))


def check_dual_symmetry(A: Operator, B: Operator,
                        pairs: Iterable[SolutionPair], *,
                        graph_tol: float = TAU_GRAPH,
                        tol: float = TAU_NUM) -> IdentityReport:
    """Certify that solution pairs for (A, B) transfer to the swapped order.

    For each (z, k) the primal z is order-invariant while the dual flips
    sign, so (z, -k) must certify for (B, A) through the same two graph
    memberships; on top of that, the reflector image of the fixed point
    z + k must equal z - k.  Certificate failures raise; the report's
    violation is the worst reflector-image defect.
    """
    worst = 0.0
    count = 0
    for pair in pairs:
        z = as_point(pair.z, A.dim)
        k = as_point(pair.k, A.dim)
        if not graph_contains(A, GraphPair(z, k), graph_tol):
            raise CertificateError("swapped-order certificate (z, k) in gra A failed")
        if not graph_contains(B, GraphPair(z, -k), graph_tol):
            raise CertificateError("swapped-order certificate (z, -k) in gra B failed")
        image = map_fixed_point(A, B, z + k, "ab", fix_tol=3.0 * graph_tol)
        worst = max(worst, float(np.linalg.norm(image - (z - k))))
        count += 1
    return IdentityReport.from_violation("dual-symmetry", worst, count, tol)
