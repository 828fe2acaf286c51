"""Fixed points, exchange-identity certification, and primal/dual extraction.

The reflected resolvent of the first operand maps the fixed point set of
the (A, B)-ordered splitting operator isometrically onto that of the
(B, A)-ordered one, with the second reflector as its inverse; on fixed
points it acts as z + k -> z - k, where z is the primal solution
(shadow of the fixed point) and k = f - z the dual solution.  The two
graph memberships of such a pair (z, k) and the defect of
z + k -> z - k are computed by one function (``_pair_defects``), from
one J_A(z + k) and one J_B(z - k), which every certificate reads: the
extraction, the fixed-point certificates, ``check_dual_symmetry`` and
``drorder run``.
The checkers in this module certify these statements pointwise, together
with the stronger commutation, conjugation, and shadow identities that
hold when the first operand is affine (or a normal cone of an affine
subspace), and the failure probes that show where they break.  Every
identity is evaluated for a whole batch of probe points at once, and
reads one table of the batch's operator words, which computes each of
them once, on its first read.  Most identities are formulas over words
in J_A, J_B, R_A, R_B, T_ab and T_ba applied to the probe points, such
as R_A T_ab - T_ba R_A.  The three orbit identities (commutation,
conjugation, shadow equality) all compare T_ab^m and T_ba^m started
from x and from R_A x; the table holds those probe orbits too, which
advance both orders together with one J_A and one J_B call per step.
The table (``_Words``) is the one evaluator of operator words outside
``iterate``'s loop: the fixed-point test and certificates read one
table per fixed point f (T_ab f, J_A f, R_A f and R_B R_A f), and
``drorder compare`` reads the orbits of the table of its start.

``report_config`` builds every report that ``drorder verify --config``
prints: the registry's reports on the config's probe points, then the
solution certificates of its fixed points, gated on the registry's
requirement table.  ``IDENTITIES`` is the one declaration of each
identity it reports through ``report_identities``: its defect at a
sample and the hypothesis on the operands (A, B) it holds under.  An
equality identity's defect is the differences lhs - rhs of its
equations, which ``Identity.violation(words, n)`` alone reduces to the
worst norm per sample (and per orbit step of an orbit identity), from
the word table of the samples; the three pairwise ones (two
inequalities and a norm equality) give their violation from the pair of
tables of the paired samples.  A report's sample count is the number of
violations it is handed.  The public ``check_*`` checkers build the
table of their point, evaluate the same entries and raise the error the
failed hypothesis declares: NotAffineError for a structural one,
MonotonicityError for an operand rule.

All checkers are pure; randomized callers can fan trials out across
workers and merge the reports by taking the worst violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .operators import (
    MonotonicityError,
    NormalConeAffineSubspace,
    NotAffineError,
    Operator,
    TAU_GRAPH,
    TAU_NUM,
    _graph_resolvent,
    _norm,
    _row_norms,
    as_point,
)
from .splitting import SplitOperator, _count, _finite, _require_same_dim, iterate

__all__ = [
    "FixedPointBudgetError",
    "CertificateError",
    "SolutionPair",
    "IdentityReport",
    "IDENTITIES",
    "report_identities",
    "report_config",
    "find_fixed_point",
    "extract_solution",
    "map_fixed_point",
    "FixedPointCertificates",
    "certify_fixed_points",
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
    def from_violation(cls, name: str, violations, tolerance: float) -> "IdentityReport":
        """The report of the violations, one per sample (a float, a list
        or an array of any shape; a sample of several terms has combined
        them): its sample count is their number.  This is the one place
        that takes the worst across samples: by numpy's max, so one nan
        makes the worst nan wherever it stands, and 0.0 when there are
        none."""
        violations = np.asarray(violations, dtype=float)
        worst = float(violations.max()) if violations.size else 0.0
        return cls(name, worst, violations.size, float(tolerance), bool(worst <= tolerance))

    def to_dict(self) -> dict:
        return dict(vars(self))


def find_fixed_point(T: SplitOperator, x0, tol: float = 1e-10,
                     max_iter: int = 10_000) -> np.ndarray:
    """Return x with ||T x - x|| <= tol, by ``iterate`` from x0.

    The result is a copy of the orbit's second-to-last point, the one
    whose step residual passed, and shares no memory with x0.  When the
    budget runs out, FixedPointBudgetError carries the last iterate
    whose residual is known, with that residual; for a nonexpansive T
    (monotone operands) residuals never increase in exact arithmetic,
    so it is the least one up to rounding, and the iteration converges
    whenever T has a fixed point.  A non-finite iterate raises
    ``iterate``'s DivergenceError, a NonFinitePointError that carries the
    orbit; ``iterate`` rejects a tol < 0 and a max_iter that is not an
    integer of at least 1 with ValueError.
    """
    orbit = iterate(T, x0, max_iter, tol, history_cap=4)
    point = orbit.governing[-2].copy()
    if not orbit.converged:
        raise FixedPointBudgetError(
            f"no fixed point to tolerance {tol:.1e} within {max_iter} iterations "
            f"(best residual {orbit.final_residual:.3e})",
            point,
            orbit.final_residual,
        )
    return point


def _require_fixed_point(w: _Words, fix_tol: float) -> None:
    """CertificateError unless the point f of the one-point table w is a
    fixed point of its T_ab to fix_tol, by the residual ||T_ab f - f||.

    As from ``dr_step``: operands of unequal dimension raise
    DimensionMismatchError, a non-finite R_A f or T_ab f raises
    NonFinitePointError, and overflow emits no numpy warning."""
    _require_same_dim(w.A, w.B)
    with np.errstate(over="ignore", invalid="ignore"):
        step = _finite(w("Tab"))
    residual = _norm(step - w())
    if not residual <= fix_tol:  # written so that a nan fix_tol fails it
        raise CertificateError(
            f"not a fixed point: residual {residual:.3e} > {fix_tol:.1e}"
        )


def _pair_defects(A: Operator, B: Operator, z, k, graph_tol: float | None = None,
                  name: str = "certificate"):
    """Yield the three defects of a solution pair (z, k) in turn, from one
    J_A(z + k) and one J_B(z - k): ||J_A(z + k) - z||, zero exactly when
    (z, k) in gra A; ||J_B(z - k) - z||, zero exactly when (z, -k) in
    gra B; and the dual defect ||R_A(z + k) - (z - k)||, how far R_A is
    from carrying the fixed point z + k of T_ab to the fixed point z - k
    of T_ba, with R_A(z + k) = 2 J_A(z + k) - (z + k) as
    ``Operator.reflect`` builds it.  Given graph_tol, a membership defect
    that is not within it raises CertificateError "<name> <membership>
    failed" before the next is computed."""
    resolved = []
    for op, u, member in ((A, k, "(z, k) in gra A"), (B, -k, "(z, -k) in gra B")):
        resolved.append(_graph_resolvent(op, z, u))
        defect = _norm(resolved[-1] - z)
        if graph_tol is not None and not defect <= graph_tol:
            raise CertificateError(f"{name} {member} failed")
        yield defect
    yield _norm(2.0 * resolved[0] - (z + k) - (z - k))


def _extract(A: Operator, B: Operator, fixed_point, fix_tol: float,
             graph_tol: float) -> tuple[_Words, SolutionPair, tuple[float, ...]]:
    """The word table of a fixed point f, its solution pair z = J_A f,
    k = f - z, and the pair's three defects (``_pair_defects``)."""
    w = _Words(A, B, as_point(fixed_point, A.dim))
    _require_fixed_point(w, fix_tol)
    z = w("JA")
    k = w() - z
    return w, SolutionPair(z=z, k=k), tuple(_pair_defects(A, B, z, k, graph_tol))


def extract_solution(A: Operator, B: Operator, fixed_point, *,
                     fix_tol: float = TAU_GRAPH,
                     graph_tol: float = TAU_GRAPH) -> SolutionPair:
    """Split a fixed point f of the (A, B) operator into z = J_A f, k = f - z.

    Both graph certificates are validated; a failure signals that f was
    not a fixed point to sufficient accuracy.
    """
    return _extract(A, B, fixed_point, fix_tol, graph_tol)[1]


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
    w = _Words(*((A, B) if direction == "ab" else (B, A)), as_point(f, A.dim))
    _require_fixed_point(w, fix_tol)
    return w("RA")


@dataclass(eq=False)
class FixedPointCertificates:
    """The defects of the certificates of a list of fixed points, one per
    sample, which ``IdentityReport.from_violation`` reduces.

    Per fixed point f, in order: ``certificate`` is the worse graph
    defect ||J_A(z + k) - z|| or ||J_B(z - k) - z|| of its pair
    (``_pair_defects``, which also gives ``drorder run`` its cert_a and
    cert_b); ``bijection`` the worse of the round trip ||R_B R_A f - f||
    and the reflector image ||R_A f - (z - k)||; ``dual``
    ||R_A(z + k) - (z - k)|| (the third defect of ``_pair_defects``),
    whose worst is the violation ``check_dual_symmetry`` reports for the
    same pairs, bit for bit.  ``isometry`` holds | ||R_A f - R_A g|| - ||f - g|| | per pair
    of distinct fixed points, i < j in order (none for a single one).
    """

    pairs: list[SolutionPair]
    certificate: list[float]
    bijection: list[float]
    isometry: list[float]
    dual: list[float]


def certify_fixed_points(A: Operator, B: Operator, fixed: list[np.ndarray], *,
                         fix_tol: float = TAU_GRAPH,
                         graph_tol: float = TAU_GRAPH) -> FixedPointCertificates:
    """Extract the solution pair of each fixed point of T_ab and measure the
    certificates, the bijection/isometry of R_A between the fixed sets,
    and the transfer z + k -> z - k of each pair to the swapped order:
    their defects per fixed point, or per pair of them for the isometry
    (``FixedPointCertificates``).

    Each fixed point f is read through its one-point word table
    (``_Words``): the fixed-point residual ||T_ab f - f||, z = J_A f,
    R_A f and R_B R_A f are its words, so f costs 4 validated
    ``resolve`` calls: J_A f, J_B R_A f, and the J_A(z + k) and
    J_B(z - k) of the two graph memberships, of which the first also
    gives the R_A(z + k) of the dual defect.

    Raises CertificateError when a pair cannot be extracted.
    """
    extracted = [_extract(A, B, f, fix_tol, graph_tol) for f in fixed]
    words, pairs = [w for w, _, _ in extracted], [p for _, p, _ in extracted]
    bijection = [np.maximum(_norm(w("RB", "RA") - w()), _norm(w("RA") - (p.z - p.k)))
                 for w, p in zip(words, pairs)]
    isometry = [abs(_norm(words[i]("RA") - words[j]("RA")) - _norm(words[i]() - words[j]()))
                for i in range(len(words)) for j in range(i + 1, len(words))]
    return FixedPointCertificates(pairs, [max(a, b) for *_, (a, b, _) in extracted], bijection,
                                  isometry, [dual for *_, (_, _, dual) in extracted])


def _certified_fixed_points(config) -> tuple[list[np.ndarray], FixedPointCertificates | None]:
    """The fixed points of T_ab that ``find_fixed_point`` reaches from a
    problem config's start points, in start order, skipping a start whose
    budget runs out; and their certificates, or None when a pair cannot
    be extracted."""
    T = config.split("ab")
    fixed = []
    for start in config.start_points:
        try:
            fixed.append(find_fixed_point(T, start, config.stop_tol, config.max_iter))
        except FixedPointBudgetError:
            continue
    try:
        return fixed, certify_fixed_points(config.operator_a, config.operator_b, fixed,
                                           fix_tol=3.0 * max(config.stop_tol, 1e-15),
                                           graph_tol=config.tolerances.tau_graph)
    except CertificateError:
        return fixed, None


def _certificate_reports(config) -> list[IdentityReport]:
    """The solution certificates of ``verify --config``, from the fixed
    points that ``_certified_fixed_points`` reaches: none when no start
    reaches one, a solution-certificates report of one inf per fixed
    point when a pair cannot be extracted, and otherwise each of the
    certificate, bijection, isometry and dual-symmetry reports of
    ``FixedPointCertificates`` that holds a violation (so no isometry for
    a single fixed point)."""
    tau = config.tolerances
    fixed, cert = _certified_fixed_points(config)
    if cert is None:
        return [IdentityReport.from_violation("solution-certificates",
                                              np.full(len(fixed), np.inf), tau.tau_graph)]
    rows = (("solution-certificates", cert.certificate, tau.tau_graph),
            ("fixed-point-bijection", cert.bijection, tau.tau_graph),
            ("fixed-point-isometry", cert.isometry, tau.tau_num),
            ("dual-symmetry", cert.dual, 3.0 * tau.tau_graph))
    return [IdentityReport.from_violation(*row) for row in rows if row[1]]


class _Words:
    """The operator words of one point or (N, d) batch x, each computed
    once, on its first read: ``w("RA", "Tab")`` is R_A T_ab x (the
    rightmost letter acts first), and ``w()`` is x itself.  It is the one
    evaluator of operator words outside ``iterate``'s loop: every
    identity, the probe orbits of ``verify`` and ``compare``, and the
    fixed-point certificates read a table.

    The letters are JA, JB, RA, RB, Tab and Tba.  A J word is one
    ``resolve`` call; R and T words are built from J words of the same
    table as ``Operator.reflect`` and ``dr_step`` build them, 2 J u - u
    and u - J_f u + J_s(R_f u), so every word keeps their bits.

    ``orbits(n)`` are the probe orbits T_ab^m s and T_ba^m s, 0 <= m <= n,
    of the starts s = x and s = R_A x (the table's RA word), computed on
    the first read: a read at a shallower depth takes their first n + 1
    steps, and only a deeper one computes them again.  Both orders
    advance the stacked starts [x; R_A x] in one loop.  Step m makes one
    J_A call on [ab_m; R_B ba_m] and one J_B call on [R_A ab_m;
    ba_(m+1)], whose second half is the J_B the next step needs, so the
    four orbits cost 2n + 2 resolve calls, the J_A of R_A x included (one
    when n = 0), each point computed by the expressions of ``dr_step``.
    Each has shape (n + 1, 2, *x.shape): index [m, 0] holds T^m x and
    [m, 1] holds T^m R_A x.  n is a count (``splitting._count``), so a
    negative, non-integral or non-finite n, a bool or a non-number raises
    ValueError.
    """

    def __init__(self, A: Operator, B: Operator, x: np.ndarray):
        self.A, self.B, self._values, self._orbits = A, B, {(): x}, None

    def __call__(self, *word: str) -> np.ndarray:
        if word not in self._values:
            self._values[word] = self._compute(word[0], word[1:])
        return self._values[word]

    def _compute(self, letter: str, rest: tuple[str, ...]) -> np.ndarray:
        u = self(*rest)
        if letter[0] == "J":
            return (self.A if letter == "JA" else self.B).resolve(u)
        if letter[0] == "R":
            return 2.0 * self("J" + letter[1], *rest) - u
        first, second = letter[1].upper(), letter[2].upper()
        return u - self("J" + first, *rest) + self("J" + second, "R" + first, *rest)

    def orbits(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        n = _count(n, "orbit depth n", 0)
        if self._orbits is None or len(self._orbits[0]) <= n:
            A, B, x = self.A, self.B, self()
            starts = np.stack([x, self("RA")]).reshape(-1, x.shape[-1])
            k, ab, ba = len(starts), [starts], [starts]
            jb = B.resolve(starts) if n else None
            for m in range(n):
                u, v = ab[-1], ba[-1]
                ja = A.resolve(np.concatenate([u, 2.0 * jb - v]))
                ba.append(v - jb + ja[k:])
                # with J_B of ba_(m+1), which the next step needs, if there is one
                jb = B.resolve(np.concatenate([2.0 * ja[:k] - u, *ba[m + 1:n]]))
                ab.append(u - ja[:k] + jb[:k])
                jb = jb[k:]
            shape = (n + 1, 2, *x.shape)
            self._orbits = np.reshape(ab, shape), np.reshape(ba, shape)
        return tuple(orbit[:n + 1] for orbit in self._orbits)


# The defect of each identity at a batch of samples, as a formula over the
# word table of an (N, d) array of points: the differences lhs - rhs of
# its equations, each (N, d), or (d,) for the table of one point; the
# pairwise ones instead give their violation, one per row, over the pair
# of tables of two such arrays (X, Y).  The orbit identities further
# below read the table's probe orbits instead.  Each holds only under the
# requirements its registry entry names.

def _defect_decomposition(w: _Words):
    # R_A T_ab - T_ba R_A = 2 J_A T_ab - J_A - J_A R_B R_A
    lhs = w("RA", "Tab") - w("Tba", "RA")
    return (lhs - (2.0 * w("JA", "Tab") - w("JA") - w("JA", "RB", "RA")),)


def _firm_product(tx, ty, x, y):
    """<Tx - Ty, (x - Tx) - (y - Ty)>, row by row for batches."""
    return np.vecdot(tx - ty, (x - tx) - (y - ty))


def _not_firm(pair: tuple[_Words, _Words], *word: str):
    """How far the firm-nonexpansiveness product of the map ``word`` falls
    below zero at the pairs: max(0, -product), written so that a zero
    product of either sign gives +0.0."""
    wx, wy = pair
    return 0.0 - np.minimum(_firm_product(wx(*word), wy(*word), wx(), wy()), 0.0)


def _nonexpansive_transfer(pair: tuple[_Words, _Words]):
    wx, wy = pair
    direct = _row_norms(wx("Tab") - wy("Tab"))
    swapped = _row_norms(wx("Tba", "RA") - wy("Tba", "RA"))
    return np.maximum(np.maximum(np.abs(direct - swapped),
                                 swapped - _row_norms(wx("RA") - wy("RA"))), 0.0)


def _bt_factorization(w: _Words):
    # T_ab T_ba = (T_ab R_A)^2 = R_A (T_ba T_ab) R_A
    composite = w("Tab", "Tba")
    return (composite - w("Tab", "RA", "Tab", "RA"), composite - w("RA", "Tba", "Tab", "RA"))


def _commutator(w: _Words):
    ab_ba, ba_ab = w("Tab", "Tba"), w("Tba", "Tab")
    rhs = w("RB", "RA", "RA", "RB") - w("RA", "RB", "RB", "RA")
    gaps = (4.0 * (ab_ba - ba_ab) - rhs, w("Tab", "RB", "RA") - w("RB", "RA", "Tab"))
    if _REQUIREMENTS[_SUBSPACE_BOTH][0](w.A, w.B):
        # reflectors are involutions, and the two product orders coincide
        gaps += (ab_ba - ba_ab,)
    return gaps


def _pointwise(f, points: np.ndarray) -> np.ndarray:
    """f applied to every point of an (..., d) stack, in one call."""
    return f(points.reshape(-1, points.shape[-1])).reshape(points.shape)


# The orbit identities, with signature (A, ab, ba): the defect at each
# sample and orbit step is a difference of the probe orbits (ab, ba)
# that ``_Words.orbits`` holds for the samples, one (steps, N, d) array
# per equation, and the R_A or J_A each one needs of orbit points is one
# call on all of them.

def _commutation(A: Operator, ab: np.ndarray, ba: np.ndarray):
    # R_A T_ab^m x = T_ba^m R_A x, 1 <= m <= n
    return (_pointwise(A.reflect, ab[1:, 0]) - ba[1:, 1],)


def _conjugation(A: Operator, ab: np.ndarray, ba: np.ndarray):
    # T_ba^m x = R_A T_ab^m R_A x and T_ab^m x = R_A T_ba^m R_A x, 1 <= m <= n
    conjugated = _pointwise(A.reflect, np.stack([ab[1:, 1], ba[1:, 1]]))
    return (ba[1:, 0] - conjugated[0], ab[1:, 0] - conjugated[1])


def _shadow_equality(A: Operator, ab: np.ndarray, ba: np.ndarray):
    # J_A T_ba^m x = J_A T_ab^m R_A x, 0 <= m <= n
    shadows = _pointwise(A.resolve, np.stack([ba[:, 0], ab[:, 1]]))
    return (shadows[0] - shadows[1],)


# The hypotheses of the identities, each a statement about the operands
# (A, B), keyed by the words that complete "<identity> requires ...",
# with the error a checker raises when it fails.  A non-monotone
# projector selection leaves T_ab not nonexpansive.
_REQUIREMENTS: dict[str, tuple[Callable[[Operator, Operator], bool], type[Exception]]] = {
    "an affine first operand": (lambda A, B: A.affine, NotAffineError),
    "an affine-subspace normal cone first operand":
        (lambda A, B: isinstance(A, NormalConeAffineSubspace), NotAffineError),
    "affine operands": (lambda A, B: A.affine and B.affine, NotAffineError),
    "affine-subspace normal cone operands": (lambda A, B: (
        isinstance(A, NormalConeAffineSubspace) and isinstance(B, NormalConeAffineSubspace)),
        NotAffineError),
    "monotone operands": (lambda A, B: A.monotone and B.monotone, MonotonicityError),
}
# names for the keys above, in table order
_AFFINE_FIRST, _SUBSPACE_FIRST, _AFFINE_BOTH, _SUBSPACE_BOTH, _MONOTONE = _REQUIREMENTS


@dataclass(frozen=True)
class Identity:
    """One identity of the registry: its report name, its violation at a
    batch of samples, and the hypothesis it holds under.

    ``violation(words, n)`` evaluates the violation at each row of the
    (N, d) array of points of the word table ``words`` (``_Words``), or,
    when ``pairwise``, at each pair of rows of a pair of tables (X, Y);
    a table of one point, shape (d,), or a pair of them, gives the one
    violation.  An orbit identity (``on_orbits``) holds at each orbit
    step too, so its violations have a leading step axis, shape (steps,
    N) or (steps,), with no entry when there are no steps.  ``n`` is the
    depth of the power identities.  ``defect`` reads the table: as
    ``defect(words)``, or, when ``on_orbits``, as ``defect(A, ab, ba)``
    from the table's probe orbits to depth n.  An equality identity's
    ``defect`` returns the differences lhs - rhs of its equations, a
    tuple of arrays shaped as the samples, with the step axis when
    ``on_orbits``; ``violation`` alone reduces them, to the largest norm
    (``_row_norms``) over the equations.  A pairwise identity's
    ``defect`` returns its violation.  A caller that evaluates several
    identities at the same samples hands each the same table, so each
    word and each orbit is computed once.  ``requires`` lists keys of
    the requirement table, checked in order, so a structural key listed
    first fails before an operand rule.
    """

    name: str
    defect: Callable[..., np.ndarray]
    requires: tuple[str, ...] = ()
    pairwise: bool = False
    on_orbits: bool = False

    def unmet(self, A: Operator, B: Operator) -> str | None:
        """The first requirement that (A, B) fails, or None."""
        return next((need for need in self.requires
                     if not _REQUIREMENTS[need][0](A, B)), None)

    def require(self, A: Operator, B: Operator) -> None:
        """Raise the error of the first requirement that (A, B) fails."""
        need = self.unmet(A, B)
        if need is not None:
            raise _REQUIREMENTS[need][1](f"{self.name} requires {need}")

    def violation(self, words, n: int):
        """The violation at each sample of the word table ``words``, or of
        the pair of tables of a pairwise identity."""
        gaps = self.defect(words.A, *words.orbits(n)) if self.on_orbits else self.defect(words)
        if self.pairwise:
            return gaps
        return np.max([_row_norms(gap) for gap in gaps], axis=0)

    @np.errstate(over="ignore")
    def check(self, A: Operator, B: Operator, sample, n: int, tol: float) -> IdentityReport:
        """The report at one sample, a point or a pair of points; the unmet
        requirement's error when one fails.  A squared norm that overflows
        is not a warning, as in ``drorder verify``: the norm falls back to
        its scaled form."""
        self.require(A, B)
        words = (tuple(_Words(A, B, as_point(p, A.dim)) for p in sample) if self.pairwise
                 else _Words(A, B, as_point(sample, A.dim)))
        return IdentityReport.from_violation(self.name, self.violation(words, n), tol)


# Every identity `verify --config` reports, in report order.
IDENTITIES: tuple[Identity, ...] = (
    Identity("dr-form-equivalence", lambda w: (w("Tab") - 0.5 * (w() + w("RB", "RA")),)),
    Identity("defect-decomposition", _defect_decomposition),
    Identity("dr-firmly-nonexpansive", lambda pair: _not_firm(pair, "Tab"), (_MONOTONE,),
             pairwise=True),
    Identity("commutation", _commutation, (_AFFINE_FIRST,), on_orbits=True),
    Identity("conjugation", _conjugation, (_SUBSPACE_FIRST,), on_orbits=True),
    Identity("shadow-equality", _shadow_equality, (_SUBSPACE_FIRST,), on_orbits=True),
    Identity("nonexpansive-transfer", _nonexpansive_transfer, (_SUBSPACE_FIRST, _MONOTONE),
             pairwise=True),
    Identity("bt-factorization", _bt_factorization, (_SUBSPACE_FIRST,)),
    Identity("commutator", _commutator, (_AFFINE_BOTH,)),
    Identity("bt-order-invariance", lambda w: (w("Tab", "Tba") - w("Tba", "Tab"),),
             (_SUBSPACE_BOTH,)),
    Identity("bt-half-sum", lambda w: (w("Tab", "Tba") - 0.5 * (w("Tab") + w("Tba")),),
             (_SUBSPACE_BOTH,)),
    Identity("bt-firmly-nonexpansive", lambda pair: _not_firm(pair, "Tab", "Tba"),
             (_SUBSPACE_BOTH,), pairwise=True),
)
_IDENTITY = {identity.name: identity for identity in IDENTITIES}


def report_identities(A: Operator, B: Operator, points: np.ndarray, n: int,
                      tol: float) -> list[IdentityReport]:
    """The report of every identity of ``IDENTITIES`` whose requirements
    (A, B) meet, in registry order, worst case over an (N, d) batch of
    probe points, and over the orbit steps for the orbit identities;
    consecutive points (the last with the first) pair up for the pairwise
    ones.

    Every identity reads one word table of the points and one of the
    paired points, so each operator word, and the probe orbits of the
    points, are computed once, on their first read.  Nothing is kept
    past the call.
    """
    pair = (_Words(A, B, points), _Words(A, B, np.roll(points, -1, axis=0)))
    return [IdentityReport.from_violation(identity.name, identity.violation(
                pair if identity.pairwise else pair[0], n), tol)
            for identity in IDENTITIES if identity.unmet(A, B) is None]


def _probe_points(config, seed: int) -> np.ndarray:
    """The probe points of ``verify --config``: the start points, then 10
    points drawn from N(0, 4 I) with the given seed."""
    rng = np.random.default_rng(seed)
    return np.array([*config.start_points,
                     *(rng.normal(0.0, 2.0, config.dimension) for _ in range(10))])


def report_config(config, seed: int, n: int) -> list[IdentityReport]:
    """Every report of ``drorder verify --config``, in print order.

    First ``report_identities`` on the probe points (``_probe_points``)
    at depth n with the config's tau_num; then, when the operands meet
    the requirement "monotone operands" of the registry's table, which
    the graph certificates need, the solution certificates of the fixed
    points the start points reach (``_certificate_reports``).
    """
    a, b = config.operator_a, config.operator_b
    reports = report_identities(a, b, _probe_points(config, seed), n,
                                config.tolerances.tau_num)
    if _REQUIREMENTS[_MONOTONE][0](a, b):
        reports.extend(_certificate_reports(config))
    return reports


def check_commutation(A: Operator, B: Operator, x, n: int, *,
                      tol: float = TAU_NUM) -> IdentityReport:
    """Worst defect of R_A T_ab^m x = T_ba^m R_A x over 1 <= m <= n.

    Requires an affine first operand, and holds for any single-valued
    J_B, a projector selection included.
    """
    return _IDENTITY["commutation"].check(A, B, x, n, tol)


def check_conjugation(A: Operator, B: Operator, x, n: int, *,
                      tol: float = TAU_NUM) -> IdentityReport:
    """Worst defect over m <= n of both conjugation identities

        T_ba^m x = R_A T_ab^m R_A x   and   T_ab^m x = R_A T_ba^m R_A x.

    The first operand must be an affine-subspace normal cone (so that
    its reflector is an involution); the second operand may also be a
    projector selection.
    """
    return _IDENTITY["conjugation"].check(A, B, x, n, tol)


@np.errstate(over="ignore")
def probe_conjugation(A: Operator, B: Operator, x, n: int, *,
                      tol: float = TAU_NUM) -> IdentityReport:
    """Precondition-waived conjugation probe.

    Evaluates the same defect as check_conjugation without requiring an
    affine-subspace first operand.  This is the designated entry point
    for exhibiting counterexamples (e.g. a halfspace in the first slot);
    contract-honoring code paths should call check_conjugation instead.
    Overflow is silenced as in ``Identity.check``.
    """
    violation = _IDENTITY["conjugation"].violation(_Words(A, B, as_point(x, A.dim)), n)
    return IdentityReport.from_violation("conjugation-probe", violation, tol)


def check_shadow_equality(A: Operator, B: Operator, x, n: int, *,
                          tol: float = TAU_NUM) -> IdentityReport:
    """Worst defect over m <= n of J_A T_ba^m x = J_A T_ab^m (R_A x)."""
    return _IDENTITY["shadow-equality"].check(A, B, x, n, tol)


def check_nonexpansive_transfer(A: Operator, B: Operator, x, y, *,
                                tol: float = TAU_NUM) -> IdentityReport:
    """Certify ||T_ab x - T_ab y|| = ||T_ba R_A x - T_ba R_A y|| <= ||R_A x - R_A y||.

    The report's violation is the worse of the equality defect and any
    excess over the inequality.  The inequality needs a nonexpansive
    T_ba, so B must be monotone.
    """
    return _IDENTITY["nonexpansive-transfer"].check(A, B, (x, y), 0, tol)


def check_commutator(A: Operator, B: Operator, x, *,
                     tol: float = TAU_NUM) -> IdentityReport:
    """Certify the affine-pair commutator identities at x.

    Checks 4(T_ab T_ba - T_ba T_ab) x = (R_B R_A^2 R_B - R_A R_B^2 R_A) x
    and the exchange T_ab R_B R_A x = R_B R_A T_ab x; when both operands
    are affine-subspace normal cones (reflectors are involutions) it
    additionally certifies that the two product orders coincide.
    """
    return _IDENTITY["commutator"].check(A, B, x, 0, tol)


def check_defect_decomposition(A: Operator, B: Operator, x, *,
                               tol: float = TAU_NUM) -> IdentityReport:
    """Certify the unconditional decomposition of the commutation defect,

        (R_A T_ab - T_ba R_A) x = (2 J_A T_ab - J_A - J_A R_B R_A) x,

    which holds for arbitrary operand pairs (no affinity needed).
    """
    return _IDENTITY["defect-decomposition"].check(A, B, x, 0, tol)


def check_firmly_nonexpansive(T: Callable[[np.ndarray], np.ndarray], x, y) -> float:
    """The inner product <Tx - Ty, (Id - T)x - (Id - T)y>.

    Nonnegative for every firmly nonexpansive map; the caller interprets
    the sign.  ``T`` is any point-to-point callable (a SplitOperator, a
    bound resolvent, ...).  The product is a squared quantity, not a
    norm: it overflows to inf once ||x - y|| passes about 1e154.
    """
    x = as_point(x)
    y = as_point(y)
    return float(_firm_product(as_point(T(x), x.shape[0]), as_point(T(y), y.shape[0]),
                               x, y))


@np.errstate(over="ignore")
def check_dual_symmetry(A: Operator, B: Operator,
                        pairs: Iterable[SolutionPair], *,
                        graph_tol: float = TAU_GRAPH,
                        tol: float = TAU_NUM) -> IdentityReport:
    """Certify that solution pairs for (A, B) transfer to the swapped order.

    For each (z, k) the primal z is order-invariant while the dual flips
    sign, so (z, -k) must certify for (B, A) through the same two graph
    memberships; on top of that, the reflector image of the fixed point
    z + k must equal z - k.  A membership not within graph_tol raises
    CertificateError, pair by pair.

    No fixed-point test of z + k follows, since the memberships bound
    it: they need monotone A and B, and then, with u = z + k and
    e = J_A u - z, the step of T_ab from u moves the argument of J_B
    from z - k by 2 e, so firm nonexpansiveness of J_B gives
    ||T_ab u - u|| <= ||e|| + ||J_B(z - k) - z|| <= 2 graph_tol.

    The report's violation is the worst reflector-image defect,
    computed as ``FixedPointCertificates.dual`` is.  Overflow is silenced
    as in ``Identity.check``.
    """
    duals = []
    for pair in pairs:
        z, k = as_point(pair.z, A.dim), as_point(pair.k, A.dim)
        # both memberships, raising at the first that fails, then the dual
        *_, dual = _pair_defects(A, B, z, k, graph_tol, "swapped-order certificate")
        duals.append(dual)
    return IdentityReport.from_violation("dual-symmetry", duals, tol)
