"""Order-dependent Douglas-Rachford splitting operators and their iteration.

For an ordered operator pair (A, B) the splitting operator is

    T = (Id + R_B R_A) / 2 = Id - J_A + J_B R_A,

which depends on the order of the operands even though the underlying
zero-of-the-sum problem does not.  This module builds T for either
order, the composite T_ab o T_ba used by cyclic two-set methods, the
affine form x -> M x + b of T when both operands are affine (read off T
at the basis points 0, e_1, ..., e_d, which the operands' ``affine``
flags make valid), the governing/shadow iteration, and the
product-space lift that turns an m-operator sum into a two-operator
problem with an affine-subspace first operand.  ``SplitOperator.apply``
is the one evaluation of T, on a point or an (N, d) batch; ``dr_matrix``
and the composite steps of ``iterate`` call it.

Production evaluation uses the Id - J_A + J_B R_A form (two resolvent
calls and one reflection); agreement with the half-sum form is part of
the test suite.  ``iterate`` evaluates J_first once per step: the shadow
J_A x_n it records is the J_A x_n that the next step needs.

Step checks in ``iterate``: x0 is validated once, on entry; each
resolvent validates the point it receives, the reflected point
2 J x - x included; the next iterate x_{n+1} is tested only when its
residual is not finite (a finite residual from a finite x_n proves it
finite); and the last shadow is tested once, after the loop.  Overflow
anywhere in the loop, the shadow resolves included, ends as a
DivergenceError and emits no numpy warning.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np

from .operators import (
    BlockSeparable,
    DimensionMismatchError,
    MonotonicityError,
    NonFinitePointError,
    NotAffineError,
    NormalConeAffineSubspace,
    Operator,
    _as_points,
    _require_operator,
    as_point,
)

__all__ = [
    "FORM_DR",
    "FORM_BORWEIN_TAM",
    "DivergenceError",
    "SplitOperator",
    "Orbit",
    "BlockSeparable",
    "LiftedProblem",
    "dr_step",
    "require_operands",
    "dr_matrix",
    "iterate",
    "lift",
]

FORM_DR = "dr"
FORM_BORWEIN_TAM = "borwein_tam"

DEFAULT_MAX_ITER = 10_000
DEFAULT_STOP_TOL = 1e-10
DEFAULT_HISTORY_CAP = 10_000


class DivergenceError(RuntimeError):
    """An iterate, or the last shadow, stopped being finite; ``orbit``
    holds the governing points that are finite."""

    def __init__(self, message: str, orbit: "Orbit"):
        super().__init__(message)
        self.orbit = orbit


def dr_step(first: Operator, second: Operator, x: np.ndarray,
            jx: np.ndarray | None = None) -> np.ndarray:
    """One application of x - J_first x + J_second(2 J_first x - x), to a
    point or, row by row, to an (N, d) batch.

    ``jx``, when given, is J_first x already evaluated; it is used in
    place of a second evaluation.

    No slot validation is performed here; contract checking lives in
    SplitOperator.  This entry point exists because several identities
    need the swapped or generalized operator even when that combination
    is not constructible as a validated SplitOperator.
    """
    if jx is None:
        jx = first.resolve(x)
    return x - jx + second.resolve(2.0 * jx - x)


def require_operands(first: Operator, second: Operator,
                     generalized: bool = False) -> None:
    """The operand rule of the splitting operator.

    Both operands must be monotone; in generalized mode one slot may
    instead hold a non-monotone projector selection, provided the other
    slot is a normal cone of an affine subspace (the only setting in
    which the orbit-exchange identities survive without monotonicity).
    Raises MonotonicityError otherwise.
    """
    for slot, op, partner in (("first", first, second), ("second", second, first)):
        if op.monotone:
            continue
        if not generalized:
            raise MonotonicityError(
                f"{slot} operand {op.kind!r} is not monotone; non-monotone "
                "selections need generalized mode with an affine-subspace partner"
            )
        if not isinstance(partner, NormalConeAffineSubspace):
            raise MonotonicityError(
                f"{slot} operand {op.kind!r} is not monotone and its partner "
                "is not an affine-subspace normal cone"
            )


class SplitOperator:
    """An evaluable splitting operator over an ordered operand pair.

    form "dr" is the operator above; form "borwein_tam" is the composite
    that first applies the swapped-order operator and then the stated
    one, i.e. x -> T_(first,second) (T_(second,first) x).

    The operands must satisfy ``require_operands``.
    """

    def __init__(self, first: Operator, second: Operator,
                 form: str = FORM_DR, generalized: bool = False):
        if first.dim != second.dim:
            raise DimensionMismatchError(
                f"operand dimensions differ: {first.dim} vs {second.dim}"
            )
        if form not in (FORM_DR, FORM_BORWEIN_TAM):
            raise ValueError(f"unknown form {form!r}")
        require_operands(first, second, generalized)
        self.first = first
        self.second = second
        self.form = form
        self.generalized = generalized
        self.dim = first.dim

    def apply(self, x) -> np.ndarray:
        """T x for a point, or row by row for an (N, d) batch."""
        x = _as_points(x, self.dim)
        first, second = self.first, self.second
        if self.form == FORM_DR:
            return dr_step(first, second, x)
        return dr_step(first, second, dr_step(second, first, x))

    __call__ = apply

    def shadow(self, x) -> np.ndarray:
        """Resolvent of the first slot, the shadow map of the iteration;
        row by row for an (N, d) batch."""
        return self.first.resolve(_as_points(x, self.dim))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SplitOperator({self.first.kind}, {self.second.kind}, "
                f"form={self.form!r}, generalized={self.generalized})")


def _affine_form(f, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(M, b) with f x = M x + b, for an affine f on R^dim that maps an
    (N, dim) batch row by row: one call on the rows [0; e_1 ... e_dim]
    gives b = f 0 and the columns M e_i = f e_i - f 0.

    Nothing here checks that f is affine; for any other f the result
    is wrong and no error is raised.
    """
    rows = f(np.eye(dim + 1, dim, -1))
    return (rows[1:] - rows[0]).T, rows[0]


def dr_matrix(T: SplitOperator) -> tuple[np.ndarray, np.ndarray]:
    """Affine form (M, b) with T x = M x + b, read off T itself.

    One batched ``T.apply`` at [0; e_1 ... e_d] (``_affine_form``).
    The reading is valid because both operands are affine; their
    ``affine`` flags are the only claim of that, and the NotAffineError
    raised otherwise comes before any resolvent is evaluated.
    """
    if not (T.first.affine and T.second.affine):
        raise NotAffineError("dr_matrix requires affine operands")
    return _affine_form(T.apply, T.dim)


@dataclass(eq=False)
class Orbit:
    """Recorded trace of the iteration x, Tx, T^2 x, ...

    ``steps`` maps recorded rows to iteration numbers; when the history
    cap truncates a long run only a head and a rolling tail of points
    are kept (``truncated`` is then set) while ``residuals`` always
    holds the full scalar history, residuals[n] = ||x_{n+1} - x_n||, as
    a float64 array from ``iterate``.  ``shadow`` holds the first slot's
    resolvent of each recorded governing point and is recomputable from
    it.  A kept row is the step's own two arrays, x_{n+1} and
    J_first x_{n+1}; a step past the history cap costs 8 bytes, its
    residual.
    """

    steps: list[int]
    governing: list[np.ndarray]
    shadow: list[np.ndarray]
    residuals: np.ndarray
    iterations: int
    converged: bool
    truncated: bool = False

    @property
    def final(self) -> np.ndarray:
        return self.governing[-1]

    @property
    def final_shadow(self) -> np.ndarray:
        return self.shadow[-1]

    @property
    def final_residual(self) -> float:
        """The last residual, a Python float; nan when no step completed,
        as when the first step diverges."""
        return float(self.residuals[-1]) if len(self.residuals) else math.nan

    def write_csv(self, path) -> None:
        """Write rows `n, x_1..x_d, shadow_1..shadow_d, residual`.

        Floats carry 17 significant digits; the residual cell of the
        last recorded step is empty when no successor was computed.
        """
        residuals = self.residuals
        _write_rows(path, self.governing[0].shape[0], ("x", "shadow", "residual"),
                    ((n, x, jx, float(residuals[n]) if n < len(residuals) else None)
                     for n, x, jx in zip(self.steps, self.governing, self.shadow)))


def _write_rows(path, d: int, names: tuple[str, str, str], rows) -> None:
    """Write the CSV rows `n, u_1..u_d, v_1..v_d, s` for ``names`` = (u, v, s).

    Each row is (n, u, v, s) with d-vectors u, v and a float s, or None
    for an empty cell.  Floats carry 17 significant digits.  No cell
    needs quoting, so rows are joined directly, with the CRLF line ends
    of the csv module's default dialect.
    """
    u, v, s = names
    vectors = ",".join(["%.17g"] * (2 * d))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["n", *(f"{u}_{i + 1}" for i in range(d)),
                           *(f"{v}_{i + 1}" for i in range(d)), s]) + "\r\n")
        fh.writelines(f"{n},{vectors % (*left, *right)},"
                      f"{'' if scalar is None else format(scalar, '.17g')}\r\n"
                      for n, left, right, scalar in rows)


def iterate(T: SplitOperator, x0, max_iter: int = DEFAULT_MAX_ITER,
            stop_tol: float = DEFAULT_STOP_TOL,
            history_cap: int = DEFAULT_HISTORY_CAP) -> Orbit:
    """Iterate T from x0, recording governing and shadow sequences.

    J_first is evaluated once per step: the shadow J_first x_n recorded
    for x_n is, in form "dr", the J_first x_n of the step from x_n.
    Stops early once the governing residual ||x_{n+1} - x_n|| drops to
    ``stop_tol`` (marking the orbit converged).

    Step checks: x0 is validated on entry (in form "borwein_tam", where
    the step is ``T.apply``, each x_n is), and every resolvent validates
    the point it receives, which covers the reflected point 2 J x - x of
    each half step.  x_n is finite, so x_{n+1} is finite exactly when
    ||x_{n+1} - x_n|| is; the loop tests x_{n+1} itself only when that
    residual is inf or nan, and a finite step whose squared length
    overflows goes on with residual inf.  The last shadow is tested
    once, after the loop.  A non-finite iterate raises DivergenceError
    "non-finite iterate at step n", a non-finite last shadow
    "non-finite shadow at step n"; either carries the orbit so far.
    Overflow inside the loop, the shadow resolves included, emits no
    numpy warning.

    Bookkeeping: a step's residual goes into one float64 array, 8 bytes
    a step, which ``Orbit.residuals`` views without a copy.  A kept row
    is the step's own x_{n+1} and J_first x_{n+1}, with no tuple or step
    number of its own: the first history_cap // 2 rows in two lists,
    the last history_cap - history_cap // 2 in two bounded deques, and
    ``steps`` and ``truncated`` are derived from the residual count and
    the caps.  Past the cap a step holds its 8 bytes and nothing else.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if stop_tol < 0.0:
        raise ValueError("stop_tol must be nonnegative")
    if history_cap < 4:
        raise ValueError("history_cap must be at least 4")

    x = as_point(x0, T.dim)
    first, second = T.first, T.second
    dr_form = T.form == FORM_DR
    head_cap = history_cap // 2
    tail_cap = history_cap - head_cap
    # a kept row is the step's own x and J_first x, one in each sequence;
    # past the head, the tail deques drop their oldest row
    head_x: list[np.ndarray] = []
    head_jx: list[np.ndarray] = []
    tail_x, tail_jx = deque(maxlen=tail_cap), deque(maxlen=tail_cap)
    residuals = array("d")
    converged = False
    n = 0

    def assemble() -> Orbit:
        kept = len(residuals) + 1  # x_0 and each x_{n+1} with a residual
        return Orbit(
            steps=[*range(len(head_x)), *range(kept - len(tail_x), kept)],
            governing=head_x + list(tail_x),
            shadow=head_jx + list(tail_jx),
            residuals=np.frombuffer(residuals),
            iterations=n,
            converged=converged,
            truncated=kept > history_cap,
        )

    # intermediate overflow surfaces as a non-finite point error or a
    # non-finite residual; both cases are a diverging orbit
    with np.errstate(over="ignore", invalid="ignore"):
        jx = first.resolve(x)
        head_x.append(x)
        head_jx.append(jx)
        while n < max_iter:
            try:
                x_next = dr_step(first, second, x, jx) if dr_form else T.apply(x)
            except NonFinitePointError:
                n += 1
                raise DivergenceError(f"non-finite iterate at step {n}",
                                      assemble()) from None
            n += 1
            d = x_next - x
            # sqrt(<d, d>) is what np.linalg.norm computes for a real vector
            residual = math.sqrt(d.dot(d))
            if not residual < math.inf and not np.isfinite(x_next).all():
                raise DivergenceError(f"non-finite iterate at step {n}", assemble())
            residuals.append(residual)
            jx = first.resolve(x_next)
            if len(head_x) < head_cap:
                head_x.append(x_next)
                head_jx.append(jx)
            else:
                tail_x.append(x_next)
                tail_jx.append(jx)
            x = x_next
            if residual <= stop_tol:
                converged = True
                break
    if not np.isfinite(jx).all():
        raise DivergenceError(f"non-finite shadow at step {n}", assemble())
    return assemble()


@dataclass(eq=False)
class LiftedProblem:
    """Product-space form of an m-operator sum problem.

    ``diagonal`` is the normal cone of the diagonal subspace of R^{md}
    (its projection averages the m blocks and broadcasts the mean) and
    ``product`` applies the member resolvents blockwise.  Because the
    diagonal is an affine subspace, every first-slot-affine identity
    applies to the lifted pair.
    """

    ops: list[Operator]
    base_dim: int
    copies: int
    diagonal: NormalConeAffineSubspace
    product: BlockSeparable

    def embed(self, x) -> np.ndarray:
        """Tile a base-space point into the product space."""
        return np.tile(as_point(x, self.base_dim), self.copies)

    def blocks(self, y) -> np.ndarray:
        """View a product-space point as (copies, base_dim) rows."""
        return as_point(y, self.base_dim * self.copies).reshape(self.copies, self.base_dim)

    def average(self, y) -> np.ndarray:
        """Mean of the blocks; the base-space reading of a lifted point."""
        return self.blocks(y).mean(axis=0)

    def split(self, form: str = FORM_DR) -> SplitOperator:
        """The lifted splitting operator with the diagonal in the first slot."""
        return SplitOperator(self.diagonal, self.product, form)


def lift(ops, dim: int) -> LiftedProblem:
    """Lift m >= 2 monotone operators on R^dim to a two-operator problem.

    The first lifted operand is the normal cone of the diagonal
    subspace, the second the blockwise product of the members.
    """
    ops = list(ops)
    if len(ops) < 2:
        raise ValueError("lift requires at least two operators")
    for op in ops:
        _require_operator(op)
        if op.dim != dim:
            raise DimensionMismatchError(
                f"operator of dimension {op.dim} does not live on R^{dim}"
            )
        if not op.monotone:
            raise MonotonicityError("lift requires monotone members")
    m = len(ops)
    # m stacked copies of I / sqrt(m): an orthonormal basis of the diagonal
    basis = np.tile(np.eye(dim) / np.sqrt(m), (m, 1))
    diagonal = NormalConeAffineSubspace(np.zeros(m * dim), basis)
    product = BlockSeparable(ops)
    return LiftedProblem(ops=ops, base_dim=dim, copies=m,
                         diagonal=diagonal, product=product)
