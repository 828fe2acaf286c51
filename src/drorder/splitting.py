"""Order-dependent Douglas-Rachford splitting operators and their iteration.

For an ordered operator pair (A, B) the splitting operator is

    T = (Id + R_B R_A) / 2 = Id - J_A + J_B R_A,

which depends on the order of the operands even though the underlying
zero-of-the-sum problem does not.  This module builds T for either
order, the composite T_ab o T_ba used by cyclic two-set methods, the
closed affine form when both operands are affine, the governing/shadow
iteration, and the product-space lift that turns an m-operator sum into
a two-operator problem with an affine-subspace first operand.

Production evaluation uses the Id - J_A + J_B R_A form (two resolvent
calls and one reflection); agreement with the half-sum form is part of
the test suite.
"""

from __future__ import annotations

import csv
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
    """An iterate stopped being finite; ``orbit`` holds the finite prefix."""

    def __init__(self, message: str, orbit: "Orbit"):
        super().__init__(message)
        self.orbit = orbit


def dr_step(first: Operator, second: Operator, x: np.ndarray) -> np.ndarray:
    """One application of x - J_first x + J_second(2 J_first x - x).

    No slot validation is performed here; contract checking lives in
    SplitOperator.  This entry point exists because several identities
    need the swapped or generalized operator even when that combination
    is not constructible as a validated SplitOperator.
    """
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

    def swapped(self) -> "SplitOperator":
        """The same form with the operand order exchanged."""
        return SplitOperator(self.second, self.first, self.form, self.generalized)

    def apply(self, x) -> np.ndarray:
        x = as_point(x, self.dim)
        if self.form == FORM_DR:
            return dr_step(self.first, self.second, x)
        return dr_step(self.first, self.second, dr_step(self.second, self.first, x))

    __call__ = apply

    def shadow(self, x) -> np.ndarray:
        """Resolvent of the first slot; the shadow map of the iteration."""
        return self.first.resolve(as_point(x, self.dim))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SplitOperator({self.first.kind}, {self.second.kind}, "
                f"form={self.form!r}, generalized={self.generalized})")


def _dr_affine(first: Operator, second: Operator) -> tuple[np.ndarray, np.ndarray]:
    ca, ba = first.resolvent_affine_map()
    cb, bb = second.resolvent_affine_map()
    eye = np.eye(first.dim)
    refl = 2.0 * ca - eye
    refl_off = 2.0 * ba
    matrix = eye - ca + cb @ refl
    offset = -ba + cb @ refl_off + bb
    return matrix, offset


def dr_matrix(T: SplitOperator) -> tuple[np.ndarray, np.ndarray]:
    """Closed affine form (M, b) with T x = M x + b.

    Requires both operands to be affine catalog members.
    """
    if not (T.first.affine and T.second.affine):
        raise NotAffineError("dr_matrix requires affine operands")
    if T.form == FORM_DR:
        return _dr_affine(T.first, T.second)
    m_ab, b_ab = _dr_affine(T.first, T.second)
    m_ba, b_ba = _dr_affine(T.second, T.first)
    return m_ab @ m_ba, m_ab @ b_ba + b_ab


@dataclass(eq=False)
class Orbit:
    """Recorded trace of the iteration x, Tx, T^2 x, ...

    ``steps`` maps recorded rows to iteration numbers; when the history
    cap truncates a long run only a head and a rolling tail of points
    are kept (``truncated`` is then set) while ``residuals`` always
    holds the full scalar history, residuals[n] = ||x_{n+1} - x_n||.
    ``shadow`` holds the first slot's resolvent of each recorded
    governing point and is recomputable from it.
    """

    steps: list[int]
    governing: list[np.ndarray]
    shadow: list[np.ndarray]
    residuals: list[float]
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
        return self.residuals[-1] if self.residuals else 0.0

    def write_csv(self, path) -> None:
        """Write rows `n, x_1..x_d, shadow_1..shadow_d, residual`.

        Floats carry 17 significant digits; the residual cell of the
        last recorded step is empty when no successor was computed.
        """
        d = self.governing[0].shape[0]
        header = (["n"]
                  + [f"x_{i + 1}" for i in range(d)]
                  + [f"shadow_{i + 1}" for i in range(d)]
                  + ["residual"])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row, n in enumerate(self.steps):
                res = format(self.residuals[n], ".17g") if n < len(self.residuals) else ""
                writer.writerow(
                    [n]
                    + [format(v, ".17g") for v in self.governing[row]]
                    + [format(v, ".17g") for v in self.shadow[row]]
                    + [res]
                )


def iterate(T: SplitOperator, x0, max_iter: int = DEFAULT_MAX_ITER,
            stop_tol: float = DEFAULT_STOP_TOL,
            history_cap: int = DEFAULT_HISTORY_CAP) -> Orbit:
    """Iterate T from x0, recording governing and shadow sequences.

    Stops early once the governing residual ||x_{n+1} - x_n|| drops to
    ``stop_tol`` (marking the orbit converged).  A non-finite iterate
    raises DivergenceError carrying the orbit of the finite prefix.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if stop_tol < 0.0:
        raise ValueError("stop_tol must be nonnegative")
    if history_cap < 4:
        raise ValueError("history_cap must be at least 4")

    x = as_point(x0, T.dim)
    head_cap = history_cap // 2
    tail_cap = history_cap - head_cap
    head: list[tuple[int, np.ndarray, np.ndarray]] = [(0, x, T.shadow(x))]
    tail: deque = deque(maxlen=tail_cap)
    tail_seen = 0
    residuals: list[float] = []
    converged = False
    n = 0

    def assemble() -> Orbit:
        rows = head + list(tail)
        return Orbit(
            steps=[r[0] for r in rows],
            governing=[r[1] for r in rows],
            shadow=[r[2] for r in rows],
            residuals=residuals,
            iterations=n,
            converged=converged,
            truncated=tail_seen > tail_cap,
        )

    while n < max_iter:
        # intermediate overflow inside the step surfaces as a non-finite
        # point error; both cases are a diverging orbit
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                x_next = T.apply(x)
                residual = float(np.linalg.norm(x_next - x))
        except NonFinitePointError:
            n += 1
            raise DivergenceError(f"non-finite iterate at step {n}",
                                  assemble()) from None
        n += 1
        if not np.all(np.isfinite(x_next)):
            raise DivergenceError(f"non-finite iterate at step {n}", assemble())
        residuals.append(residual)
        record = (n, x_next, T.shadow(x_next))
        if len(head) < head_cap:
            head.append(record)
        else:
            tail.append(record)
            tail_seen += 1
        x = x_next
        if residuals[-1] <= stop_tol:
            converged = True
            break

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
        if op.dim != dim:
            raise DimensionMismatchError(
                f"operator of dimension {op.dim} does not live on R^{dim}"
            )
        if not op.monotone:
            raise MonotonicityError("lift requires monotone members")
    m = len(ops)
    basis = np.zeros((m * dim, dim))
    scale = 1.0 / np.sqrt(m)
    for i in range(m):
        for j in range(dim):
            basis[i * dim + j, j] = scale
    diagonal = NormalConeAffineSubspace(np.zeros(m * dim), basis)
    product = BlockSeparable(ops)
    return LiftedProblem(ops=ops, base_dim=dim, copies=m,
                         diagonal=diagonal, product=product)
