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
calls it.

Production evaluation uses the Id - J_A + J_B R_A form (two resolvent
calls and one reflection); agreement with the half-sum form is part of
the test suite.  ``iterate`` evaluates J_first once per step: the shadow
J_A x_n it records is the J_A x_n that the next step needs.

One step, one rule: ``_dr(second, x, jx)`` holds x - jx + J_second(r)
with r = 2 jx - x, and ``_finite`` is the one finiteness test, of r.
``SplitOperator.apply`` in both forms, ``iterate``'s loop and the
public ``dr_step`` (which no code of the package calls) all step
through it.  A finite r proves x and jx finite too, so
each caller validates only the point it is handed: ``dr_step`` by
``first.resolve``, ``apply`` and ``shadow`` by ``_as_points``,
``iterate`` x0 once, on entry.  ``dr_step`` and ``apply`` test their
result by ``_finite``; in ``iterate`` the next iterate x_{n+1} is tested
only when its residual is not finite (a finite residual from a finite
x_n proves it finite), and the last shadow is tested once, after the
loop.  Past the validation every resolvent is an unchecked kernel.  A
reflected point or a step that overflows ends as a NonFinitePointError
(in ``iterate`` its subclass DivergenceError, which carries the orbit),
and no step emits a numpy warning.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial

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
    _finite_number,
    _norm,
    _real,
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
# bytes of a block of kept rows: far below the 4 MiB from which numpy
# asks for huge pages, and a partly filled block wastes little
_BLOCK_BYTES = 1 << 16


class DivergenceError(NonFinitePointError):
    """An iterate, or the last shadow, stopped being finite; ``orbit``
    holds the governing points that are finite.  A NonFinitePointError,
    so a caller that does not need the orbit catches the one class."""

    def __init__(self, message: str, orbit: "Orbit"):
        super().__init__(message)
        self.orbit = orbit


def _finite(v: np.ndarray) -> np.ndarray:
    """v, when it is finite; NonFinitePointError otherwise.

    The one finiteness rule of a step: a point passes when <v, v> is
    finite and is tested entry by entry only when it is not, so a finite
    v whose squared length overflows passes; a batch is tested entry by
    entry.
    """
    if not (v.ndim == 1 and math.isfinite(v.dot(v))) and not np.isfinite(v).all():
        raise NonFinitePointError("point has non-finite entries")
    return v


def _dr(second: Operator, x: np.ndarray, jx: np.ndarray) -> np.ndarray:
    """x - jx + J_second(r) with r = 2 jx - x: the Douglas-Rachford step
    from x, given jx = J_first x, on a point or an (N, d) batch.

    r is tested by ``_finite``; it is finite only when x and jx are, so
    J_second's unchecked kernel sees a proved point.  The sum of the
    finite terms can still overflow to inf: ``iterate`` tests it by its
    residual, ``apply`` and ``dr_step`` by ``_finite``.  The caller
    silences overflow warnings.
    """
    return x - jx + second._kernel(_finite(2.0 * jx - x))


def _bt(first: Operator, second: Operator, x: np.ndarray, jx) -> np.ndarray:
    """T_(first,second) T_(second,first) x by two ``_dr`` steps; J_first x
    is not needed."""
    mid = _dr(first, x, second._kernel(x))
    return _dr(second, mid, first._kernel(mid))


def _require_same_dim(first: Operator, second: Operator) -> None:
    if first.dim != second.dim:
        raise DimensionMismatchError(
            f"operand dimensions differ: {first.dim} vs {second.dim}"
        )


def dr_step(first: Operator, second: Operator, x) -> np.ndarray:
    """One application of x - J_first x + J_second(2 J_first x - x), to a
    point or, row by row, to an (N, d) batch: ``first.resolve`` validates
    x, and ``_dr`` makes the step.  Operands of unequal dimension raise
    DimensionMismatchError; a non-finite reflected point or result
    raises NonFinitePointError, and overflow emits no numpy warning.

    No slot validation is performed here; contract checking lives in
    SplitOperator.  No code of the package calls it: the fixed-point
    test of ``analysis`` reads T_ab f from the word table of f
    (``analysis._Words``), with the bits and the errors of this step.
    It is the one-step reference of the tests.
    """
    _require_same_dim(first, second)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(_dr(second, x, first.resolve(x)))


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
        _require_same_dim(first, second)
        if form not in (FORM_DR, FORM_BORWEIN_TAM):
            raise ValueError(f"unknown form {form!r}")
        require_operands(first, second, generalized)
        self.first = first
        self.second = second
        self.form = form
        self.generalized = generalized
        self.dim = first.dim
        # the step from x given J_first x, which form borwein_tam ignores
        self._step = (partial(_dr, second) if form == FORM_DR
                      else partial(_bt, first, second))

    def apply(self, x) -> np.ndarray:
        """T x for a point, or row by row for an (N, d) batch: x is
        validated, then ``_step`` makes the step.  A non-finite reflected
        point or result raises NonFinitePointError, and overflow emits no
        numpy warning."""
        x = _as_points(x, self.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite(self._step(x, self.first._kernel(x) if self.form == FORM_DR else None))

    __call__ = apply

    def shadow(self, x) -> np.ndarray:
        """Resolvent of the first slot, the shadow map of the iteration;
        row by row for an (N, d) batch."""
        return self.first._kernel(_as_points(x, self.dim))

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

    ``residuals`` always holds the full scalar history, residuals[n] =
    ||x_{n+1} - x_n||, as a float64 array from ``iterate``.  The kept
    rows (x_n, J_first x_n) are a head of steps 0, 1, ... and, when the
    history cap truncates a long run (``truncated`` is then set), a
    rolling tail that ends at step len(residuals).  ``head`` and
    ``tail`` hold them in step order as float64 blocks of shape
    (rows, 2, d), x_n at [r, 0] and J_first x_n at [r, 1]; ``steps``,
    the iteration number of each kept row, and ``truncated`` are
    derived from the row counts.

    ``governing`` and ``shadow`` are the (rows, d) arrays of the kept
    x_n and J_first x_n, built from the blocks on first read and then
    cached, so an orbit that is only written to CSV never holds them.
    ``final`` and ``final_shadow`` are copies of the last row: a caller
    that keeps them does not keep the blocks alive.
    """

    head: list[np.ndarray]
    tail: list[np.ndarray]
    residuals: np.ndarray
    iterations: int
    converged: bool

    def _pieces(self):
        """(first step, block) of each block, in step order."""
        for blocks, n in ((self.head, 0),
                          (self.tail, len(self.residuals) + 1 - _rows(self.tail))):
            for block in blocks:
                yield n, block
                n += len(block)

    @property
    def steps(self) -> list[int]:
        return [n for first, block in self._pieces()
                for n in range(first, first + len(block))]

    @property
    def truncated(self) -> bool:
        return len(self.residuals) + 1 > _rows(self.head) + _rows(self.tail)

    @cached_property
    def governing(self) -> np.ndarray:
        return np.concatenate([block[:, 0] for block in (*self.head, *self.tail)])

    @cached_property
    def shadow(self) -> np.ndarray:
        return np.concatenate([block[:, 1] for block in (*self.head, *self.tail)])

    @property
    def final(self) -> np.ndarray:
        return (self.tail or self.head)[-1][-1, 0].copy()

    @property
    def final_shadow(self) -> np.ndarray:
        return (self.tail or self.head)[-1][-1, 1].copy()

    @property
    def final_residual(self) -> float:
        """The last residual, a Python float; nan when no step completed,
        as when the first step diverges."""
        return float(self.residuals[-1]) if len(self.residuals) else math.nan

    def write_csv(self, path) -> None:
        """Write rows `n, x_1..x_d, shadow_1..shadow_d, residual`.

        Floats carry 17 significant digits; the residual cell of the
        last recorded step is empty when no successor was computed.
        Each block is formatted from one ``tolist``.
        """
        residuals = np.asarray(self.residuals, dtype=float)

        def chunks():
            for first, block in self._pieces():
                rows = len(block)
                scalars = residuals[first:first + rows].tolist()
                yield (range(first, first + rows), block.reshape(rows, -1),
                       scalars + [None] * (rows - len(scalars)))

        _write_rows(path, self.head[0].shape[2], ("x", "shadow", "residual"), chunks())


def _rows(blocks: list[np.ndarray]) -> int:
    return sum(len(block) for block in blocks)


def _write_rows(path, d: int, names: tuple[str, str, str], chunks) -> None:
    """Write the CSV rows `n, u_1..u_d, v_1..v_d, s` for ``names`` = (u, v, s).

    ``chunks`` yields (steps, cells, scalars): the step numbers n of its
    rows, an (N, 2d) float array whose row holds u then v, and each
    row's s, a float, or None for an empty cell.  Floats carry 17
    significant digits.  No cell needs quoting, so rows are joined
    directly, with the CRLF line ends of the csv module's default
    dialect.
    """
    u, v, s = names
    vectors = ",".join(["%.17g"] * (2 * d))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["n", *(f"{u}_{i + 1}" for i in range(d)),
                           *(f"{v}_{i + 1}" for i in range(d)), s]) + "\r\n")
        for steps, cells, scalars in chunks:
            fh.writelines(f"{n},{vectors % tuple(row)},"
                          f"{'' if scalar is None else format(scalar, '.17g')}\r\n"
                          for n, row, scalar in zip(steps, cells.tolist(), scalars))


def _count(value, name: str, least: int, error: type[Exception] = ValueError) -> int:
    """A count, such as a step budget, a row cap or an orbit depth, as an
    int: a finite integral real number of at least ``least`` (10.0 passes
    as 10).  Anything else raises ``error``: a real number below
    ``least``, nan included, "<name> must be at least <least>" (for
    ``least`` 0, "<name> must be nonnegative, got <value>"); inf, 10.5,
    an integer too large for a float, a bool or a non-number "<name>
    must be a finite integer, got <value>"."""
    if _finite_number(value) and value == int(value) and value >= least:
        return int(value)
    if _real(value) and not value >= least:  # written so that nan fails it
        raise error(f"{name} must be nonnegative, got {value}" if least == 0
                    else f"{name} must be at least {least}")
    raise error(f"{name} must be a finite integer, got {value!r}")


def iterate(T: SplitOperator, x0, max_iter: int = DEFAULT_MAX_ITER,
            stop_tol: float = DEFAULT_STOP_TOL,
            history_cap: int = DEFAULT_HISTORY_CAP) -> Orbit:
    """Iterate T from x0, recording governing and shadow sequences.

    J_first is evaluated once per step: the shadow J_first x_n recorded
    for x_n is, in form "dr", the J_first x_n of the step from x_n.
    Stops early once the governing residual ||x_{n+1} - x_n|| drops to
    ``stop_tol`` (marking the orbit converged).  ``max_iter`` (at least
    1) and ``history_cap`` (at least 4) are finite integral numbers and
    ``stop_tol`` is a nonnegative real number, inf included; anything
    else, nan, a bool or a non-number included, raises ValueError
    (``_count`` for the two counts).

    Step checks: each point is validated once, and the resolvents of
    proved points are their unchecked kernels.  x0 is validated on
    entry.  In both forms the step is ``T._step``, which makes each
    Douglas-Rachford step by ``_dr`` and its test of the reflected
    point.  The residual ||x_{n+1} - x_n|| is ``operators._norm``: finite
    for a finite difference whose length is below the largest float.
    x_n is finite, so a finite residual proves x_{n+1} finite, and the
    loop tests x_{n+1} itself only when the residual is inf or nan; a
    finite x_{n+1} whose distance from x_n overflows goes on with
    residual inf.  The last shadow is tested once, after the loop.  A
    non-finite iterate raises DivergenceError "non-finite iterate at
    step n", a non-finite last shadow "non-finite shadow at step n";
    either carries the orbit so far.  Overflow inside the loop, the
    shadow resolves included, emits no numpy warning.

    Bookkeeping: a step's residual goes into one float64 array, 8 bytes
    a step, which ``Orbit.residuals`` views without a copy.  A kept row
    is a copy of x_{n+1} and J_first x_{n+1}, written in place into a
    float64 block of shape (rows, 2, d) and at most 64 KiB, 16 d bytes
    a row; the step's own arrays are not kept.  The first
    history_cap // 2 rows go into head blocks sized to hold exactly the
    rows the head can receive.  The last history_cap - history_cap // 2
    rows live in a ring of equal tail blocks: starting a new block
    reuses the oldest one once it holds no live row, and the first live
    row's offset follows from the counts.  ``steps`` and ``truncated``
    are derived from the residual count and the row counts.  Past the
    cap a step holds its 8 bytes and nothing else, and no step copies
    the kept rows as a whole.
    """
    max_iter = _count(max_iter, "max_iter", 1)
    if not (_real(stop_tol) and stop_tol >= 0.0):  # written so that nan fails it
        raise ValueError("stop_tol must be nonnegative")
    history_cap = _count(history_cap, "history_cap", 4)

    x = as_point(x0, T.dim)
    first_kernel, step = T.first._kernel, T._step
    dim = T.dim
    block_rows = max(1, _BLOCK_BYTES // (16 * dim))
    head_left = min(history_cap // 2, max_iter + 1)  # rows the head can still receive
    tail_cap = history_cap - history_cap // 2
    # equal tail blocks, as few as hold tail_cap rows (ceiling divisions)
    tail_blocks = -(-tail_cap // block_rows)
    tail_rows = -(-tail_cap // tail_blocks)
    head: list[np.ndarray] = []
    tail: deque[np.ndarray] = deque()
    residuals = array("d")
    converged = False
    n = 0

    def next_block() -> np.ndarray:
        nonlocal head_left
        if head_left:
            head.append(np.empty((min(block_rows, head_left), 2, dim)))
            head_left -= len(head[-1])
            return head[-1]
        # every tail block is full here, and the oldest one is dead once
        # the blocks hold tail_rows rows more than tail_cap
        dead = len(tail) * tail_rows >= tail_cap + tail_rows
        tail.append(tail.popleft() if dead else np.empty((tail_rows, 2, dim)))
        return tail[-1]

    def assemble() -> Orbit:
        # views of the live rows: the last block up to row i, and the
        # tail from its first live row, which may be past a whole block
        kept_head, kept_tail = list(head), list(tail)
        current = kept_tail or kept_head
        current[-1] = current[-1][:i]
        if kept_tail:
            dead = max(0, (len(kept_tail) - 1) * tail_rows + i - tail_cap)
            del kept_tail[:dead // tail_rows]
            kept_tail[0] = kept_tail[0][dead % tail_rows:]
        return Orbit(head=kept_head, tail=kept_tail, residuals=np.frombuffer(residuals),
                     iterations=n, converged=converged)

    # intermediate overflow surfaces as a non-finite point error or a
    # non-finite residual; both cases are a diverging orbit
    with np.errstate(over="ignore", invalid="ignore"):
        jx = first_kernel(x)
        block = next_block()
        block[0] = x, jx
        i = 1  # rows written into block
        while n < max_iter:
            try:
                x_next = step(x, jx)
            except NonFinitePointError:
                n += 1
                raise DivergenceError(f"non-finite iterate at step {n}",
                                      assemble()) from None
            n += 1
            residual = _norm(x_next - x)
            if not residual < math.inf and not np.isfinite(x_next).all():
                raise DivergenceError(f"non-finite iterate at step {n}", assemble())
            residuals.append(residual)
            jx = first_kernel(x_next)
            if i == len(block):
                block, i = next_block(), 0
            block[i, 0] = x_next
            block[i, 1] = jx
            i += 1
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
    # the product checks that every member is an operator of one dimension
    product = BlockSeparable(ops)
    if product.block_dim != dim:
        raise DimensionMismatchError(
            f"operator of dimension {product.block_dim} does not live on R^{dim}"
        )
    if not product.monotone:
        raise MonotonicityError("lift requires monotone members")
    m = len(ops)
    # m stacked copies of I / sqrt(m): an orthonormal basis of the diagonal
    basis = np.tile(np.eye(dim) / np.sqrt(m), (m, 1))
    diagonal = NormalConeAffineSubspace(np.zeros(m * dim), basis)
    return LiftedProblem(ops=ops, base_dim=dim, copies=m,
                         diagonal=diagonal, product=product)
