"""Maximally monotone operators on R^d with closed-form resolvents.

The catalog covers monotone linear and affine maps, the normal cones of
the standard convex sets (affine subspaces, halfspaces, balls, rays,
boxes), a deterministic selection of the sphere projector (admitted as a
non-monotone stand-in for a resolvent), and the inverse and
point-reflection transforms of any catalog member.

For a monotone operator A the resolvent J = (Id + A)^{-1} is single
valued and firmly nonexpansive, and the reflected resolvent R = 2J - Id
is nonexpansive.  Normal cone operators resolve to metric projections,
so every resolvent here is an exact closed form (the only linear solve
is the dense (I + M) system of the linear/affine variants).

Every ``resolve`` and ``reflect`` takes one point, shape (d,), or a
batch of points, shape (N, d), which it maps row by row.  Each kind has
one resolvent kernel for both shapes, except the ball, which keeps a
one-point kernel: the long-orbit workload resolves one point at a time,
where that kernel takes less than half the time of the row kernel.
``LinearMonotone`` is the ``AffineRelation`` with a zero offset.

Each catalog kind splits its resolvent in two: ``resolve`` validates
its input (a finite point of R^d or an (N, d) batch, else
DimensionMismatchError or NonFinitePointError) and hands it to the
unchecked kernel ``_kernel``, which trusts that it gets a finite float
array of shape (d,) or (N, d).  No kind writes ``resolve`` itself:
``Operator.__init_subclass__`` sets it on each class that declares its
own ``kind``, has a non-default ``_kernel`` and defines no ``resolve``.
A caller that has already proved its point calls the kernel directly:
``splitting``'s one step ``_dr`` (through ``SplitOperator.apply``,
``iterate``'s loop and the public ``dr_step``), ``SplitOperator.apply``
and ``shadow``, and ``BlockSeparable`` and the wrappers for their
members.  The halfspace, ball, ray and box kernels also take a stack of
lift members: fields stacked on a leading member axis broadcast against
a (..., k, d) array of their blocks, which is how ``BlockSeparable``
resolves the members of such a kind (``stacks``) in one call.  The word
tables of ``analysis`` call ``resolve``.

Operators are immutable after construction and safe to share between
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TAU_PSD",
    "TAU_ORTHO",
    "TAU_GRAPH",
    "TAU_NUM",
    "DimensionMismatchError",
    "MonotonicityError",
    "NotAffineError",
    "NonFinitePointError",
    "as_point",
    "GraphPair",
    "Operator",
    "LinearMonotone",
    "AffineRelation",
    "NormalConeAffineSubspace",
    "NormalConeHalfspace",
    "NormalConeBall",
    "NormalConeRay",
    "NormalConeBox",
    "SphereSelection",
    "Inverse",
    "Rotation",
    "BlockSeparable",
    "graph_contains",
    "operator_from_dict",
]

# Default tolerances for unit-scale data in double precision.  All of
# them can be overridden per problem instance through the config layer.
TAU_PSD = 1e-9     # min eigenvalue of the symmetric part >= -TAU_PSD
TAU_ORTHO = 1e-10  # orthonormality / unit-norm slack
TAU_GRAPH = 1e-8   # graph membership certificates
TAU_NUM = 1e-9     # generic numerical identity slack

# the least positive normal float: a squared norm below it has lost bits
_TINY = float(np.finfo(float).tiny)


class DimensionMismatchError(ValueError):
    """Operand dimensions are inconsistent."""


class MonotonicityError(ValueError):
    """A monotone operator was required and the requirement failed."""


class NotAffineError(TypeError):
    """An affine operator was required."""


class NonFinitePointError(ValueError):
    """A point with inf or NaN entries reached an operator evaluation."""


def _real(value) -> bool:
    """Whether ``value`` is a real number: an int or a float, numpy's
    included, and not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _finite_number(value) -> bool:
    """Whether ``value`` is a real number that a float holds finitely."""
    try:
        return _real(value) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _tolerance(value, name: str, error: type[Exception] = ValueError) -> float:
    """``value`` as a finite nonnegative float, the one rule for every
    tolerance that an operator or a config is built with; anything else,
    a bool, a string or nan included, raises ``error``."""
    if _finite_number(value) and value >= 0.0:
        return float(value)
    raise error(f"{name} must be finite and nonnegative, got {value!r}")


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float vector, optionally of length ``dim``."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D point, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(
            f"expected a point in R^{dim}, got length {arr.shape[0]}"
        )
    # the count decides as np.isfinite(arr).all() would, in fewer steps
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise NonFinitePointError("point has non-finite entries")
    return arr


def _as_points(x, dim: int) -> np.ndarray:
    """Coerce ``x`` to a finite float point in R^dim, shape (dim,), or a
    batch of such points, shape (N, dim)."""
    arr = np.asarray(x, dtype=float)
    if not (arr.ndim in (1, 2) and arr.shape[-1] == dim):
        raise DimensionMismatchError(
            f"expected a point in R^{dim} or an (N, {dim}) batch, got shape {arr.shape}"
        )
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise NonFinitePointError("point has non-finite entries")
    return arr


def _norm(v: np.ndarray) -> float:
    """||v|| of a point: ``_row_norms(v)``, bit for bit, by Python floats
    where TINY <= <v, v> < inf or v is exactly zero."""
    sq = float(v.dot(v))
    if _TINY <= sq < math.inf or sq == 0.0 and not v.any():
        return math.sqrt(sq)
    return float(_row_norms(v[None])[0])


def _row_norms(v: np.ndarray):
    """||v|| of each row (last axis) of v, or of the one point v: the one
    norm that every length of the package is taken by.

    sqrt(<v, v>) where TINY <= <v, v> < inf.  Elsewhere a row with a
    nonzero entry and no inf or nan takes m ||v / m|| with m = max |v_i|,
    which neither overflows nor underflows: a finite v has a finite norm
    unless the norm itself passes the largest float.  A zero row keeps
    sqrt(0) = 0, a row with an inf entry sqrt(inf) = inf, and one with a
    nan entry nan.  <v, v> may overflow; the caller silences that
    warning.
    """
    sq = np.vecdot(v, v)
    norms = np.sqrt(sq)
    if sq.min(initial=_TINY) >= _TINY and sq.max(initial=0.0) < math.inf:
        return norms
    odd = ~((sq >= _TINY) & (sq < math.inf))
    rows = v[odd]  # v[None] for one point v, so its square above is not taken again
    if not rows.any():  # exactly zero rows only
        return norms
    # m = 1 leaves a zero row and a row with an inf or nan entry as it is
    m = np.abs(rows).max(axis=-1)
    m[~((m > 0.0) & (m < math.inf))] = 1.0
    w = rows / m[:, None]
    unit_sq = np.vecdot(w, w)
    with np.errstate(over="ignore"):  # a norm past the largest float is inf
        scaled = m * np.sqrt(unit_sq)
    if v.ndim == 1:
        return scaled[0]
    norms[odd] = scaled
    return norms


@dataclass(frozen=True)
class GraphPair:
    """A claimed graph point (x, u), i.e. u in A(x)."""

    x: np.ndarray
    u: np.ndarray


def _require_finite_matrix(m: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")


def _require_square(matrix: np.ndarray) -> None:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got {matrix.shape}")


def _require_psd_symmetric_part(matrix: np.ndarray, tau_psd: float) -> None:
    sym = 0.5 * (matrix + matrix.T)
    lo = float(np.linalg.eigvalsh(sym)[0])
    if lo < -tau_psd:
        raise MonotonicityError(
            f"symmetric part has eigenvalue {lo:.3e} < -{tau_psd:.1e}; "
            "the operator is not monotone"
        )


def _solve_shifted(shifted: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I + M) y = r for a point r, or for each row of a batch."""
    # (I + M) is nonsingular whenever M is monotone; a failure here means
    # a broken internal invariant, not a user error.
    try:
        return np.linalg.solve(shifted, rhs.T).T
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError(
            "internal invariant violation: (I + M) singular for a monotone M"
        ) from exc


def _unit_vector(v, name: str, tau_ortho: float) -> np.ndarray:
    """Return ``v`` scaled to unit norm (no-op if already unit to tolerance)."""
    tau_ortho = _tolerance(tau_ortho, "tau_ortho")
    v = as_point(v)
    nv = _norm(v)
    if nv <= tau_ortho:
        raise ValueError(f"{name} must be a nonzero vector")
    if abs(nv - 1.0) <= tau_ortho:
        return v
    return v / nv


def _require_operator(op) -> None:
    if not isinstance(op, Operator):
        raise TypeError(f"expected an operator, got {type(op).__name__}")


def _orthonormal_columns(basis: np.ndarray, tau_ortho: float) -> np.ndarray:
    """Orthonormalize the columns of ``basis`` by modified Gram-Schmidt.

    Columns that are dependent on the preceding ones (residual norm at
    most ``tau_ortho``) are dropped.  A basis that is already orthonormal
    to tolerance is returned unchanged, which keeps serialization round
    trips bit-identical.
    """
    d, r = basis.shape
    if r == 0:
        return basis.copy()
    if r <= d:
        gram = basis.T @ basis
        if float(np.max(np.abs(gram - np.eye(r)))) <= tau_ortho:
            return basis.copy()
    cols: list[np.ndarray] = []
    for j in range(r):
        v = basis[:, j].copy()
        # two passes of re-orthogonalization for numerical stability
        for _ in range(2):
            for u in cols:
                v -= (u @ v) * u
        nv = _norm(v)
        if nv > tau_ortho:
            cols.append(v / nv)
    if not cols:
        return np.zeros((d, 0))
    return np.column_stack(cols)


class Operator:
    """Common interface of the operator catalog.

    Subclasses implement the resolvent (for normal cones the metric
    projection onto the underlying set) and declare ``monotone`` and
    ``affine``: a catalog kind as class attributes, a wrapper of other
    operators (``Inverse``, ``Rotation``, ``BlockSeparable``) as
    instance attributes that its constructor sets from its members,
    which never change.  ``affine`` is the claim that
    ``resolve`` is an affine map x -> C x + b; ``splitting.dr_matrix``
    relies on it to read that map at a basis.

    A catalog kind implements the resolvent as ``_kernel``, which takes
    a point or a batch that is already valid.  ``__init_subclass__``
    gives each class that declares its own ``kind``, has a ``_kernel``
    other than the default and defines no ``resolve`` the validating
    entry point ``resolve = _resolve`` in its own namespace, so a tracer
    can tell the kinds apart.  A subclass of a catalog kind overrides
    ``_kernel``, not ``resolve``: callers that hold a proved point skip
    ``resolve``.  An operator outside the catalog may implement only
    ``resolve``; the default ``_kernel`` calls it, so it works
    everywhere, validated on every call.  A subclass that declares a
    ``kind`` but neither ``resolve`` nor ``_kernel`` keeps the default
    ``resolve``, which raises NotImplementedError.

    ``fields`` lists the JSON keys of a member in output order; each is
    also a constructor argument and an attribute of the same name.
    ``tolerance`` names the constructor's tolerance keyword, if any.

    ``stacks`` is the claim that ``_kernel`` resolves a (..., k, d) stack
    of blocks, row i as the i-th of k members of the kind would, bit for
    bit, when each field holds those members' fields stacked on a
    leading axis.  It counts only on the class that declares it, so a
    subclass that overrides ``_kernel`` is resolved member by member
    unless it declares ``stacks`` itself.
    """

    kind: str = "abstract"
    fields: tuple[str, ...] = ()
    tolerance: str | None = None
    monotone: bool = True
    affine: bool = False
    stacks: bool = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if ("kind" in vars(cls) and "resolve" not in vars(cls)
                and cls._kernel is not Operator._kernel):
            cls.resolve = _resolve

    def __init__(self, dim: int):
        self.dim = int(dim)

    def resolve(self, x) -> np.ndarray:
        """Evaluate the resolvent J(x) = (Id + A)^{-1} x, row-wise on a batch."""
        raise NotImplementedError

    def _kernel(self, x) -> np.ndarray:
        """The resolvent of a finite float point or (N, d) batch, unchecked."""
        return self.resolve(x)

    def reflect(self, x) -> np.ndarray:
        """Evaluate the reflected resolvent (2J - Id) x, row-wise on a batch."""
        # resolve validates x
        x = np.asarray(x, dtype=float)
        return 2.0 * self.resolve(x) - x

    def to_dict(self) -> dict:
        """The JSON object form ``{"kind": ..., <fields>}``."""
        return {"kind": self.kind,
                **{name: _to_json(getattr(self, name)) for name in self.fields}}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(dim={self.dim})"


def _resolve(self, x) -> np.ndarray:
    """Evaluate the resolvent J(x) = (Id + A)^{-1} x, row-wise on a batch."""
    return self._kernel(_as_points(x, self.dim))


class AffineRelation(Operator):
    """The affine operator x -> M x + b with monotone M.

    Resolvent: y = (I + M)^{-1} (x - b).
    """

    kind = "affine_relation"
    fields = ("matrix", "offset")
    tolerance = "tau_psd"
    affine = True

    def __init__(self, matrix, offset, *, tau_psd: float = TAU_PSD):
        tau_psd = _tolerance(tau_psd, "tau_psd")
        matrix = np.asarray(matrix, dtype=float)
        offset = as_point(offset)
        _require_square(matrix)
        if matrix.shape[0] != offset.shape[0]:
            raise DimensionMismatchError("matrix and offset dimensions differ")
        _require_finite_matrix(matrix, "matrix")
        _require_psd_symmetric_part(matrix, tau_psd)
        super().__init__(offset.shape[0])
        self.matrix = matrix
        self.offset = offset
        self._shifted = np.eye(self.dim) + matrix

    def _kernel(self, x):
        return _solve_shifted(self._shifted, x - self.offset)


class LinearMonotone(AffineRelation):
    """The linear operator x -> M x for monotone M: the affine relation
    with a zero offset, written without one."""

    kind = "linear_monotone"
    fields = ("matrix",)

    def __init__(self, matrix, *, tau_psd: float = TAU_PSD):
        matrix = np.asarray(matrix, dtype=float)
        _require_square(matrix)
        super().__init__(matrix, np.zeros(matrix.shape[0]), tau_psd=tau_psd)


class NormalConeAffineSubspace(Operator):
    """Normal cone of the affine subspace U = offset + range(basis).

    The resolvent is the orthogonal projection P_U.  The basis is
    orthonormalized at construction by modified Gram-Schmidt (dependent
    columns dropped) unless it is already orthonormal to ``tau_ortho``.
    ``basis`` may have zero columns, in which case U is the single point
    ``offset``.
    """

    kind = "normal_cone_affine_subspace"
    fields = ("offset", "basis")
    tolerance = "tau_ortho"
    affine = True

    def __init__(self, offset, basis, *, tau_ortho: float = TAU_ORTHO):
        tau_ortho = _tolerance(tau_ortho, "tau_ortho")
        offset = as_point(offset)
        basis = np.asarray(basis, dtype=float)
        if basis.size == 0:
            basis = basis.reshape(offset.shape[0], 0)
        if basis.ndim != 2 or basis.shape[0] != offset.shape[0]:
            raise DimensionMismatchError(
                f"basis must have {offset.shape[0]} rows, got shape {basis.shape}"
            )
        _require_finite_matrix(basis, "basis")
        super().__init__(offset.shape[0])
        self.offset = offset
        self.basis = _orthonormal_columns(basis, tau_ortho)
        self._basis_t = self.basis.T

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def _kernel(self, x):
        centered = x - self.offset
        if x.ndim == 1:
            return self.offset + self.basis.dot(self._basis_t.dot(centered))
        # a batch goes through as the columns of centered.T
        return self.offset + self.basis.dot(self._basis_t.dot(centered.T)).T


class NormalConeHalfspace(Operator):
    """Normal cone of the halfspace {x : <normal, x> <= rhs}.

    A non-unit ``normal`` is rescaled together with ``rhs`` so the stored
    normal is a unit vector describing the same halfspace.
    """

    kind = "normal_cone_halfspace"
    fields = ("normal", "rhs")
    tolerance = "tau_ortho"
    stacks = True

    def __init__(self, normal, rhs: float, *, tau_ortho: float = TAU_ORTHO):
        tau_ortho = _tolerance(tau_ortho, "tau_ortho")
        normal = as_point(normal)
        nv = _norm(normal)
        if nv <= tau_ortho:
            raise ValueError("halfspace normal must be nonzero")
        rhs = float(rhs)
        if not math.isfinite(rhs):
            raise ValueError("halfspace rhs must be finite")
        if abs(nv - 1.0) > tau_ortho:
            normal = normal / nv
            rhs = rhs / nv
        super().__init__(normal.shape[0])
        self.normal = normal
        self.rhs = rhs

    def _kernel(self, x):
        """Project x, each row of a batch, or each block of a member
        stack, onto {x : <normal, x> <= rhs}."""
        slack = np.vecdot(self.normal, x) - self.rhs
        return np.where((slack <= 0.0)[..., None], x, x - slack[..., None] * self.normal)


class NormalConeBall(Operator):
    """Normal cone of the closed ball with the given center and radius."""

    kind = "normal_cone_ball"
    fields = ("center", "radius")
    stacks = True

    def __init__(self, center, radius: float):
        center = as_point(center)
        radius = float(radius)
        if not 0.0 < radius < math.inf:
            raise ValueError("ball radius must be finite and strictly positive")
        super().__init__(center.shape[0])
        self.center = center
        self.radius = radius

    def _kernel(self, x):
        """Project x onto the ball: one point by Python floats, and each
        row of a batch, of a member stack (k, d) or of a batch of stacks
        (N, k, d) by one numpy expression."""
        v = x - self.center
        if x.ndim == 1:
            dist = _norm(v)
            if dist <= self.radius:
                return x.copy()
            return self.center + (self.radius / dist) * v
        dist = _row_norms(v)
        # a row inside its ball keeps its own bits; elsewhere the scale is
        # radius / dist, and max(dist, radius) keeps the division finite
        scale = self.radius / np.maximum(dist, self.radius)
        return np.where((dist <= self.radius)[..., None], x, self.center + scale[..., None] * v)


class NormalConeRay(Operator):
    """Normal cone of the ray {t * direction : t >= 0}.

    Projection: P(x) = max(<direction, x>, 0) * direction.
    """

    kind = "normal_cone_ray"
    fields = ("direction",)
    tolerance = "tau_ortho"
    stacks = True

    def __init__(self, direction, *, tau_ortho: float = TAU_ORTHO):
        direction = _unit_vector(direction, "ray direction", tau_ortho)
        super().__init__(direction.shape[0])
        self.direction = direction

    def _kernel(self, x):
        t = np.vecdot(x, self.direction)
        # max(t, 0.0) row by row
        return np.where(t < 0.0, 0.0, t)[..., None] * self.direction


class NormalConeBox(Operator):
    """Normal cone of the box [lower, upper]; bounds may be +-inf."""

    kind = "normal_cone_box"
    fields = ("lower", "upper")
    stacks = True

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.ndim != 1 or upper.ndim != 1 or lower.shape != upper.shape:
            raise DimensionMismatchError("lower and upper must be vectors of equal length")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("box bounds must not be NaN")
        if np.any(lower > upper):
            raise ValueError("box requires lower <= upper entrywise")
        if np.any(lower == np.inf) or np.any(upper == -np.inf):
            raise ValueError("box is empty: a lower bound is +inf or an upper bound is -inf")
        super().__init__(lower.shape[0])
        self.lower = lower
        self.upper = upper

    def _kernel(self, x):
        # not np.clip, whose sign of a zero at a zero bound depends on
        # whether the bounds broadcast: a batch row would not keep the
        # bits of the same point resolved alone
        return np.minimum(np.maximum(x, self.lower), self.upper)


class SphereSelection(Operator):
    """A single-valued selection of the set-valued projector onto a sphere.

    The sphere is not convex, so this is not the resolvent of a monotone
    operator; ``monotone`` is False and operations whose contract needs
    monotonicity reject it.  At the center, where every sphere point is
    nearest, the declared ``tie_direction`` makes the selection
    deterministic: resolve(center) = center + radius * tie_direction.
    """

    kind = "sphere_selection"
    fields = ("center", "radius", "tie_direction")
    tolerance = "tau_ortho"
    monotone = False

    def __init__(self, center, radius: float, tie_direction, *, tau_ortho: float = TAU_ORTHO):
        center = as_point(center)
        radius = float(radius)
        if not 0.0 < radius < math.inf:
            raise ValueError("sphere radius must be finite and strictly positive")
        tie_direction = _unit_vector(tie_direction, "tie_direction", tau_ortho)
        if tie_direction.shape[0] != center.shape[0]:
            raise DimensionMismatchError("center and tie_direction dimensions differ")
        super().__init__(center.shape[0])
        self.center = center
        self.radius = radius
        self.tie_direction = tie_direction

    def _kernel(self, x):
        # radius / dist overflows for a subnormal dist, and there
        # radius * (v / dist) is taken instead
        v = x - self.center
        rows = v.reshape(-1, self.dim)
        dist = _row_norms(rows)[:, None]
        at_center = dist == 0.0
        dist = np.where(at_center, 1.0, dist)
        with np.errstate(over="ignore", invalid="ignore"):
            scale = self.radius / dist
            step = scale * rows
        huge = scale[:, 0] == math.inf
        step[huge] = self.radius * (rows[huge] / dist[huge])
        return np.where(at_center, self.center + self.radius * self.tie_direction,
                        self.center + step).reshape(v.shape)


class Inverse(Operator):
    """The inverse A^{-1} of a monotone catalog operator.

    By the inverse resolvent identity J_{A^{-1}} = Id - J_A, so the
    resolvent needs nothing beyond the inner operator's.
    """

    kind = "inverse"
    fields = ("inner",)

    def __init__(self, inner: Operator):
        _require_operator(inner)
        if not inner.monotone:
            raise MonotonicityError("inverse requires a monotone operand")
        super().__init__(inner.dim)
        self.inner = inner
        self.affine = inner.affine

    def _kernel(self, x):
        return x - self.inner._kernel(x)


class Rotation(Operator):
    """The point reflection conjugate (-Id) o A o (-Id) of a catalog operator.

    Its resolvent is x -> -J_inner(-x); monotonicity and affinity carry
    over from the inner operator.
    """

    kind = "rotation"
    fields = ("inner",)

    def __init__(self, inner: Operator):
        _require_operator(inner)
        super().__init__(inner.dim)
        self.inner = inner
        self.monotone = inner.monotone
        self.affine = inner.affine

    def _kernel(self, x):
        return -self.inner._kernel(-x)


def _rows(indices: list[int]):
    """A slice for a run of consecutive block indices, else an index array."""
    if indices[-1] - indices[0] == len(indices) - 1:
        return slice(indices[0], indices[-1] + 1)
    return np.array(indices)


def _stack(members: list[Operator]) -> Operator:
    """A private operator of the members' kind that holds only their
    fields, stacked on a leading axis, so its ``_kernel`` resolves their
    stacked blocks; it is built without its constructor's checks, which
    each member has passed."""
    stacked = object.__new__(type(members[0]))
    for name in stacked.fields:
        setattr(stacked, name, np.array([getattr(op, name) for op in members]))
    return stacked


class BlockSeparable(Operator):
    """Blockwise application of equal-dimension operators on a product space.

    The resolvent applies each member's resolvent to its contiguous
    block, which is exactly the resolvent of the product operator.  The
    members of a class that declares ``stacks`` (halfspaces, balls, rays
    and boxes) and occurs more than once are resolved together: one
    kernel call of a private operator of that class, which holds their
    fields stacked (``_stack``), on their stacked blocks.  Every other
    member resolves its own block with its kernel, since the point was
    validated as a whole.  The affine subspace does not stack: stacked
    matrix products differ in the last bits from the one-point
    ``basis.dot(basis_t.dot(c))`` on many rows, so a lift of lines keeps
    one kernel call per member.  Nor do the linear and affine kinds,
    whose transposed solve does not broadcast over a member axis, the
    sphere, which reshapes to (-1, d), or the wrappers.
    """

    kind = "block_separable"
    fields = ("ops",)

    def __init__(self, ops):
        ops = list(ops)
        if not ops:
            raise ValueError("at least one block operator is required")
        for op in ops:
            _require_operator(op)
            if op.dim != ops[0].dim:
                raise DimensionMismatchError("all blocks must share one dimension")
        super().__init__(ops[0].dim * len(ops))
        self.ops = ops
        self.block_dim = ops[0].dim
        self.monotone = all(op.monotone for op in ops)
        self.affine = all(op.affine for op in ops)
        by_class: dict[type, list[int]] = {}
        for i, op in enumerate(ops):
            by_class.setdefault(type(op), []).append(i)
        self._groups = []  # (block index or indices, operator that resolves them)
        for cls, indices in by_class.items():
            if vars(cls).get("stacks") and len(indices) > 1:
                self._groups.append((_rows(indices), _stack([ops[i] for i in indices])))
            else:
                self._groups.extend((i, ops[i]) for i in indices)

    def _kernel(self, x):
        # (..., members, block_dim): a batch keeps its leading axis
        rows = x.reshape(*x.shape[:-1], len(self.ops), self.block_dim)
        out = np.empty_like(rows)
        for sel, op in self._groups:
            out[..., sel, :] = op._kernel(rows[..., sel, :])
        return out.reshape(x.shape)


def _graph_resolvent(op: Operator, x, u) -> np.ndarray:
    """J_op(x + u) for a claimed graph point (x, u) of a monotone op; the
    graph defect ||J_op(x + u) - x|| is zero exactly when (x, u) in gra(op)."""
    if not op.monotone:
        raise MonotonicityError(
            f"graph_contains requires a monotone operator, got {op.kind}"
        )
    return op.resolve(as_point(x, op.dim) + as_point(u, op.dim))


def graph_contains(op: Operator, pair: GraphPair, tol: float = TAU_GRAPH) -> bool:
    """Certify (x, u) in gra(op) via ||J_op(x + u) - x|| <= tol."""
    return _norm(_graph_resolvent(op, pair.x, pair.u) - pair.x) <= tol


# --------------------------------------------------------------------------
# JSON serialization.  Matrices are row-major nested lists, vectors plain
# lists; box bounds use the strings "inf"/"-inf" for unbounded sides so the
# emitted documents stay valid JSON.

# The deepest an operator may sit inside other operators in a document: a
# fixed limit, so which documents load does not depend on the interpreter's
# recursion limit.
MAX_NESTING = 64

_CATALOG = {cls.kind: cls for cls in (
    LinearMonotone, AffineRelation, NormalConeAffineSubspace, NormalConeHalfspace,
    NormalConeBall, NormalConeRay, NormalConeBox, SphereSelection, Inverse,
    Rotation, BlockSeparable,
)}


def _to_json(value):
    """The JSON form of a field value or of CLI output: arrays become
    lists, objects with a ``to_dict`` (operators, tolerances) become JSON
    objects, lists and dicts are converted item by item, and a non-finite
    number becomes the string "inf", "-inf" or "nan"."""
    if isinstance(value, np.ndarray):
        out = value.tolist()
        # of the array fields, only box bounds hold infinite entries, and
        # they are vectors
        if value.ndim == 1 and not all(map(math.isfinite, out)):
            return [v if math.isfinite(v) else str(v) for v in out]
        return out
    if isinstance(value, list):
        return [_to_json(v) for v in value]
    if isinstance(value, dict):
        return {key: _to_json(v) for key, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return value


def _from_json(value, tolerances: dict, where: str, depth: int):
    """A field value from its JSON form; objects are operators nested
    one level below ``depth``.

    Integers become floats; one too large for a float is an error that
    names ``where`` it was found.
    """
    if type(value) is int:
        try:
            return float(value)
        except OverflowError as exc:
            raise ValueError(f"{where}: {exc}") from None
    if isinstance(value, list):
        # floats, the common entries, skip the recursive call
        return [v if type(v) is float else _from_json(v, tolerances, where, depth)
                for v in value]
    if isinstance(value, dict):
        return _decode(value, tolerances, depth + 1)
    if isinstance(value, str):
        if value not in ("inf", "+inf", "-inf"):
            raise ValueError(f"bad number string {value!r}")
        return float(value)
    return value


def _expect_fields(data: dict, required, optional, message: str, error=ValueError) -> None:
    """Raise ``error`` when a JSON object lacks a ``required`` key or holds
    a key that is neither required nor ``optional`` (missing keys first);
    its text is ``message`` filled in with "missing" or "unknown" and the
    sorted keys."""
    for what, keys in (("missing", set(required) - set(data)),
                       ("unknown", set(data) - set(required) - set(optional))):
        if keys:
            raise error(message.format(what, sorted(keys)))


def operator_from_dict(data: dict, *, tau_psd: float = TAU_PSD,
                       tau_ortho: float = TAU_ORTHO) -> Operator:
    """Rebuild an operator from its JSON object form.

    Operators inside operators (``inverse``, ``rotation``,
    ``block_separable``) may nest at most MAX_NESTING levels deep.  Each
    member that takes a tolerance checks it as its constructor does.
    """
    return _decode(data, {"tau_psd": tau_psd, "tau_ortho": tau_ortho}, 0)


def _decode(data, tolerances: dict, depth: int) -> Operator:
    if depth > MAX_NESTING:
        raise ValueError(f"operators nested deeper than {MAX_NESTING}")
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("operator document must be an object with a 'kind' tag")
    kind = data["kind"]
    cls = _CATALOG.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown operator kind {kind!r}")
    _expect_fields(data, cls.fields, ("kind",), f"operator {kind!r}: {{}} fields {{}}")
    args = {name: _from_json(data[name], tolerances,
                             f"operator {kind!r} field {name!r}", depth)
            for name in cls.fields}
    if cls.tolerance is not None:
        args[cls.tolerance] = tolerances[cls.tolerance]
    return cls(**args)
