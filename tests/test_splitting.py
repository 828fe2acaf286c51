import csv
import math
import sys
import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest

from drorder import operators
from drorder.operators import (
    AffineRelation,
    DimensionMismatchError,
    Inverse,
    LinearMonotone,
    MonotonicityError,
    NonFinitePointError,
    NormalConeAffineSubspace,
    NormalConeBall,
    NormalConeBox,
    NormalConeHalfspace,
    NormalConeRay,
    NotAffineError,
    Rotation,
    SphereSelection,
    as_point,
)
from drorder import splitting
from drorder.analysis import find_fixed_point
from drorder.harness import load_corpus
from drorder.splitting import (
    BlockSeparable,
    DivergenceError,
    FORM_BORWEIN_TAM,
    FORM_DR,
    SplitOperator,
    _affine_form,
    dr_matrix,
    dr_step,
    iterate,
    lift,
)

from draws import (
    random_affine_operator,
    random_monotone_operator,
    random_point,
    random_subspace,
    reference_norm,
)
from test_analysis import _operand_pairs
from test_operators import _LowerHalf, _batch_members, _counted_validations

X_AXIS = NormalConeAffineSubspace([0.0, 0.0], [[1.0], [0.0]])
UP_RAY = NormalConeRay([0.0, 1.0])
ZERO2 = LinearMonotone(np.zeros((2, 2)))
DIAG_RAY = NormalConeRay([1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)])

SQRT34 = float(np.sqrt(34.0))


def test_dr_apply_closed_forms():
    T_ab = SplitOperator(X_AXIS, UP_RAY)
    T_ba = SplitOperator(UP_RAY, X_AXIS)
    for x, y in [(5.0, -3.0), (1.0, 2.0), (0.0, 0.0), (-4.0, 7.5)]:
        assert np.allclose(T_ab.apply([x, y]), [0.0, max(y, 0.0)], atol=0)
        assert np.allclose(T_ba.apply([x, y]), [0.0, min(y, 0.0)], atol=0)


def test_dr_apply_zero_pair_is_identity():
    T = SplitOperator(ZERO2, ZERO2)
    x = np.array([3.0, -1.0])
    assert np.array_equal(T.apply(x), x)


def test_both_eq_forms_agree():
    rng = np.random.default_rng(20)
    for dim in (2, 3, 5):
        for _ in range(20):
            a = random_monotone_operator(rng, dim)
            b = random_monotone_operator(rng, dim)
            x = random_point(rng, dim)
            production = dr_step(a, b, x)
            half_sum = 0.5 * (x + b.reflect(a.reflect(x)))
            assert np.allclose(production, half_sum, atol=1e-9)


def test_split_operator_slot_validation():
    sel = SphereSelection([0.0, 0.0], 1.0, [1.0, 0.0])
    with pytest.raises(MonotonicityError):
        SplitOperator(X_AXIS, sel)
    with pytest.raises(MonotonicityError):
        SplitOperator(UP_RAY, sel, generalized=True)  # partner not a subspace
    with pytest.raises(MonotonicityError):
        SplitOperator(sel, sel, generalized=True)
    with pytest.raises(DimensionMismatchError):
        SplitOperator(X_AXIS, LinearMonotone(np.zeros((3, 3))))
    # admissible generalized combinations, either slot
    SplitOperator(X_AXIS, sel, generalized=True)
    SplitOperator(sel, X_AXIS, generalized=True)


def test_dr_firmly_nonexpansive():
    rng = np.random.default_rng(21)
    for dim in (2, 4):
        for _ in range(15):
            T = SplitOperator(random_monotone_operator(rng, dim),
                              random_monotone_operator(rng, dim))
            x, y = random_point(rng, dim), random_point(rng, dim)
            tx, ty = T(x), T(y)
            inner = float((tx - ty) @ ((x - tx) - (y - ty)))
            assert inner >= -1e-9


def test_fixed_point_characterization():
    # ||T x - x|| <= tau implies ||R_b R_a x - x|| <= 2 tau.
    rng = np.random.default_rng(22)
    a = random_subspace(rng, 3)
    b = NormalConeBall([0.2, 0.1, 0.0], 1.0)
    T = SplitOperator(a, b)
    x = random_point(rng, 3)
    for _ in range(200):
        x = T(x)
    tau = float(np.linalg.norm(T(x) - x))
    rr = b.reflect(a.reflect(x))
    assert np.linalg.norm(rr - x) <= 2.0 * tau + 1e-15


# ---------------------------------------------------------------------------
# closed affine form


def test_dr_matrix_linear_counterexample():
    b = LinearMonotone([[1.0, 1.0], [1.0, 1.0]])
    m1, off1 = dr_matrix(SplitOperator(X_AXIS, b, FORM_BORWEIN_TAM))
    m2, off2 = dr_matrix(SplitOperator(b, X_AXIS, FORM_BORWEIN_TAM))
    assert np.allclose(m1, np.array([[5.0, -1.0], [-1.0, 2.0]]) / 9.0, atol=1e-12)
    assert np.allclose(m2, np.array([[5.0, 1.0], [1.0, 2.0]]) / 9.0, atol=1e-12)
    assert np.allclose(off1, 0.0, atol=1e-15)
    assert np.allclose(off2, 0.0, atol=1e-15)


def test_dr_matrix_zero_pair_is_identity():
    m, off = dr_matrix(SplitOperator(ZERO2, ZERO2))
    assert np.array_equal(m, np.eye(2))
    assert np.array_equal(off, np.zeros(2))


def test_dr_matrix_matches_pointwise_evaluation():
    rng = np.random.default_rng(23)
    g = rng.normal(size=(3, 3))
    a = AffineRelation(g @ g.T, rng.normal(size=3))
    b = random_subspace(rng, 3, through_origin=False)
    for form in ("dr", FORM_BORWEIN_TAM):
        T = SplitOperator(a, b, form)
        m, off = dr_matrix(T)
        for _ in range(10):
            x = random_point(rng, 3)
            assert np.allclose(m @ x + off, T(x), atol=1e-10)


def test_dr_matrix_rejects_nonaffine():
    with pytest.raises(NotAffineError):
        dr_matrix(SplitOperator(X_AXIS, NormalConeBall([0.0, 0.0], 1.0)))


def _not_affine_pair(case):
    """(non-affine operand, affine partner, generalized)."""
    if case == "inverse-ball":
        return Inverse(NormalConeBall([1.0, 0.5], 1.0)), X_AXIS, False
    if case == "rotation-halfspace":
        return Rotation(NormalConeHalfspace([0.6, 0.8], 0.5)), X_AXIS, False
    if case == "block-subspace-ball":
        block = BlockSeparable([X_AXIS, NormalConeBall([0.0, 2.0], 1.0)])
        return block, NormalConeAffineSubspace(np.zeros(4), np.eye(4)[:, :2]), False
    return SphereSelection([2.0, 1.0], 1.0, [0.0, 1.0]), X_AXIS, True


@pytest.mark.parametrize("form", [FORM_DR, FORM_BORWEIN_TAM])
@pytest.mark.parametrize("slot", ["first", "second"])
@pytest.mark.parametrize("case", ["inverse-ball", "rotation-halfspace",
                                  "block-subspace-ball", "sphere-selection"])
def test_dr_matrix_raises_not_affine_before_any_resolve(monkeypatch, case, slot, form):
    # a basis evaluation of a non-affine T returns a wrong matrix without
    # an error, so the gate must come first
    op, partner, generalized = _not_affine_pair(case)
    first, second = (op, partner) if slot == "first" else (partner, op)
    T = SplitOperator(first, second, form, generalized)
    calls = []

    def counted(kernel):
        def wrapper(self, x):
            calls.append(self.kind)
            return kernel(self, x)
        return wrapper

    # every resolvent evaluation reaches a kernel; LinearMonotone's is
    # AffineRelation's
    for cls in operators._CATALOG.values():
        if "_kernel" in vars(cls):
            monkeypatch.setattr(cls, "_kernel", counted(vars(cls)["_kernel"]))
    with pytest.raises(NotAffineError, match="dr_matrix requires affine operands"):
        dr_matrix(T)
    assert calls == []
    # the counters see this pair's resolves
    T(np.ones(T.dim))
    assert calls


def _reference_resolvent_map(op):
    """(C, b) with J x = C x + b: the closed forms that the affine catalog
    kinds carried as ``resolvent_affine_map`` before ``dr_matrix`` read T
    at a basis."""
    if isinstance(op, AffineRelation):  # LinearMonotone included
        inv = np.linalg.inv(np.eye(op.dim) + op.matrix)
        return inv, -inv @ op.offset
    if isinstance(op, NormalConeAffineSubspace):
        proj = op.basis @ op.basis.T
        return proj, op.offset - proj @ op.offset
    if isinstance(op, Inverse):
        c, b = _reference_resolvent_map(op.inner)
        return np.eye(op.dim) - c, -b
    if isinstance(op, Rotation):
        c, b = _reference_resolvent_map(op.inner)
        return c, -b
    assert isinstance(op, BlockSeparable), op.kind
    matrix = np.zeros((op.dim, op.dim))
    offset = np.zeros(op.dim)
    for i, member in enumerate(op.ops):
        c, b = _reference_resolvent_map(member)
        block = slice(i * op.block_dim, (i + 1) * op.block_dim)
        matrix[block, block] = c
        offset[block] = b
    return matrix, offset


def _reference_dr_affine(first, second):
    ca, ba = _reference_resolvent_map(first)
    cb, bb = _reference_resolvent_map(second)
    eye = np.eye(first.dim)
    refl = 2.0 * ca - eye
    return eye - ca + cb @ refl, -ba + cb @ (2.0 * ba) + bb


def _reference_dr_matrix(T):
    """``dr_matrix`` composed from the closed resolvent forms."""
    if T.form == FORM_DR:
        return _reference_dr_affine(T.first, T.second)
    m_ab, b_ab = _reference_dr_affine(T.first, T.second)
    m_ba, b_ba = _reference_dr_affine(T.second, T.first)
    return m_ab @ m_ba, m_ab @ b_ba + b_ab


def _affine_pairs():
    """Both orders of every affine pair of ``_operand_pairs``, inverse and
    rotation nestings in R^1 to R^9, and lifts of m = 2, 5, 20 affine
    members with the diagonal in either slot."""
    pairs = [pair for a, b in _operand_pairs() if a.affine and b.affine
             for pair in ((a, b), (b, a))]
    rng = np.random.default_rng(27)
    wraps = (Inverse, Rotation, lambda op: Inverse(Rotation(op)),
             lambda op: Rotation(Inverse(op)))
    for dim in [*range(1, 10)] * 2:
        for wrap in wraps:
            a = wrap(random_affine_operator(rng, dim, through_origin=False))
            b = random_affine_operator(rng, dim, through_origin=False)
            pairs += [(a, b), (b, a), (a, wrap(b))]
    for m in (2, 5, 20):
        dim = int(rng.integers(1, 4))
        lifted = lift([random_affine_operator(rng, dim, through_origin=False)
                       for _ in range(m)], dim)
        pairs += [(lifted.diagonal, lifted.product), (lifted.product, lifted.diagonal)]
    return pairs


def test_dr_matrix_matches_the_closed_resolvent_forms():
    pairs = _affine_pairs()
    assert len(pairs) > 250 and any(isinstance(a, BlockSeparable) and a.dim >= 20
                                      for a, _ in pairs)
    for a, b in pairs:
        for form in (FORM_DR, FORM_BORWEIN_TAM):
            T = SplitOperator(a, b, form)
            matrix, offset = dr_matrix(T)
            want_matrix, want_offset = _reference_dr_matrix(T)
            bound = 1e-14 * max(1.0, float(np.max(np.abs(want_matrix))))
            assert matrix.shape == want_matrix.shape and offset.shape == want_offset.shape
            assert np.max(np.abs(matrix - want_matrix)) <= bound, (a.kind, b.kind, form)
            assert np.max(np.abs(offset - want_offset)) <= bound, (a.kind, b.kind, form)


# ---------------------------------------------------------------------------
# iteration


def test_iterate_ray_vs_axis():
    T = SplitOperator(X_AXIS, UP_RAY)
    orbit = iterate(T, [5.0, -3.0])
    assert orbit.converged
    assert orbit.iterations == 2
    assert np.array_equal(orbit.governing[0], [5.0, -3.0])
    assert np.array_equal(orbit.governing[1], [0.0, 0.0])
    assert np.array_equal(orbit.governing[2], [0.0, 0.0])
    assert orbit.residuals == pytest.approx([SQRT34, 0.0])
    # shadow invariant: shadow[n] = J_first(governing[n])
    for g, s in zip(orbit.governing, orbit.shadow):
        assert np.array_equal(T.shadow(g), s)


def test_iterate_identity_operator_constant_orbit():
    T = SplitOperator(ZERO2, ZERO2)
    orbit = iterate(T, [2.0, 3.0])
    assert orbit.converged and orbit.iterations == 1
    assert orbit.residuals == [0.0]
    assert np.array_equal(orbit.governing[-1], [2.0, 3.0])


def test_iterate_subspace_ball_shadow_limit_in_intersection():
    # Line through the origin meeting a ball: the shadow limit must land
    # in the intersection, checked with the analytic chord bounds.
    direction = np.array([1.0, 0.5]) / np.linalg.norm([1.0, 0.5])
    a = NormalConeAffineSubspace([0.0, 0.0], direction.reshape(2, 1))
    b = NormalConeBall([2.0, 1.0], 1.0)
    orbit = iterate(SplitOperator(a, b), [4.0, 3.0], stop_tol=1e-13)
    assert orbit.converged
    z = orbit.final_shadow
    t = float(direction @ z)
    assert np.allclose(z, t * direction, atol=1e-9)  # on the line
    # the feasible parameter range along the line
    center_t = float(direction @ np.array([2.0, 1.0]))
    offset = np.array([2.0, 1.0]) - center_t * direction
    half_chord = np.sqrt(1.0 - float(offset @ offset))
    assert center_t - half_chord - 1e-9 <= t <= center_t + half_chord + 1e-9


def test_iterate_divergence_reports_finite_prefix():
    # A pure translation with a huge step overflows in two applications.
    a = LinearMonotone(np.zeros((2, 2)))
    b = AffineRelation(np.zeros((2, 2)), [1e308, 0.0])
    T = SplitOperator(a, b)
    with pytest.raises(DivergenceError) as err:
        iterate(T, [0.0, 0.0], max_iter=50)
    orbit = err.value.orbit
    assert orbit.iterations == 2
    assert not orbit.converged
    assert np.all(np.isfinite(orbit.governing[-1]))


def test_iterate_rejects_a_non_finite_last_shadow():
    # x_1 = (1.7e308, 1.7e308) is finite, but its projection onto the
    # diagonal overflows; no numpy warning escapes the loop
    diagonal = NormalConeAffineSubspace([0.0, 0.0], [[1.0], [1.0]])
    translation = AffineRelation(np.zeros((2, 2)), [-1.7e308, -1.7e308])
    T = SplitOperator(diagonal, translation)
    with pytest.raises(DivergenceError, match="^non-finite shadow at step 1$") as err:
        iterate(T, [0.0, 0.0], max_iter=1)
    orbit = err.value.orbit
    assert orbit.iterations == 1 and orbit.steps == [0, 1]
    assert np.all(np.isfinite(orbit.governing[-1]))
    assert not np.isfinite(orbit.final_shadow).any()
    # one step further, the reflected point of step 2 is what fails
    with pytest.raises(DivergenceError, match="^non-finite iterate at step 2$"):
        iterate(T, [0.0, 0.0], max_iter=2)


def test_iterate_history_cap_keeps_head_and_tail():
    a = LinearMonotone(np.zeros((2, 2)))
    b = AffineRelation(np.zeros((2, 2)), [-1.0, 0.0])  # translation by +e1
    T = SplitOperator(a, b)
    orbit = iterate(T, [0.0, 0.0], max_iter=50, stop_tol=0.0, history_cap=10)
    assert orbit.truncated
    assert not orbit.converged
    assert orbit.iterations == 50
    assert len(orbit.governing) == 10
    assert orbit.steps[:5] == [0, 1, 2, 3, 4]
    assert orbit.steps[-5:] == [46, 47, 48, 49, 50]
    assert len(orbit.residuals) == 50
    assert np.array_equal(orbit.governing[-1], [50.0, 0.0])


def test_iterate_diverging_at_its_first_step_has_a_nan_final_residual():
    # 2 J_A x0 - x0 = 2e308 overflows, so no residual was ever computed;
    # 0.0 would read as a fixed point
    T = SplitOperator(ZERO2, NormalConeBall([0.0, 0.0], 1.0))
    with pytest.raises(DivergenceError, match="^non-finite iterate at step 1$") as err:
        iterate(T, [1e308, 0.0])
    orbit = err.value.orbit
    assert orbit.iterations == 1 and orbit.steps == [0] and len(orbit.residuals) == 0
    assert type(orbit.final_residual) is float and math.isnan(orbit.final_residual)
    # one completed step: its residual, as a Python float
    orbit = iterate(T, [0.5, 0.0], max_iter=1)
    assert orbit.residuals.dtype == np.float64 and orbit.residuals.shape == (1,)
    assert type(orbit.final_residual) is float and orbit.final_residual == 0.0


# the line/ball pair of the benchmark's long orbit, which it never leaves
LONG_ORBIT = SplitOperator(
    NormalConeAffineSubspace([0.0, 0.0], [[2.0 / math.sqrt(5.0)], [1.0 / math.sqrt(5.0)]]),
    NormalConeBall([2.0, 3.0], 1.0))
LONG_ORBIT_X0 = np.array([3.0, -1.5])


def _held_bytes(steps, history_cap=4):
    """The bytes that the long orbit of ``steps`` steps holds, traced by
    tracemalloc, and the orbit."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        orbit = iterate(LONG_ORBIT, LONG_ORBIT_X0, steps, 0.0, history_cap=history_cap)
        assert orbit.iterations == steps and orbit.truncated
        return tracemalloc.get_traced_memory()[0] - before, orbit
    finally:
        tracemalloc.stop()


def test_iterate_holds_at_most_16_bytes_per_step_past_the_history_cap():
    # past a full cap a step keeps only its residual, 8 bytes of one
    # float64 array; a Python float in a list would cost 32
    short, long = 1_000, 3_000
    per_step = (_held_bytes(long)[0] - _held_bytes(short)[0]) / (long - short)
    assert per_step <= 16.0, per_step


def test_iterate_holds_at_most_48_bytes_per_kept_row_beyond_its_residuals():
    # a kept row (x_n, J_first x_n) in R^2 is 32 bytes of a row block;
    # as two arrays of its own it cost about 270.  By 12 000 steps the
    # tail's ring holds the most blocks it ever does
    held, orbit = _held_bytes(12_000, splitting.DEFAULT_HISTORY_CAP)
    rows = len(orbit.steps)
    assert rows == splitting.DEFAULT_HISTORY_CAP
    per_row = (held - orbit.residuals.nbytes) / rows
    assert per_row <= 48.0, per_row


def test_final_points_do_not_keep_the_orbit_alive():
    # the last point and its shadow are copies: once the orbit is gone,
    # keeping them keeps only their own bytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        orbit = iterate(LONG_ORBIT, LONG_ORBIT_X0, 3_000, 0.0)
        final, final_shadow = orbit.final, orbit.final_shadow
        assert np.array_equal(final, orbit.governing[-1])
        assert np.array_equal(final_shadow, orbit.shadow[-1])
        del orbit
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 1024, held
    # nor do they share memory with the caller's start, even when the
    # orbit never leaves it: x0 = 0 is fixed by the axis/ray pair
    T = SplitOperator(X_AXIS, UP_RAY)
    x0 = np.zeros(2)
    orbit = iterate(T, x0, max_iter=1)
    point = find_fixed_point(T, x0)
    for got in (orbit.final, orbit.final_shadow, orbit.governing[0], point):
        assert np.array_equal(got, x0) and not np.shares_memory(got, x0)
    assert all(got.base is None for got in (orbit.final, orbit.final_shadow, point))


def test_iterate_parameter_validation():
    T = SplitOperator(ZERO2, ZERO2)
    with pytest.raises(ValueError):
        iterate(T, [0.0, 0.0], max_iter=0)
    with pytest.raises(ValueError):
        iterate(T, [0.0, 0.0], stop_tol=-1.0)
    # nan fails no comparison written as `value < bound`
    for name, message in (("max_iter", "max_iter must be at least 1"),
                          ("stop_tol", "stop_tol must be nonnegative"),
                          ("history_cap", "history_cap must be at least 4")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            iterate(T, [0.0, 0.0], **{name: math.nan})
    with pytest.raises(ValueError, match="^stop_tol must be nonnegative$"):
        find_fixed_point(SplitOperator(X_AXIS, UP_RAY), [5.0, -3.0], tol=math.nan)


def test_write_csv_allocates_a_bounded_chunk_of_rows(tmp_path):
    # the rows are formatted a bounded chunk at a time, so writing the
    # long orbit allocates at most 128 KB above what the orbit holds
    orbit = iterate(LONG_ORBIT, LONG_ORBIT_X0, 50_000, 0.0)
    assert len(orbit.steps) == splitting.DEFAULT_HISTORY_CAP
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        orbit.write_csv(tmp_path / "orbit.csv")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 128_000, peak


def test_orbit_csv_format(tmp_path):
    T = SplitOperator(X_AXIS, UP_RAY)
    orbit = iterate(T, [5.0, -3.0])
    path = tmp_path / "orbit.csv"
    orbit.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "x_1", "x_2", "shadow_1", "shadow_2", "residual"]
    assert rows[1][0] == "0"
    assert rows[1][1:3] == ["5", "-3"]
    assert float(rows[1][5]) == pytest.approx(SQRT34, abs=1e-16)
    assert rows[-1][5] == ""  # no successor residual for the last row
    # 17 significant digits survive the round trip
    assert float(rows[1][5]) == orbit.residuals[0]


# ---------------------------------------------------------------------------
# composite (two-ordering) operator


def test_borwein_tam_witness_points():
    T_ab = SplitOperator(DIAG_RAY, X_AXIS, FORM_BORWEIN_TAM)
    assert np.allclose(T_ab.apply([-2.0, 2.0]), [1.0, 1.0], atol=1e-14)
    assert np.allclose(T_ab.apply([0.0, 0.0]), [0.0, 0.0], atol=0)
    T_zero = SplitOperator(ZERO2, ZERO2, FORM_BORWEIN_TAM)
    x = np.array([4.0, -2.0])
    assert np.array_equal(T_zero.apply(x), x)


def test_bt_factorizations_with_affine_subspace_first():
    # with an affine-subspace first operand: T_[ab] = (T_ab R_a)^2
    # and T_[ab] = R_a T_[ba] R_a.
    rng = np.random.default_rng(24)
    a = random_subspace(rng, 3, through_origin=False)
    b = NormalConeBall(rng.normal(size=3), 1.5)
    bt_ab = SplitOperator(a, b, FORM_BORWEIN_TAM)
    bt_ba = SplitOperator(b, a, FORM_BORWEIN_TAM)
    for _ in range(20):
        x = random_point(rng, 3)
        direct = bt_ab(x)
        squared = dr_step(a, b, a.reflect(dr_step(a, b, a.reflect(x))))
        conjugated = a.reflect(bt_ba(a.reflect(x)))
        assert np.allclose(direct, squared, atol=1e-9)
        assert np.allclose(direct, conjugated, atol=1e-9)


def test_bt_two_subspaces_order_invariant_and_half_sum():
    rng = np.random.default_rng(25)
    a = random_subspace(rng, 4, through_origin=False)
    b = random_subspace(rng, 4, through_origin=False)
    bt_ab = SplitOperator(a, b, FORM_BORWEIN_TAM)
    bt_ba = SplitOperator(b, a, FORM_BORWEIN_TAM)
    for _ in range(20):
        x = random_point(rng, 4)
        u = bt_ab(x)
        assert np.allclose(u, bt_ba(x), atol=1e-9)
        half = 0.5 * (dr_step(a, b, x) + dr_step(b, a, x))
        assert np.allclose(u, half, atol=1e-9)
        # second-reflector factorizations (both reflectors are involutions)
        rb_tab_square = b.reflect(dr_step(a, b, b.reflect(dr_step(a, b, x))))
        assert np.allclose(u, rb_tab_square, atol=1e-9)
        tba_rb_square = dr_step(b, a, b.reflect(dr_step(b, a, b.reflect(x))))
        assert np.allclose(u, tba_rb_square, atol=1e-9)
        y = random_point(rng, 4)
        ty = bt_ab(y)
        inner = float((u - ty) @ ((x - u) - (y - ty)))
        assert inner >= -1e-9


# ---------------------------------------------------------------------------
# product-space lift


def test_lift_block_average():
    lifted = lift([X_AXIS, UP_RAY], 2)
    got = lifted.diagonal.resolve(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(got, [2.0, 3.0, 2.0, 3.0], atol=1e-14)
    assert np.allclose(lifted.average([1.0, 2.0, 3.0, 4.0]), [2.0, 3.0], atol=0)
    assert np.array_equal(lifted.embed([1.0, 2.0]), [1.0, 2.0, 1.0, 2.0])


def test_lift_of_zero_operators_fixes_diagonal():
    zero = LinearMonotone(np.zeros((2, 2)))
    lifted = lift([zero, zero, zero], 2)
    T = lifted.split()
    x = lifted.embed([3.0, -1.0])
    assert np.allclose(T(x), x, atol=1e-14)


def test_lift_two_halfspaces_shadow_limit_feasible():
    h1 = NormalConeHalfspace([1.0, 0.0], 1.0)
    h2 = NormalConeHalfspace([0.0, 1.0], 0.5)
    lifted = lift([h1, h2], 2)
    orbit = iterate(lifted.split(), lifted.embed([4.0, 4.0]), stop_tol=1e-12)
    assert orbit.converged
    z = lifted.average(orbit.final_shadow)
    assert float(h1.normal @ z) <= h1.rhs + 1e-8
    assert float(h2.normal @ z) <= h2.rhs + 1e-8


def test_lift_validation():
    with pytest.raises(ValueError):
        lift([X_AXIS], 2)
    with pytest.raises(DimensionMismatchError):
        lift([X_AXIS, LinearMonotone(np.zeros((3, 3)))], 2)
    with pytest.raises(MonotonicityError):
        lift([X_AXIS, SphereSelection([0.0, 0.0], 1.0, [1.0, 0.0])], 2)
    with pytest.raises(DimensionMismatchError):
        BlockSeparable([X_AXIS, LinearMonotone(np.zeros((3, 3)))])
    # the TypeError of BlockSeparable and Inverse, not an AttributeError
    for ops, name in (([1, 2], "int"), ([X_AXIS, "line"], "str"), ([None, X_AXIS], "NoneType")):
        with pytest.raises(TypeError, match=f"^expected an operator, got {name}$"):
            lift(ops, 2)


def test_block_separable_affine_map():
    rng = np.random.default_rng(26)
    g = rng.normal(size=(2, 2))
    block = BlockSeparable([LinearMonotone(g @ g.T), X_AXIS])
    assert block.affine
    c, b = _affine_form(block.resolve, block.dim)
    for _ in range(5):
        x = random_point(rng, 4)
        assert np.allclose(c @ x + b, block.resolve(x), atol=1e-12)


@pytest.mark.parametrize("order", ["ab", "ba", "bt"])
def test_iterate_evaluates_first_resolvent_once_per_step(monkeypatch, order):
    # a disjoint line and ball: the orbit never stops on a zero residual
    line = NormalConeAffineSubspace([0.0, 0.0], [[1.0], [0.5]])
    ball = NormalConeBall([0.0, 4.0], 1.0)
    a, b = (ball, line) if order == "ba" else (line, ball)
    T = SplitOperator(a, b, FORM_BORWEIN_TAM if order == "bt" else FORM_DR)
    x0 = np.array([4.0, 3.0])

    def step(x):  # the reference step
        return (dr_step(a, b, dr_step(b, a, x)) if order == "bt"
                else dr_step(a, b, x))

    # every resolvent evaluation reaches the kernel, validated or not
    counts = {"first": 0, "second": 0, "dr_step": 0}
    original_step = splitting.dr_step

    def counted_kernel(slot, kernel):
        def counted(x):
            counts[slot] += 1
            return kernel(x)
        return counted

    def counted_step(*args, **kwargs):
        counts["dr_step"] += 1
        return original_step(*args, **kwargs)

    monkeypatch.setattr(a, "_kernel", counted_kernel("first", a._kernel))
    monkeypatch.setattr(b, "_kernel", counted_kernel("second", b._kernel))
    monkeypatch.setattr(splitting, "dr_step", counted_step)
    orbit = iterate(T, x0, max_iter=20, stop_tol=0.0)
    monkeypatch.undo()

    n = orbit.iterations
    assert n == 20
    if order == "bt":  # the composite makes two steps, three J_first
        assert counts == {"first": 3 * n + 1, "second": 2 * n, "dr_step": 0}
    else:  # the loop steps by the step it shares with dr_step
        assert counts == {"first": n + 1, "second": n, "dr_step": 0}
    governing = [x0]
    for _ in range(n):
        governing.append(step(governing[-1]))
    assert [g.tobytes() for g in orbit.governing] == [g.tobytes() for g in governing]
    assert [s.tobytes() for s in orbit.shadow] == [a.resolve(g).tobytes() for g in governing]
    assert orbit.residuals.tolist() == [float(np.linalg.norm(y - x))
                                        for x, y in zip(governing, governing[1:])]


def _reference_iterate(T, x0, max_iter=splitting.DEFAULT_MAX_ITER,
                       stop_tol=splitting.DEFAULT_STOP_TOL,
                       history_cap=splitting.DEFAULT_HISTORY_CAP):
    """The step loop of ``iterate`` with every check made on every step:
    np.errstate entered per step, the residual by ``reference_norm`` and
    x_next tested by np.isfinite(x_next).all()."""
    x = as_point(x0, T.dim)
    head_cap = history_cap // 2
    tail_cap = history_cap - head_cap
    jx = T.first.resolve(x)
    head = [(0, x, jx)]
    tail = deque(maxlen=tail_cap)
    tail_seen = 0
    residuals = []
    converged = False
    n = 0

    def assemble():
        blocks = [np.array([r[1:] for r in rows]) for rows in (head, tail) if rows]
        orbit = splitting.Orbit(head=blocks[:1], tail=blocks[1:], residuals=residuals,
                                iterations=n, converged=converged)
        # the orbit derives the step numbers and the truncation recorded here
        assert orbit.steps == [r[0] for r in head + list(tail)]
        assert orbit.truncated == (tail_seen > tail_cap)
        return orbit

    while n < max_iter:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                x_next = (dr_step(T.first, T.second, x) if T.form == FORM_DR
                          else T.apply(x))
                residual = reference_norm(x_next - x)
        except NonFinitePointError:
            n += 1
            raise DivergenceError(f"non-finite iterate at step {n}", assemble()) from None
        n += 1
        if not np.isfinite(x_next).all():
            raise DivergenceError(f"non-finite iterate at step {n}", assemble())
        residuals.append(residual)
        jx = T.first.resolve(x_next)
        record = (n, x_next, jx)
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


def _orbit_bits(orbit):
    return (orbit.steps, [g.tobytes() for g in orbit.governing],
            [s.tobytes() for s in orbit.shadow], np.array(orbit.residuals).tobytes(),
            orbit.iterations, orbit.converged, orbit.truncated)


def _outcome(run, *args):
    """The orbit's bits, or the DivergenceError message and the bits of
    the orbit it carries; no block of the orbit is empty."""
    try:
        message, orbit = "orbit", run(*args)
    except DivergenceError as exc:
        message, orbit = str(exc), exc.orbit
    assert all(len(block) for block in (*orbit.head, *orbit.tail)), (message, args)
    return message, _orbit_bits(orbit)


class _NanAbove(AffineRelation):
    """The translation y -> y + e1, except that its resolvent returns nan
    in each coordinate that passes ``threshold``."""

    def __init__(self, threshold):
        super().__init__(np.zeros((2, 2)), [-1.0, 0.0])
        self.threshold = threshold

    def _kernel(self, x):
        y = super()._kernel(x)
        return np.where(y > self.threshold, np.nan, y)


def _differential_cases():
    """(T, x0, max_iter, stop_tol, must diverge): the corpus configs in
    each order, the operand pairs of the analysis suite in both forms,
    and the divergence cases."""
    cases = []
    for inst in load_corpus():
        config = inst.config
        for order in ("ab", "ba", "bt"):
            for x0 in config.start_points:
                cases.append((config.split(order), x0, min(config.max_iter, 3000),
                              config.stop_tol, False))
    rng = np.random.default_rng(44)
    for a, b in _operand_pairs():
        for form in (FORM_DR, FORM_BORWEIN_TAM):
            try:
                T = SplitOperator(a, b, form, generalized=True)
            except MonotonicityError:
                continue
            cases.append((T, random_point(rng, a.dim), 60, 1e-10, False))
            cases.append((T, random_point(rng, a.dim, scale=1e3), 25, 0.0, False))
    zero = LinearMonotone(np.zeros((2, 2)))
    for form in (FORM_DR, FORM_BORWEIN_TAM):
        # the 1e308 translation overflows within two steps
        translation = AffineRelation(np.zeros((2, 2)), [1e308, 0.0])
        cases.append((SplitOperator(zero, translation, form), [0.0, 0.0], 50, 1e-10, True))
        # finite steps of 1e200 whose squared length overflows: every
        # residual is 1e200, and the orbit goes on
        translation = AffineRelation(np.zeros((2, 2)), [-1e200, 0.0])
        cases.append((SplitOperator(zero, translation, form), [0.0, 0.0], 30, 1e-10, False))
        # J_B returns nan from a finite point
        cases.append((SplitOperator(zero, _NanAbove(5.5), form), [0.0, 0.0], 50, 0.0, True))
    # x_1 = -1.7e308 is finite, but x_1 - x_0 overflows: the residual is
    # inf, and the orbit does not diverge at that step
    T = SplitOperator(NormalConeBox([8e307], [8e307]), NormalConeBox([-1.7e308], [-1.7e308]))
    cases.append((T, [8e307], 1, 0.0, False))
    return cases


def test_iterate_matches_the_reference_loop():
    seen = set()
    for T, x0, max_iter, stop_tol, diverges in _differential_cases():
        for cap in (4, splitting.DEFAULT_HISTORY_CAP):
            args = (T, x0, max_iter, stop_tol, cap)
            message, bits = _outcome(iterate, *args)
            assert (message, bits) == _outcome(_reference_iterate, *args), (T, x0, cap)
            assert (message != "orbit") == diverges, (T, x0, message)
            residuals = np.frombuffer(bits[3])
            if diverges:
                seen.add(("diverged", T.form))
            elif np.isinf(residuals).any():
                seen.add(("inf residual", T.form))
            elif (residuals > math.sqrt(sys.float_info.max)).any():
                seen.add(("square overflows", T.form))
            if bits[-1]:
                seen.add(("truncated", T.form))
    assert seen == {(case, form) for case in ("diverged", "square overflows", "truncated")
                    for form in (FORM_DR, FORM_BORWEIN_TAM)} | {("inf residual", FORM_DR)}
    # kept rows across block boundaries and the head/tail seam, at every
    # step count up to three caps: a block holds 65536 // (16 d) rows, 8
    # at d = 512 and 1 at d = 4097; at d = 2 and a cap of 4100 the head
    # holds 2048 + 2 rows and the tail two blocks of 1025
    for d, cap, counts in ((512, 20, range(1, 61)), (4097, 6, range(1, 19)),
                           (2, 4100, (6200,))):
        far = np.zeros(d)
        far[0] = 3.0
        T = SplitOperator(NormalConeBall(np.zeros(d), 1.0), NormalConeBall(far, 1.0))
        for max_iter in counts:
            args = (T, np.full(d, 0.5), max_iter, 0.0, cap)
            assert _outcome(iterate, *args) == _outcome(_reference_iterate, *args), (d, cap)
        orbit = iterate(*args)
        assert orbit.truncated and len(orbit.head) > 1 and len(orbit.tail) > 1


def test_iterate_validates_only_its_start_point(monkeypatch):
    # the loop proves each later point finite itself: x_{n+1} by its
    # residual, each reflected point by its squared length
    line = NormalConeAffineSubspace([0.0, 0.0], [[1.0], [0.5]])
    ball = NormalConeBall([0.0, 4.0], 1.0)
    calls = _counted_validations(monkeypatch, operators, splitting)
    original = splitting.as_point
    monkeypatch.setattr(splitting, "as_point",
                        lambda x, dim=None: calls.append(np.shape(x)) or original(x, dim))
    for form in (FORM_DR, FORM_BORWEIN_TAM):
        for a, b in ((line, ball), (ball, line)):
            for steps in (10, 100):
                calls.clear()
                T = SplitOperator(a, b, form)
                orbit = iterate(T, [4.0, 3.0], steps, 0.0)
                # the composite reaches a zero residual within 100 steps
                assert orbit.iterations == steps or orbit.converged
                assert calls == [(2,)], (form, a.kind, steps)
            # apply validates the point it is handed, and nothing else
            calls.clear()
            T.apply([4.0, 3.0])
            assert calls == [(2,)], (form, a.kind)


def _clipped_overflow_pair(form):
    """J_first sends every point to (1e308, 1e308), so from x0 =
    (-5e307, 0) the reflected point 2 J_first x0 - x0 is (inf, inf),
    which the box [-1, 1]^2 of the second slot would clip to (1, 1)."""
    return SplitOperator(NormalConeBox([1e308, 1e308], [1e308, 1e308]),
                         NormalConeBox([-1.0, -1.0], [1.0, 1.0]), form)


@pytest.mark.parametrize("form", [FORM_DR, FORM_BORWEIN_TAM])
def test_iterate_diverges_on_a_reflected_point_that_overflows(form):
    # unchecked, J_second would return a finite x_1 = (-1.5e308, -1e308)
    # with residual inf, and the orbit would go on
    with pytest.raises(DivergenceError, match=r"^non-finite iterate at step 1$") as info:
        iterate(_clipped_overflow_pair(form), [-5e307, 0.0])
    orbit = info.value.orbit
    assert orbit.iterations == 1 and orbit.residuals.size == 0
    assert orbit.governing.tolist() == [[-5e307, 0.0]]


@pytest.mark.parametrize("form", [FORM_DR, FORM_BORWEIN_TAM])
def test_public_steps_report_a_reflected_point_that_overflows(form):
    T = _clipped_overflow_pair(form)
    x = np.array([-5e307, 0.0])
    if form == FORM_DR:
        step = lambda: dr_step(T.first, T.second, x)  # noqa: E731
    else:  # the overflow comes in the second of the two steps
        step = lambda: dr_step(T.first, T.second, dr_step(T.second, T.first, x))  # noqa: E731
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: T.apply(x), lambda: T.apply(x[None]), step):
            with pytest.raises(NonFinitePointError, match="^point has non-finite entries$"):
                call()
        # a finite reflected point whose squared length overflows goes on
        zero, box = ZERO2, NormalConeBox([-1.0, -1.0], [1.0, 1.0])
        far = np.array([1e200, 0.0])
        assert dr_step(zero, box, far).tolist() == [1.0, 0.0]
        assert SplitOperator(zero, box, FORM_BORWEIN_TAM).apply(far).tolist() == [0.0, 0.0]


# (first, second, x) in R^1 whose step from x has a finite reflected
# point and a result that overflows.  Form dr: J_first is the box {0} and
# J_second the box {1e308}, so T x = x + 1e308.  Form borwein_tam: the
# first step goes to 0, and the second resolves the constant map 1e308,
# J_second y = y - 1e308, at -1.2e308, where it overflows to -inf.
_OVERFLOWING_STEPS = {
    FORM_DR: (NormalConeBox([0.0], [0.0]), NormalConeBox([1e308], [1e308]), 1.5e308),
    FORM_BORWEIN_TAM: (NormalConeBox([-np.inf], [-6e307]),
                       AffineRelation([[0.0]], [1e308]), 1e308),
}


@pytest.mark.parametrize("form", [FORM_DR, FORM_BORWEIN_TAM])
def test_public_steps_report_a_step_that_overflows(form):
    first, second, x = _OVERFLOWING_STEPS[form]
    T = SplitOperator(first, second, form)
    # the second row's step is finite, so only the first row overflows
    batch = np.array([[x], [5e307]])
    calls = [lambda: T.apply([x]), lambda: T.apply(batch)]
    if form == FORM_DR:
        calls += [lambda: dr_step(first, second, [x]), lambda: dr_step(first, second, batch)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(T.apply(batch[1])).all()
        for call in calls:
            with pytest.raises(NonFinitePointError, match="^point has non-finite entries$"):
                call()
        # iterate ends the same step by its residual
        with pytest.raises(DivergenceError, match=r"^non-finite iterate at step 1$"):
            iterate(T, [x])


def test_iterate_budgets_are_finite_integers():
    # T x = x for two zero maps, so every orbit converges at step 1 and a
    # budget that gets past the checks returns at once
    T = SplitOperator(ZERO2, ZERO2)
    orbit = iterate(T, [1.0, 2.0], max_iter=10.0, history_cap=10.0)
    assert orbit.iterations == 1 and orbit.converged
    for name in ("max_iter", "history_cap"):
        for value in (10.5, math.inf, np.float64(math.inf)):
            with pytest.raises(ValueError, match=f"^{name} must be a finite integer, got "):
                iterate(T, [1.0, 2.0], **{name: value})
    with pytest.raises(ValueError, match="^max_iter must be a finite integer, got inf$"):
        find_fixed_point(T, [1.0, 2.0], max_iter=math.inf)


def test_iterate_counts_reject_bools_and_non_numbers():
    # "5" and None raised TypeError, True ran one step
    T = SplitOperator(ZERO2, ZERO2)
    for name in ("max_iter", "history_cap"):
        for value, shown in (("5", "'5'"), (True, "True"), (None, "None"),
                             (10**400, str(10**400))):
            with pytest.raises(ValueError, match=f"^{name} must be a finite integer, got {shown}$"):
                iterate(T, [1.0, 2.0], **{name: value})
    for value in (None, "0", False):
        with pytest.raises(ValueError, match="^stop_tol must be nonnegative$"):
            iterate(T, [1.0, 2.0], stop_tol=value)
    # the stop_tol rule keeps inf, and a numpy integer is a count
    orbit = iterate(T, [1.0, 2.0], max_iter=np.int64(3), stop_tol=math.inf)
    assert orbit.iterations == 1 and orbit.converged


def test_dr_step_rejects_operands_of_unequal_dimension():
    # J_second's kernel would broadcast a 2-D point against a 1-D box
    line = NormalConeAffineSubspace([0.0, 0.0], [[1.0], [0.5]])
    box = NormalConeBox([-1.0], [1.0])
    with pytest.raises(DimensionMismatchError):
        dr_step(line, box, [4.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        dr_step(box, line, [4.0])


def test_an_operator_with_only_resolve_iterates_and_lifts():
    # outside the catalog the kernel is ``resolve``, validated: the loop
    # gives the orbit of the reference loop, which calls resolve, and the
    # lift the orbit of a product resolved member by member
    op = _LowerHalf(2)
    ball = NormalConeBall([2.0, 1.0], 1.0)
    problem = lift([op, ball, NormalConeHalfspace([0.6, 0.8], 0.5)], 2)

    class Blockwise(operators.Operator):
        """The lift's product, resolved member by member with ``resolve``."""

        def resolve(self, x):
            rows = np.asarray(x, dtype=float).reshape(len(problem.ops), 2)
            return np.concatenate([m.resolve(row) for m, row in zip(problem.ops, rows)])

    for form in (FORM_DR, FORM_BORWEIN_TAM):
        for T in (SplitOperator(op, ball, form), SplitOperator(ball, op, form)):
            args = (T, [4.0, -3.0], 200, 1e-12, 8)
            assert _outcome(iterate, *args) == _outcome(_reference_iterate, *args), T
        reference = SplitOperator(problem.diagonal, Blockwise(6), form)
        args = (problem.embed([4.0, -3.0]), 200, 1e-12, 8)
        assert (_outcome(iterate, problem.split(form), *args)
                == _outcome(_reference_iterate, reference, *args))


# ---------------------------------------------------------------------------
# point batches: SplitOperator.apply and shadow map an (N, d) array row by row


def _batch_split_operators(rng, d, form):
    """A SplitOperator of each ordered pair of equal-dimension catalog
    members of ``_batch_members`` that the operand rule admits in
    generalized mode, with whether both members' batch kernels keep the
    bits of the per-point kernels."""
    members = _batch_members(rng, d)
    for label_a, (a, bitwise_a) in members.items():
        for label_b, (b, bitwise_b) in members.items():
            if a.dim != b.dim:
                continue
            try:
                T = SplitOperator(a, b, form, generalized=True)
            except MonotonicityError:
                continue
            yield f"{label_a}/{label_b}", T, bitwise_a and bitwise_b


@pytest.mark.parametrize("form", [FORM_DR, FORM_BORWEIN_TAM])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_batch_apply_and_shadow_match_the_per_point_calls(d, form):
    rng = np.random.default_rng(60 + d)
    count = 0
    for label, T, bitwise in _batch_split_operators(rng, d, form):
        X = np.array([rng.normal(size=T.dim) * s for s in (0.1, 1.0, 3.0, 10.0)]
                     + [np.zeros(T.dim), np.full(T.dim, -0.0)])
        for method in ("apply", "shadow"):
            got = getattr(T, method)(X)
            want = np.array([getattr(T, method)(x) for x in X])
            assert got.shape == X.shape, (label, method)
            if bitwise:
                assert got.tobytes() == want.tobytes(), (label, method)
            else:
                # within 1e-12 relative to the larger of the row, its image
                # and the unit scale of the operators' offsets and matrices
                scale = np.maximum(np.abs(want).max(axis=1), np.abs(X).max(axis=1))
                gap = np.abs(got - want).max(axis=1)
                assert np.all(gap <= 1e-12 * np.maximum(scale, 1.0)), (label, method)
        count += 1
    # every member of R^d in each slot, and each product space with itself
    assert count > 100


@pytest.mark.parametrize("method", ["apply", "shadow"])
def test_batch_apply_and_shadow_reject_a_wrong_shape_or_a_non_finite_row(method):
    rng = np.random.default_rng(61)
    for label, T, _ in _batch_split_operators(rng, 2, FORM_BORWEIN_TAM):
        call = getattr(T, method)
        X = rng.normal(size=(5, T.dim))
        for shape in ((5, T.dim + 1), (5, T.dim - 1), (2, 5, T.dim)):
            with pytest.raises(DimensionMismatchError):
                call(np.ones(shape))
        for bad in (np.nan, np.inf, -np.inf):
            Y = X.copy()
            Y[3, -1] = bad
            with pytest.raises(NonFinitePointError):
                call(Y)
