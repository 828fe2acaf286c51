import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drorder import operators
from drorder.operators import (
    AffineRelation,
    BlockSeparable,
    DimensionMismatchError,
    GraphPair,
    Inverse,
    LinearMonotone,
    MonotonicityError,
    NormalConeAffineSubspace,
    NormalConeBall,
    NormalConeBox,
    NormalConeHalfspace,
    NormalConeRay,
    NonFinitePointError,
    Rotation,
    SphereSelection,
    graph_contains,
    operator_from_dict,
)
from drorder.splitting import DivergenceError, SplitOperator, _affine_form, iterate

from draws import (
    TINY,
    random_affine_relation,
    random_linear_monotone,
    random_monotone_operator,
    random_point,
    reference_norm,
)

X_AXIS = NormalConeAffineSubspace([0.0, 0.0], [[1.0], [0.0]])
UP_RAY = NormalConeRay([0.0, 1.0])
ALL_ONES_MATRIX = [[1.0, 1.0], [1.0, 1.0]]


def catalog(rng, dim):
    ops = [random_monotone_operator(rng, dim) for _ in range(12)]
    ops.append(random_monotone_operator(rng, dim, through_origin=False))
    return ops


# ---------------------------------------------------------------------------
# resolvents


def test_resolve_subspace_is_orthogonal_projection():
    assert np.allclose(X_AXIS.resolve([3.0, 4.0]), [3.0, 0.0], atol=0)


def test_resolve_linear_solves_shifted_system():
    # (I + M) y = (1, 0) with M = [[1,1],[1,1]]; by the 2x2 adjugate formula
    # y = (1/3) [[2,-1],[-1,2]] (1,0) = (2/3, -1/3).
    op = LinearMonotone(ALL_ONES_MATRIX)
    got = op.resolve([1.0, 0.0])
    assert np.allclose(got, [2.0 / 3.0, -1.0 / 3.0], atol=1e-15)


def test_resolve_ray_clips_negative_component():
    for x, y in [(3.0, 4.0), (2.0, -1.0), (-5.0, 0.0)]:
        assert np.allclose(UP_RAY.resolve([x, y]), [0.0, max(y, 0.0)], atol=0)


def test_resolve_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        X_AXIS.resolve([1.0, 2.0, 3.0])


def test_resolvent_variational_inequality():
    # P x must lie in the set and satisfy <x - Px, c - Px> <= 0 for all c in
    # the set; checked against independent point samples of each set.
    rng = np.random.default_rng(3)
    ball = NormalConeBall([1.0, -2.0, 0.5], 2.0)
    halfspace = NormalConeHalfspace([0.6, -0.8, 0.0], 1.2)
    box = NormalConeBox([-1.0, -np.inf, 0.0], [2.0, 1.0, np.inf])

    def sample_ball():
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        return ball.center + ball.radius * rng.uniform(0, 1) * u

    def sample_halfspace():
        p = rng.normal(0, 3, 3)
        excess = max(0.0, float(halfspace.normal @ p) - halfspace.rhs)
        return p - (excess + rng.uniform(0, 2)) * halfspace.normal

    def sample_box():
        return np.clip(rng.normal(0, 3, 3), box.lower, box.upper)

    for op, sample in [(ball, sample_ball), (halfspace, sample_halfspace),
                       (box, sample_box)]:
        for _ in range(30):
            x = rng.normal(0, 4, 3)
            px = op.resolve(x)
            assert np.allclose(op.resolve(px), px, atol=1e-12)  # idempotent
            for _ in range(10):
                c = sample()
                assert float((x - px) @ (c - px)) <= 1e-9


# ---------------------------------------------------------------------------
# reflectors


def test_reflect_closed_forms():
    for x, y in [(2.0, 5.0), (-1.0, -3.0), (0.0, 0.0), (4.0, -0.5)]:
        assert np.allclose(X_AXIS.reflect([x, y]), [x, -y], atol=0)
        assert np.allclose(UP_RAY.reflect([x, y]), [-x, abs(y)], atol=0)


def test_reflect_zero_operator_is_identity():
    zero = LinearMonotone(np.zeros((3, 3)))
    x = np.array([1.0, -2.0, 7.0])
    assert np.array_equal(zero.reflect(x), x)


def test_reflectors_nonexpansive():
    rng = np.random.default_rng(4)
    for dim in (2, 3, 6):
        for op in catalog(rng, dim):
            for _ in range(10):
                x, y = random_point(rng, dim), random_point(rng, dim)
                lhs = np.linalg.norm(op.reflect(x) - op.reflect(y))
                assert lhs <= np.linalg.norm(x - y) + 1e-9


def test_resolvents_firmly_nonexpansive():
    rng = np.random.default_rng(5)
    for dim in (2, 4, 7):
        for op in catalog(rng, dim):
            for _ in range(10):
                x, y = random_point(rng, dim), random_point(rng, dim)
                jx, jy = op.resolve(x), op.resolve(y)
                inner = float((jx - jy) @ ((x - jx) - (y - jy)))
                assert inner >= -1e-9


# ---------------------------------------------------------------------------
# inverse resolvent


def test_inverse_resolvent_examples():
    assert np.allclose(Inverse(X_AXIS).resolve([3.0, 4.0]), [0.0, 4.0], atol=0)
    op = LinearMonotone(ALL_ONES_MATRIX)
    assert np.allclose(Inverse(op).resolve([1.0, 0.0]),
                       [1.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_inverse_resolvent_partition_identity():
    rng = np.random.default_rng(6)
    for op in catalog(rng, 4):
        x = random_point(rng, 4)
        assert np.allclose(op.resolve(x) + Inverse(op).resolve(x), x,
                           rtol=0, atol=1e-12)


def test_inverse_resolvent_rejects_selection():
    sel = SphereSelection([0.0, 0.0], 1.0, [1.0, 0.0])
    with pytest.raises(MonotonicityError):
        Inverse(sel).resolve([1.0, 1.0])


def test_reflect_of_inverse_is_negated_reflect():
    rng = np.random.default_rng(7)
    for op in catalog(rng, 3):
        x = random_point(rng, 3)
        assert np.allclose(Inverse(op).reflect(x), -op.reflect(x), atol=1e-12)


def test_inverse_and_rotation_resolvent_identities():
    rng = np.random.default_rng(8)
    for op in catalog(rng, 5):
        x = random_point(rng, 5)
        assert np.array_equal(Inverse(op).resolve(x), x - op.resolve(x))
        assert np.array_equal(Rotation(op).resolve(x), -op.resolve(-x))


# ---------------------------------------------------------------------------
# graph membership


def test_graph_contains_subspace_examples():
    assert graph_contains(X_AXIS, GraphPair(np.array([2.0, 0.0]),
                                            np.array([0.0, 5.0])), 1e-10)
    assert not graph_contains(X_AXIS, GraphPair(np.array([2.0, 1.0]),
                                                np.array([0.0, 0.0])), 1e-10)


def test_graph_contains_linear_pairs():
    rng = np.random.default_rng(9)
    m = np.array([[2.0, -1.0], [1.0, 0.5]])  # sym part eigs > 0
    op = LinearMonotone(m)
    for _ in range(20):
        x = random_point(rng, 2)
        assert graph_contains(op, GraphPair(x, m @ x), 1e-8)
        assert not graph_contains(op, GraphPair(x, m @ x + np.array([0.5, 0.0])), 1e-8)


def test_graph_contains_rejects_selection():
    sel = SphereSelection([0.0, 0.0], 1.0, [1.0, 0.0])
    with pytest.raises(MonotonicityError):
        graph_contains(sel, GraphPair(np.zeros(2), np.zeros(2)), 1e-8)


# ---------------------------------------------------------------------------
# monotonicity


def test_is_monotone_catalog():
    assert LinearMonotone(ALL_ONES_MATRIX).monotone
    assert LinearMonotone([[0.0, -1.0], [1.0, 0.0]]).monotone  # skew
    assert not SphereSelection([0.0, 0.0], 2.0, [0.0, 1.0]).monotone
    assert Rotation(Inverse(UP_RAY)).monotone
    sphere = SphereSelection([0.0, 0.0], 1.0, [1.0, 0.0])
    assert not Rotation(sphere).monotone
    # a wrapper sets its flags from its members when it is built
    assert not BlockSeparable([UP_RAY, sphere, X_AXIS]).monotone
    assert BlockSeparable([UP_RAY, X_AXIS, Inverse(UP_RAY)]).monotone
    for inner in (X_AXIS, UP_RAY):
        assert Inverse(inner).affine is inner.affine
        assert Rotation(inner).affine is inner.affine


def test_construction_rejects_nonmonotone_matrix():
    with pytest.raises(MonotonicityError):
        LinearMonotone([[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MonotonicityError):
        AffineRelation([[0.0, 2.0], [0.0, 0.0]], [0.0, 0.0])


def test_construction_validation_errors():
    with pytest.raises(ValueError):
        NormalConeBall([0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        NormalConeHalfspace([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        NormalConeBox([0.0, 2.0], [1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        LinearMonotone(np.zeros((2, 3)))
    with pytest.raises(MonotonicityError):
        Inverse(SphereSelection([0.0], 1.0, [1.0]))


# ---------------------------------------------------------------------------
# affine structure


def test_affine_resolvent_reflector_exchange():
    # J R = R J = 2 J^2 - J for every affine catalog member.
    rng = np.random.default_rng(10)
    g = rng.normal(size=(3, 3))
    ops = [
        LinearMonotone(g @ g.T),
        AffineRelation(g @ g.T, rng.normal(size=3)),
        NormalConeAffineSubspace(rng.normal(size=3), rng.normal(size=(3, 2))),
        Inverse(LinearMonotone(g @ g.T)),
        Rotation(AffineRelation(g @ g.T, rng.normal(size=3))),
    ]
    for op in ops:
        for _ in range(10):
            x = random_point(rng, 3)
            jr = op.resolve(op.reflect(x))
            rj = op.reflect(op.resolve(x))
            jj = 2.0 * op.resolve(op.resolve(x)) - op.resolve(x)
            assert np.allclose(jr, rj, atol=1e-9)
            assert np.allclose(jr, jj, atol=1e-9)


def test_subspace_reflector_is_isometric_involution():
    rng = np.random.default_rng(11)
    for dim, rank in [(2, 1), (4, 2), (6, 5)]:
        op = NormalConeAffineSubspace(rng.normal(size=dim),
                                      rng.normal(size=(dim, rank)))
        for _ in range(10):
            x, y = random_point(rng, dim), random_point(rng, dim)
            assert np.allclose(op.reflect(op.reflect(x)), x, atol=1e-9)
            assert abs(np.linalg.norm(op.reflect(x) - op.reflect(y))
                       - np.linalg.norm(x - y)) <= 1e-9


def test_subspace_with_zero_rank_projects_to_point():
    point = NormalConeAffineSubspace([2.0, -1.0], np.zeros((2, 0)))
    assert point.rank == 0
    assert np.allclose(point.resolve([5.0, 5.0]), [2.0, -1.0], atol=0)
    rebuilt = operator_from_dict(point.to_dict())
    assert np.allclose(rebuilt.resolve([0.0, 0.0]), [2.0, -1.0], atol=0)


def test_orthonormalization_matches_least_squares_projection():
    # Spanning sets that are not orthonormal (and even dependent) must
    # still give the projection computed from the raw spanning set.
    rng = np.random.default_rng(12)
    for _ in range(20):
        raw = rng.normal(size=(5, 3))
        raw = np.column_stack([raw, raw[:, 0] + raw[:, 1]])  # dependent column
        a = rng.normal(size=5)
        op = NormalConeAffineSubspace(a, raw)
        assert op.basis.shape[1] == 3
        x = random_point(rng, 5)
        coeffs, *_ = np.linalg.lstsq(raw, x - a, rcond=None)
        expected = a + raw @ coeffs
        assert np.allclose(op.resolve(x), expected, atol=1e-9)


def _affine_and_not_affine(rng):
    """One operator of every catalog kind on each side of the affine flag."""
    g = rng.normal(size=(4, 4))
    subspace = NormalConeAffineSubspace(rng.normal(size=4), rng.normal(size=(4, 2)))
    ball = NormalConeBall(rng.normal(size=2), 1.0)
    halfspace = NormalConeHalfspace(rng.normal(size=2), 0.5)
    affine = [
        LinearMonotone(g @ g.T + (g - g.T)),
        AffineRelation(g @ g.T, rng.normal(size=4)),
        subspace,
        Inverse(AffineRelation(g @ g.T, rng.normal(size=4))),
        Rotation(NormalConeAffineSubspace(rng.normal(size=4), rng.normal(size=(4, 3)))),
        Rotation(Inverse(subspace)),
        BlockSeparable([Inverse(subspace), LinearMonotone(g @ g.T), subspace]),
    ]
    not_affine = [
        halfspace, ball, NormalConeRay([0.0, 1.0]), NormalConeBox([-1.0, -1.0], [1.0, 1.0]),
        SphereSelection([1.0, 1.0], 2.0, [0.0, 1.0]), Inverse(ball), Rotation(halfspace),
        BlockSeparable([NormalConeAffineSubspace([0.0, 0.0], [[1.0], [0.0]]), ball]),
    ]
    return affine, not_affine


def test_affine_flag_is_honest():
    # dr_matrix reads an affine resolvent at a basis, and the affine flag
    # is the only claim that this reading is valid
    affine, not_affine = _affine_and_not_affine(np.random.default_rng(13))
    assert {op.kind for op in affine + not_affine} == set(operators._CATALOG)
    assert all(op.affine for op in affine) and not any(op.affine for op in not_affine)


def test_affine_map_matches_resolve():
    # the affine map read at a basis reproduces resolve at random points
    rng = np.random.default_rng(13)
    affine, _ = _affine_and_not_affine(rng)
    for op in affine:
        c, b = _affine_form(op.resolve, op.dim)
        for _ in range(5):
            x = random_point(rng, op.dim)
            assert np.allclose(c @ x + b, op.resolve(x), rtol=0.0, atol=1e-12), op.kind


# ---------------------------------------------------------------------------
# sphere selection determinism


def test_sphere_selection_tie_break_and_scaling():
    sel = SphereSelection([1.0, 1.0], 2.0, [0.0, 1.0])
    assert np.allclose(sel.resolve([1.0, 1.0]), [1.0, 3.0], atol=0)
    got = sel.resolve([5.0, 1.0])
    assert np.allclose(got, [3.0, 1.0], atol=1e-15)
    inside = sel.resolve([1.5, 1.0])
    assert np.allclose(inside, [3.0, 1.0], atol=1e-15)  # pushed out to the sphere


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_projection_idempotence_property(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    op = random_monotone_operator(rng, dim)
    x = random_point(rng, dim)
    px = op.resolve(x)
    # idempotence is meaningful for projections; resolvents of linear
    # operators need not be idempotent, so restrict to normal cones
    if op.kind.startswith("normal_cone"):
        assert np.allclose(op.resolve(px), px, atol=1e-11)


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_firm_nonexpansiveness_property(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    op = random_monotone_operator(rng, dim)
    x, y = random_point(rng, dim), random_point(rng, dim)
    jx, jy = op.resolve(x), op.resolve(y)
    assert float((jx - jy) @ ((x - jx) - (y - jy))) >= -1e-9


# ---------------------------------------------------------------------------
# serialization


def test_serialization_round_trip_is_bit_identical():
    rng = np.random.default_rng(14)
    ops = [
        LinearMonotone(ALL_ONES_MATRIX),
        AffineRelation([[1.0, 0.5], [-0.5, 2.0]], [0.3, -0.7]),
        NormalConeAffineSubspace([1.0, 2.0, 3.0], rng.normal(size=(3, 2))),
        NormalConeHalfspace([3.0, 4.0], 10.0),  # non-unit normal, rescaled
        NormalConeBall([0.5, -0.5], 1.5),
        NormalConeRay([0.0, 1.0]),
        NormalConeBox([-1.0, -np.inf], [np.inf, 2.0]),
        SphereSelection([1.0, 0.0], 2.0, [0.0, 1.0]),
        Inverse(NormalConeBall([0.0, 0.0], 1.0)),
        Rotation(NormalConeRay([1.0, 0.0])),
    ]
    for op in ops:
        rebuilt = operator_from_dict(op.to_dict())
        assert rebuilt.to_dict() == op.to_dict()
        for _ in range(5):
            x = random_point(rng, op.dim)
            assert np.array_equal(rebuilt.resolve(x), op.resolve(x))


def test_halfspace_rescaling_preserves_set():
    scaled = NormalConeHalfspace([3.0, 4.0], 10.0)
    plain = NormalConeHalfspace([0.6, 0.8], 2.0)
    rng = np.random.default_rng(15)
    for _ in range(10):
        x = random_point(rng, 2)
        assert np.allclose(scaled.resolve(x), plain.resolve(x), atol=1e-12)


def test_serialization_rejects_bad_documents():
    with pytest.raises(ValueError):
        operator_from_dict({"kind": "nope"})
    with pytest.raises(ValueError):
        operator_from_dict({"kind": "normal_cone_ball", "center": [0.0], "radius": 1.0,
                            "color": "red"})
    with pytest.raises(ValueError):
        operator_from_dict({"kind": "normal_cone_ball", "center": [0.0]})
    with pytest.raises(ValueError):
        operator_from_dict({"matrix": [[1.0]]})


def test_box_infinite_bounds_round_trip():
    op = NormalConeBox([-np.inf, 0.0], [1.0, np.inf])
    data = op.to_dict()
    assert data["lower"][0] == "-inf" and data["upper"][1] == "inf"
    rebuilt = operator_from_dict(data)
    assert np.allclose(rebuilt.resolve([-5.0, -3.0]), [-5.0, 0.0], atol=0)
    assert np.allclose(rebuilt.resolve([7.0, 9.0]), [1.0, 9.0], atol=0)


def test_block_separable_is_one_catalog_class():
    from drorder import splitting
    from drorder.operators import BlockSeparable

    assert splitting.BlockSeparable is BlockSeparable
    block = BlockSeparable([NormalConeRay([1.0, 0.0]), NormalConeBall([0.0, 0.0], 1.0)])
    assert operator_from_dict(block.to_dict()).to_dict() == block.to_dict()


@pytest.mark.parametrize("data, message", [
    ({"kind": "block_separable"}, "missing fields ['ops']"),
    ({"kind": "block_separable", "ops": [], "extra": 1}, "unknown fields ['extra']"),
    ({"kind": "normal_cone_box", "lower": ["x"], "upper": [1.0]}, "bad number string 'x'"),
    ({"kind": "inverse", "inner": 5}, "expected an operator"),
])
def test_operator_documents_report_what_is_wrong(data, message):
    with pytest.raises((ValueError, TypeError), match=re.escape(message)):
        operator_from_dict(data)


# ---------------------------------------------------------------------------
# BlockSeparable: stacked member resolvents against the per-member loop


def _loop_resolve(block, x):
    """The product resolvent one member block at a time: the reference."""
    rows = np.asarray(x, dtype=float).reshape(len(block.ops), block.block_dim)
    return np.concatenate([op.resolve(row) for op, row in zip(block.ops, rows)])


def _halfspace_case(rng, d, case):
    """A halfspace and a block that is inside, outside or on its boundary."""
    u = rng.normal(size=d)
    u /= np.linalg.norm(u)
    scale = 1e200 if case.endswith("huge") else 1.0
    x = rng.normal(size=d) * scale
    if case.startswith("negzero"):
        x = np.full(d, -0.0)
    # the stored normal, so that a boundary block has slack exactly 0
    dot = float(NormalConeHalfspace(u, 0.0).normal @ x)
    margin = {"inside": 0.5, "outside": -0.5, "boundary": 0.0}[case.split("-")[-2]]
    return NormalConeHalfspace(u, dot + margin * scale), x


def _ball_case(rng, d, case):
    """A ball and a block inside, outside, on its sphere or at its center."""
    scale = 1e200 if case == "center-huge" else 1.0
    center = rng.normal(size=d) * scale
    if case.startswith("center"):
        return NormalConeBall(center, float(rng.uniform(0.5, 2.0))), center.copy()
    if case.startswith("negzero"):
        x = np.full(d, -0.0)
        center *= 0.1 if case == "negzero-inside" else 3.0 / np.linalg.norm(center)
    else:
        x = center + rng.normal(size=d)
    dist = float(np.linalg.norm(x - center))
    radius = {"inside": 2.0 * dist, "outside": 0.5 * dist, "boundary": dist,
              "negzero-inside": 1.0, "negzero-outside": 1.0}[case]
    return NormalConeBall(center, radius), x


def _ray_case(rng, d, case):
    """A ray and a block whose <x, direction> is below, at or above 0;
    at 0, the block's nonzero entries face zero entries of the direction,
    and its other entries are -0.0."""
    direction = rng.normal(size=d)
    if case == "at" and d > 1:
        direction[rng.uniform(size=d) < 0.5] = 0.0
        direction[0] = direction[0] or 1.0
    ray = NormalConeRay(direction)
    if case == "at":
        return ray, np.where(ray.direction == 0.0, rng.normal(size=d), -0.0)
    x = rng.normal(size=d)
    x[rng.uniform(size=d) < 0.3] = -0.0
    side = 1.0 if case == "above" else -1.0
    return ray, x if side * float(x @ ray.direction) > 0.0 else -x


def _box_case(rng, d, case):
    """A box with some infinite bounds and zero bounds, and a block inside
    it, outside it, on its bounds or of -0.0 entries."""
    lower, upper = -np.abs(rng.normal(size=d)), np.abs(rng.normal(size=d))
    lower[rng.uniform(size=d) < 0.3] = -np.inf
    upper[rng.uniform(size=d) < 0.3] = np.inf
    lower[rng.uniform(size=d) < 0.2] = 0.0
    box = NormalConeBox(lower, upper)
    if case == "bound":
        x = np.where(np.isfinite(lower), lower, np.where(np.isfinite(upper), upper, 5.0))
    elif case == "negzero":
        x = np.full(d, -0.0)
    else:
        x = rng.normal(size=d) * (0.2 if case == "inside" else 5.0)
    return box, x


_HALFSPACE_CASES = [f"{kind}-{where}-{size}"
                    for kind in ("plain", "negzero")
                    for where in ("inside", "outside", "boundary")
                    for size in ("unit", "huge")]
_BALL_CASES = ["inside", "outside", "boundary", "center", "center-huge",
               "negzero-inside", "negzero-outside"]
_RAY_CASES = ["below", "at", "above"]
_BOX_CASES = ["inside", "outside", "bound", "negzero"]


def _fallback_member(rng, d, i):
    """A member of a kind that does not stack, and a block for it."""
    kinds = (
        lambda: Inverse(NormalConeHalfspace(rng.normal(size=d), 0.3)),
        lambda: Rotation(NormalConeBall(rng.normal(size=d), 1.0)),
        lambda: SphereSelection(rng.normal(size=d), 1.0, rng.normal(size=d)),
    )
    return kinds[i % len(kinds)](), rng.normal(size=d) * 2.0


@pytest.mark.parametrize("d", [1, 2, 3, 9])
@pytest.mark.parametrize("seed", range(6))
def test_block_separable_stacked_matches_member_loop_bit_for_bit(d, seed):
    rng = np.random.default_rng(1000 * d + seed)
    members = []
    for i in range(int(rng.integers(8, 24))):
        pick = rng.uniform()
        if pick < 0.25:
            members.append(_halfspace_case(rng, d, str(rng.choice(_HALFSPACE_CASES))))
        elif pick < 0.5:
            members.append(_ball_case(rng, d, str(rng.choice(_BALL_CASES))))
        elif pick < 0.7:
            members.append(_ray_case(rng, d, str(rng.choice(_RAY_CASES))))
        elif pick < 0.9:
            members.append(_box_case(rng, d, str(rng.choice(_BOX_CASES))))
        elif seed % 2:  # odd seeds mix in members that resolve one block at a time
            members.append(_fallback_member(rng, d, i))
    order = rng.permutation(len(members))
    block = BlockSeparable([members[i][0] for i in order])
    x = np.concatenate([members[i][1] for i in order])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = block.resolve(x)
        want = _loop_resolve(block, x)
    assert got.shape == want.shape == x.shape
    assert got.tobytes() == want.tobytes()  # == on every bit, signed zeros too
    # an (N, m d) batch of lifted points: a ball resolves a batch of
    # stacks (N, k, d) by its row expression, and each row as the loop
    # does; a 1e200 block doubled overflows a squared norm in both paths
    X = np.stack([x, -x, 0.5 * x, 2.0 * x, np.zeros_like(x), np.full_like(x, -0.0)])
    with np.errstate(over="ignore"):
        got = block.resolve(X)
        want = np.array([_loop_resolve(block, row) for row in X])
    assert got.shape == X.shape and got.tobytes() == want.tobytes()


def test_block_separable_resolves_a_stacking_kinds_subclass_block_by_block():
    # ``stacks`` counts only on the class that declares it: a subclass
    # that overrides ``_kernel`` need not broadcast over a member axis
    shapes = []

    class Ray(NormalConeRay):
        def _kernel(self, x):
            shapes.append(x.shape)
            return super()._kernel(x)

    block = BlockSeparable([Ray([1.0, 0.0]), Ray([0.0, 1.0]), Ray([1.0, 1.0])])
    x = np.array([3.0, -1.0, -2.0, 4.0, -5.0, 1.0])
    got = block.resolve(x)
    assert shapes == [(2,)] * 3
    assert got.tobytes() == _loop_resolve(block, x).tobytes()
    shapes.clear()
    block.resolve(np.stack([x, -x]))
    assert shapes == [(2, 2)] * 3


def test_block_separable_every_case_in_one_product():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 9):
        members = ([_halfspace_case(rng, d, c) for c in _HALFSPACE_CASES]
                   + [_ball_case(rng, d, c) for c in _BALL_CASES]
                   + [_fallback_member(rng, d, i) for i in range(3)])
        block = BlockSeparable([op for op, _ in members])
        x = np.concatenate([p for _, p in members])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = block.resolve(x)
        assert got.tobytes() == _loop_resolve(block, x).tobytes()
        # blocks the member leaves in place keep their bits, -0.0 included
        moved = 0
        for i, (op, p) in enumerate(members):
            row = got[i * d:(i + 1) * d]
            if isinstance(op, (NormalConeHalfspace, NormalConeBall)):
                unchanged = op.resolve(p).tobytes() == p.tobytes()
                assert (row.tobytes() == p.tobytes()) == unchanged
                moved += not unchanged
        assert moved > 0


def test_block_separable_ball_overflow_matches_member_loop():
    # |x - c|^2 overflows for 1e200 entries in both paths; both warn, and
    # both fall back to the norm scaled by max |x_i - c_i|, which sends
    # the block to its true projection
    block = BlockSeparable([NormalConeBall([0.0, 0.0], 1.0), NormalConeBall([1.0, 0.0], 1.0)])
    x = np.array([1e200, -1e200, 3.0, 0.0])
    with pytest.warns(RuntimeWarning, match="overflow"):
        got = block.resolve(x)
    with pytest.warns(RuntimeWarning, match="overflow"):
        want = _loop_resolve(block, x)
    assert got.tobytes() == want.tobytes()
    assert np.allclose(got, [np.sqrt(0.5), -np.sqrt(0.5), 2.0, 0.0], rtol=1e-15, atol=0.0)


def test_block_separable_resolves_repeated_kinds_together(monkeypatch):
    # members are resolved by their kernels, the block having validated
    # the point as a whole: the blocks of a stacking kind that occurs more
    # than once in one call, as a (k, d) stack, and every other member on
    # its own block
    calls = {cls: [] for cls in (NormalConeHalfspace, NormalConeBall, NormalConeRay,
                                 NormalConeBox, NormalConeAffineSubspace)}
    for cls in calls:
        original = cls._kernel

        def counted(self, x, cls=cls, original=original):
            calls[cls].append(x.shape)
            return original(self, x)

        monkeypatch.setattr(cls, "_kernel", counted)
    line = NormalConeAffineSubspace([0.0, 0.0], [[1.0], [0.0]])
    ops = [NormalConeHalfspace([1.0, 0.0], 0.5), NormalConeBall([0.0, 0.0], 1.0),
           NormalConeHalfspace([0.0, 1.0], 0.5), NormalConeBall([2.0, 0.0], 1.0),
           NormalConeHalfspace([1.0, 1.0], 0.0), NormalConeRay([1.0, 0.0]),
           NormalConeRay([0.0, 1.0]), NormalConeBox([-1.0, -1.0], [1.0, 1.0]), line, line]
    x = np.arange(20.0) - 10.0
    BlockSeparable(ops).resolve(x)
    # halfspaces, balls and rays resolve their stacked blocks in one call;
    # the one box and the subspaces, which do not stack, one block each
    assert calls == {NormalConeHalfspace: [(3, 2)], NormalConeBall: [(2, 2)],
                     NormalConeRay: [(2, 2)], NormalConeBox: [(2,)],
                     NormalConeAffineSubspace: [(2,), (2,)]}
    for shapes in calls.values():
        shapes.clear()
    BlockSeparable(ops[:2] + ops[5:8]).resolve(x[:10])
    # a kind that occurs once keeps its own kernel call
    assert calls == {NormalConeHalfspace: [(2,)], NormalConeBall: [(2,)],
                     NormalConeRay: [(2, 2)], NormalConeBox: [(2,)],
                     NormalConeAffineSubspace: []}


def _counted_validations(monkeypatch, *modules):
    """Count the calls of ``_as_points`` made through each of ``modules``."""
    calls = []
    original = operators._as_points

    def counted(x, dim):
        calls.append(np.shape(x))
        return original(x, dim)

    for module in modules:
        monkeypatch.setattr(module, "_as_points", counted)
    return calls


def test_block_separable_validates_the_point_once(monkeypatch):
    # stacked members and a member of a kind that occurs once (the box)
    # are all resolved by their kernels
    ops = [NormalConeHalfspace([1.0, 0.0], 0.5), NormalConeBall([0.0, 0.0], 1.0),
           NormalConeHalfspace([0.0, 1.0], 0.5), NormalConeBall([2.0, 0.0], 1.0),
           NormalConeRay([1.0, 0.0]), NormalConeRay([0.0, 1.0]),
           NormalConeBox([-1.0, -1.0], [1.0, 1.0])]
    block = BlockSeparable(ops)
    calls = _counted_validations(monkeypatch, operators)
    for x in (np.arange(14.0) - 7.0, np.arange(42.0).reshape(3, 14) - 20.0):
        calls.clear()
        block.resolve(x)
        assert calls == [x.shape]


# ---------------------------------------------------------------------------
# resolvent kernels: resolve validates and hands its point to _kernel


@pytest.mark.parametrize("d", [1, 2, 3])
def test_every_kernel_is_its_resolve_on_a_valid_point(d):
    rng = np.random.default_rng(70 + d)
    members = _batch_members(rng, d)
    assert {type(op) for op, _ in members.values()} == set(operators._CATALOG.values())
    for label, (op, _) in members.items():
        X = _batch_points(rng, op)
        # 1e160 rows overflow ||x - c||^2 (then rescaled) in both paths
        with np.errstate(over="ignore"):
            for x in (*X, X):
                assert op._kernel(x).tobytes() == op.resolve(x).tobytes(), (label, x.shape)


class _LowerHalf(operators.Operator):
    """The projection onto {x : x_1 <= 0}, outside the catalog: it
    implements ``resolve`` only, on a point or a batch."""

    kind = "lower_half"

    def resolve(self, x):
        y = np.array(x, dtype=float)
        y[..., 0] = np.minimum(y[..., 0], 0.0)
        return y


def test_an_operator_with_only_resolve_is_its_own_kernel():
    op = _LowerHalf(2)
    x = np.array([[1.5, -2.0], [-0.5, 3.0]])
    assert op._kernel(x).tobytes() == op.resolve(x).tobytes()
    ball = NormalConeBall([1.0, 1.0], 0.5)
    block = BlockSeparable([op, ball, Rotation(op), Inverse(op)])
    X = np.random.default_rng(71).normal(size=(5, 8)) * 3.0
    for x in (*X, X):
        blocks = x.reshape(*x.shape[:-1], 4, 2)
        want = np.stack([op.resolve(blocks[..., 0, :]), ball.resolve(blocks[..., 1, :]),
                         -op.resolve(-blocks[..., 2, :]),
                         blocks[..., 3, :] - op.resolve(blocks[..., 3, :])], axis=-2)
        assert block.resolve(x).tobytes() == want.reshape(x.shape).tobytes()


def test_a_kind_without_resolve_or_kernel_keeps_the_default_resolve():
    # a kind gets the validating resolve only when it has a kernel of its
    # own; without one, resolve would call the default kernel, which
    # calls resolve again
    class Bare(operators.Operator):
        kind = "bare"

    class Ball(NormalConeBall):
        kind = "ball_again"

    assert "resolve" not in vars(Bare) and vars(Ball)["resolve"] is operators._resolve
    with pytest.raises(NotImplementedError):
        Bare(2).resolve([1.0, 2.0])
    assert Ball([0.0, 0.0], 1.0).resolve([0.0, 2.0]).tolist() == [0.0, 1.0]


# ---------------------------------------------------------------------------
# point batches: resolve and reflect map an (N, d) array row by row


def _batch_members(rng, d):
    """One member of every catalog kind on R^d, keyed by a label, with
    whether its batch kernel is the per-point kernel bit for bit (the
    vecdot and elementwise kernels) or a matrix product within rounding
    (subspace projections and the linear solves)."""
    ball = NormalConeBall(rng.normal(size=d), 1.5)
    halfspace = NormalConeHalfspace(rng.normal(size=d), 0.3)
    subspace = NormalConeAffineSubspace(rng.normal(size=d), rng.normal(size=(d, 1)))
    members = {
        "linear": (random_linear_monotone(rng, d), False),
        "affine": (random_affine_relation(rng, d, through_origin=False), False),
        "subspace-point": (NormalConeAffineSubspace(rng.normal(size=d), np.zeros((d, 0))),
                           False),
        "subspace-rank1": (subspace, False),
        "subspace-rank2": (NormalConeAffineSubspace(rng.normal(size=d),
                                                    rng.normal(size=(d, min(2, d)))), False),
        "halfspace": (halfspace, True),
        "ball": (ball, True),
        "ray": (NormalConeRay(rng.normal(size=d)), True),
        "box": (NormalConeBox(-np.abs(rng.normal(size=d)), np.full(d, np.inf)), True),
        "sphere": (SphereSelection(ball.center, 1.5, rng.normal(size=d)), True),
        "inverse-ball": (Inverse(ball), True),
        "inverse-subspace": (Inverse(subspace), False),
        "rotation-halfspace": (Rotation(halfspace), True),
        "rotation-linear": (Rotation(random_linear_monotone(rng, d)), False),
        "block-stacked": (BlockSeparable([ball, halfspace, NormalConeBall(-ball.center, 0.5),
                                          Inverse(ball), NormalConeHalfspace(ball.center, 0.0)]),
                          True),
        "block-single": (BlockSeparable([ball, halfspace, NormalConeRay(ball.center),
                                         NormalConeBox(-np.ones(d), np.ones(d))]), True),
        "block-subspace": (BlockSeparable([ball, ball, subspace]), False),
    }
    return members


def _batch_points(rng, op):
    """Rows that reach every branch: random, inside and on the far side,
    zero and -0.0, each member center, and scales where a squared norm
    overflows or underflows."""
    d = op.dim
    rows = [rng.normal(size=d) * s for s in (0.1, 1.0, 3.0, 10.0)]
    rows += [np.zeros(d), np.full(d, -0.0), rng.normal(size=d) * 1e160,
             rng.normal(size=d) * 1e-200]
    members = op.ops if isinstance(op, BlockSeparable) else [op]
    rows.append(np.concatenate([getattr(m, "center", rng.normal(size=m.dim))
                                for m in members]))
    return np.array(rows)


@pytest.mark.parametrize("d", [1, 2, 3, 9])
def test_batch_resolve_and_reflect_match_the_per_point_calls(d):
    rng = np.random.default_rng(40 + d)
    for label, (op, bitwise) in _batch_members(rng, d).items():
        X = _batch_points(rng, op)
        for method in ("resolve", "reflect"):
            # 1e160 rows overflow ||x - c||^2 (then rescaled) in both paths
            with np.errstate(over="ignore"):
                got = getattr(op, method)(X)
                want = np.array([getattr(op, method)(x) for x in X])
            assert got.shape == X.shape, (label, method)
            if bitwise:
                assert got.tobytes() == want.tobytes(), (label, method)
            else:
                # within 1e-12 relative to the larger of the row, its image
                # and the unit scale of the operators' offsets and matrices
                scale = np.maximum(np.abs(want).max(axis=1), np.abs(X).max(axis=1))
                scale = np.maximum(scale, 1.0)
                gap = np.abs(got - want).max(axis=1)
                assert np.all(gap <= 1e-12 * scale), (label, method, gap / scale)


@pytest.mark.parametrize("method", ["resolve", "reflect"])
def test_batch_with_a_non_finite_row_or_a_wrong_shape_is_rejected(method):
    rng = np.random.default_rng(41)
    for label, (op, _) in _batch_members(rng, 3).items():
        call = getattr(op, method)
        X = rng.normal(size=(5, op.dim))
        for bad in (np.nan, np.inf, -np.inf):
            Y = X.copy()
            Y[3, -1] = bad
            with pytest.raises(NonFinitePointError):
                call(Y)
        for shape in ((5, op.dim + 1), (5, op.dim - 1), (2, 5, op.dim), ()):
            with pytest.raises(DimensionMismatchError):
                call(np.ones(shape))


def test_the_one_norm_is_finite_at_every_finite_scale():
    # _norm of a point, and _row_norms of a point, a batch, a batch with
    # exactly zero rows and a stack of both, at 10^k for every k in
    # [-320, 308]: <v, v> overflows from k = 155 on (the one warning, which
    # the caller silences) and loses bits below k = -154
    rng = np.random.default_rng(51)
    eps = np.finfo(float).eps
    for k in range(-320, 309):
        d = 1 + k % 3
        batch = 10.0 ** k * rng.uniform(-1.0, 1.0, size=(6, d))
        with_zeros = batch.copy()
        with_zeros[::2] = 0.0
        with np.errstate(over="ignore"):
            norms = [(batch[0], operators._norm(batch[0])),
                     (batch[0], operators._row_norms(batch[0]))]
            for rows in (batch, with_zeros, np.stack([batch, with_zeros])):
                norms += zip(rows.reshape(-1, d), operators._row_norms(rows).reshape(-1))
            checks = [(v, norm, float(v @ v), reference_norm(v)) for v, norm in norms]
        for v, norm, sq, reference in checks:
            assert norm == reference, (k, v)
            m = float(np.max(np.abs(v)))
            if m == 0.0:
                assert norm == 0.0, (k, v)
                continue
            assert 0.0 < norm < math.inf, (k, v)
            scaled = m * math.sqrt((v / m) @ (v / m))
            assert abs(norm - scaled) <= 2.0 * eps * scaled, (k, v)
            if TINY <= sq < math.inf:
                assert norm == math.sqrt(sq), (k, v)


def test_the_one_norm_of_a_point_with_an_inf_or_nan_entry():
    # inf with no nan entry, as np.linalg.norm gives; nan with one; the
    # finite rows of the batch keep their norms (2^660: exact)
    rows = np.array([[np.inf, 0.0], [-np.inf, 1e-320], [np.inf, np.nan], [np.nan, 1e200],
                     [3.0 * 2.0 ** 660, -4.0 * 2.0 ** 660], [0.0, 0.0]])
    want = [math.inf, math.inf, math.nan, math.nan, 5.0 * 2.0 ** 660, 0.0]
    with np.errstate(over="ignore"):
        assert np.array_equal(operators._row_norms(rows), want, equal_nan=True)
        assert np.array_equal([operators._norm(row) for row in rows], want, equal_nan=True)


def test_the_one_point_norm_squares_an_overflowing_point_twice():
    # _norm's <v, v> overflows, and its fallback squares v once more, as
    # the one row of a batch: one warning each, and the batch row's bits
    ball = NormalConeBall([0.0, 0.0], 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        y = ball.resolve((3e200, -7e200))
    assert [str(w.message) for w in caught] == ["overflow encountered in dot",
                                               "overflow encountered in vecdot"]
    with np.errstate(over="ignore"):
        assert y.tobytes() == ball.resolve(np.array([[3e200, -7e200]]))[0].tobytes()


def test_row_norms_squares_an_overflowing_point_once():
    # the fallback reuses the square of the fast path for a 1-D point
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = operators._row_norms(np.array([3e200, -7e200]))
    assert [str(w.message) for w in caught] == ["overflow encountered in vecdot"]
    with np.errstate(over="ignore"):
        want = operators._row_norms(np.array([[3e200, -7e200]]))[0]
    assert got.tobytes() == want.tobytes() and got.shape == ()


def test_ball_and_sphere_scale_norms_that_overflow_or_underflow():
    ball = NormalConeBall([0.0, 0.0], 1.0)
    with np.errstate(over="ignore"):
        assert ball.resolve([1e160, 0.0]).tolist() == [1.0, 0.0]
        assert ball.resolve(np.array([[1e160, 0.0], [0.0, -1e200]])).tolist() == [
            [1.0, 0.0], [0.0, -1.0]]
    sphere = SphereSelection([0.0, 0.0], 2.0, [1.0, 0.0])
    # ||x||^2 underflows to 0, yet x is not the center
    assert sphere.resolve([0.0, 1e-200]).tolist() == [0.0, 2.0]
    assert sphere.resolve(np.array([[0.0, 1e-200], [0.0, 0.0]])).tolist() == [
        [0.0, 2.0], [2.0, 0.0]]
    # a subnormal distance: radius / dist overflows, radius * (v / dist) does not
    unit = SphereSelection([0.0, 0.0], 1.0, [0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert unit.resolve([1e-310, 0.0]).tolist() == [1.0, 0.0]
        assert unit.resolve(np.array([[1e-310, 0.0], [0.0, -5e-324], [0.0, 0.0],
                                      [-4.0, 0.0]])).tolist() == [
            [1.0, 0.0], [0.0, -1.0], [0.0, 1.0], [-1.0, 0.0]]
    # in normal range the plain norm is kept, bit for bit
    x = np.array([0.3, -2.7])
    assert ball.resolve(x).tobytes() == ((1.0 / np.linalg.norm(x)) * x).tobytes()


@pytest.mark.parametrize("wrap", ["reflect", "inverse", "rotation"])
def test_reflect_inverse_and_rotation_raise_the_errors_of_the_resolve_they_call(wrap):
    # each validates through the one resolve it calls, of the same dimension
    rng = np.random.default_rng(42)
    for op in (NormalConeBall([1.0, 2.0, 0.5], 1.5), X_AXIS,
               BlockSeparable([UP_RAY, NormalConeHalfspace([0.0, 1.0], 0.0)])):
        call = {"reflect": op.reflect, "inverse": Inverse(op).resolve,
                "rotation": Rotation(op).resolve}[wrap]
        d = op.dim
        for shape in ((d + 1,), (4, d - 1), (2, 4, d), ()):
            with pytest.raises(DimensionMismatchError) as exc:
                call(np.ones(shape))
            assert str(exc.value) == (
                f"expected a point in R^{d} or an (N, {d}) batch, got shape {shape}")
        for bad in (np.nan, np.inf, -np.inf):
            for x in (np.full(d, bad), np.where(np.arange(2 * d).reshape(2, d) == 1, bad,
                                                rng.normal(size=(2, d)))):
                with pytest.raises(NonFinitePointError, match="^point has non-finite entries$"):
                    call(x)


def _float_range_values():
    """10^k for k in [-323, 308], +-0.0, the largest float and subnormals,
    with alternating signs."""
    tiny = np.finfo(float).tiny
    values = [10.0 ** k for k in range(-323, 309)]
    values += [0.0, -0.0, np.finfo(float).max, 5e-324, tiny / 2.0, tiny * (1.0 - 2.0 ** -52)]
    return np.array(values) * np.where(np.arange(len(values)) % 3 == 1, -1.0, 1.0)


def _checked(call, x):
    """The error type and message ``call(x)`` raises, or None when it
    returns; a RuntimeWarning fails the test (the suite turns it into an
    error)."""
    try:
        call(x)
    except (NonFinitePointError, DimensionMismatchError) as exc:
        return type(exc), str(exc)
    return None


def _planted(rows):
    """Each row with nan, inf and -inf planted at each position in turn."""
    for row in rows:
        for j in range(row.shape[0]):
            for bad in (np.nan, np.inf, -np.inf):
                out = row.copy()
                out[j] = bad
                yield out


def _points_and_batches(d):
    """Finite points of R^d over the float range and their planted copies,
    then the (N, d) batch of the finite points and copies of it with one
    planted row (first, middle, last)."""
    values = _float_range_values()
    finite = np.resize(values, (-(-len(values) // d), d))  # every value, cycled
    points = [*finite, *_planted(finite)]
    batches = [finite]
    for i in (0, len(finite) // 2, len(finite) - 1):
        batches += [np.concatenate([finite[:i], row[None], finite[i + 1:]])
                    for row in _planted(finite[i:i + 1])]
    return points + batches


def test_point_check_decides_as_isfinite_all_over_the_float_range():
    rejected = (NonFinitePointError, "point has non-finite entries")
    members = _batch_members(np.random.default_rng(43), 2)
    assert {op.kind for op, _ in members.values()} == set(operators._CATALOG)
    inputs = {d: _points_and_batches(d) for d in {2, 3, *(op.dim for op, _ in members.values())}}
    for d, xs in inputs.items():
        for x in xs:
            want = None if np.isfinite(x).all() else rejected
            assert _checked(lambda p: operators._as_points(p, d), x) == want
            if x.ndim == 1:
                assert _checked(lambda p: operators.as_point(p, d), x) == want
                assert _checked(operators.as_point, x) == want
    for label, (op, _) in members.items():
        for x in inputs[op.dim]:
            if np.isfinite(x).all():
                # the kernels' own overflow at these magnitudes belongs to
                # the float-range contract, not to the point check
                with np.errstate(over="ignore", invalid="ignore"):
                    assert _checked(op.resolve, x) is None, label
            else:
                assert _checked(op.resolve, x) == rejected, label


# The float-range contract: at every magnitude 10^k, k in [-300, 300], a
# resolvent returns a finite point that meets its kind's characterization,
# each residual taken relative to the scale of its own terms (so that no
# residual overflows or underflows), or a non-finite point, which
# ``iterate`` ends as DivergenceError and the CLI as exit 1.

_WHOLE_SPACE = {d: NormalConeAffineSubspace(np.zeros(d), np.eye(d)) for d in (1, 2, 3, 6)}
_FLOAT_RANGE_TOL = 1e-12

# Warnings a resolvent is expected to emit at these magnitudes, and why:
# the ball and sphere kernels measure ||x - c|| by ``_norm`` (one ball
# point) or ``_row_norms`` (a batch, a sphere point), which square it
# before they fall back to the scaled norm once the square overflows,
# past about 1e154; the squared-norm warning is left to the caller.
_SQUARED_NORM = {"overflow encountered in dot": "the one-point _norm squares ||x - c||",
                 "overflow encountered in vecdot": "_row_norms squares each row first"}


def _float_range_operators():
    """(operator, the warnings of ``_SQUARED_NORM`` it may emit) per case,
    every catalog kind among them, with sets both through the origin (so
    that tiny points are not absorbed into an O(1) offset) and off it."""
    ball = NormalConeBall([0.5, -1.0], 1.0)
    return [
        (AffineRelation([[1.0, 2.0], [-2.0, 0.5]], [0.5, -1.0]), ()),
        (LinearMonotone([[2.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.5]]), ()),
        (NormalConeAffineSubspace([1.0, -2.0, 0.5], [[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]]), ()),
        (NormalConeAffineSubspace([0.0, 0.0], [[1.0], [0.5]]), ()),
        (NormalConeHalfspace([1.0, -2.0], 0.7), ()),
        (NormalConeHalfspace([0.6, 0.8], -0.5), ()),
        (NormalConeBall([0.0, 0.0], 1.5), tuple(_SQUARED_NORM)),
        (ball, tuple(_SQUARED_NORM)),
        (NormalConeRay([1.0, 2.0, -2.0]), ()),
        (NormalConeBox([-1.0, -np.inf], [2.0, 0.5]), ()),
        (SphereSelection([0.0, 0.0], 2.0, [0.0, 1.0]), ("overflow encountered in vecdot",)),
        (SphereSelection([1.0, -1.0, 0.0], 0.5, [1.0, 0.0, 0.0]),
         ("overflow encountered in vecdot",)),
        (Inverse(ball), tuple(_SQUARED_NORM)),
        (Rotation(NormalConeHalfspace([0.0, 1.0], -0.5)), ()),
        (BlockSeparable([NormalConeBall([0.0, 0.0], 1.0), NormalConeRay([1.0, 0.0]), ball]),
         ("overflow encountered in vecdot",)),
    ]


def _amax(v) -> float:
    return float(np.max(np.abs(v), initial=0.0))


def _direction(v: np.ndarray) -> np.ndarray:
    """v / ||v|| for a nonzero finite v, through v / max |v_i|."""
    w = v / _amax(v)
    return w / math.sqrt(w @ w)


def _characterization_gap(op, x: np.ndarray, y: np.ndarray) -> float:
    """How far y is from being the resolvent of op at the point x, each
    residual relative to the scale of its own terms; 0 for an exact one."""
    if isinstance(op, Rotation):
        return _characterization_gap(op.inner, -x, -y)
    if isinstance(op, Inverse):
        # J_(A^-1) = Id - J_A, where x - J_A x may absorb J_A x; the
        # warnings of J_A x are those of the resolve under test
        p = _resolve_and_warnings(op.inner, x)[0]
        return max(_characterization_gap(op.inner, x, p),
                   _amax(y - (x - p)) / max(_amax(x), _amax(p)))
    if isinstance(op, BlockSeparable):
        d = op.block_dim
        return max(_characterization_gap(member, x[i * d:(i + 1) * d], y[i * d:(i + 1) * d])
                   for i, member in enumerate(op.ops))
    if isinstance(op, AffineRelation):
        # y + M y + b = x
        terms = (x, op.offset, y, op.matrix @ y)
        return _amax(y + op.matrix @ y + op.offset - x) / max(map(_amax, terms))
    if isinstance(op, NormalConeAffineSubspace):
        # y - offset in the range of the basis, x - y orthogonal to it
        scale = max(_amax(x), _amax(op.offset), _amax(y))
        u = y - op.offset
        return max(_amax(u - op.basis @ (op.basis.T @ u)), _amax(op.basis.T @ (x - y))) / scale
    if isinstance(op, NormalConeHalfspace):
        # x - y = max(slack, 0) n, and y in the halfspace
        scale = max(_amax(x), abs(op.rhs))
        slack = float(op.normal @ x) - op.rhs
        return max(_amax(x - y - max(slack, 0.0) * op.normal),
                   max(float(op.normal @ y) - op.rhs, 0.0)) / scale
    if isinstance(op, NormalConeRay):
        # y = t d with t >= 0, x - y orthogonal to d when t > 0 and in the polar cone at t = 0
        t = float(op.direction @ y)
        normal = (max(float(op.direction @ x), 0.0) if t == 0.0
                  else abs(float(op.direction @ (x - y))))
        return max(_amax(y - t * op.direction), max(-t, 0.0), normal) / max(_amax(x), TINY)
    if isinstance(op, NormalConeBox):
        inside = (op.lower <= y) & (y <= op.upper)
        kept = (y == x) | ((y == op.lower) & (x < op.lower)) | ((y == op.upper) & (x > op.upper))
        return 0.0 if (inside & kept).all() else math.inf
    if isinstance(op, (NormalConeBall, SphereSelection)):
        v = x - op.center
        if isinstance(op, SphereSelection) and not v.any():
            unit = op.tie_direction
        else:
            dist = _amax(v) * math.sqrt((v / _amax(v)) @ (v / _amax(v))) if v.any() else 0.0
            if isinstance(op, NormalConeBall) and dist <= op.radius * (1.0 + _FLOAT_RANGE_TOL):
                return 0.0 if y.tobytes() == x.tobytes() else math.inf
            unit = _direction(v)
        # y - c = r (x - c) / ||x - c||
        return _amax((y - op.center) / op.radius - unit) / (1.0 + _amax(op.center) / op.radius)
    raise AssertionError(f"no characterization for {op.kind}")


def _diverges(op, x) -> bool:
    """Whether ``iterate`` ends the step J_op x as DivergenceError: with
    the whole space as first operand, T x = J_op x."""
    T = SplitOperator(_WHOLE_SPACE[op.dim], op, generalized=not op.monotone)
    try:
        iterate(T, x, 1)
    except DivergenceError:
        return True
    return False


def _resolve_and_warnings(op, x):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        y = op.resolve(x)
    return y, {str(w.message) for w in caught}


def test_every_resolvent_keeps_its_characterization_over_the_float_range():
    rng = np.random.default_rng(52)
    cases = _float_range_operators()
    assert {op.kind for op, _ in cases} == set(operators._CATALOG)
    magnitudes = 10.0 ** np.arange(-300, 301)
    for op, expected in cases:
        # one point at each magnitude, and all of them as one batch
        points = magnitudes[:, None] * rng.uniform(-1.0, 1.0, (len(magnitudes), op.dim))
        seen = set()
        for x in points:
            y, warned = _resolve_and_warnings(op, x)
            assert warned <= set(expected), (op.kind, x)
            assert not warned or _amax(x) > 1e150, (op.kind, x, warned)
            seen |= warned
            if np.isfinite(y).all():
                assert _characterization_gap(op, x, y) <= _FLOAT_RANGE_TOL, (op.kind, x, y)
            else:
                assert _diverges(op, x), (op.kind, x)
        ys, warned = _resolve_and_warnings(op, points)
        assert warned <= set(expected) and ys.shape == points.shape, op.kind
        for x, y in zip(points, ys):
            if np.isfinite(y).all():
                assert _characterization_gap(op, x, y) <= _FLOAT_RANGE_TOL, (op.kind, x, y)
            else:
                assert _diverges(op, x), (op.kind, x)
        # every named warning shows up somewhere
        assert seen | warned == set(expected), op.kind
    # a non-finite step is the divergence the CLI reports as exit 1
    translation = AffineRelation(np.zeros((2, 2)), [-1e308, 0.0])
    assert _diverges(translation, np.array([1e308, 0.0]))


# ---------------------------------------------------------------------------
# one kernel for both shapes: the halfspace, the ray and the sphere selection
# resolve a point with their row kernel, and LinearMonotone is the affine
# relation with a zero offset.  Their former one-point kernels are kept here
# as references, each validating as ``resolve`` does.


def _reference_halfspace(op, x):
    x = operators._as_points(x, op.dim)
    slack = float(op.normal @ x) - op.rhs
    if slack <= 0.0:
        return x.copy()
    return x - slack * op.normal


def _reference_ray(op, x):
    return max(float(op.direction @ operators._as_points(x, op.dim)), 0.0) * op.direction


def _reference_sphere(op, x):
    v = operators._as_points(x, op.dim) - op.center
    dist = reference_norm(v)
    if dist == 0.0:
        return op.center + op.radius * op.tie_direction
    scale = op.radius / dist
    if scale == math.inf:
        return op.center + op.radius * (v / dist)
    return op.center + scale * v


def _reference_ball(op, x):
    x = operators._as_points(x, op.dim)
    v = x - op.center
    dist = reference_norm(v)
    if dist <= op.radius:
        return x.copy()
    return op.center + (op.radius / dist) * v


def _reference_subspace(op, x):
    # the former ``@`` products, on a point and on a batch
    centered = operators._as_points(x, op.dim) - op.offset
    return op.offset + (op.basis @ (op.basis.T @ centered.T)).T


def _reference_linear(op, x):
    shifted = np.eye(op.dim) + op.matrix
    return operators._solve_shifted(shifted, operators._as_points(x, op.dim))


_REFERENCES = {NormalConeHalfspace: _reference_halfspace, NormalConeRay: _reference_ray,
               SphereSelection: _reference_sphere, LinearMonotone: _reference_linear,
               NormalConeBall: _reference_ball, NormalConeAffineSubspace: _reference_subspace}
# the references that take a batch in one call, as their kernels did
_BATCH_REFERENCES = (LinearMonotone, NormalConeAffineSubspace)


def _merged_kernel_members(rng, d):
    """The members of ``_batch_members`` whose kernels merged, a sphere
    about the origin (subnormal distances from its center), halfspaces
    with the origin on their boundary and far outside, and linear maps
    whose resolvent offsets are sums of -0.0 products; then the ball and
    the subspaces of rank 0, 1 and 2, whose kernels multiply with
    ``ndarray.dot`` where they used ``@``."""
    members = _batch_members(rng, d)
    ops = [members[label][0] for label in ("halfspace", "ray", "sphere", "linear")]
    ops += [SphereSelection(np.zeros(d), 1.5, rng.normal(size=d)),
            NormalConeHalfspace(rng.normal(size=d), 0.0),
            NormalConeHalfspace(rng.normal(size=d), -1e300),
            LinearMonotone(np.zeros((d, d))), LinearMonotone(0.5 * np.eye(d))]
    ops += [members[label][0] for label in ("ball", "subspace-point", "subspace-rank1",
                                            "subspace-rank2")]
    return ops


def _merged_kernel_inputs(rng, op):
    """``_batch_points`` rows, points near and a subnormal distance from the
    sphere center, and the float-range points and batches."""
    d = op.dim
    near = [getattr(op, "center", np.zeros(d)) + s * rng.normal(size=d)
            for s in (0.0, 5e-324, 1e-310, 1e-300)]
    rows = [*_batch_points(rng, op), *near, rng.normal(size=d) * 1e300]
    return [*rows, np.array(rows), *_points_and_batches(d), np.ones(d + 1), np.ones(())]


def _resolve_outcome(call, x):
    """The bytes and shape ``call(x)`` returns, or the error type and
    message it raises."""
    try:
        got = call(x)
    except (NonFinitePointError, DimensionMismatchError) as exc:
        return type(exc), str(exc)
    return got.shape, got.tobytes()


def _reference_outcome(reference, op, x):
    """The reference's outcome on a point, or on each row of a batch in
    turn, where a batch raises the error of its first rejected row; the
    linear and subspace references take a batch in one call, as their
    kernels did."""
    if isinstance(op, _BATCH_REFERENCES) or np.ndim(x) != 2 or np.shape(x)[-1] != op.dim:
        return _resolve_outcome(lambda p: reference(op, p), x)
    rows = [_resolve_outcome(lambda p: reference(op, p), row) for row in x]
    failed = [row for row in rows if isinstance(row[0], type)]
    if failed:
        return failed[0]
    return np.shape(x), b"".join(data for _, data in rows)


@pytest.mark.parametrize("d", [1, 2, 3, 9])
def test_merged_kernels_match_their_one_point_references_bit_for_bit(d):
    rng = np.random.default_rng(44 + d)
    for op in _merged_kernel_members(rng, d):
        reference = _REFERENCES[type(op)]
        for x in _merged_kernel_inputs(rng, op):
            # overflow at these magnitudes belongs to the float-range
            # contract; the kernels are compared on what they return
            with np.errstate(over="ignore", invalid="ignore"):
                want = _reference_outcome(reference, op, x)
                got = _resolve_outcome(op.resolve, x)
            assert got == want, (op.kind, x)


@pytest.mark.parametrize("d", [1, 2, 3, 9])
def test_linear_monotone_affine_map_keeps_its_bits(d):
    rng = np.random.default_rng(48 + d)
    for op in (random_linear_monotone(rng, d), LinearMonotone(np.zeros((d, d))),
               LinearMonotone(0.5 * np.eye(d))):
        # the affine map of the zero-offset affine relation, bit for bit
        zero_offset = AffineRelation(op.matrix, np.zeros(d))
        for got, want in zip(_affine_form(op.resolve, d), _affine_form(zero_offset.resolve, d)):
            assert got.tobytes() == want.tobytes()
        assert op.to_dict().keys() == {"kind", "matrix"} and op.kind == "linear_monotone"


@pytest.mark.parametrize("matrix, shape", [
    (3.0, ()), ([1.0, 2.0], (2,)), (np.zeros((2, 3)), (2, 3)), (np.zeros((1, 1, 1)), (1, 1, 1)),
])
def test_linear_monotone_names_a_matrix_that_is_not_square(matrix, shape):
    with pytest.raises(DimensionMismatchError) as exc:
        LinearMonotone(matrix)
    assert str(exc.value) == f"matrix must be square, got {shape}"


_SUBSPACE_DOC = {"kind": "normal_cone_affine_subspace", "offset": [0.0, 0.0],
                 "basis": [[1.0, 0.0], [0.0, 1.0]]}
_AFFINE_DOC = {"kind": "affine_relation", "matrix": [[1.0, 0.0], [0.0, 1.0]],
               "offset": [0.0, 1.0]}


@pytest.mark.parametrize("build, name", [
    # kept the normal (2, 0), so (3, 1) resolved to (-7, 1)
    (lambda tol: NormalConeHalfspace([2.0, 0.0], 1.0, tau_ortho=tol), "tau_ortho"),
    # dropped every basis column: rank 0
    (lambda tol: NormalConeAffineSubspace([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], tau_ortho=tol),
     "tau_ortho"),
    # accepted, then resolve raised "internal invariant violation"
    (lambda tol: LinearMonotone(-np.eye(2), tau_psd=tol), "tau_psd"),
    (lambda tol: AffineRelation(np.eye(2), [0.0, 1.0], tau_psd=tol), "tau_psd"),
    (lambda tol: NormalConeRay([2.0, 0.0], tau_ortho=tol), "tau_ortho"),
    (lambda tol: SphereSelection([0.0, 0.0], 1.0, [2.0, 0.0], tau_ortho=tol), "tau_ortho"),
    (lambda tol: operator_from_dict(_SUBSPACE_DOC, tau_ortho=tol), "tau_ortho"),
    (lambda tol: operator_from_dict(_AFFINE_DOC, tau_psd=tol), "tau_psd"),
])
@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, True, "1e-10", None])
def test_every_tolerance_an_operator_is_built_with_is_checked(build, name, tol):
    with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative, got "):
        build(tol)


def test_a_negative_tau_ortho_no_longer_fills_the_basis_with_nan():
    # dependent columns with tau_ortho = -1 once gave a nan basis, and
    # resolve then returned nan with no error
    with pytest.raises(ValueError, match="^tau_ortho must be finite and nonnegative, got -1$"):
        NormalConeAffineSubspace([0.0, 0.0], [[1.0, 2.0], [0.0, 0.0]], tau_ortho=-1)
    line = NormalConeAffineSubspace([0.0, 0.0], [[1.0, 2.0], [0.0, 0.0]], tau_ortho=0)
    assert line.rank == 1 and line.resolve([3.0, 1.0]).tolist() == [3.0, 0.0]
