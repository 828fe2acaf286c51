import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drorder.operators import (
    AffineRelation,
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
    NotAffineError,
    Rotation,
    SphereSelection,
    graph_contains,
    is_monotone,
    operator_from_dict,
)
from drorder.harness import random_monotone_operator, random_point

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
    assert is_monotone(LinearMonotone(ALL_ONES_MATRIX))
    assert is_monotone(LinearMonotone([[0.0, -1.0], [1.0, 0.0]]))  # skew
    assert not is_monotone(SphereSelection([0.0, 0.0], 2.0, [0.0, 1.0]))
    assert is_monotone(Rotation(Inverse(UP_RAY)))
    assert not is_monotone(Rotation(SphereSelection([0.0, 0.0], 1.0, [1.0, 0.0])))


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


def test_affine_map_matches_resolve():
    rng = np.random.default_rng(13)
    g = rng.normal(size=(4, 4))
    ops = [
        LinearMonotone(g @ g.T + (g - g.T)),
        AffineRelation(g @ g.T, rng.normal(size=4)),
        NormalConeAffineSubspace(rng.normal(size=4), rng.normal(size=(4, 2))),
        Inverse(AffineRelation(g @ g.T, rng.normal(size=4))),
        Rotation(NormalConeAffineSubspace(rng.normal(size=4),
                                          rng.normal(size=(4, 3)))),
    ]
    for op in ops:
        c, b = op.resolvent_affine_map()
        for _ in range(5):
            x = random_point(rng, 4)
            assert np.allclose(c @ x + b, op.resolve(x), atol=1e-10)
    with pytest.raises(NotAffineError):
        NormalConeBall([0.0, 0.0], 1.0).resolvent_affine_map()


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
