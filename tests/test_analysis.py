import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from drorder.analysis import (
    IDENTITIES,
    _REQUIREMENTS,
    _Words,
    _certified_fixed_points,
    _pair_defects,
    _probe_points,
    CertificateError,
    FixedPointBudgetError,
    IdentityReport,
    SolutionPair,
    check_commutation,
    check_commutator,
    check_conjugation,
    check_defect_decomposition,
    check_dual_symmetry,
    check_firmly_nonexpansive,
    check_nonexpansive_transfer,
    check_shadow_equality,
    certify_fixed_points,
    extract_solution,
    find_fixed_point,
    map_fixed_point,
    probe_conjugation,
    report_identities,
)
from drorder.operators import (
    AffineRelation,
    DimensionMismatchError,
    LinearMonotone,
    MonotonicityError,
    NormalConeAffineSubspace,
    NormalConeBall,
    NormalConeHalfspace,
    NormalConeRay,
    NonFinitePointError,
    NotAffineError,
    SphereSelection,
    TAU_NUM,
    as_point,
)
from drorder.harness import load_corpus
from drorder.splitting import (
    FORM_BORWEIN_TAM,
    DivergenceError,
    SplitOperator,
    _affine_form,
    dr_matrix,
    dr_step,
)

from draws import (
    random_affine_operator,
    random_monotone_operator,
    random_point,
    random_sphere_selection,
    random_subspace,
    reference_norm,
)

X_AXIS = NormalConeAffineSubspace([0.0, 0.0], [[1.0], [0.0]])
UP_RAY = NormalConeRay([0.0, 1.0])
ZERO2 = LinearMonotone(np.zeros((2, 2)))

# line inside a parallel plane in R^3: fixed points fill a plane
LINE3 = NormalConeAffineSubspace([0.0, 0.0, 0.0], [[1.0], [0.0], [0.0]])
PLANE3 = NormalConeAffineSubspace([0.0, 0.0, 0.0],
                                  [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
# the whole of R^2: J = R = Id
WHOLE_PLANE = NormalConeAffineSubspace([0.0, 0.0], np.eye(2))


def subspace_ball_pair():
    direction = np.array([1.0, 0.5]) / np.linalg.norm([1.0, 0.5])
    a = NormalConeAffineSubspace([0.0, 0.0], direction.reshape(2, 1))
    b = NormalConeBall([2.0, 1.0], 1.0)
    return a, b


# ---------------------------------------------------------------------------
# fixed points


def test_find_fixed_point_ray_vs_axis():
    T = SplitOperator(X_AXIS, UP_RAY)
    f = find_fixed_point(T, [5.0, -3.0])
    assert np.array_equal(f, [0.0, 0.0])


def test_find_fixed_point_identity_returns_start():
    T = SplitOperator(ZERO2, ZERO2)
    x0 = np.array([4.0, -7.0])
    assert np.array_equal(find_fixed_point(T, x0), x0)


def test_find_fixed_point_budget_error_carries_best():
    # a translation has no fixed points
    T = SplitOperator(ZERO2, AffineRelation(np.zeros((2, 2)), [-1.0, 0.0]))
    with pytest.raises(FixedPointBudgetError) as err:
        find_fixed_point(T, [0.0, 0.0], tol=1e-12, max_iter=30)
    assert err.value.residual == pytest.approx(1.0)
    assert np.all(np.isfinite(err.value.best))


def test_find_fixed_point_subspace_ball_lands_in_intersection():
    a, b = subspace_ball_pair()
    f = find_fixed_point(SplitOperator(a, b), [4.0, 3.0], tol=1e-13)
    z = a.resolve(f)
    assert np.linalg.norm(z - a.resolve(z)) <= 1e-9
    assert np.linalg.norm(z - np.array([2.0, 1.0])) <= 1.0 + 1e-9



class _ReferenceBudgetError(FixedPointBudgetError):
    """The reference loop's budget error, plus the last iterate whose
    residual it computed."""

    def __init__(self, best, best_residual, last, last_residual):
        super().__init__("budget", best, best_residual)
        self.last, self.last_residual = last, last_residual


def reference_fixed_point(T, x0, tol=1e-10, max_iter=10_000):
    """find_fixed_point as its own loop: the reference for the iterate path."""
    x = as_point(x0, T.dim)
    best = x
    best_residual = float("inf")
    for _ in range(max_iter):
        tx = T.apply(x)
        residual = float(np.linalg.norm(tx - x))
        if residual < best_residual:
            best, best_residual = x, residual
        if residual <= tol:
            return x
        last, last_residual = x, residual
        x = tx
    raise _ReferenceBudgetError(best, best_residual, last, last_residual)


def assert_same_fixed_point(T, x0, tol=1e-10, max_iter=10_000) -> bool:
    """Both paths return the same bits, or both run out of budget with the
    last iterate whose residual is known; True when a fixed point was found."""
    try:
        expected = reference_fixed_point(T, x0, tol, max_iter)
    except _ReferenceBudgetError as ref:
        with pytest.raises(FixedPointBudgetError) as err:
            find_fixed_point(T, x0, tol, max_iter)
        assert err.value.best.tobytes() == ref.last.tobytes()
        assert err.value.residual == ref.last_residual
        # the least residual, up to rounding, as nonexpansiveness promises
        assert err.value.residual <= ref.residual * (1.0 + 1e-9)
        return False
    got = find_fixed_point(T, x0, tol, max_iter)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    return True


@pytest.mark.parametrize("order", ["ab", "ba", "bt"])
def test_find_fixed_point_matches_reference_loop_on_corpus_starts(order):
    found = 0
    for inst in load_corpus():
        config = inst.config
        for start in config.start_points:
            found += assert_same_fixed_point(config.split(order), start,
                                             config.stop_tol, config.max_iter)
    assert found >= 10


def test_find_fixed_point_matches_reference_loop_on_random_pairs():
    rng = np.random.default_rng(2024)
    found = 0
    for i in range(50):
        dim = int(rng.integers(1, 5))
        # odd draws shift the second set off the origin: some have no zero
        T = SplitOperator(random_monotone_operator(rng, dim),
                          random_monotone_operator(rng, dim, through_origin=bool(i % 2)))
        found += assert_same_fixed_point(T, random_point(rng, dim), max_iter=2000)
    assert 40 <= found < 50


def test_find_fixed_point_budget_carries_last_iterate_and_least_residual():
    # two lines at a small angle: residuals fall strictly, so the last
    # iterate with a known residual is also the one of least residual
    line = NormalConeAffineSubspace([0.0, 0.0], [[1.0], [0.1]])
    T = SplitOperator(X_AXIS, line)
    with pytest.raises(_ReferenceBudgetError) as ref:
        reference_fixed_point(T, [3.0, 4.0], tol=1e-14, max_iter=30)
    assert ref.value.best.tobytes() == ref.value.last.tobytes()
    with pytest.raises(FixedPointBudgetError) as err:
        find_fixed_point(T, [3.0, 4.0], tol=1e-14, max_iter=30)
    assert err.value.best.tobytes() == ref.value.best.tobytes()
    assert err.value.residual == ref.value.residual
    assert "within 30 iterations" in str(err.value)


def test_find_fixed_point_divergence_is_a_non_finite_point():
    # J_B translates by -1e308: the second step overflows
    T = SplitOperator(ZERO2, AffineRelation(np.zeros((2, 2)), [1e308, 0.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinitePointError):
            reference_fixed_point(T, [0.0, 0.0])
    with pytest.raises(NonFinitePointError):
        find_fixed_point(T, [0.0, 0.0])


def test_find_fixed_point_lets_the_orbit_of_a_divergence_through():
    # from (-1e308, 0) the first step, a translation by -1e308, overflows;
    # iterate's DivergenceError, with its orbit, is a NonFinitePointError
    T = SplitOperator(ZERO2, AffineRelation(np.zeros((2, 2)), [1e308, 0.0]))
    with pytest.raises(NonFinitePointError, match="^non-finite iterate at step 1$") as err:
        find_fixed_point(T, [-1e308, 0.0])
    assert isinstance(err.value, DivergenceError)
    orbit = err.value.orbit
    assert orbit.iterations == 1 and orbit.steps == [0]
    assert orbit.governing.tolist() == [[-1e308, 0.0]]


# ---------------------------------------------------------------------------
# solution extraction


def test_extract_solution_ray_vs_axis_origin():
    pair = extract_solution(X_AXIS, UP_RAY, [0.0, 0.0])
    assert np.array_equal(pair.z, [0.0, 0.0])
    assert np.array_equal(pair.k, [0.0, 0.0])


def test_extract_solution_zero_pair():
    f = np.array([2.0, -1.0])
    pair = extract_solution(ZERO2, ZERO2, f)
    assert np.array_equal(pair.z, f)
    assert np.array_equal(pair.k, [0.0, 0.0])


def test_extract_solution_rejects_non_fixed_point():
    with pytest.raises(CertificateError):
        extract_solution(X_AXIS, UP_RAY, [5.0, -3.0])


def test_extract_solution_certificates_on_random_converged_instances():
    rng = np.random.default_rng(30)
    certified = 0
    for _ in range(15):
        dim = int(rng.integers(2, 6))
        a = random_subspace(rng, dim)
        b = random_monotone_operator(rng, dim)
        T = SplitOperator(a, b)
        try:
            f = find_fixed_point(T, random_point(rng, dim), tol=1e-12)
        except FixedPointBudgetError:
            continue
        pair = extract_solution(a, b, f, fix_tol=1e-10, graph_tol=1e-8)
        # z + k reassembles the fixed point (up to one float rounding)
        assert np.allclose(pair.z + pair.k, f, rtol=0, atol=1e-12)
        certified += 1
    assert certified >= 10


# ---------------------------------------------------------------------------
# the fixed-set bijection


def test_map_fixed_point_trivial_origin():
    assert np.array_equal(map_fixed_point(X_AXIS, UP_RAY, [0.0, 0.0], "ab"),
                          [0.0, 0.0])


def test_map_fixed_point_rejects_non_fixed_source():
    with pytest.raises(CertificateError):
        map_fixed_point(X_AXIS, UP_RAY, [5.0, -3.0], "ab")
    with pytest.raises(ValueError):
        map_fixed_point(X_AXIS, UP_RAY, [0.0, 0.0], "sideways")


def test_a_nan_fix_tol_is_not_a_fixed_point_test():
    # no residual is greater than nan, so the test must be written as
    # `not residual <= fix_tol`; (40, -30) is 19.7 from its image
    a, b = subspace_ball_pair()
    for call in (lambda: map_fixed_point(a, b, (40.0, -30.0), fix_tol=np.nan),
                 lambda: extract_solution(a, b, (40.0, -30.0), fix_tol=np.nan)):
        with pytest.raises(CertificateError,
                           match=r"^not a fixed point: residual 1\.974e\+01 > nan$"):
            call()


def test_certificates_hold_one_defect_per_sample():
    # three fixed points of the line/plane pair: one defect per fixed
    # point, and one isometry defect per pair of them, i < j in order
    fixed = [np.array([1.0, 0.0, 2.0]), np.array([-3.0, 0.0, 0.5]), np.array([0.0, 0.0, -1.0])]
    cert = certify_fixed_points(LINE3, PLANE3, fixed)
    for defects in (cert.certificate, cert.bijection, cert.dual):
        assert len(defects) == 3
    assert len(cert.isometry) == 3
    assert max(cert.certificate + cert.bijection + cert.isometry + cert.dual) <= 1e-15
    assert certify_fixed_points(LINE3, PLANE3, []).isometry == []


@pytest.mark.parametrize("call", [
    lambda f: extract_solution(WHOLE_PLANE, WHOLE_PLANE, f),
    lambda f: map_fixed_point(WHOLE_PLANE, WHOLE_PLANE, f),
    lambda f: certify_fixed_points(WHOLE_PLANE, WHOLE_PLANE, [f]),
], ids=["extract_solution", "map_fixed_point", "certify_fixed_points"])
def test_fixed_point_test_reports_an_overflowing_reflection_without_a_warning(call):
    # R_A f = 2 f - f overflows: the fixed-point test raises as dr_step
    # does, and numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinitePointError, match="^point has non-finite entries$"):
            call(np.array([1.5e308, 0.0]))


def test_fixed_point_test_rejects_operands_of_unequal_dimension():
    # the operands' dimensions are compared before any resolvent runs
    with pytest.raises(DimensionMismatchError, match="^operand dimensions differ: 2 vs 3$"):
        extract_solution(WHOLE_PLANE, PLANE3, [0.0, 0.0])
    with pytest.raises(DimensionMismatchError, match="^operand dimensions differ: 3 vs 2$"):
        map_fixed_point(WHOLE_PLANE, PLANE3, [0.0, 0.0], "ba")


def test_from_violation_takes_the_worst_and_keeps_a_nan_anywhere():
    for violations in ([np.nan, 0.0, 1.0], [0.0, 1.0, np.nan], np.array([1.0, np.nan])):
        rep = IdentityReport.from_violation("x", violations, 1e-9)
        assert np.isnan(rep.max_violation) and not rep.passed
        assert rep.sample_count == len(violations)
    rep = IdentityReport.from_violation("x", [-2.0, -0.5], 0.0)
    assert rep.max_violation == -0.5 and rep.passed and rep.sample_count == 2
    rep = IdentityReport.from_violation("x", [], 1e-9)
    assert rep.max_violation == 0.0 and rep.passed and rep.sample_count == 0
    # every entry of an array of any shape is one sample
    rep = IdentityReport.from_violation("x", np.array([[1.0, 3.0], [2.0, 0.0]]), 1.0)
    assert rep.max_violation == 3.0 and not rep.passed and rep.sample_count == 4


def test_map_fixed_point_bijection_on_fixed_plane():
    rng = np.random.default_rng(31)
    T_ab = SplitOperator(LINE3, PLANE3)
    T_ba = SplitOperator(PLANE3, LINE3)
    points = [find_fixed_point(T_ab, random_point(rng, 3, 3.0), tol=1e-13)
              for _ in range(12)]
    images = []
    for f in points:
        image = map_fixed_point(LINE3, PLANE3, f, "ab")
        # the image is a fixed point of the swapped order
        assert np.linalg.norm(T_ba(image) - image) <= 3e-10
        # round trip returns to f
        back = map_fixed_point(LINE3, PLANE3, image, "ba")
        assert np.allclose(back, f, atol=1e-10)
        # image equals z - k
        pair = extract_solution(LINE3, PLANE3, f)
        assert np.allclose(image, pair.z - pair.k, atol=1e-10)
        images.append(image)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            gap = np.linalg.norm(points[i] - points[j])
            assert abs(np.linalg.norm(images[i] - images[j]) - gap) <= 1e-10


def test_mapped_point_certified_with_inflated_tolerance():
    # an image of a tau-approximate fixed point stays fixed up to 3 tau
    a, b = subspace_ball_pair()
    T_ab = SplitOperator(a, b)
    T_ba = SplitOperator(b, a)
    loose = 1e-6
    f = find_fixed_point(T_ab, [4.0, 3.0], tol=loose)
    image = map_fixed_point(a, b, f, "ab", fix_tol=loose)
    assert np.linalg.norm(T_ba(image) - image) <= 3.0 * loose


def test_primal_image_identities():
    # With an affine first operand, the reflector image of a primal
    # solution is the shadow of a swapped-order fixed point: for f fixed
    # under T_ab with z = J_a f, the point g = R_a f is fixed under T_ba
    # and J_a g = R_a z.  For an affine subspace the projection absorbs
    # the reflection, so J_a g = z and (J_a - Id) g = k recover the
    # solution pair itself.
    rng = np.random.default_rng(44)
    g_mat = rng.normal(size=(3, 3))
    affine_a = AffineRelation(g_mat @ g_mat.T, rng.normal(size=3) * 0.1)
    ball_b = NormalConeBall([0.1, 0.2, -0.1], 1.5)
    f = find_fixed_point(SplitOperator(affine_a, ball_b),
                         random_point(rng, 3), tol=1e-12)
    z = affine_a.resolve(f)
    image = affine_a.reflect(f)
    T_ba = SplitOperator(ball_b, affine_a)
    assert np.linalg.norm(T_ba(image) - image) <= 3e-12
    assert np.allclose(affine_a.resolve(image), affine_a.reflect(z), atol=1e-10)

    sub_a = random_subspace(rng, 3)
    f = find_fixed_point(SplitOperator(sub_a, ball_b),
                         random_point(rng, 3), tol=1e-12)
    pair = extract_solution(sub_a, ball_b, f, fix_tol=1e-10)
    image = sub_a.reflect(f)
    assert np.allclose(sub_a.resolve(image), pair.z, atol=1e-10)
    assert np.allclose(sub_a.resolve(image) - image, pair.k, atol=1e-10)


def test_extract_solution_on_lifted_two_halfspace_instance():
    from drorder.splitting import lift

    h1 = NormalConeHalfspace([1.0, 0.0], 1.0)
    h2 = NormalConeHalfspace([0.0, 1.0], 0.5)
    lifted = lift([h1, h2], 2)
    T = lifted.split()
    f = find_fixed_point(T, lifted.embed([4.0, 4.0]), tol=1e-13)
    pair = extract_solution(lifted.diagonal, lifted.product, f,
                            fix_tol=1e-11, graph_tol=1e-8)
    # z is the broadcast shadow limit; each block satisfies its constraint
    assert np.allclose(pair.z, T.shadow(f), atol=0)
    z_base = lifted.average(pair.z)
    assert np.allclose(lifted.blocks(pair.z), z_base, atol=1e-12)
    assert float(h1.normal @ z_base) <= h1.rhs + 1e-8
    assert float(h2.normal @ z_base) <= h2.rhs + 1e-8


# ---------------------------------------------------------------------------
# commutation


def test_commutation_ray_vs_axis():
    rng = np.random.default_rng(32)
    for _ in range(5):
        x = random_point(rng, 2, 3.0)
        rep = check_commutation(X_AXIS, UP_RAY, x, 20)
        assert rep.passed and rep.max_violation <= 1e-12


def test_commutation_zero_pair_exact():
    rep = check_commutation(ZERO2, ZERO2, [1.0, 2.0], 5)
    assert rep.max_violation == 0.0


def test_commutation_rejects_nonaffine_first_slot():
    with pytest.raises(NotAffineError):
        check_commutation(UP_RAY, X_AXIS, [1.0, 2.0], 1)


def test_second_reflector_does_not_commute():
    # exchanging through the second reflector fails: at (1, 2) the two
    # compositions land at (0, 2) and (0, 0).
    x = np.array([1.0, 2.0])
    lhs = UP_RAY.reflect(dr_step(X_AXIS, UP_RAY, x))
    rhs = dr_step(UP_RAY, X_AXIS, UP_RAY.reflect(x))
    assert np.allclose(lhs, [0.0, 2.0], atol=0)
    assert np.allclose(rhs, [0.0, 0.0], atol=0)
    assert np.linalg.norm(lhs - rhs) == pytest.approx(2.0)


def test_commutation_affine_first_slot_random_catalog():
    rng = np.random.default_rng(33)
    for _ in range(25):
        dim = int(rng.integers(2, 6))
        g = rng.normal(size=(dim, dim))
        a = AffineRelation(g @ g.T + 0.3 * (g - g.T), rng.normal(size=dim))
        b = random_monotone_operator(rng, dim)
        rep = check_commutation(a, b, random_point(rng, dim), 30)
        assert rep.max_violation <= 1e-10, (a.kind, b.kind, rep.max_violation)


def test_commutation_needs_only_an_affine_first_operand():
    # R_A T_ab = T_ba R_A follows from R_A being affine, for any
    # single-valued J_B: a non-monotone sphere selection opposite a
    # linear operator that is no normal cone still commutes
    a = LinearMonotone([[1.0, 1.0], [-1.0, 0.0]])
    sphere = SphereSelection([0.5, 0.2], 1.0, [0.0, 1.0])
    rep = check_commutation(a, sphere, [1.5, -0.5], 30)
    assert rep.passed and rep.max_violation <= 1e-8
    points = np.random.default_rng(44).normal(0.0, 2.0, size=(500, 2))
    commutation = next(identity for identity in IDENTITIES if identity.name == "commutation")
    assert commutation.unmet(a, sphere) is None
    assert np.max(_violation(commutation, a, sphere, points, 30)) <= 1e-8


# ---------------------------------------------------------------------------
# conjugation and shadows


def test_conjugation_subspace_ball():
    a, b = subspace_ball_pair()
    rep = check_conjugation(a, b, [4.0, 3.0], 5)
    assert rep.passed and rep.max_violation <= 1e-12


def test_conjugation_rejects_halfspace_but_probe_exhibits_failure():
    a = NormalConeHalfspace([0.0, 1.0], 0.0)
    b = NormalConeBall([2.0, 1.0], 1.0)
    with pytest.raises(NotAffineError):
        check_conjugation(a, b, [4.0, 3.0], 5)
    rep = probe_conjugation(a, b, [4.0, 3.0], 5)
    assert rep.max_violation > 0.1
    assert not rep.passed


def test_conjugation_generalized_sphere_selection():
    rng = np.random.default_rng(34)
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        a = random_subspace(rng, dim)
        b = random_sphere_selection(rng, dim)
        rep = check_conjugation(a, b, random_point(rng, dim), 10)
        assert rep.max_violation <= 1e-10


def test_shadow_equality_cases():
    a, b = subspace_ball_pair()
    rep = check_shadow_equality(a, b, [4.0, 3.0], 50)
    assert rep.passed and rep.max_violation <= 1e-10

    # start at a fixed point of the swapped order: both shadows constant
    f = find_fixed_point(SplitOperator(b, a), [4.0, 3.0], tol=1e-13)
    rep = check_shadow_equality(a, b, f, 10)
    assert rep.max_violation <= 1e-10

    with pytest.raises(NotAffineError):
        check_shadow_equality(NormalConeHalfspace([0.0, 1.0], 0.0), b,
                              [1.0, 1.0], 3)


def test_shadow_equality_lifted_three_operators():
    from drorder.splitting import lift

    ops = [NormalConeHalfspace([1.0, 0.0], 1.0),
           NormalConeHalfspace([0.0, 1.0], 1.0),
           NormalConeBall([0.0, 0.0], 2.0)]
    lifted = lift(ops, 2)
    rep = check_shadow_equality(lifted.diagonal, lifted.product,
                                lifted.embed([3.0, -2.0]), 25)
    assert rep.passed and rep.max_violation <= 1e-10


def test_nonexpansive_transfer():
    a, b = subspace_ball_pair()
    rng = np.random.default_rng(35)
    for _ in range(10):
        x, y = random_point(rng, 2, 3.0), random_point(rng, 2, 3.0)
        rep = check_nonexpansive_transfer(a, b, x, y)
        assert rep.passed
    rep = check_nonexpansive_transfer(a, b, [1.0, 2.0], [1.0, 2.0])
    assert rep.max_violation == 0.0


def test_nonexpansive_transfer_rejects_nonmonotone_second_operand():
    # the inequality half needs a nonexpansive T_ba, hence a monotone B
    a, _ = subspace_ball_pair()
    sphere = random_sphere_selection(np.random.default_rng(36), 2)
    with pytest.raises(MonotonicityError):
        check_nonexpansive_transfer(a, sphere, [1.0, 2.0], [0.0, -1.0])


def power_orbit(first, second, x, n):
    """The reference orbit x, T x, ..., T^n x of T = T_(first, second):
    one dr_step call per step, row-wise when x is an (N, d) batch."""
    if n < 0:
        raise ValueError(f"orbit depth n must be nonnegative, got {n}")
    orbit = [x]
    for _ in range(n):
        orbit.append(dr_step(first, second, orbit[-1]))
    return orbit


def test_power_orbit_matches_repeated_steps():
    a, b = subspace_ball_pair()
    x = np.array([4.0, 3.0])
    orbit = power_orbit(a, b, x, 3)
    assert len(orbit) == 4 and orbit[0] is x
    assert np.array_equal(orbit[3], dr_step(a, b, dr_step(a, b, dr_step(a, b, x))))
    assert power_orbit(a, b, x, 0) == [x]


@pytest.mark.parametrize("n", [-1, -2])
@pytest.mark.parametrize("orbits", [check_commutation, check_conjugation, check_shadow_equality,
                                    probe_conjugation, power_orbit],
                         ids=lambda f: f.__name__)
def test_a_negative_orbit_depth_is_rejected(orbits, n):
    # n <= -2 once gave a vacuous pass with a negative sample count, and
    # n = -1 a numpy reshape error or, from power_orbit, the orbit [x]
    a, b = subspace_ball_pair()
    with pytest.raises(ValueError, match=f"orbit depth n must be nonnegative, got {n}$"):
        orbits(a, b, np.array([4.0, 3.0]), n)


@pytest.mark.parametrize("n, message", [
    (2.5, "a finite integer, got 2.5"), (np.inf, "a finite integer, got inf"),
    (np.nan, "nonnegative, got nan"), ("3", "a finite integer, got '3'"),
    (True, "a finite integer, got True"), (10**400, "a finite integer, got 1000"),
], ids=["half", "inf", "nan", "string", "bool", "huge"])
@pytest.mark.parametrize("orbits", [check_commutation, check_conjugation, check_shadow_equality,
                                    probe_conjugation], ids=lambda f: f.__name__)
def test_an_orbit_depth_that_is_not_a_count_is_rejected(orbits, n, message):
    # 2.5 once ran as depth 2, True as depth 1; inf, nan and "3" raised
    # OverflowError, a float conversion error and TypeError
    a, b = subspace_ball_pair()
    with pytest.raises(ValueError, match=f"^orbit depth n must be {re.escape(message)}"):
        orbits(a, b, np.array([4.0, 3.0]), n)


def test_nonexpansive_transfer_against_matrix_norms():
    # with a linear second operand all three quantities have closed
    # matrix forms; compare against them
    rng = np.random.default_rng(36)
    a = random_subspace(rng, 3)
    g = rng.normal(size=(3, 3))
    b = LinearMonotone(g @ g.T)
    m_ab, off_ab = dr_matrix(SplitOperator(a, b))
    m_ba, off_ba = dr_matrix(SplitOperator(b, a))
    refl, _ = _affine_form(a.reflect, 3)
    for _ in range(10):
        x, y = random_point(rng, 3), random_point(rng, 3)
        rep = check_nonexpansive_transfer(a, b, x, y)
        assert rep.passed
        direct = np.linalg.norm(m_ab @ (x - y))
        swapped = np.linalg.norm(m_ba @ refl @ (x - y))
        assert abs(direct - swapped) <= 1e-9


# ---------------------------------------------------------------------------
# commutator identities


def test_commutator_linear_counterexample():
    b = LinearMonotone([[1.0, 1.0], [1.0, 1.0]])
    gap = np.array([[0.0, -2.0], [-2.0, 0.0]]) / 9.0
    rng = np.random.default_rng(37)
    for _ in range(10):
        x = random_point(rng, 2, 3.0)
        rep = check_commutator(X_AXIS, b, x)
        assert rep.passed  # the decomposition identity itself holds
        diff = (dr_step(X_AXIS, b, dr_step(b, X_AXIS, x))
                - dr_step(b, X_AXIS, dr_step(X_AXIS, b, x)))
        assert np.allclose(diff, gap @ x, atol=1e-12)


def test_commutator_two_subspaces_products_commute():
    rng = np.random.default_rng(38)
    a = random_subspace(rng, 4, through_origin=False)
    b = random_subspace(rng, 4, through_origin=False)
    for _ in range(10):
        rep = check_commutator(a, b, random_point(rng, 4))
        assert rep.passed


def test_commutator_same_operator_is_zero():
    rep = check_commutator(X_AXIS, X_AXIS, [3.0, -2.0])
    assert rep.max_violation <= 1e-15


def test_commutator_rejects_nonaffine():
    with pytest.raises(NotAffineError):
        check_commutator(X_AXIS, UP_RAY, [0.0, 0.0])


# ---------------------------------------------------------------------------
# the unconditional defect decomposition


def test_defect_decomposition_full_catalog():
    rng = np.random.default_rng(39)
    for _ in range(60):
        dim = int(rng.integers(2, 7))
        a = random_monotone_operator(rng, dim)
        b = random_monotone_operator(rng, dim)
        rep = check_defect_decomposition(a, b, random_point(rng, dim))
        assert rep.max_violation <= 1e-10, (a.kind, b.kind)


def test_defect_decomposition_holds_even_for_selections():
    # the identity is formal: it only needs single-valued resolvent maps
    rng = np.random.default_rng(40)
    a = random_subspace(rng, 3)
    b = random_sphere_selection(rng, 3)
    rep = check_defect_decomposition(a, b, random_point(rng, 3))
    assert rep.max_violation <= 1e-12


def test_public_checkers_are_finite_far_from_the_origin():
    # every squared norm overflows at this scale; the checkers fall back
    # to the scaled norm without a warning (which the suite makes an
    # error) and report rounding at the scale of ||x||
    a, b = subspace_ball_pair()
    x, y = np.array([3e200, -7e200]), np.array([-5e200, 2e200])
    z = a.resolve(x)
    # (z, x - z) is in gra A but not in gra B, whose solutions are all
    # bounded: graph_tol=inf waives the membership, the dual defect is
    # still measured
    pairs = [SolutionPair(z=z, k=x - z)]
    checkers = {
        "commutation": lambda: check_commutation(a, b, x, 5),
        "conjugation": lambda: check_conjugation(a, b, x, 5),
        "conjugation-probe": lambda: probe_conjugation(a, b, x, 5),
        "shadow-equality": lambda: check_shadow_equality(a, b, x, 5),
        "defect-decomposition": lambda: check_defect_decomposition(a, b, x),
        "nonexpansive-transfer": lambda: check_nonexpansive_transfer(a, b, x, y),
        "dual-symmetry": lambda: check_dual_symmetry(a, b, pairs, graph_tol=np.inf),
    }
    for name, checker in checkers.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            violation = checker().max_violation
        assert 0.0 < violation <= 1e-15 * np.hypot(*x), name
    # the checkers leave the caller's error state as they found it
    with pytest.warns(RuntimeWarning, match="overflow"):
        np.float64(1e300) * 1e300


# ---------------------------------------------------------------------------
# firm nonexpansiveness witness


def test_firmly_nonexpansive_witness_values():
    s = 1.0 / np.sqrt(2.0)
    a = NormalConeRay([s, s])
    b = X_AXIS
    for alpha in (0.5, 1.0, 2.0):
        T_ab = SplitOperator(a, b, FORM_BORWEIN_TAM)
        got = check_firmly_nonexpansive(T_ab, [-2 * alpha, 2 * alpha], [0.0, 0.0])
        assert got == pytest.approx(-2.0 * alpha * alpha, abs=1e-12)
        T_ba = SplitOperator(b, a, FORM_BORWEIN_TAM)
        got = check_firmly_nonexpansive(T_ba, [-2 * alpha, -2 * alpha], [0.0, 0.0])
        assert got == pytest.approx(-2.0 * alpha * alpha, abs=1e-12)


def test_firmly_nonexpansive_resolvents_nonnegative():
    rng = np.random.default_rng(41)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        op = random_monotone_operator(rng, dim)
        got = check_firmly_nonexpansive(op.resolve, random_point(rng, dim),
                                        random_point(rng, dim))
        assert got >= -1e-9


# ---------------------------------------------------------------------------
# dual symmetry


def test_dual_symmetry_trivial_pair():
    pair = extract_solution(X_AXIS, UP_RAY, [0.0, 0.0])
    rep = check_dual_symmetry(X_AXIS, UP_RAY, [pair])
    assert rep.passed and rep.sample_count == 1


def test_dual_symmetry_nonzero_dual_component():
    rng = np.random.default_rng(42)
    T = SplitOperator(LINE3, PLANE3)
    pairs = []
    for _ in range(8):
        f = find_fixed_point(T, random_point(rng, 3, 3.0), tol=1e-13)
        pairs.append(extract_solution(LINE3, PLANE3, f))
    assert any(np.linalg.norm(p.k) > 0.1 for p in pairs)
    rep = check_dual_symmetry(LINE3, PLANE3, pairs)
    assert rep.passed


def test_dual_symmetry_cross_product_structure():
    # for normal cone operands every primal pairs with every dual:
    # recombine z from one fixed point with k from another
    rng = np.random.default_rng(43)
    T = SplitOperator(LINE3, PLANE3)
    base = [extract_solution(LINE3, PLANE3,
                             find_fixed_point(T, random_point(rng, 3, 3.0),
                                              tol=1e-13))
            for _ in range(6)]
    crossed = []
    for p in base:
        for q in base:
            crossed.append(SolutionPair(z=p.z, k=q.k))
    rep = check_dual_symmetry(LINE3, PLANE3, crossed)
    assert rep.passed and rep.sample_count == 36


def test_dual_symmetry_certificate_failure_raises():
    bogus = SolutionPair(z=np.array([1.0, 1.0]), k=np.array([2.0, 0.0]))
    with pytest.raises(CertificateError):
        check_dual_symmetry(X_AXIS, UP_RAY, [bogus])
    # the first membership that fails is named, before the fixed-point
    # check: z + k = 0 is the fixed point, but J_A 0 = 0 is not z; and
    # J_A(z + k) = z, but J_B(z - k) = 0, where z + k is no fixed point
    good = SolutionPair(z=np.zeros(2), k=np.zeros(2))
    for z, k, member in (([1.0, 0.0], [-1.0, 0.0], "(z, k) in gra A"),
                         ([1.0, 0.0], [0.0, 1.0], "(z, -k) in gra B")):
        with pytest.raises(CertificateError) as exc:
            check_dual_symmetry(X_AXIS, UP_RAY, [good, SolutionPair(z=z, k=k)])
        assert str(exc.value) == f"swapped-order certificate {member} failed"


def test_pair_defects_bound_the_fixed_point_residual():
    # for monotone A and B and any z, k, with u = z + k:
    # ||T_ab u - u|| <= ||J_A u - z|| + ||J_B(z - k) - z||, which is why
    # check_dual_symmetry makes no fixed-point test after the memberships.
    # Drawn through the origin, (0, 0) is a solution pair, so points of
    # scale 1e-8 test the bound where both defects are small
    rng = np.random.default_rng(71)
    for dim in (1, 2, 3, 5):
        for i in range(60):
            scale = 1e-8 if i % 2 else 2.0
            a = random_monotone_operator(rng, dim, through_origin=scale < 1.0 or i % 4 == 0)
            b = random_monotone_operator(rng, dim, through_origin=scale < 1.0 or i % 4 == 0)
            z, k = random_point(rng, dim, scale), random_point(rng, dim, scale)
            defect_a, defect_b = _pair_defects(a, b, z, k)
            u = z + k
            residual = float(np.linalg.norm(dr_step(a, b, u) - u))
            assert residual <= defect_a + defect_b + 1e-13, (a.kind, b.kind, scale)


# ---------------------------------------------------------------------------
# the registry states each checker's hypothesis


# each public checker, called at a point x of the operands' space
_CHECKERS = {
    "commutation": lambda a, b, x: check_commutation(a, b, x, 3),
    "conjugation": lambda a, b, x: check_conjugation(a, b, x, 3),
    "shadow-equality": lambda a, b, x: check_shadow_equality(a, b, x, 3),
    "nonexpansive-transfer": lambda a, b, x: check_nonexpansive_transfer(a, b, x, -x),
    "commutator": lambda a, b, x: check_commutator(a, b, x),
    "defect-decomposition": lambda a, b, x: check_defect_decomposition(a, b, x),
}


def _operand_pairs():
    """Both orders of each corpus pair, the generalized sphere pair, and draws."""
    pairs = []
    for inst in load_corpus():
        a, b = inst.config.operator_a, inst.config.operator_b
        pairs += [(a, b), (b, a)]
    line, _ = subspace_ball_pair()
    sphere = SphereSelection([2.0, 1.0], 1.0, [0.0, 1.0])
    pairs += [(line, sphere), (sphere, line)]
    rng = np.random.default_rng(37)
    for _ in range(40):
        dim = int(rng.integers(2, 5))
        draw = rng.choice([random_affine_operator, random_monotone_operator,
                           random_sphere_selection], size=2)
        pairs.append((draw[0](rng, dim), draw[1](rng, dim)))
    return pairs


@pytest.mark.parametrize("name", list(_CHECKERS))
def test_checker_raises_not_affine_exactly_when_its_registry_entry_is_unmet(name):
    # every hypothesis, structural or an operand rule, is a registry key,
    # and the checker raises the error that key declares
    entry = next(identity for identity in IDENTITIES if identity.name == name)
    rng = np.random.default_rng(38)
    outcomes = set()
    for a, b in _operand_pairs():
        need = entry.unmet(a, b)
        x = random_point(rng, a.dim)
        try:
            _CHECKERS[name](a, b, x)
        except (NotAffineError, MonotonicityError) as exc:
            assert need is not None and str(exc) == f"{name} requires {need}", (
                a.kind, b.kind, exc)
            assert type(exc) is _REQUIREMENTS[need][1], (a.kind, b.kind, exc)
        else:
            assert need is None, (a.kind, b.kind)
        outcomes.add(need)
    # both outcomes occur, except for the identity that holds unconditionally
    assert None in outcomes
    assert (outcomes != {None}) == (name != "defect-decomposition")


def _witnesses():
    """(identity, requirement key) -> (A, B, points): a pair that fails
    that key and meets the identity's other keys, and the probe points
    where the identity fails.

    The structural keys take the paper's own counterexamples: a halfspace
    where the theory wants a subspace (halfspace-ball), and a ray in the
    first slot (bt-not-firm).  The operand rule "monotone operands" takes
    a line against the unit-sphere selection, at points within 0.05 of
    its center, where the selection jumps and T_ab expands distances.
    """
    corpus = {inst.name: (inst.config.operator_a, inst.config.operator_b)
              for inst in load_corpus()}
    halfspace_ball, ray_first = corpus["halfspace-ball"], corpus["bt-not-firm"]
    line, _ = subspace_ball_pair()
    sphere = SphereSelection([2.0, 1.0], 1.0, [0.0, 1.0])
    axis = np.linspace(-3.0, 3.0, 5)
    grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    near_center = sphere.center + (0.05 / np.linalg.norm(grid, axis=1).max()) * grid
    subspace_first = "an affine-subspace normal cone first operand"
    subspace_both = "affine-subspace normal cone operands"
    return {
        ("dr-firmly-nonexpansive", "monotone operands"): (line, sphere, near_center),
        ("commutation", "an affine first operand"): (*ray_first, grid),
        ("conjugation", subspace_first): (*halfspace_ball, grid),
        ("shadow-equality", subspace_first): (*halfspace_ball, grid),
        ("nonexpansive-transfer", subspace_first): (*halfspace_ball, grid),
        ("nonexpansive-transfer", "monotone operands"): (line, sphere, near_center),
        ("bt-factorization", subspace_first): (*ray_first, grid),
        ("commutator", "affine operands"): (*ray_first, grid),
        ("bt-order-invariance", subspace_both): (*ray_first, grid),
        ("bt-half-sum", subspace_both): (*ray_first, grid),
        ("bt-firmly-nonexpansive", subspace_both): (*ray_first, grid),
    }


def _probe_samples(identity, points):
    """The samples of ``points`` as ``report_identities`` forms them."""
    return (points, np.roll(points, -1, axis=0)) if identity.pairwise else points


def _violation(identity, a, b, samples, n):
    """The identity's violation at the samples, read from their own word
    table, or from one table per batch of a pair (X, Y) when pairwise."""
    words = (tuple(_Words(a, b, x) for x in samples) if identity.pairwise
             else _Words(a, b, samples))
    return identity.violation(words, n)


def test_every_requirement_key_has_a_witness_that_fails_it_alone():
    # no registry entry can keep a hypothesis that its identity does not need
    witnesses = _witnesses()
    keys = [(identity, key) for identity in IDENTITIES for key in identity.requires]
    assert sorted(witnesses) == sorted((identity.name, key) for identity, key in keys)
    for identity, key in keys:
        a, b, points = witnesses[(identity.name, key)]
        failed = [need for need in identity.requires if not _REQUIREMENTS[need][0](a, b)]
        assert failed == [key], (identity.name, key, failed)
        worst = np.max(_violation(identity, a, b, _probe_samples(identity, points), 6))
        assert worst >= 1e-3, (identity.name, key, worst)


def test_every_identity_holds_on_the_pairs_that_meet_its_keys():
    rng = np.random.default_rng(45)
    for a, b in _operand_pairs():
        points = np.array([random_point(rng, a.dim) for _ in range(12)])
        for identity in IDENTITIES:
            if identity.unmet(a, b) is None:
                worst = np.max(_violation(identity, a, b, _probe_samples(identity, points), 6))
                assert worst <= TAU_NUM, (identity.name, a.kind, b.kind, worst)


# ---------------------------------------------------------------------------
# report shape


def test_identity_report_invariant():
    rep = IdentityReport.from_violation("anything", 2.0, 1.0)
    assert not rep.passed
    rep = IdentityReport.from_violation("anything", 0.5, 1.0)
    assert rep.passed and rep.sample_count == 1
    data = rep.to_dict()
    assert set(data) == {"identity_name", "max_violation", "sample_count",
                         "tolerance", "passed"}


# ---------------------------------------------------------------------------
# each identity is evaluated once per batch of samples


# the orbit steps of each orbit identity at depth n
_ORBIT_STEPS = {"commutation": lambda n: n, "conjugation": lambda n: n,
                "shadow-equality": lambda n: n + 1}


@pytest.mark.parametrize("identity", IDENTITIES, ids=lambda identity: identity.name)
def test_report_counts_one_point_as_one_sample(identity):
    # a (d,) point, or a pair of them, is one sample, as a (1, d) batch is;
    # an orbit identity's sample is one per orbit step
    lift = next(inst.config for inst in load_corpus() if inst.name == "three-halfspace-lift")
    a, b = lift.operator_a, lift.operator_b
    x = lift.start_points[0]
    one, batch = ((x, -x), (x[None], -x[None])) if identity.pairwise else (x, x[None])
    assert x.shape == (9,)
    steps = _ORBIT_STEPS[identity.name](3) if identity.on_orbits else 1
    one_rep, batch_rep = (IdentityReport.from_violation(identity.name,
                                                        _violation(identity, a, b, s, 3), 1e-9)
                          for s in (one, batch))
    assert one_rep.sample_count == batch_rep.sample_count == steps


@pytest.mark.parametrize("identity", IDENTITIES, ids=lambda identity: identity.name)
def test_batch_report_is_the_worst_per_point_report(identity):
    rng = np.random.default_rng(39)
    applicable = 0
    for a, b in _operand_pairs():
        points = np.array([random_point(rng, a.dim) for _ in range(6)])
        samples = (points, np.roll(points, -1, axis=0)) if identity.pairwise else points
        singles = list(zip(*samples)) if identity.pairwise else list(points)
        # row by row, also where the identity fails and its violations are
        # large enough to tell the rows apart
        got = _violation(identity, a, b, samples, 4)
        # the sample axis is the last, after an orbit identity's step axis
        want = np.stack([_violation(identity, a, b, sample, 4) for sample in singles], axis=-1)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12), (a.kind, b.kind)
        batch = IdentityReport.from_violation(identity.name, got, 1e-9)
        assert batch.max_violation == np.max(got), (a.kind, b.kind)
        if identity.unmet(a, b) is None:
            applicable += 1
            reports = [identity.check(a, b, sample, 4, 1e-9) for sample in singles]
            assert batch.sample_count == sum(r.sample_count for r in reports)
            worst = max(r.max_violation for r in reports)
            assert abs(batch.max_violation - worst) <= 1e-12, (a.kind, b.kind)
        # a non-finite row anywhere in the batch is a non-finite point
        points[4, 0] = np.nan
        with pytest.raises(NonFinitePointError):
            _violation(identity, a, b, samples, 4)
    assert applicable > 0


# The corpus configs whose resolvents give a batch row the bits of the lone
# point; the subspace kernel of a line that is not an axis, the linear
# kernel and the lift's diagonal do not.
@pytest.mark.parametrize("name", ["ray-vs-axis", "bt-not-firm", "parallel-lines",
                                  "halfspace-ball"])
def test_pairwise_reports_compare_consecutive_probe_points(name):
    # each pairwise report of report_identities is the worst over the pairs
    # (x_i, x_(i+1 mod N)) of the probe points, bit for bit with the
    # public checkers on each pair
    config = next(inst.config for inst in load_corpus() if inst.name == name)
    a, b = config.operator_a, config.operator_b
    firm = {"dr-firmly-nonexpansive": SplitOperator(a, b),
            "bt-firmly-nonexpansive": SplitOperator(a, b, FORM_BORWEIN_TAM)}
    for seed in (0, 1):
        points = _probe_points(config, seed)
        for op in (a, b):
            assert _same_bits(op.resolve(points), np.array([op.resolve(x) for x in points]))
        pairs = [(points[i], points[(i + 1) % len(points)]) for i in range(len(points))]
        compared = 0
        for report in report_identities(a, b, points, 3, 1e-9):
            if report.identity_name == "nonexpansive-transfer":
                each = [check_nonexpansive_transfer(a, b, x, y).max_violation for x, y in pairs]
            elif report.identity_name in firm:
                T = firm[report.identity_name]
                each = [0.0 - min(check_firmly_nonexpansive(T, x, y), 0.0) for x, y in pairs]
            else:
                continue
            compared += 1
            assert report.sample_count == len(pairs)
            assert _same_bits(report.max_violation, float(np.max(each))), (
                report.identity_name, seed, report.max_violation, each)
        assert compared > 0


# ---------------------------------------------------------------------------
# the orbit identities read one set of probe orbits


def _reference_gaps(left, right):
    """The norm of the difference at each orbit step, step by step."""
    return np.array([np.sqrt(np.vecdot(l - r, l - r)) for l, r in zip(left, right)])


# each orbit identity with its own orbits, one R_A or J_A call per step
def _reference_commutation(A, B, x, n):
    forward = power_orbit(A, B, x, n)[1:]
    reflected = power_orbit(B, A, A.reflect(x), n)[1:]
    return _reference_gaps([A.reflect(f) for f in forward], reflected)


def _reference_conjugation(A, B, x, n):
    rx = A.reflect(x)
    conjugated_ab = [A.reflect(p) for p in power_orbit(A, B, rx, n)[1:]]
    conjugated_ba = [A.reflect(p) for p in power_orbit(B, A, rx, n)[1:]]
    return np.maximum(_reference_gaps(power_orbit(B, A, x, n)[1:], conjugated_ab),
                      _reference_gaps(power_orbit(A, B, x, n)[1:], conjugated_ba))


def _reference_shadow_equality(A, B, x, n):
    return _reference_gaps([A.resolve(p) for p in power_orbit(B, A, x, n)],
                           [A.resolve(p) for p in power_orbit(A, B, A.reflect(x), n)])


_ORBIT_REFERENCES = {
    "commutation": _reference_commutation,
    "conjugation": _reference_conjugation,
    "shadow-equality": _reference_shadow_equality,
}


@pytest.mark.parametrize("n", [0, 1, 4])
@pytest.mark.parametrize("name", list(_ORBIT_REFERENCES))
def test_orbit_identities_match_their_per_orbit_formulas(name, n):
    identity = next(identity for identity in IDENTITIES if identity.name == name)
    assert identity.on_orbits
    rng = np.random.default_rng(43)
    for a, b in _operand_pairs():
        points = np.array([random_point(rng, a.dim) for _ in range(5)])
        for x in (points[0], points):
            got = identity.violation(_Words(a, b, x), n)
            # one violation per orbit step and sample, step by step
            assert np.shape(got) == (_ORBIT_STEPS[name](n), *x.shape[:-1]), (a.kind, b.kind)
            want = np.reshape(_ORBIT_REFERENCES[name](a, b, x, n), got.shape)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12), (a.kind, b.kind, got, want)
            # a table whose orbits are filled gives the same violation, bit
            # for bit
            words = _Words(a, b, x)
            words.orbits(n)
            shared = identity.violation(words, n)
            assert np.array_equal(shared, got), (a.kind, b.kind)
            if n == 0 and name != "shadow-equality":
                rep = IdentityReport.from_violation(name, got, 0.0)
                assert rep.max_violation == 0.0 and rep.sample_count == 0


# ---------------------------------------------------------------------------
# the word table and the joint orbit loop keep every bit of the dr_step
# and reflect formulas they replace


def _reference_power_orbits(A, B, x, n):
    # one power_orbit call per order on the stacked starts [x; R_A x]
    starts = np.stack([x, A.reflect(x)]).reshape(-1, x.shape[-1])
    shape = (int(n) + 1, 2, *x.shape)
    return (np.reshape(power_orbit(A, B, starts, n), shape),
            np.reshape(power_orbit(B, A, starts, n), shape))


def _reference_gap(u, v):
    # ||u - v|| row by row, by the scaled reference norm
    w = u - v
    rows = w.reshape(-1, w.shape[-1])
    return np.array([reference_norm(row) for row in rows]).reshape(w.shape[:-1])


def _reference_bt(first, second, x):
    return dr_step(first, second, dr_step(second, first, x))


def _reference_not_firm(step, A, B, pair):
    x, y = pair
    tx, ty = step(A, B, x), step(A, B, y)
    return 0.0 - np.minimum(np.vecdot(tx - ty, (x - tx) - (y - ty)), 0.0)


def _reference_defect_decomposition(A, B, x):
    tab = dr_step(A, B, x)
    lhs = A.reflect(tab) - dr_step(B, A, A.reflect(x))
    rhs = 2.0 * A.resolve(tab) - A.resolve(x) - A.resolve(B.reflect(A.reflect(x)))
    return _reference_gap(lhs, rhs)


def _reference_nonexpansive_transfer(A, B, pair):
    x, y = pair
    direct = _reference_gap(dr_step(A, B, x), dr_step(A, B, y))
    rx, ry = A.reflect(x), A.reflect(y)
    swapped = _reference_gap(dr_step(B, A, rx), dr_step(B, A, ry))
    return np.maximum(np.maximum(np.abs(direct - swapped),
                                 swapped - _reference_gap(rx, ry)), 0.0)


def _reference_bt_factorization(A, B, x):
    composite = _reference_bt(A, B, x)
    squared = dr_step(A, B, A.reflect(dr_step(A, B, A.reflect(x))))
    conjugated = A.reflect(_reference_bt(B, A, A.reflect(x)))
    return np.maximum(_reference_gap(composite, squared),
                      _reference_gap(composite, conjugated))


def _reference_commutator(A, B, x):
    ab_ba, ba_ab = _reference_bt(A, B, x), _reference_bt(B, A, x)
    rhs = (B.reflect(A.reflect(A.reflect(B.reflect(x))))
           - A.reflect(B.reflect(B.reflect(A.reflect(x)))))
    exchange = _reference_gap(dr_step(A, B, B.reflect(A.reflect(x))),
                              B.reflect(A.reflect(dr_step(A, B, x))))
    violation = np.maximum(_reference_gap(4.0 * (ab_ba - ba_ab), rhs), exchange)
    if isinstance(A, NormalConeAffineSubspace) and isinstance(B, NormalConeAffineSubspace):
        violation = np.maximum(violation, _reference_gap(ab_ba, ba_ab))
    return violation


# each non-orbit identity by dr_step and reflect, as it was written
# before the word table
_WORD_REFERENCES = {
    "dr-form-equivalence": lambda A, B, x: _reference_gap(
        dr_step(A, B, x), 0.5 * (x + B.reflect(A.reflect(x)))),
    "defect-decomposition": _reference_defect_decomposition,
    "dr-firmly-nonexpansive": lambda A, B, pair: _reference_not_firm(dr_step, A, B, pair),
    "nonexpansive-transfer": _reference_nonexpansive_transfer,
    "bt-factorization": _reference_bt_factorization,
    "commutator": _reference_commutator,
    "bt-order-invariance": lambda A, B, x: _reference_gap(_reference_bt(A, B, x),
                                                          _reference_bt(B, A, x)),
    "bt-half-sum": lambda A, B, x: _reference_gap(
        _reference_bt(A, B, x), 0.5 * (dr_step(A, B, x) + dr_step(B, A, x))),
    "bt-firmly-nonexpansive": lambda A, B, pair: _reference_not_firm(_reference_bt, A, B, pair),
}


def _outcome(call):
    """The result of call(), or the type and message of the divergence it
    raised."""
    try:
        return call()
    except NonFinitePointError as exc:
        return type(exc), str(exc)


def _same_bits(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        return got == want
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_same_bits, got, want))
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


def _bit_pairs():
    """``_operand_pairs()`` and pairs whose orbits overflow within 20 steps."""
    push = AffineRelation(np.zeros((2, 2)), [1e307, -1e307])
    return [*_operand_pairs(), (ZERO2, push), (push, ZERO2), (X_AXIS, push)]


def _probe_batches(rng, dim):
    """One point and batches of 1, 2, 5 and 12 points."""
    return [random_point(rng, dim), *(np.array([random_point(rng, dim) for _ in range(rows)])
                                      for rows in (1, 2, 5, 12))]


def test_the_registry_names_a_reference_for_every_identity():
    assert ({identity.name for identity in IDENTITIES}
            == set(_WORD_REFERENCES) | set(_ORBIT_REFERENCES))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 20])
def test_power_orbits_match_two_power_orbit_calls_bit_for_bit(n):
    rng = np.random.default_rng(45)
    orbit_identities = [identity for identity in IDENTITIES if identity.on_orbits]
    raised = 0
    with np.errstate(all="ignore"):
        for a, b in _bit_pairs():
            for x in _probe_batches(rng, a.dim):
                got = _outcome(lambda: _Words(a, b, x).orbits(n))
                want = _outcome(lambda: _reference_power_orbits(a, b, x, n))
                assert _same_bits(got, want), (a.kind, b.kind, x.shape)
                if isinstance(want[0], type):
                    raised += 1
                    continue
                assert want[0].shape == (n + 1, 2, *x.shape)
                # the orbits start from the table's own R_A x, which has the
                # bits of reflect, whether it was read before them or not
                words = _Words(a, b, x)
                assert _same_bits(words("RA"), a.reflect(x))
                assert _same_bits(words.orbits(n), want)
                # the violation of the reference orbits, through the one reducer
                given = SimpleNamespace(A=a, orbits=lambda depth: want)
                for identity in orbit_identities:
                    assert _same_bits(_outcome(lambda: identity.violation(_Words(a, b, x), n)),
                                      identity.violation(given, n)), (
                        identity.name, a.kind, b.kind, x.shape)
    # the overflowing pairs raise the same error as the reference
    assert (raised > 0) == (n == 20)


def test_word_identities_match_the_dr_step_formulas_bit_for_bit():
    # every non-orbit identity, the pairwise ones included, alone and read
    # in registry order from one shared pair of word tables per batch, as
    # report_identities reads them
    rng = np.random.default_rng(46)
    word_identities = [identity for identity in IDENTITIES if not identity.on_orbits]
    with np.errstate(all="ignore"):
        for a, b in _bit_pairs():
            for x in _probe_batches(rng, a.dim):
                y = np.roll(x, -1, axis=0) if x.ndim > 1 else random_point(rng, a.dim)
                words = (_Words(a, b, x), _Words(a, b, y))
                for identity in word_identities:
                    samples, table = ((x, y), words) if identity.pairwise else (x, words[0])
                    want = _outcome(lambda: _WORD_REFERENCES[identity.name](a, b, samples))
                    alone = _outcome(lambda: _violation(identity, a, b, samples, 3))
                    shared = _outcome(lambda: identity.violation(table, 3))
                    assert _same_bits(alone, want), (identity.name, a.kind, b.kind, x.shape)
                    assert _same_bits(shared, want), (identity.name, a.kind, b.kind, x.shape)


def _counted_resolves(monkeypatch, *operators):
    """Record the input of every resolve call of the operators' classes;
    the inputs are kept, so no two recorded arrays share an id."""
    inputs = []
    for cls in {type(op) for op in operators}:
        def counted(self, x, resolve=cls.resolve):
            inputs.append((self, x))
            return resolve(self, x)
        monkeypatch.setattr(cls, "resolve", counted)
    return inputs


@pytest.mark.parametrize("n", [0, 1, 2, 5, 20])
def test_power_orbits_make_two_resolve_calls_per_step(monkeypatch, n):
    lift = next(inst.config for inst in load_corpus() if inst.name == "three-halfspace-lift")
    a, b = lift.operator_a, lift.operator_b
    inputs = _counted_resolves(monkeypatch, a, b)
    for x in (lift.start_points[0], np.array([random_point(np.random.default_rng(47), 9)
                                               for _ in range(4)])):
        inputs.clear()
        _Words(a, b, x).orbits(n)
        # R_A x, then J_B of the 2N starts, and two calls of 4N rows per
        # step, but for the last J_B call, which leaves out T_ba^n
        rows = len(np.atleast_2d(x))
        want = [rows] + ([2 * rows] + [4 * rows] * (2 * n - 1) + [2 * rows] if n else [])
        assert [len(np.atleast_2d(points)) for _, points in inputs] == want
        # R_A x already read from the table is not computed again
        words = _Words(a, b, x)
        words("RA")
        inputs.clear()
        words.orbits(n)
        assert len(inputs) == (2 * n + 1 if n else 0)


def test_certificates_make_five_validated_resolve_calls_per_fixed_point(monkeypatch):
    # per fixed point f: J_A f and J_B R_A f, whose table also gives the
    # residual, z, R_A f and R_B R_A f; the two graph memberships of
    # (z, k); and R_A(z + k) of the dual defect
    config = next(inst.config for inst in load_corpus() if inst.name == "parallel-lines")
    a, b = config.operator_a, config.operator_b
    fixed, _ = _certified_fixed_points(config)
    assert len(fixed) == 4
    inputs = _counted_resolves(monkeypatch, a, b)
    certify_fixed_points(a, b, fixed)
    assert len(inputs) == 5 * len(fixed)
    # J_A f and J_B R_A f give the test and the image R_A f
    inputs.clear()
    map_fixed_point(a, b, fixed[0])
    assert len(inputs) == 2


@pytest.mark.parametrize("n", [0, 1, 20])
def test_report_identities_resolves_each_j_word_once(monkeypatch, n):
    config = next(inst.config for inst in load_corpus() if inst.name == "linear-asymmetric")
    a, b = config.operator_a, config.operator_b
    points = np.random.default_rng(48).normal(0.0, 2.0, size=(12, 2))
    words_read = set()
    read = _Words.__call__

    def spied(self, *word):
        if word and word[0][0] == "J":
            words_read.add((id(self), word))
        return read(self, *word)

    monkeypatch.setattr(_Words, "__call__", spied)
    inputs = _counted_resolves(monkeypatch, a, b)
    reports = report_identities(a, b, points, n, 1e-9)
    assert {"commutation", "defect-decomposition", "commutator"} <= {
        r.identity_name for r in reports}
    # the orbits' calls, with R_A x taken from the word table; one R_A or
    # J_A call of orbit points per orbit identity; one call per J word of
    # the two tables
    orbit_calls = (2 * n + 1 if n else 0) + 3
    assert len(inputs) == orbit_calls + len(words_read)
    assert len({(id(op), id(x)) for op, x in inputs}) == len(inputs)


def test_report_identities_resolves_no_input_twice_on_the_lift():
    # on the lift no two distinct words coincide, so no resolve input
    # repeats by value either
    lift = next(inst.config for inst in load_corpus() if inst.name == "three-halfspace-lift")
    a, b = lift.operator_a, lift.operator_b
    with pytest.MonkeyPatch.context() as monkeypatch:
        inputs = _counted_resolves(monkeypatch, a, b)
        report_identities(a, b, np.random.default_rng(49).normal(0.0, 2.0, (12, 9)), 20, 1e-9)
    seen = [(id(op), np.shape(x), np.asarray(x).tobytes()) for op, x in inputs]
    assert len(set(seen)) == len(seen)
