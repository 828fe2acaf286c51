"""Acceptance suite: every shipped guarantee, at its stated tolerance.

Each test prints one `criterion N ...: PASS/FAIL` line (visible under
pytest -s and in failure output) and asserts both the numeric bound and
the runtime budget.
"""

import time

import numpy as np
import pytest

from drorder.analysis import (
    FixedPointBudgetError,
    check_commutation,
    check_conjugation,
    check_defect_decomposition,
    check_dual_symmetry,
    check_firmly_nonexpansive,
    check_shadow_equality,
    extract_solution,
    find_fixed_point,
    map_fixed_point,
    probe_conjugation,
)
from drorder.harness import (
    load_corpus,
    random_affine_operator,
    random_monotone_operator,
    random_point,
    random_sphere_selection,
    random_subspace,
)
from drorder.operators import (
    LinearMonotone,
    NormalConeAffineSubspace,
    NormalConeHalfspace,
    NormalConeRay,
)
from drorder.splitting import (
    FORM_BORWEIN_TAM,
    SplitOperator,
    dr_matrix,
    dr_step,
    iterate,
    lift,
)

X_AXIS = NormalConeAffineSubspace([0.0, 0.0], [[1.0], [0.0]])
UP_RAY = NormalConeRay([0.0, 1.0])

_INSTANCES = {inst.name: inst for inst in load_corpus()}


def _emit(num: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{label}]: {verdict} ({detail})")
    assert ok, f"criterion {num} [{label}] failed: {detail}"


def test_criterion_1_ray_vs_axis_closed_forms():
    start = time.perf_counter()
    axis = np.linspace(-5.0, 5.0, 21)
    a, b = X_AXIS, UP_RAY
    worst = 0.0
    for gx in axis:
        for gy in axis:
            p = np.array([gx, gy])
            pos, neg = max(gy, 0.0), min(gy, 0.0)
            checks = [
                (dr_step(a, b, p), [0.0, pos]),
                (dr_step(b, a, p), [0.0, neg]),
                (b.reflect(dr_step(a, b, p)), [0.0, pos]),
                (dr_step(b, a, b.reflect(p)), [0.0, 0.0]),
                (b.reflect(dr_step(b, a, p)), [0.0, max(-gy, 0.0)]),
                (dr_step(a, b, b.reflect(p)), [0.0, abs(gy)]),
            ]
            for got, want in checks:
                worst = max(worst, float(np.linalg.norm(got - np.asarray(want))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _emit(1, "ray-vs-axis closed forms", ok,
          f"max violation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_linear_counterexample_matrices():
    start = time.perf_counter()
    b = LinearMonotone([[1.0, 1.0], [1.0, 1.0]])
    m1, off1 = dr_matrix(SplitOperator(X_AXIS, b, FORM_BORWEIN_TAM))
    m2, off2 = dr_matrix(SplitOperator(b, X_AXIS, FORM_BORWEIN_TAM))
    worst = max(
        float(np.max(np.abs(m1 - np.array([[5.0, -1.0], [-1.0, 2.0]]) / 9.0))),
        float(np.max(np.abs(m2 - np.array([[5.0, 1.0], [1.0, 2.0]]) / 9.0))),
        float(np.max(np.abs(off1))),
        float(np.max(np.abs(off2))),
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _emit(2, "order-dependent product matrices", ok,
          f"max violation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_composite_not_firmly_nonexpansive():
    start = time.perf_counter()
    s = 1.0 / np.sqrt(2.0)
    a = NormalConeRay([s, s])
    b = X_AXIS
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        expected = -2.0 * alpha * alpha
        got = check_firmly_nonexpansive(
            SplitOperator(a, b, FORM_BORWEIN_TAM),
            [-2.0 * alpha, 2.0 * alpha], [0.0, 0.0])
        worst = max(worst, abs(got - expected))
        got = check_firmly_nonexpansive(
            SplitOperator(b, a, FORM_BORWEIN_TAM),
            [-2.0 * alpha, -2.0 * alpha], [0.0, 0.0])
        worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _emit(3, "composite firmness witness", ok,
          f"max deviation from -2a^2: {worst:.2e}, {elapsed:.2f}s")


def _commutation_trials(seed=1004, trials=200):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        a = random_affine_operator(rng, d)
        b = random_monotone_operator(rng, d)
        x = random_point(rng, d)
        n = int(rng.integers(1, 51))
        yield a, b, x, n


def test_criterion_4_commutation_suite():
    start = time.perf_counter()
    worst = 0.0
    for a, b, x, n in _commutation_trials():
        worst = max(worst, check_commutation(a, b, x, n, tol=1e-8).max_violation)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    _emit(4, "commutation suite (200 trials)", ok,
          f"max violation {worst:.2e}, {elapsed:.2f}s")


def _conjugation_trials(seed=1005, standard=150, generalized=50):
    rng = np.random.default_rng(seed)
    for _ in range(standard):
        d = int(rng.integers(2, 9))
        yield (random_subspace(rng, d), random_monotone_operator(rng, d),
               random_point(rng, d), int(rng.integers(1, 51)))
    for _ in range(generalized):
        d = int(rng.integers(2, 9))
        yield (random_subspace(rng, d), random_sphere_selection(rng, d),
               random_point(rng, d), int(rng.integers(1, 51)))


def test_criterion_5_conjugation_and_shadow_suite():
    start = time.perf_counter()
    worst = 0.0
    for a, b, x, n in _conjugation_trials():
        worst = max(worst,
                    check_conjugation(a, b, x, n, tol=1e-8).max_violation,
                    check_shadow_equality(a, b, x, n, tol=1e-8).max_violation)
    halfspace = _INSTANCES["halfspace-ball"].config
    probe = probe_conjugation(halfspace.operator_a, halfspace.operator_b,
                              halfspace.start_points[0], 5)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and probe.max_violation > 1e-3 and elapsed < 30.0
    _emit(5, "conjugation + shadow suite (200 trials)", ok,
          f"max violation {worst:.2e}, halfspace probe {probe.max_violation:.3f}, "
          f"{elapsed:.2f}s")


def test_criterion_6_bijection_isometry_suite():
    start = time.perf_counter()
    config = _INSTANCES["parallel-lines"].config
    a, b = config.operator_a, config.operator_b
    T = SplitOperator(a, b)
    rng = np.random.default_rng(1006)
    fixed = [find_fixed_point(T, random_point(rng, 3, 3.0), tol=1e-12)
             for _ in range(50)]
    worst_iso = worst_rt = worst_zk = 0.0
    images = []
    for f in fixed:
        image = map_fixed_point(a, b, f, "ab", fix_tol=1e-8)
        back = map_fixed_point(a, b, image, "ba", fix_tol=1e-8)
        pair = extract_solution(a, b, f, graph_tol=1e-8)
        worst_rt = max(worst_rt, float(np.linalg.norm(back - f)))
        worst_zk = max(worst_zk, float(np.linalg.norm(image - (pair.z - pair.k))))
        images.append(image)
    for i in range(len(fixed)):
        for j in range(i + 1, len(fixed)):
            gap = float(np.linalg.norm(fixed[i] - fixed[j]))
            image_gap = float(np.linalg.norm(images[i] - images[j]))
            worst_iso = max(worst_iso, abs(image_gap - gap))
    elapsed = time.perf_counter() - start
    ok = (worst_iso <= 1e-8 and worst_rt <= 1e-8 and worst_zk <= 1e-8
          and elapsed < 10.0)
    _emit(6, "bijection/isometry suite (50 fixed points)", ok,
          f"isometry {worst_iso:.2e}, round trip {worst_rt:.2e}, "
          f"z-k {worst_zk:.2e}, {elapsed:.2f}s")


def test_criterion_7_duality_certificates_for_converged_runs():
    start = time.perf_counter()
    converged = 0
    worst = 0.0
    # the instance pools of criteria 4 and 5, iterated to convergence
    pools = list(_commutation_trials(trials=60))
    pools += [(a, b, x, n) for a, b, x, n in _conjugation_trials(standard=60,
                                                                 generalized=0)]
    for a, b, x, _ in pools:
        if not b.monotone:
            continue
        T = SplitOperator(a, b)
        try:
            f = find_fixed_point(T, x, tol=1e-11, max_iter=20_000)
        except FixedPointBudgetError:
            continue
        pair = extract_solution(a, b, f, fix_tol=1e-8, graph_tol=1e-8)
        report = check_dual_symmetry(a, b, [pair], graph_tol=1e-8, tol=1e-8)
        worst = max(worst, report.max_violation)
        converged += 1
    # plus the fixed points of the criterion-6 instance
    config = _INSTANCES["parallel-lines"].config
    a, b = config.operator_a, config.operator_b
    T = SplitOperator(a, b)
    rng = np.random.default_rng(1007)
    pairs = []
    for _ in range(10):
        f = find_fixed_point(T, random_point(rng, 3, 3.0), tol=1e-12)
        pairs.append(extract_solution(a, b, f, graph_tol=1e-8))
        converged += 1
    worst = max(worst, check_dual_symmetry(a, b, pairs, graph_tol=1e-8,
                                           tol=1e-8).max_violation)
    elapsed = time.perf_counter() - start
    ok = converged >= 50 and worst <= 1e-8
    _emit(7, "duality certificates on converged runs", ok,
          f"{converged} converged runs certified, worst map defect {worst:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_8_unconditional_defect_decomposition():
    start = time.perf_counter()
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 9))
        a = random_monotone_operator(rng, d)
        b = random_monotone_operator(rng, d)
        x = random_point(rng, d)
        worst = max(worst,
                    check_defect_decomposition(a, b, x, tol=1e-9).max_violation)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _emit(8, "defect decomposition (500 samples)", ok,
          f"max violation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_9_parallel_splitting_lift():
    start = time.perf_counter()
    halfspaces = [
        NormalConeHalfspace([1.0, 0.0, 0.0], 1.0),
        NormalConeHalfspace([0.0, 1.0, 0.0], 1.0),
        NormalConeHalfspace([-1.0, -1.0, -1.0], 0.5),  # rescaled to unit normal
    ]
    lifted = lift(halfspaces, 3)
    x0 = lifted.embed([3.0, 2.0, 1.0])
    orbit = iterate(lifted.split(), x0, stop_tol=1e-12)
    z = lifted.average(orbit.final_shadow)
    feasibility = max(float(h.normal @ z) - h.rhs for h in halfspaces)
    spread = float(np.max(np.abs(lifted.blocks(orbit.final_shadow) - z)))

    a, b = lifted.diagonal, lifted.product
    rng = np.random.default_rng(1009)
    worst_ident = 0.0
    for _ in range(10):
        x = rng.normal(0.0, 2.0, 9)
        n = int(rng.integers(5, 30))
        worst_ident = max(
            worst_ident,
            check_commutation(a, b, x, n, tol=1e-8).max_violation,
            check_conjugation(a, b, x, n, tol=1e-8).max_violation,
            check_shadow_equality(a, b, x, n, tol=1e-8).max_violation,
        )
    elapsed = time.perf_counter() - start
    ok = (orbit.converged and feasibility <= 1e-8 and spread <= 1e-8
          and worst_ident <= 1e-8 and elapsed < 5.0)
    _emit(9, "three-halfspace consensus lift", ok,
          f"converged={orbit.converged}, feasibility excess {feasibility:.2e}, "
          f"identities {worst_ident:.2e}, {elapsed:.2f}s")


def test_criterion_10_composite_identities_for_two_subspaces():
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    a = random_subspace(rng, 4, through_origin=False, rank=2)
    b = random_subspace(rng, 4, through_origin=False, rank=3)
    bt_ab = SplitOperator(a, b, FORM_BORWEIN_TAM)
    bt_ba = SplitOperator(b, a, FORM_BORWEIN_TAM)
    worst_eq = 0.0
    for _ in range(100):
        x = random_point(rng, 4)
        u = bt_ab(x)
        worst_eq = max(
            worst_eq,
            float(np.linalg.norm(u - bt_ba(x))),
            float(np.linalg.norm(u - 0.5 * (dr_step(a, b, x) + dr_step(b, a, x)))),
        )
    worst_fne = 0.0
    for _ in range(100):
        x, y = random_point(rng, 4), random_point(rng, 4)
        worst_fne = max(worst_fne,
                        -min(0.0, check_firmly_nonexpansive(bt_ab, x, y)))
    elapsed = time.perf_counter() - start
    ok = worst_eq <= 1e-9 and worst_fne <= 1e-9 and elapsed < 5.0
    _emit(10, "composite identities for two affine subspaces", ok,
          f"equality {worst_eq:.2e}, firmness slack {worst_fne:.2e}, "
          f"{elapsed:.2f}s")
