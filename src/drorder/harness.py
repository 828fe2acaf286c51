"""Named regression instances, figure scenario generators, random draws.

The named corpus encodes the closed-form worked examples of this
problem family: the ray-against-axis pair with its six pointwise
formulas, the linear pair whose two composite orders give different
matrices, the ray/line pair whose composite operators are not firmly
nonexpansive, a line-inside-a-plane pair with a whole plane of fixed
points, the line/ball and halfspace/ball scenario pair, and a
three-halfspace consensus problem in product space.

The corpus manifest ``data/corpus.json`` ships with the package and is
the one declaration of each instance's config (name + config per
instance).  This module holds only the expectations, bound to the
instance names; they check the manifest's configs against independent
constants (the figure geometry, the lift's halfspaces).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from .analysis import (
    CertificateError,
    IdentityReport,
    check_commutation,
    check_conjugation,
    check_firmly_nonexpansive,
    check_shadow_equality,
    certify_fixed_points,
    find_fixed_point,
    probe_conjugation,
)
from .config import ProblemConfig
from .operators import (
    AffineRelation,
    Inverse,
    LinearMonotone,
    NormalConeAffineSubspace,
    NormalConeBall,
    NormalConeBox,
    NormalConeHalfspace,
    NormalConeRay,
    Operator,
    Rotation,
    SphereSelection,
)
from .splitting import (
    FORM_BORWEIN_TAM,
    Orbit,
    SplitOperator,
    dr_matrix,
    dr_step,
    iterate,
)

__all__ = [
    "Expectation",
    "NamedInstance",
    "run_instance",
    "load_corpus",
    "write_manifest",
    "figure_scenarios",
    "FIGURE_START",
    "random_point",
    "random_linear_monotone",
    "random_affine_relation",
    "random_subspace",
    "random_affine_operator",
    "random_monotone_operator",
    "random_sphere_selection",
]

GRID_EXTENT = 5.0
GRID_SIDE = 21

FIGURE_LINE_DIRECTION = (1.0, 0.5)
FIGURE_BALL_CENTER = (2.0, 1.0)
FIGURE_BALL_RADIUS = 1.0
FIGURE_START = (4.0, 3.0)


@dataclass
class Expectation:
    """One reproducible expectation of a named instance.

    ``run`` returns (max_violation, sample_count) for the instance
    config.  ``provenance`` records where the expected values come from:
    "closed-form" for formulas stated with the instance, "derived" for
    values recomputed by an independent oracle.  When
    ``expect_violation_above`` is set the expectation is a failure
    exhibit: it passes only if the observed violation exceeds that
    threshold, and the report then carries the shortfall
    (threshold - observed) against a zero tolerance.
    """

    label: str
    provenance: str
    tolerance: float
    run: Callable[[ProblemConfig], tuple[float, int]]
    expect_violation_above: float | None = None


@dataclass
class NamedInstance:
    name: str
    config: ProblemConfig
    expected: list[Expectation]


def run_instance(instance: NamedInstance) -> list[IdentityReport]:
    """Evaluate every expectation; failures become reports, not errors."""
    reports = []
    for exp in instance.expected:
        violation, samples = exp.run(instance.config)
        name = f"{instance.name}/{exp.label}"
        if exp.expect_violation_above is None:
            reports.append(
                IdentityReport.from_violation(name, violation, samples, exp.tolerance)
            )
        else:
            shortfall = exp.expect_violation_above - violation
            reports.append(
                IdentityReport(name, shortfall, samples, 0.0, shortfall <= 0.0)
            )
    return reports


def _grid_points() -> list[np.ndarray]:
    axis = np.linspace(-GRID_EXTENT, GRID_EXTENT, GRID_SIDE)
    return [np.array([gx, gy]) for gx in axis for gy in axis]


def _grid_expectation(label: str, provenance: str, tolerance: float,
                      computed: Callable[[Operator, Operator, np.ndarray], np.ndarray],
                      closed: Callable[[np.ndarray], np.ndarray]) -> Expectation:
    def run(config: ProblemConfig) -> tuple[float, int]:
        a, b = config.operator_a, config.operator_b
        points = _grid_points()
        worst = max(
            float(np.linalg.norm(computed(a, b, p) - closed(p))) for p in points
        )
        return worst, len(points)

    return Expectation(label, provenance, tolerance, run)


# --------------------------------------------------------------------------
# ray-vs-axis: A the normal cone of the horizontal axis, B of the upward
# ray.  All six pointwise formulas below are exact.

def _expect_ray_vs_axis() -> list[Expectation]:
    def pos(v: float) -> float:
        return max(v, 0.0)

    return [
        _grid_expectation(
            "t-ab", "closed-form", 1e-12,
            lambda a, b, p: dr_step(a, b, p),
            lambda p: np.array([0.0, pos(p[1])]),
        ),
        _grid_expectation(
            "t-ba", "closed-form", 1e-12,
            lambda a, b, p: dr_step(b, a, p),
            lambda p: np.array([0.0, min(p[1], 0.0)]),
        ),
        _grid_expectation(
            "rb-of-t-ab", "closed-form", 1e-12,
            lambda a, b, p: b.reflect(dr_step(a, b, p)),
            lambda p: np.array([0.0, pos(p[1])]),
        ),
        _grid_expectation(
            "t-ba-of-rb", "closed-form", 1e-12,
            lambda a, b, p: dr_step(b, a, b.reflect(p)),
            lambda p: np.zeros(2),
        ),
        _grid_expectation(
            "rb-of-t-ba", "closed-form", 1e-12,
            lambda a, b, p: b.reflect(dr_step(b, a, p)),
            lambda p: np.array([0.0, pos(-p[1])]),
        ),
        _grid_expectation(
            "t-ab-of-rb", "closed-form", 1e-12,
            lambda a, b, p: dr_step(a, b, b.reflect(p)),
            lambda p: np.array([0.0, abs(p[1])]),
        ),
    ]


# --------------------------------------------------------------------------
# linear-asymmetric: the two composite orders have different matrices, so
# the splitting products do not commute for this pair.

_PRODUCT_AB_BA = np.array([[5.0, -1.0], [-1.0, 2.0]]) / 9.0
_PRODUCT_BA_AB = np.array([[5.0, 1.0], [1.0, 2.0]]) / 9.0


def _matrix_expectation(label: str, provenance: str, swap: bool,
                        expected: np.ndarray) -> Expectation:
    def run(config: ProblemConfig) -> tuple[float, int]:
        first, second = config.operator_a, config.operator_b
        if swap:
            first, second = second, first
        matrix, offset = dr_matrix(SplitOperator(first, second, FORM_BORWEIN_TAM))
        worst = max(
            float(np.max(np.abs(matrix - expected))),
            float(np.max(np.abs(offset))),
        )
        return worst, expected.size

    return Expectation(label, provenance, 1e-12, run)


def _expect_linear_asymmetric() -> list[Expectation]:
    def commutator_gap(config: ProblemConfig) -> tuple[float, int]:
        a, b = config.operator_a, config.operator_b
        m1, _ = dr_matrix(SplitOperator(a, b, FORM_BORWEIN_TAM))
        m2, _ = dr_matrix(SplitOperator(b, a, FORM_BORWEIN_TAM))
        expected = np.array([[0.0, -2.0], [-2.0, 0.0]]) / 9.0
        return float(np.max(np.abs((m1 - m2) - expected))), expected.size

    return [
        _matrix_expectation("product-ab-ba", "closed-form", False, _PRODUCT_AB_BA),
        _matrix_expectation("product-ba-ab", "closed-form", True, _PRODUCT_BA_AB),
        Expectation("product-commutator", "derived", 1e-12, commutator_gap),
    ]


# --------------------------------------------------------------------------
# bt-not-firm: with a ray (not an affine subspace) in the first slot the
# composite operators fail to be firmly nonexpansive; the witness inner
# product equals -2 alpha^2 at the scaled test points.

def _expect_bt_not_firm() -> list[Expectation]:
    def half_pos(v: float) -> float:
        return max(0.5 * v, 0.0)

    def witness(config: ProblemConfig) -> tuple[float, int]:
        a, b = config.operator_a, config.operator_b
        forward = SplitOperator(a, b, FORM_BORWEIN_TAM)
        backward = SplitOperator(b, a, FORM_BORWEIN_TAM)
        origin = np.zeros(2)
        worst = 0.0
        count = 0
        for alpha in (1.0, 2.0, 0.5):
            expected = -2.0 * alpha * alpha
            got = check_firmly_nonexpansive(
                forward, np.array([-2.0 * alpha, 2.0 * alpha]), origin
            )
            worst = max(worst, abs(got - expected))
            got = check_firmly_nonexpansive(
                backward, np.array([-2.0 * alpha, -2.0 * alpha]), origin
            )
            worst = max(worst, abs(got - expected))
            count += 2
        return worst, count

    return [
        _grid_expectation(
            "t-ab", "closed-form", 1e-12,
            lambda a, b, p: dr_step(a, b, p),
            lambda p: np.array([half_pos(p[0] + p[1]),
                                p[1] - half_pos(p[0] + p[1])]),
        ),
        _grid_expectation(
            "t-ba", "closed-form", 1e-12,
            lambda a, b, p: dr_step(b, a, p),
            lambda p: np.array([half_pos(p[0] - p[1]),
                                p[1] + half_pos(p[0] - p[1])]),
        ),
        Expectation("composite-not-firm", "closed-form", 1e-12, witness),
    ]


# --------------------------------------------------------------------------
# parallel-lines: the horizontal axis of R^3 inside the parallel
# horizontal plane.  The primal solutions fill the line, the dual
# solutions the plane's normal line, so the fixed points of either order
# fill a whole plane and the reflector acts on it nontrivially.

def _expect_parallel_lines() -> list[Expectation]:
    def fixed_points(config: ProblemConfig) -> list[np.ndarray]:
        T = config.split("ab")
        return [
            find_fixed_point(T, s, tol=config.stop_tol, max_iter=config.max_iter)
            for s in config.start_points
        ]

    def fixed_point_form(config: ProblemConfig) -> tuple[float, int]:
        worst = 0.0
        for s, f in zip(config.start_points, fixed_points(config)):
            expected = np.array([s[0], 0.0, s[2]])
            worst = max(worst, float(np.linalg.norm(f - expected)))
        return worst, len(config.start_points)

    def certificates(config: ProblemConfig):
        return certify_fixed_points(config.operator_a, config.operator_b,
                                    fixed_points(config),
                                    graph_tol=config.tolerances.tau_graph)

    def solution_form(config: ProblemConfig) -> tuple[float, int]:
        starts = config.start_points
        try:
            pairs = certificates(config).pairs
        except CertificateError:
            return float("inf"), len(starts)
        worst = max(
            max(float(np.linalg.norm(p.z - np.array([s[0], 0.0, 0.0]))),
                float(np.linalg.norm(p.k - np.array([0.0, 0.0, s[2]]))))
            for s, p in zip(starts, pairs)
        )
        return worst, len(pairs)

    def bijection(config: ProblemConfig) -> tuple[float, int]:
        n = len(config.start_points)
        count = n + n * (n - 1) // 2
        try:
            cert = certificates(config)
        except CertificateError:
            return float("inf"), count
        return max(cert.bijection, cert.isometry), count

    return [
        Expectation("fixed-point-plane", "derived", 1e-12, fixed_point_form),
        Expectation("solution-split", "derived", 1e-12, solution_form),
        Expectation("bijection-isometry", "derived", 1e-8, bijection),
    ]


# --------------------------------------------------------------------------
# subspace-ball and halfspace-ball: the scenario pair behind the
# conjugation identity and its failure when the subspace is replaced by
# a halfspace.  Parameters are representative, not canonical.

def _line_direction() -> np.ndarray:
    d = np.asarray(FIGURE_LINE_DIRECTION)
    return d / np.linalg.norm(d)


def _checker_expectation(label: str, provenance: str, tolerance: float,
                         check: Callable[..., IdentityReport], n: int,
                         **kwargs) -> Expectation:
    """Run an orbit checker from the instance's first start point."""
    def run(config: ProblemConfig) -> tuple[float, int]:
        rep = check(config.operator_a, config.operator_b, config.start_points[0], n)
        return rep.max_violation, rep.sample_count

    return Expectation(label, provenance, tolerance, run, **kwargs)


def _expect_subspace_ball() -> list[Expectation]:
    def membership(config: ProblemConfig) -> tuple[float, int]:
        # Independent geometry: distance to the line and excess over the
        # ball radius, from the instance parameters alone.
        direction = _line_direction()
        center = np.asarray(FIGURE_BALL_CENTER)
        worst = 0.0
        for order in ("ab", "ba"):
            orbit = iterate(config.split(order), config.start_points[0],
                            config.max_iter, config.stop_tol)
            if not orbit.converged:
                return float("inf"), 2
            z = config.operator_a.resolve(orbit.final)
            line_dist = float(np.linalg.norm(z - (direction @ z) * direction))
            ball_excess = max(0.0, float(np.linalg.norm(z - center))
                              - FIGURE_BALL_RADIUS)
            worst = max(worst, line_dist, ball_excess)
        return worst, 2

    return [
        _checker_expectation("conjugation", "closed-form", 1e-8, check_conjugation, 20),
        _checker_expectation("shadow-equality", "closed-form", 1e-8,
                             check_shadow_equality, 50),
        Expectation("shadow-limit-membership", "derived", 1e-8, membership),
    ]


def _expect_halfspace_ball() -> list[Expectation]:
    return [
        _checker_expectation("conjugation-failure", "derived", 0.0,
                             probe_conjugation, 5, expect_violation_above=1e-3),
    ]


# --------------------------------------------------------------------------
# three-halfspace-lift: consensus form of a three-constraint feasibility
# problem in R^3 with interior intersection.

_LIFT_NORMALS = (
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (-0.5773502691896258, -0.5773502691896258, -0.5773502691896258),
)
_LIFT_RHS = (1.0, 1.0, 0.5)


def _expect_three_halfspace_lift() -> list[Expectation]:
    def feasibility(config: ProblemConfig) -> tuple[float, int]:
        orbit = iterate(config.split("ab"), config.start_points[0],
                        config.max_iter, config.stop_tol)
        if not orbit.converged:
            return float("inf"), 1
        blocks = orbit.final_shadow.reshape(3, 3)
        spread = float(np.max(np.abs(blocks - blocks.mean(axis=0))))
        z = blocks.mean(axis=0)
        worst = spread
        for n, c in zip(_LIFT_NORMALS, _LIFT_RHS):
            worst = max(worst, float(np.asarray(n) @ z) - c)
        return worst, 1 + len(_LIFT_NORMALS)

    return [
        Expectation("consensus-feasibility", "derived", 1e-8, feasibility),
        _checker_expectation("commutation", "closed-form", 1e-8, check_commutation, 25),
        _checker_expectation("conjugation", "closed-form", 1e-8, check_conjugation, 25),
        _checker_expectation("shadow-equality", "closed-form", 1e-8,
                             check_shadow_equality, 25),
    ]


_EXPECTATIONS: dict[str, Callable[[], list[Expectation]]] = {
    "ray-vs-axis": _expect_ray_vs_axis,
    "linear-asymmetric": _expect_linear_asymmetric,
    "bt-not-firm": _expect_bt_not_firm,
    "parallel-lines": _expect_parallel_lines,
    "subspace-ball": _expect_subspace_ball,
    "halfspace-ball": _expect_halfspace_ball,
    "three-halfspace-lift": _expect_three_halfspace_lift,
}


def _manifest_resource():
    return resources.files("drorder").joinpath("data/corpus.json")


def write_manifest(path) -> Path:
    """Copy the shipped corpus manifest (name + config per instance) to ``path``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(_manifest_resource().read_bytes())
    return target


def load_corpus(path=None) -> list[NamedInstance]:
    """Load a corpus manifest (the shipped one by default) and bind each
    instance's expectations by name."""
    if path is not None:
        text = Path(path).read_text()
    else:
        text = _manifest_resource().read_text()
    instances = []
    for entry in json.loads(text):
        name = entry["name"]
        if name not in _EXPECTATIONS:
            raise ValueError(f"manifest names unknown instance {name!r}")
        config = ProblemConfig.from_dict(entry["config"])
        instances.append(NamedInstance(name, config, _EXPECTATIONS[name]()))
    return instances


def figure_scenarios(kind: str, x0=None, n: int = 5,
                     out_dir=None) -> tuple[Orbit, Orbit, IdentityReport]:
    """The two-orbit scenario behind the conjugation figure.

    Produces the orbits (T_ab^m R_A x0)_m and (T_ba^m x0)_m for the
    requested geometry ("subspace-ball" or "halfspace-ball"), optionally
    writes them as ``<kind>-red.csv`` / ``<kind>-blue.csv`` under
    ``out_dir``, and reports the conjugation defect at x0: within
    numerical tolerance for the subspace, strictly positive for the
    halfspace.
    """
    if n < 5:
        raise ValueError("n must be at least 5")
    if kind not in ("subspace-ball", "halfspace-ball"):
        raise ValueError(f"unknown scenario kind {kind!r}")
    config = next(inst.config for inst in load_corpus() if inst.name == kind)
    a, b = config.operator_a, config.operator_b
    start = config.start_points[0] if x0 is None else np.asarray(x0, dtype=float)

    red = iterate(config.split("ab"), a.reflect(start), max_iter=n, stop_tol=0.0)
    blue = iterate(config.split("ba"), start, max_iter=n, stop_tol=0.0)
    report = probe_conjugation(a, b, start, n, tol=config.tolerances.tau_num)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        red.write_csv(out_dir / f"{kind}-red.csv")
        blue.write_csv(out_dir / f"{kind}-blue.csv")
    return red, blue, report


# --------------------------------------------------------------------------
# Random draws for the property suites.  All draws take an explicit
# numpy Generator; with through_origin=True every drawn set contains the
# origin (and linear parts vanish there), which keeps zero a solution of
# the sum problem so that iterations have something to converge to.

def random_point(rng: np.random.Generator, dim: int, scale: float = 2.0) -> np.ndarray:
    return rng.normal(0.0, scale, dim)


def random_linear_monotone(rng: np.random.Generator, dim: int) -> LinearMonotone:
    g = rng.normal(size=(dim, dim)) / np.sqrt(dim)
    k = rng.normal(size=(dim, dim))
    matrix = g @ g.T + 0.5 * (k - k.T)
    return LinearMonotone(matrix)


def random_affine_relation(rng: np.random.Generator, dim: int, *,
                           through_origin: bool = True) -> AffineRelation:
    base = random_linear_monotone(rng, dim)
    offset = np.zeros(dim) if through_origin else rng.normal(0.0, 1.0, dim)
    return AffineRelation(base.matrix, offset)


def random_subspace(rng: np.random.Generator, dim: int, *,
                    through_origin: bool = True,
                    rank: int | None = None) -> NormalConeAffineSubspace:
    if rank is None:
        rank = int(rng.integers(1, dim)) if dim > 1 else 1
    basis = rng.normal(size=(dim, rank))
    offset = np.zeros(dim) if through_origin else rng.normal(0.0, 1.0, dim)
    return NormalConeAffineSubspace(offset, basis)


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_sphere_selection(rng: np.random.Generator, dim: int) -> SphereSelection:
    center = rng.normal(0.0, 1.0, dim)
    radius = 0.5 + float(rng.uniform(0.0, 2.0))
    return SphereSelection(center, radius, _random_unit(rng, dim))


def random_affine_operator(rng: np.random.Generator, dim: int, *,
                           through_origin: bool = True) -> Operator:
    choice = rng.integers(0, 3)
    if choice == 0:
        return random_linear_monotone(rng, dim)
    if choice == 1:
        return random_affine_relation(rng, dim, through_origin=through_origin)
    return random_subspace(rng, dim, through_origin=through_origin)


def random_monotone_operator(rng: np.random.Generator, dim: int, *,
                             through_origin: bool = True,
                             allow_wrapped: bool = True) -> Operator:
    """Draw from the full monotone catalog (never the sphere selection)."""
    kinds = ["linear", "affine", "subspace", "halfspace", "ball", "ray", "box"]
    kind = kinds[int(rng.integers(0, len(kinds)))]
    if kind == "linear":
        op: Operator = random_linear_monotone(rng, dim)
    elif kind == "affine":
        op = random_affine_relation(rng, dim, through_origin=through_origin)
    elif kind == "subspace":
        op = random_subspace(rng, dim, through_origin=through_origin)
    elif kind == "halfspace":
        normal = _random_unit(rng, dim)
        rhs = (0.1 + abs(rng.normal(0.0, 1.0)) if through_origin
               else rng.normal(0.0, 1.0))
        op = NormalConeHalfspace(normal, rhs)
    elif kind == "ball":
        radius = 0.5 + float(rng.uniform(0.0, 2.0))
        if through_origin:
            center = 0.8 * radius * float(rng.uniform(0.0, 1.0)) * _random_unit(rng, dim)
        else:
            center = rng.normal(0.0, 1.5, dim)
        op = NormalConeBall(center, radius)
    elif kind == "ray":
        op = NormalConeRay(_random_unit(rng, dim))
    else:
        span = 0.1 + np.abs(rng.normal(0.0, 1.5, dim))
        lower = -span
        upper = 0.1 + np.abs(rng.normal(0.0, 1.5, dim))
        if not through_origin:
            shift = rng.normal(0.0, 1.0, dim)
            lower, upper = lower + shift, upper + shift
        # occasionally unbounded sides
        if rng.uniform() < 0.3:
            lower = lower.copy()
            lower[int(rng.integers(0, dim))] = -np.inf
        if rng.uniform() < 0.3:
            upper = upper.copy()
            upper[int(rng.integers(0, dim))] = np.inf
        op = NormalConeBox(lower, upper)
    if allow_wrapped and rng.uniform() < 0.15:
        op = Inverse(op) if rng.uniform() < 0.5 else Rotation(op)
    return op
