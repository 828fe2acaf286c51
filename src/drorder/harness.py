"""Named regression instances of the problem family.

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
constants (the figure geometry, the lift's halfspaces).  The two
orbits of the conjugation figure, T_ab^m R_A x0 and T_ba^m x0, with
their per-step defect, are what ``drorder compare`` writes for the
subspace-ball and halfspace-ball configs, from their first start point
FIGURE_START.

``run_instance`` gives the expectations of one pass a private ``_Pass``,
the only state they share.  It holds the config and, each computed on
its first read, the word table of the grid, the word table of the first
start point, the certified fixed points of the starts and the affine
forms (``dr_matrix``) of the two composites T_ab T_ba and T_ba T_ab,
which the three linear-asymmetric expectations read; nothing
outlives the pass, and no expectation depends on another having run.
The pointwise formulas of ray-vs-axis and bt-not-firm are words of the
grid table (``analysis._Words``).  An orbit expectation (commutation,
conjugation, shadow equality and the conjugation failure exhibit) names
its entry of the identity registry ``analysis.IDENTITIES`` and a depth
n, and reads the probe orbits the start table holds.  The fixed points
of parallel-lines are found and certified by the code that gives
``verify --config`` its solution certificates, whose pair certificates
are those that ``run`` and ``check_dual_symmetry`` read too:
``analysis._pair_defects`` for the graph memberships of a pair (z, k)
and the map z + k -> z - k.

The seeded random operator draws of the property suites are a test
helper (``tests/draws.py``), not part of the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .analysis import (
    _IDENTITY,
    IdentityReport,
    _certified_fixed_points,
    _Words,
    check_firmly_nonexpansive,
)
from .config import ProblemConfig
from .operators import _norm, _row_norms
from .splitting import FORM_BORWEIN_TAM, SplitOperator, dr_matrix, iterate

__all__ = [
    "Expectation",
    "NamedInstance",
    "run_instance",
    "load_corpus",
    "write_manifest",
    "FIGURE_START",
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

    ``run`` returns the violations for the pass of an instance
    (``_Pass``), which holds its config: one violation per sample, a
    sample of several terms combined by ``np.maximum`` or ``np.max``,
    which ``IdentityReport.from_violation`` alone reduces to the worst
    and counts.  A failure exhibit's ``run`` returns its own shortfall
    as the violation (``_orbit_expectations``).
    """

    label: str
    tolerance: float
    run: Callable[[_Pass], Any]


@dataclass
class NamedInstance:
    name: str
    config: ProblemConfig
    expected: list[Expectation]


@dataclass(eq=False)
class _Pass:
    """What the expectations of one pass over an instance share: its
    config and, each computed on its first read, the word table of the
    grid points, the word table of the first start point, the fixed
    points of the starts with their certificates, and the affine forms
    of the two composites."""

    config: ProblemConfig

    @cached_property
    def grid(self) -> _Words:
        return _Words(self.config.operator_a, self.config.operator_b, _grid_points())

    @cached_property
    def start(self) -> _Words:
        return _Words(self.config.operator_a, self.config.operator_b, self.config.start_points[0])

    @cached_property
    def fixed_points(self):
        """``analysis._certified_fixed_points`` of the config."""
        return _certified_fixed_points(self.config)

    @cached_property
    def products(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``dr_matrix`` of the composites T_ab T_ba and T_ba T_ab."""
        a, b = self.config.operator_a, self.config.operator_b
        return (dr_matrix(SplitOperator(a, b, FORM_BORWEIN_TAM)),
                dr_matrix(SplitOperator(b, a, FORM_BORWEIN_TAM)))


@np.errstate(over="ignore")
def run_instance(instance: NamedInstance) -> list[IdentityReport]:
    """Evaluate every expectation, in order, in one pass (``_Pass``);
    failures become reports, not errors.  A squared norm that overflows
    is not a warning, as in ``Identity.check``."""
    shared = _Pass(instance.config)
    reports = []
    for exp in instance.expected:
        reports.append(IdentityReport.from_violation(
            f"{instance.name}/{exp.label}", exp.run(shared), exp.tolerance))
    return reports


def _grid_points() -> np.ndarray:
    """The GRID_SIDE^2 grid points as the rows of one array."""
    axis = np.linspace(-GRID_EXTENT, GRID_EXTENT, GRID_SIDE)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


def _columns(first, second) -> np.ndarray:
    """The (N, 2) array with the given columns; a scalar fills its column."""
    return np.column_stack(np.broadcast_arrays(first, second))


def _grid_expectations(*rows: tuple[str, tuple[str, ...],
                                      Callable[[np.ndarray], np.ndarray]]) -> list[Expectation]:
    """One closed-form expectation, tolerance 1e-12, per (label, word,
    closed form): the word of the pass's grid table (``_Words``) against
    its closed form, which maps the (N, 2) array of grid points row by
    row, on the whole grid at once."""
    def expectation(label: str, word: tuple[str, ...], closed) -> Expectation:
        def run(shared: _Pass) -> np.ndarray:
            return _row_norms(shared.grid(*word) - closed(shared.grid()))

        return Expectation(label, 1e-12, run)

    return [expectation(*row) for row in rows]


# --------------------------------------------------------------------------
# ray-vs-axis: A the normal cone of the horizontal axis, B of the upward
# ray.  All six pointwise formulas below are exact.

def _expect_ray_vs_axis() -> list[Expectation]:
    def pos(v: np.ndarray) -> np.ndarray:
        return np.maximum(v, 0.0)

    return _grid_expectations(
        ("t-ab", ("Tab",), lambda p: _columns(0.0, pos(p[:, 1]))),
        ("t-ba", ("Tba",), lambda p: _columns(0.0, np.minimum(p[:, 1], 0.0))),
        ("rb-of-t-ab", ("RB", "Tab"), lambda p: _columns(0.0, pos(p[:, 1]))),
        ("t-ba-of-rb", ("Tba", "RB"), np.zeros_like),
        ("rb-of-t-ba", ("RB", "Tba"), lambda p: _columns(0.0, pos(-p[:, 1]))),
        ("t-ab-of-rb", ("Tab", "RB"), lambda p: _columns(0.0, np.abs(p[:, 1]))),
    )


# --------------------------------------------------------------------------
# linear-asymmetric: the two composite orders have different matrices, so
# the splitting products do not commute for this pair.

# The affine forms [M | c] of T_ab T_ba, of T_ba T_ab and of their
# difference; the offsets of a linear pair are zero.
_PRODUCT_AB_BA = np.array([[5.0, -1.0, 0.0], [-1.0, 2.0, 0.0]]) / 9.0
_PRODUCT_BA_AB = np.array([[5.0, 1.0, 0.0], [1.0, 2.0, 0.0]]) / 9.0
_PRODUCT_COMMUTATOR = np.array([[0.0, -2.0, 0.0], [-2.0, 0.0, 0.0]]) / 9.0


def _expect_linear_asymmetric() -> list[Expectation]:
    """One expectation per (label, form, expected), tolerance 1e-12: the
    affine form (M, c) = ``form(ab_ba, ba_ab)`` of the pass's two
    composites (``_Pass.products``), read as the columns [M | c],
    against the expected columns, one sample per entry of M.  The
    offset is one more column against zero, and each row's offset gap
    is one more term of that row's entries of M."""
    def expectation(label: str, form, expected: np.ndarray) -> Expectation:
        def run(shared: _Pass) -> np.ndarray:
            gap = np.abs(np.column_stack(form(*shared.products)) - expected)
            return np.maximum(gap[:, :-1], gap[:, -1:])

        return Expectation(label, 1e-12, run)

    return [
        expectation("product-ab-ba", lambda ab, ba: ab, _PRODUCT_AB_BA),
        expectation("product-ba-ab", lambda ab, ba: ba, _PRODUCT_BA_AB),
        expectation("product-commutator", lambda ab, ba: (ab[0] - ba[0], ab[1] - ba[1]),
                    _PRODUCT_COMMUTATOR),
    ]


# --------------------------------------------------------------------------
# bt-not-firm: with a ray (not an affine subspace) in the first slot the
# composite operators fail to be firmly nonexpansive; the witness inner
# product equals -2 alpha^2 at the scaled test points.

def _expect_bt_not_firm() -> list[Expectation]:
    def half_pos(v: np.ndarray) -> np.ndarray:
        return np.maximum(0.5 * v, 0.0)

    def witness(shared: _Pass) -> list[float]:
        a, b = shared.config.operator_a, shared.config.operator_b
        # (composite, direction): the test points are alpha * direction and 0
        rows = ((SplitOperator(a, b, FORM_BORWEIN_TAM), (-2.0, 2.0)),
                (SplitOperator(b, a, FORM_BORWEIN_TAM), (-2.0, -2.0)))
        return [abs(check_firmly_nonexpansive(T, alpha * np.array(direction), np.zeros(2))
                    + 2.0 * alpha * alpha)
                for alpha in (1.0, 2.0, 0.5) for T, direction in rows]

    return [
        *_grid_expectations(
            ("t-ab", ("Tab",), lambda p: _columns(half_pos(p[:, 0] + p[:, 1]),
                                                  p[:, 1] - half_pos(p[:, 0] + p[:, 1]))),
            ("t-ba", ("Tba",), lambda p: _columns(half_pos(p[:, 0] - p[:, 1]),
                                                  p[:, 1] + half_pos(p[:, 0] - p[:, 1]))),
        ),
        Expectation("composite-not-firm", 1e-12, witness),
    ]


# --------------------------------------------------------------------------
# parallel-lines: the horizontal axis of R^3 inside the parallel
# horizontal plane.  The primal solutions fill the line, the dual
# solutions the plane's normal line, so the fixed points of either order
# fill a whole plane and the reflector acts on it nontrivially.

def _expect_parallel_lines() -> list[Expectation]:
    def certificates(shared: _Pass):
        """The certificates of the fixed points of the pass; None when a
        start runs out of budget or a pair cannot be extracted."""
        fixed, cert = shared.fixed_points
        return cert if len(fixed) == len(shared.config.start_points) else None

    def fixed_point_form(shared: _Pass):
        starts = shared.config.start_points
        fixed, _ = shared.fixed_points
        if len(fixed) < len(starts):
            return np.full(len(starts), np.inf)
        return [_norm(f - np.array([s[0], 0.0, s[2]])) for s, f in zip(starts, fixed)]

    def solution_form(shared: _Pass):
        starts = shared.config.start_points
        cert = certificates(shared)
        if cert is None:
            return np.full(len(starts), np.inf)
        return [np.maximum(_norm(p.z - np.array([s[0], 0.0, 0.0])),
                           _norm(p.k - np.array([0.0, 0.0, s[2]])))
                for s, p in zip(starts, cert.pairs)]

    def bijection(shared: _Pass):
        """R_A's bijection defect per fixed point and its isometry defect
        per pair of them."""
        n = len(shared.config.start_points)
        cert = certificates(shared)
        if cert is None:
            return np.full(n + n * (n - 1) // 2, np.inf)
        return cert.bijection + cert.isometry

    return [
        Expectation("fixed-point-plane", 1e-12, fixed_point_form),
        Expectation("solution-split", 1e-12, solution_form),
        Expectation("bijection-isometry", 1e-8, bijection),
    ]


# --------------------------------------------------------------------------
# subspace-ball and halfspace-ball: the scenario pair behind the
# conjugation identity and its failure when the subspace is replaced by
# a halfspace.  Parameters are representative, not canonical.

def _orbit_expectations(tolerance: float, *specs: tuple[str, str, int],
                        above: float | None = None) -> list[Expectation]:
    """One expectation per (label, registry identity name, n): the orbit
    identity of ``analysis.IDENTITIES`` at depth n from the instance's
    first start point, one sample per orbit step.

    Each reads the first n + 1 steps of the probe orbits of the pass's
    start table, which holds them to the deepest n of the specs, so
    every one of them reads the same orbits in whatever order they run.
    An unmet hypothesis of the identity raises, except in a failure
    exhibit (``above`` set), which waives it as ``probe_conjugation``
    does and passes only if the violation exceeds ``above``: its
    violation at every step is the shortfall, above - the worst
    observed, against ``tolerance``, which is 0.0 for every exhibit of
    the corpus.
    """
    depth = max(n for _, _, n in specs)

    def expectation(label: str, name: str, n: int) -> Expectation:
        identity = _IDENTITY[name]

        def run(shared: _Pass) -> np.ndarray:
            a, b, words = shared.config.operator_a, shared.config.operator_b, shared.start
            words.orbits(depth)  # the deepest first, so each n reads a prefix
            if above is None:
                identity.require(a, b)
            violation = identity.violation(words, n)
            return violation if above is None else np.full_like(violation, above - violation.max())

        return Expectation(label, tolerance, run)

    return [expectation(*spec) for spec in specs]


def _expect_subspace_ball() -> list[Expectation]:
    def membership(shared: _Pass):
        # Independent geometry: per order, the worse of the distance to the
        # line and the excess over the ball radius, from the instance
        # parameters alone.
        config = shared.config
        direction = np.asarray(FIGURE_LINE_DIRECTION)
        direction = direction / _norm(direction)
        center = np.asarray(FIGURE_BALL_CENTER)
        violations = []
        for order in ("ab", "ba"):
            orbit = iterate(config.split(order), config.start_points[0],
                            config.max_iter, config.stop_tol)
            if not orbit.converged:
                return np.full(2, np.inf)
            z = config.operator_a.resolve(orbit.final)
            violations.append(np.max([_norm(z - (direction @ z) * direction),
                                      _norm(z - center) - FIGURE_BALL_RADIUS, 0.0]))
        return violations

    return [
        *_orbit_expectations(1e-8, ("conjugation", "conjugation", 20),
                             ("shadow-equality", "shadow-equality", 50)),
        Expectation("shadow-limit-membership", 1e-8, membership),
    ]


def _expect_halfspace_ball() -> list[Expectation]:
    return _orbit_expectations(0.0, ("conjugation-failure", "conjugation", 5), above=1e-3)


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
    def feasibility(shared: _Pass):
        # the block spread of the shadow, then the excess of its mean over
        # each constraint
        config = shared.config
        orbit = iterate(config.split("ab"), config.start_points[0],
                        config.max_iter, config.stop_tol)
        if not orbit.converged:
            return np.full(1 + len(_LIFT_NORMALS), np.inf)
        blocks = orbit.final_shadow.reshape(3, 3)
        z = blocks.mean(axis=0)
        return [np.max(np.abs(blocks - z)),
                *(np.asarray(n) @ z - c for n, c in zip(_LIFT_NORMALS, _LIFT_RHS))]

    return [
        Expectation("consensus-feasibility", 1e-8, feasibility),
        *_orbit_expectations(1e-8, ("commutation", "commutation", 25),
                             ("conjugation", "conjugation", 25),
                             ("shadow-equality", "shadow-equality", 25)),
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
    entries = json.loads(text)
    if not isinstance(entries, list):
        raise ValueError("manifest must be a JSON array of {name, config} objects")
    instances = []
    for index, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and "config" in entry):
            raise ValueError(f"manifest entry {index} is not a {{name, config}} object "
                             "with a string name")
        name = entry["name"]
        if name not in _EXPECTATIONS:
            raise ValueError(f"manifest entry {index} names unknown instance {name!r}")
        config = ProblemConfig.from_dict(entry["config"])
        instances.append(NamedInstance(name, config, _EXPECTATIONS[name]()))
    return instances
