"""Seeded random draws of points and catalog operators for the property
suites, and the reference norm they measure lengths by.

Every draw takes an explicit numpy Generator, so a seed fixes the whole
sequence.  With through_origin=True every drawn set contains the origin
(and linear parts vanish there), which keeps zero a solution of the sum
problem so that iterations have something to converge to.
"""

from __future__ import annotations

import math

import numpy as np

from drorder.operators import (
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


TINY = float(np.finfo(float).tiny)


def reference_norm(v: np.ndarray) -> float:
    """||v|| of one point, the reference of ``operators._norm`` and
    ``_row_norms`` in Python floats: sqrt(<v, v>) where
    TINY <= <v, v> < inf or where v is zero or has an inf or nan entry;
    m ||v / m|| with m = max |v_i| elsewhere."""
    sq = float(v @ v)
    m = float(np.max(np.abs(v)))
    if TINY <= sq < math.inf or not 0.0 < m < math.inf:
        return math.sqrt(sq)
    w = v / m
    return m * math.sqrt(w @ w)


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
