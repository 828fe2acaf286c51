"""Declarative problem instances and their JSON form.

A config fixes the ambient dimension, the ordered operator pair, start
points, iteration budget, stopping tolerance, the numeric tolerances,
and the mode.  Documents carry a ``"version": 1`` field and unknown
fields are rejected, in both the top-level object and nested operator
objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .operators import (
    MonotonicityError,
    NormalConeAffineSubspace,
    Operator,
    TAU_GRAPH,
    TAU_NUM,
    TAU_ORTHO,
    TAU_PSD,
    as_point,
    operator_from_dict,
)
from .splitting import (
    DEFAULT_MAX_ITER,
    DEFAULT_STOP_TOL,
    FORM_BORWEIN_TAM,
    FORM_DR,
    SplitOperator,
    require_operands,
)

__all__ = ["ConfigError", "Tolerances", "ProblemConfig", "ORDERS"]

CONFIG_VERSION = 1
MODES = ("standard", "generalized")
ORDERS = ("ab", "ba", "bt")


class ConfigError(ValueError):
    """A config document failed to parse or validate."""


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances, overridable per instance."""

    tau_num: float = TAU_NUM
    tau_graph: float = TAU_GRAPH
    tau_psd: float = TAU_PSD
    tau_ortho: float = TAU_ORTHO

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "Tolerances":
        extra = set(data) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"tolerances: unknown fields {sorted(extra)}")
        values = {k: float(v) for k, v in data.items()}
        for name, value in values.items():
            if not value >= 0.0:
                raise ConfigError(f"tolerances.{name} must be nonnegative")
        return cls(**values)

    def with_tau_num(self, tau_num: float) -> "Tolerances":
        return replace(self, tau_num=float(tau_num))


@dataclass(eq=False)
class ProblemConfig:
    """A problem instance: operators, start points, budgets, tolerances."""

    dimension: int
    operator_a: Operator
    operator_b: Operator
    start_points: list[np.ndarray]
    max_iter: int = DEFAULT_MAX_ITER
    stop_tol: float = DEFAULT_STOP_TOL
    tolerances: Tolerances = field(default_factory=Tolerances)
    mode: str = "standard"

    def __post_init__(self):
        self.dimension = int(self.dimension)
        if self.dimension < 1:
            raise ConfigError("dimension must be at least 1")
        for name, op in (("operator_a", self.operator_a), ("operator_b", self.operator_b)):
            if op.dim != self.dimension:
                raise ConfigError(
                    f"{name} has dimension {op.dim}, expected {self.dimension}"
                )
        self.start_points = [as_point(p, self.dimension) for p in self.start_points]
        if not self.start_points:
            raise ConfigError("at least one start point is required")
        self.max_iter = int(self.max_iter)
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
        self.stop_tol = float(self.stop_tol)
        if self.stop_tol < 0.0:
            raise ConfigError("stop_tol must be nonnegative")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.generalized and not isinstance(self.operator_a, NormalConeAffineSubspace):
            raise ConfigError(
                "generalized mode requires operator_a to be an "
                "affine-subspace normal cone"
            )
        try:
            require_operands(self.operator_a, self.operator_b, self.generalized)
        except MonotonicityError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def generalized(self) -> bool:
        return self.mode == "generalized"

    def split(self, order: str = "ab") -> SplitOperator:
        """Build the splitting operator for the requested operand order.

        order "ab"/"ba" selects the plain operator for that ordering;
        "bt" the composite form on the (a, b) ordering.
        """
        if order not in ORDERS:
            raise ConfigError(f"order must be one of {ORDERS}, got {order!r}")
        if order == "bt":
            return SplitOperator(self.operator_a, self.operator_b,
                                 FORM_BORWEIN_TAM, self.generalized)
        first, second = ((self.operator_a, self.operator_b) if order == "ab"
                         else (self.operator_b, self.operator_a))
        return SplitOperator(first, second, FORM_DR, self.generalized)

    def to_dict(self) -> dict:
        return {
            "version": CONFIG_VERSION,
            "dimension": self.dimension,
            "operator_a": self.operator_a.to_dict(),
            "operator_b": self.operator_b.to_dict(),
            "start_points": [[float(v) for v in p] for p in self.start_points],
            "max_iter": self.max_iter,
            "stop_tol": self.stop_tol,
            "tolerances": self.tolerances.to_dict(),
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        required = {"version", "dimension", "operator_a", "operator_b", "start_points"}
        optional = {"max_iter", "stop_tol", "tolerances", "mode"}
        keys = set(data)
        missing = required - keys
        if missing:
            raise ConfigError(f"missing config fields {sorted(missing)}")
        extra = keys - required - optional
        if extra:
            raise ConfigError(f"unknown config fields {sorted(extra)}")
        if data["version"] != CONFIG_VERSION:
            raise ConfigError(
                f"unsupported config version {data['version']!r} "
                f"(expected {CONFIG_VERSION})"
            )
        tolerances = Tolerances.from_dict(data.get("tolerances", {}))
        try:
            operator_a = operator_from_dict(
                data["operator_a"],
                tau_psd=tolerances.tau_psd, tau_ortho=tolerances.tau_ortho,
            )
            operator_b = operator_from_dict(
                data["operator_b"],
                tau_psd=tolerances.tau_psd, tau_ortho=tolerances.tau_ortho,
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        try:
            return cls(
                dimension=data["dimension"],
                operator_a=operator_a,
                operator_b=operator_b,
                start_points=data["start_points"],
                max_iter=data.get("max_iter", DEFAULT_MAX_ITER),
                stop_tol=data.get("stop_tol", DEFAULT_STOP_TOL),
                tolerances=tolerances,
                mode=data.get("mode", "standard"),
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_path(cls, path) -> "ProblemConfig":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        try:
            return cls.from_dict(data)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
