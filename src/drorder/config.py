"""Declarative problem instances and their JSON form.

A config fixes the ambient dimension, the ordered operator pair, start
points, iteration budget, stopping tolerance, the numeric tolerances,
and the mode.  Documents carry a ``"version": 1`` field and unknown
fields are rejected, in both the top-level object and nested operator
objects.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
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
    _expect_fields,
    _to_json,
    _tolerance,
    as_point,
    operator_from_dict,
)
from .splitting import (
    DEFAULT_MAX_ITER,
    DEFAULT_STOP_TOL,
    FORM_BORWEIN_TAM,
    FORM_DR,
    SplitOperator,
    _count,
    require_operands,
)

__all__ = ["ConfigError", "Tolerances", "ProblemConfig", "ORDERS"]

CONFIG_VERSION = 1
MODES = ("standard", "generalized")
ORDERS = ("ab", "ba", "bt")


class ConfigError(ValueError):
    """A config document failed to parse or validate."""


def _start_point(value, dim: int, name: str) -> np.ndarray:
    """``value`` as a finite point in R^dim; the error names the point."""
    try:
        return as_point(value, dim)
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances, overridable per instance: each a finite
    nonnegative float (``operators._tolerance``), else ConfigError."""

    tau_num: float = TAU_NUM
    tau_graph: float = TAU_GRAPH
    tau_psd: float = TAU_PSD
    tau_ortho: float = TAU_ORTHO

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _tolerance(getattr(self, f.name),
                                                        f"tolerances.{f.name}", ConfigError))

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "Tolerances":
        if not isinstance(data, dict):
            raise ConfigError("tolerances must be a JSON object")
        _expect_fields(data, (), [f.name for f in fields(cls)], "tolerances: {} fields {}",
                       ConfigError)
        return cls(**data)


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
        self.dimension = _count(self.dimension, "dimension", 1, ConfigError)
        for name, op in (("operator_a", self.operator_a), ("operator_b", self.operator_b)):
            if op.dim != self.dimension:
                raise ConfigError(
                    f"{name} has dimension {op.dim}, expected {self.dimension}"
                )
        if not isinstance(self.start_points, (list, tuple)):
            raise ConfigError(
                f"start_points must be a list of points, got {self.start_points!r}"
            )
        self.start_points = [_start_point(p, self.dimension, f"start_points[{i}]")
                             for i, p in enumerate(self.start_points)]
        if not self.start_points:
            raise ConfigError("at least one start point is required")
        self.max_iter = _count(self.max_iter, "max_iter", 1, ConfigError)
        self.stop_tol = _tolerance(self.stop_tol, "stop_tol", ConfigError)
        if not isinstance(self.tolerances, Tolerances):
            raise ConfigError(f"tolerances must be a Tolerances, got {self.tolerances!r}")
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
        return {"version": CONFIG_VERSION,
                **{f.name: _to_json(getattr(self, f.name)) for f in fields(self)}}

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        declared = {f.name: f for f in fields(cls)}
        required = {"version"} | {
            name for name, f in declared.items()
            if f.default is MISSING and f.default_factory is MISSING
        }
        _expect_fields(data, required, declared, "{} config fields {}", ConfigError)
        if isinstance(data["version"], bool) or data["version"] != CONFIG_VERSION:
            raise ConfigError(
                f"unsupported config version {data['version']!r} "
                f"(expected {CONFIG_VERSION})"
            )
        args = {name: data[name] for name in declared if name in data}
        try:
            tolerances = Tolerances.from_dict(args.pop("tolerances", {}))
            for name in ("operator_a", "operator_b"):
                try:
                    args[name] = operator_from_dict(args[name], tau_psd=tolerances.tau_psd,
                                                    tau_ortho=tolerances.tau_ortho)
                except (ValueError, TypeError, ArithmeticError, RecursionError) as exc:
                    raise ConfigError(f"{name}: {exc}") from exc
            return cls(**args, tolerances=tolerances)
        except (ValueError, TypeError, ArithmeticError, RecursionError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_path(cls, path) -> "ProblemConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        except (OSError, ValueError, RecursionError) as exc:
            # unreadable, not UTF-8, an over-long integer, or nested too deeply
            raise ConfigError(f"{path}: {exc}") from exc
        try:
            return cls.from_dict(data)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
