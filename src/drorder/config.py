"""Declarative problem instances and their JSON form.

A config fixes the ambient dimension, the ordered operator pair, start
points, iteration budget, stopping tolerance, the numeric tolerances,
and the mode.  Documents carry a ``"version": 1`` field and unknown
fields are rejected, in both the top-level object and nested operator
objects.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
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
    _to_json,
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


_NUMBERS = (int, float, np.integer, np.floating)


def _finite(value) -> bool:
    if not isinstance(value, _NUMBERS) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _integer(value, name: str) -> int:
    """``value`` as an int; integral floats pass, booleans and strings do not."""
    if _finite(value) and value == math.floor(value):
        return int(value)
    raise ConfigError(f"{name} must be a finite integer, got {value!r}")


def _tolerance(value, name: str) -> float:
    """``value`` as a finite nonnegative float; booleans and strings fail."""
    if _finite(value) and value >= 0.0:
        return float(value)
    raise ConfigError(f"{name} must be finite and nonnegative, got {value!r}")


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
        if not isinstance(data, dict):
            raise ConfigError("tolerances must be a JSON object")
        extra = set(data) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"tolerances: unknown fields {sorted(extra)}")
        return cls(**{k: _tolerance(v, f"tolerances.{k}") for k, v in data.items()})

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
        self.dimension = _integer(self.dimension, "dimension")
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
        self.max_iter = _integer(self.max_iter, "max_iter")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
        self.stop_tol = _tolerance(self.stop_tol, "stop_tol")
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
        keys = set(data)
        missing = required - keys
        if missing:
            raise ConfigError(f"missing config fields {sorted(missing)}")
        extra = keys - required - set(declared)
        if extra:
            raise ConfigError(f"unknown config fields {sorted(extra)}")
        if data["version"] != CONFIG_VERSION:
            raise ConfigError(
                f"unsupported config version {data['version']!r} "
                f"(expected {CONFIG_VERSION})"
            )
        args = {name: data[name] for name in declared if name in data}
        try:
            tolerances = Tolerances.from_dict(args.pop("tolerances", {}))
            for name in ("operator_a", "operator_b"):
                args[name] = operator_from_dict(args[name], tau_psd=tolerances.tau_psd,
                                                tau_ortho=tolerances.tau_ortho)
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
