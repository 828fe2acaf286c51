"""Span tracing of drorder's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function or method by a wrapper
that records one span (name, start, end, parent) per call.  A function
imported by name into other modules (``dr_step`` into ``analysis``,
``harness`` and ``cli``; ``as_point`` into ``splitting``, ``analysis``
and ``config``; ...) is rebound in every ``drorder`` module that holds
it, so internal calls are traced too.  ``uninstall`` puts the
originals back.  Nothing under ``src/`` is edited.

Spans are kept in flat in-memory arrays and only summarised or written
out after the measured phase.  Self time is a span's duration minus the
part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

RESOLVE_PREFIX = "operators.resolve."
BLOCK_RESOLVE = "splitting.block_resolve"

# resolvent kinds the three workloads call; each gets .calls and .self_s
RESOLVE_KINDS = (
    "linear_monotone",
    "normal_cone_affine_subspace",
    "normal_cone_halfspace",
    "normal_cone_ball",
    "normal_cone_ray",
)

ANALYSIS_FUNCTIONS = (
    "check_commutation",
    "check_conjugation",
    "probe_conjugation",
    "check_shadow_equality",
    "check_nonexpansive_transfer",
    "check_commutator",
    "check_defect_decomposition",
    "check_firmly_nonexpansive",
    "check_dual_symmetry",
    "find_fixed_point",
    "extract_solution",
    "map_fixed_point",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, as (name, unit)."""
    out: list[tuple[str, str]] = []

    def timed(name: str) -> None:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))

    timed("operators.as_point")
    out.append(("operators.as_point.per_step", "calls/step"))
    for kind in RESOLVE_KINDS:
        timed(RESOLVE_PREFIX + kind)
    timed("operators.reflect")
    timed("operators.graph_contains")
    for name in ("dr_step", "apply", "shadow", "iterate"):
        timed(f"splitting.{name}")
    out.append(("splitting.iterate.iterations", "count"))
    timed(BLOCK_RESOLVE)
    timed("splitting.lift")
    timed("splitting.dr_matrix")
    timed("splitting.write_csv")
    out.append(("splitting.write_csv.bytes", "B"))
    out.append(("splitting.resolve_per_step", "calls/step"))
    for name in ANALYSIS_FUNCTIONS:
        timed(f"analysis.{name}")
    out.append(("analysis.find_fixed_point.errors", "count"))
    timed("harness.run_instance")
    timed("harness.load_corpus")
    timed("config.from_path")
    out.append(("config.split.calls", "count"))
    out.append(("cli.main.calls", "count"))
    timed("cli.cmd_verify")
    timed("cli.cmd_run")
    out.append(("trace.overhead_s", "s"))
    out.append(("trace.spans", "count"))
    return out


class Tracer:
    """Records spans of the traced drorder functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and counters; the wrappers stay installed."""
        for buf in (self.name_id, self.parent, self.start, self.end):
            del buf[:]
        self.counters = dict.fromkeys(self.counters, 0)

    def _wrap(self, fn, name: str, after=None, counted_error=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent = self.name_id, self.parent
        start, end = self.start, self.end
        stack, clock = self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            up = stack[-1]
            name_id.append(nid)
            parent.append(up)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if counted_error is not None and isinstance(exc, counted_error[1]):
                    tracer.counters[counted_error[0]] += 1
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count(self, key: str, value_of):
        self.counters[key] = 0

        def after(args, result):
            self.counters[key] += value_of(args, result)

        return after

    # -- installation --------------------------------------------------

    def _replace_everywhere(self, original, wrapper, namespaces) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def install(self) -> None:
        """Wrap the traced functions in every drorder module and class."""
        from drorder import analysis, cli, config, harness, operators, splitting

        modules = [m for key, m in sys.modules.items()
                   if key == "drorder" or key.startswith("drorder.")]

        def function(module, attr: str, name: str, **hooks) -> None:
            original = getattr(module, attr)
            self._replace_everywhere(original, self._wrap(original, name, **hooks),
                                     modules)

        def method(cls, attr: str, name: str, **hooks) -> None:
            original = vars(cls)[attr]
            # every alias in the class body (SplitOperator.__call__ = apply)
            self._replace_everywhere(original, self._wrap(original, name, **hooks),
                                     [cls])

        function(operators, "as_point", "operators.as_point")
        function(operators, "graph_contains", "operators.graph_contains")
        method(operators.Operator, "reflect", "operators.reflect")
        pending = list(operators.Operator.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "resolve" not in vars(cls):
                continue
            name = (BLOCK_RESOLVE if cls is splitting.BlockSeparable
                    else RESOLVE_PREFIX + cls.kind)
            method(cls, "resolve", name)

        function(splitting, "dr_step", "splitting.dr_step")
        method(splitting.SplitOperator, "apply", "splitting.apply")
        method(splitting.SplitOperator, "shadow", "splitting.shadow")
        function(splitting, "iterate", "splitting.iterate",
                 after=self._count("splitting.iterate.iterations",
                                   lambda args, orbit: orbit.iterations))
        function(splitting, "lift", "splitting.lift")
        function(splitting, "dr_matrix", "splitting.dr_matrix")
        method(splitting.Orbit, "write_csv", "splitting.write_csv",
               after=self._count("splitting.write_csv.bytes",
                                 lambda args, _: os.path.getsize(args[1])))

        self.counters["analysis.find_fixed_point.errors"] = 0
        for attr in ANALYSIS_FUNCTIONS:
            hooks = {}
            if attr == "find_fixed_point":
                hooks["counted_error"] = ("analysis.find_fixed_point.errors",
                                          analysis.FixedPointBudgetError)
            function(analysis, attr, f"analysis.{attr}", **hooks)

        function(harness, "run_instance", "harness.run_instance")
        function(harness, "load_corpus", "harness.load_corpus")

        from_path = vars(config.ProblemConfig)["from_path"]
        wrapped = classmethod(self._wrap(from_path.__func__, "config.from_path"))
        self._restore.append((config.ProblemConfig, "from_path", from_path))
        config.ProblemConfig.from_path = wrapped
        method(config.ProblemConfig, "split", "config.split")

        function(cli, "main", "cli.main")
        function(cli, "cmd_verify", "cli.cmd_verify")
        function(cli, "cmd_run", "cli.cmd_run")

    def uninstall(self) -> None:
        """Put every original function and method back."""
        while self._restore:
            ns, attr, original = self._restore.pop()
            setattr(ns, attr, original)

    # -- results -------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
        }

    def summary(self) -> dict[str, float | int]:
        """Calls and self time per traced name, counters and ratios."""
        spans = self.span_arrays()
        n_names = len(self.names)
        name_id, parent = spans["name_id"], spans["parent"]
        duration = spans["end"] - spans["start"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested],
                            minlength=len(duration))
        own = duration - child
        calls = np.bincount(name_id, minlength=n_names)
        self_s = np.bincount(name_id, weights=own, minlength=n_names)

        by_name = {name: (int(calls[i]), float(self_s[i]))
                   for i, name in enumerate(self.names)}

        def calls_of(name: str) -> int:
            return by_name.get(name, (0, 0.0))[0]

        out: dict[str, float | int] = {}
        for metric, _ in per_layer_metrics():
            base, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls_of(base)
            elif field == "self_s":
                out[metric] = by_name.get(base, (0, 0.0))[1]
        out.update(self.counters)

        # a DR step is one dr_step call; ratios with no steps read 0
        steps = calls_of("splitting.dr_step")
        resolvent_ids = [i for i, name in enumerate(self.names)
                         if name.startswith(RESOLVE_PREFIX) or name == BLOCK_RESOLVE]
        is_resolvent = np.isin(name_id, resolvent_ids)
        parent_is_resolvent = np.zeros_like(is_resolvent)
        parent_is_resolvent[nested] = is_resolvent[parent[nested]]
        outer_resolves = int(np.count_nonzero(is_resolvent & ~parent_is_resolvent))
        out["operators.as_point.per_step"] = (
            calls_of("operators.as_point") / steps if steps else 0.0)
        out["splitting.resolve_per_step"] = outer_resolves / steps if steps else 0.0
        out["trace.spans"] = int(len(name_id))
        out["_base.dr_steps"] = steps
        out["_base.outer_resolves"] = outer_resolves
        return out

    def write(self, path) -> None:
        """Write the recorded spans as an .npz archive."""
        np.savez(path, names=np.array(self.names), **self.span_arrays())
