import contextlib
import copy
import csv
import functools
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drorder import analysis, cli
from drorder.analysis import (
    IDENTITIES,
    FixedPointBudgetError,
    _Words,
    check_dual_symmetry,
    extract_solution,
    find_fixed_point,
)
from drorder.cli import _orbit_path, main
from drorder.config import ConfigError, ProblemConfig, Tolerances
from drorder.harness import load_corpus
from drorder.operators import MAX_NESTING, operator_from_dict
from drorder.splitting import dr_step


_PLANE = {"kind": "normal_cone_affine_subspace", "offset": [0.0, 0.0],
          "basis": [[1.0, 0.0], [0.0, 1.0]]}


def _config_dict(name):
    for inst in load_corpus():
        if inst.name == name:
            return inst.config.to_dict()
    raise KeyError(name)


def _write_config(tmp_path, name, fname="config.json", mutate=None):
    data = _config_dict(name)
    if mutate:
        mutate(data)
    path = tmp_path / fname
    path.write_text(json.dumps(data))
    return path


def _zero_config(tmp_path):
    data = {
        "version": 1,
        "dimension": 2,
        "operator_a": {"kind": "linear_monotone", "matrix": [[0.0, 0.0], [0.0, 0.0]]},
        "operator_b": {"kind": "linear_monotone", "matrix": [[0.0, 0.0], [0.0, 0.0]]},
        "start_points": [[1.5, -2.5]],
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# run


def test_run_ray_vs_axis(tmp_path, capsys):
    cfg = _write_config(tmp_path, "ray-vs-axis")
    out = tmp_path / "orbit.csv"
    code = main(["run", "--config", str(cfg), "--order", "ab", "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    first = summary["runs"][0]
    assert first["converged"] and not first["diverged"]
    assert first["z"] == [0.0, 0.0]
    assert first["cert_a"] and first["cert_b"]
    with open(tmp_path / "orbit_0.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][:3] == ["0", "5", "-3"]
    assert rows[2][:3] == ["1", "0", "0"]


def test_run_zero_operators_constant_orbit(tmp_path, capsys):
    cfg = _zero_config(tmp_path)
    out = tmp_path / "zero.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["runs"][0]["final_residual"] == 0.0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        assert row[1:3] == ["1.5", "-2.5"]


def test_run_composite_order_converges_to_origin(tmp_path, capsys):
    # the zero of the sum is the origin for the linear counterexample pair
    cfg = _write_config(tmp_path, "linear-asymmetric")
    out = tmp_path / "bt.csv"
    code = main(["run", "--config", str(cfg), "--order", "bt", "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    for run in summary["runs"]:
        assert run["converged"]
        assert np.linalg.norm(run["z"]) <= 1e-8


def _divergent_config(tmp_path):
    data = {
        "version": 1,
        "dimension": 2,
        "operator_a": {"kind": "linear_monotone", "matrix": [[0.0, 0.0], [0.0, 0.0]]},
        "operator_b": {"kind": "affine_relation",
                       "matrix": [[0.0, 0.0], [0.0, 0.0]],
                       "offset": [1e308, 0.0]},
        "start_points": [[0.0, 0.0]],
    }
    cfg = tmp_path / "boom.json"
    cfg.write_text(json.dumps(data))
    return cfg


def test_run_divergent_instance_exits_one(tmp_path, capsys):
    cfg = _divergent_config(tmp_path)
    out = tmp_path / "boom.csv"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["runs"][0]["diverged"]
    assert out.exists()  # partial orbit still written


def _overflow_shadow_config(tmp_path):
    # one finite step to (1.7e308, 1.7e308), whose projection onto the
    # diagonal operator_a overflows
    s = float(np.sqrt(0.5))
    data = {
        "version": 1,
        "dimension": 2,
        "operator_a": {"kind": "normal_cone_affine_subspace", "offset": [0.0, 0.0],
                       "basis": [[s], [s]]},
        "operator_b": {"kind": "affine_relation",
                       "matrix": [[0.0, 0.0], [0.0, 0.0]],
                       "offset": [-1.7e308, -1.7e308]},
        "start_points": [[0.0, 0.0]],
        "max_iter": 1,
    }
    cfg = tmp_path / "overflow-shadow.json"
    cfg.write_text(json.dumps(data))
    return cfg


def test_run_with_an_overflowing_last_shadow_exits_one(tmp_path, capsys):
    cfg = _overflow_shadow_config(tmp_path)
    out = tmp_path / "shadow.csv"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    run = json.loads(capsys.readouterr().out)["runs"][0]
    assert run["diverged"] and run["iterations"] == 1
    assert out.exists()


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_run_writes_non_finite_numbers_as_strings(tmp_path, capsys):
    # finite steps of 1e200 whose squared length overflows: every residual
    # is 1e200, and the run does not diverge
    data = json.loads(_zero_config(tmp_path).read_text())
    data["operator_b"] = {"kind": "affine_relation", "matrix": [[0.0, 0.0], [0.0, 0.0]],
                          "offset": [-1e200, 0.0]}
    data["max_iter"] = 3
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps(data))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "far.csv")]) == 0
    run = _strict_json(capsys.readouterr().out)["runs"][0]
    assert run["final_residual"] == 1e200 and not run["diverged"]


def test_run_diverging_at_the_first_step_reports_a_nan_final_residual(tmp_path, capsys):
    # 2 J_A x0 - x0 overflows in the first step, so no residual exists
    data = {
        "version": 1,
        "dimension": 2,
        "operator_a": {"kind": "linear_monotone", "matrix": [[0.0, 0.0], [0.0, 0.0]]},
        "operator_b": {"kind": "normal_cone_ball", "center": [0.0, 0.0], "radius": 1.0},
        "start_points": [[1e308, 0.0]],
    }
    cfg = tmp_path / "first-step.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "first-step.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    run = _strict_json(capsys.readouterr().out)["runs"][0]
    assert run["diverged"] and run["iterations"] == 1
    assert run["final_residual"] == "nan"
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and rows[1][0] == "0" and rows[1][-1] == ""


@pytest.mark.parametrize("order", ["ab", "bt"])
def test_run_with_a_reflection_that_overflows_into_a_clipping_box_exits_one(tmp_path, capsys,
                                                                           order):
    # 2 J_A x0 - x0 = (inf, inf), which the box of operator_b would clip
    # to the finite (1, 1)
    data = {
        "version": 1,
        "dimension": 2,
        "operator_a": {"kind": "normal_cone_box", "lower": [1e308, 1e308],
                       "upper": [1e308, 1e308]},
        "operator_b": {"kind": "normal_cone_box", "lower": [-1.0, -1.0],
                       "upper": [1.0, 1.0]},
        "start_points": [[-5e307, 0.0]],
    }
    cfg = tmp_path / "clipped-overflow.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "orbit.csv"
    assert main(["run", "--config", str(cfg), "--order", order, "--out", str(out)]) == 1
    run = _strict_json(capsys.readouterr().out)["runs"][0]
    assert run["diverged"] and run["iterations"] == 1 and run["final_residual"] == "nan"


def _overflowing_reflection_config(tmp_path):
    # J_A y = y + 4e307 and J_B y = y + 6e307: one finite step from the
    # origin to f = (1e308, 0), whose reflection 2 J_A f - f = z - k
    # overflows, so J_B(z - k) of the second membership cannot be taken
    zero = [[0.0, 0.0], [0.0, 0.0]]
    data = {
        "version": 1,
        "dimension": 2,
        "operator_a": {"kind": "affine_relation", "matrix": zero, "offset": [-4e307, 0.0]},
        "operator_b": {"kind": "affine_relation", "matrix": zero, "offset": [-6e307, 0.0]},
        "start_points": [[0.0, 0.0]],
        "max_iter": 1,
    }
    cfg = tmp_path / "overflowing-reflection.json"
    cfg.write_text(json.dumps(data))
    return cfg


@pytest.mark.parametrize("case, order", [("non-finite", "ab"), ("not-monotone", "ab"),
                                         ("not-monotone", "ba")])
def test_run_certificates_are_null_where_a_graph_test_does_not_apply(tmp_path, capsys,
                                                                     case, order):
    # a run that ends undiverged still gets null cert_a and cert_b when
    # the second membership overflows, or an operand is not monotone
    cfg = (_overflowing_reflection_config(tmp_path) if case == "non-finite"
           else _generalized_config(tmp_path))
    out = tmp_path / "orbit.csv"
    assert main(["run", "--config", str(cfg), "--order", order, "--out", str(out)]) == 0
    runs = _strict_json(capsys.readouterr().out)["runs"]
    assert all(not run["diverged"] and run["cert_a"] is None and run["cert_b"] is None
               for run in runs)
    if case == "non-finite":
        (run,) = runs
        assert run["iterations"] == 1 and run["z"][0] - run["k"][0] == float("inf")


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), np.float64("inf")])
def test_output_json_writes_a_non_finite_number_as_its_string(value):
    text = json.dumps(cli._to_json([{"a": [1.5, value], "b": value, "c": None}]))
    assert _strict_json(text) == [{"a": [1.5, str(value)], "b": str(value), "c": None}]


def test_output_json_of_finite_output_is_json_dumps(tmp_path):
    payload = [{"identity_name": "x", "max_violation": 1e-300, "sample_count": 3,
                "tolerance": 1e-08, "passed": True, "z": [-0.0, 1.7976931348623157e308],
                "cert": None, "nested": {"k": [2.5, [np.float64(0.1)]]}}]
    assert (json.dumps(cli._to_json(payload), indent=2)
            == json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# verify


def test_verify_subspace_ball_config(tmp_path, capsys):
    cfg = _write_config(tmp_path, "subspace-ball")
    report_path = tmp_path / "report.json"
    code = main(["verify", "--config", str(cfg), "--out", str(report_path)])
    assert code == 0
    reports = json.loads(report_path.read_text())
    names = {r["identity_name"] for r in reports}
    assert {"dr-form-equivalence", "defect-decomposition", "commutation",
            "conjugation", "shadow-equality", "nonexpansive-transfer",
            "bt-factorization", "solution-certificates",
            "dual-symmetry"} <= names
    for r in reports:
        assert set(r) == {"identity_name", "max_violation", "sample_count",
                          "tolerance", "passed"}
        assert r["passed"]


def test_verify_reports_finite_defects_far_from_the_origin(tmp_path):
    # the subspace-ball pair meets every identity; from (3e200, -7e200)
    # its orbits are finite, and so is each norm of a defect, at the
    # rounding scale of ||x0||, which the absolute tolerance still fails
    x0 = [3e200, -7e200]
    cfg = _write_config(tmp_path, "subspace-ball",
                        mutate=lambda data: data.update(start_points=[x0]))
    report_path = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(report_path)]) == 3
    violation = {r["identity_name"]: r["max_violation"]
                 for r in json.loads(report_path.read_text())}
    for name in ("dr-form-equivalence", "defect-decomposition", "commutation", "conjugation",
                 "shadow-equality", "nonexpansive-transfer", "bt-factorization"):
        assert 0.0 < violation[name] <= 1e-15 * math.hypot(*x0), name
    # an inner product, not a norm: its square-scale product overflows
    assert violation["dr-firmly-nonexpansive"] == "inf"


def _generalized_config(tmp_path):
    data = _config_dict("subspace-ball")
    data["mode"] = "generalized"
    data["operator_b"] = {"kind": "sphere_selection", "center": [2.0, 1.0],
                          "radius": 1.0, "tie_direction": [0.0, 1.0]}
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(data))
    return cfg


def test_verify_generalized_mode_runs_orbit_identities_only(tmp_path):
    cfg = _generalized_config(tmp_path)
    report_path = tmp_path / "gen-report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(report_path)]) == 0
    reports = json.loads(report_path.read_text())
    names = {r["identity_name"] for r in reports}
    assert "conjugation" in names and "commutation" in names
    assert "dr-firmly-nonexpansive" not in names
    assert "solution-certificates" not in names


# Ordered (identity_name, sample_count) of `verify --config` per corpus
# config; the counts follow from the start points plus ten probe points
# and the default depth 20 (shadow equality also compares m = 0, so it
# counts 21 per point, as check_shadow_equality does).
_FIRM = [("dr-form-equivalence", 1), ("defect-decomposition", 1),
         ("dr-firmly-nonexpansive", 1)]
_ORBITS = [("commutation", 20), ("conjugation", 20), ("shadow-equality", 21),
           ("nonexpansive-transfer", 1), ("bt-factorization", 1)]
_REPORT_SETS = {
    "ray-vs-axis": (13, _FIRM + _ORBITS, 3, True),
    "linear-asymmetric": (12, _FIRM + _ORBITS + [("commutator", 1)], 2, True),
    "bt-not-firm": (12, _FIRM, 2, True),
    "parallel-lines": (14, _FIRM + _ORBITS + [
        ("commutator", 1), ("bt-order-invariance", 1), ("bt-half-sum", 1),
        ("bt-firmly-nonexpansive", 1)], 4, True),
    "subspace-ball": (11, _FIRM + _ORBITS, 1, False),
    "halfspace-ball": (11, _FIRM, 1, False),
    "three-halfspace-lift": (11, _FIRM + _ORBITS, 1, False),
}


@pytest.mark.parametrize("name", list(_REPORT_SETS))
def test_verify_report_set_per_corpus_config(tmp_path, name):
    points, rows, fixed, isometry = _REPORT_SETS[name]
    expected = [(identity, points * per_point) for identity, per_point in rows]
    expected += [("solution-certificates", fixed), ("fixed-point-bijection", fixed)]
    if isometry:
        expected.append(("fixed-point-isometry", fixed * (fixed - 1) // 2))
    expected.append(("dual-symmetry", fixed))
    cfg = _write_config(tmp_path, name)
    report_path = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(report_path)]) == 0
    reports = json.loads(report_path.read_text())
    assert [(r["identity_name"], r["sample_count"]) for r in reports] == expected
    assert len(reports) == {"ray-vs-axis": 12, "linear-asymmetric": 13,
                            "bt-not-firm": 7, "parallel-lines": 16,
                            "subspace-ball": 11, "halfspace-ball": 6,
                            "three-halfspace-lift": 11}[name]


@pytest.mark.parametrize("n", ["20", "0"])
def test_no_report_prints_negative_zero(tmp_path, capsys, n):
    # every violation is max(0, ...) or a norm: an exact zero is +0.0
    configs = [_write_config(tmp_path, name, f"{name}.json") for name in _REPORT_SETS]
    for cfg in configs + [_generalized_config(tmp_path)]:
        assert main(["verify", "--config", str(cfg), "--n", n]) == 0
        out = capsys.readouterr().out
        violations = [r["max_violation"] for r in json.loads(out)]
        assert all(np.copysign(1.0, v) > 0.0 for v in violations), cfg.name
        assert "-0.0" not in out


@pytest.mark.parametrize("name", list(_REPORT_SETS))
def test_verify_dual_symmetry_matches_check_dual_symmetry(tmp_path, name):
    # the report comes from the certificate pass; check_dual_symmetry
    # computes the same defect, ||R_A(z + k) - (z - k)||, through the
    # same analysis._pair_defects
    cfg = _write_config(tmp_path, name)
    report_path = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(report_path)]) == 0
    got = [r for r in json.loads(report_path.read_text())
           if r["identity_name"] == "dual-symmetry"]
    config = ProblemConfig.from_path(cfg)
    a, b, tau = config.operator_a, config.operator_b, config.tolerances
    pairs = []
    for start in config.start_points:
        try:
            f = find_fixed_point(config.split("ab"), start, config.stop_tol,
                                 config.max_iter)
        except FixedPointBudgetError:
            continue
        pairs.append(extract_solution(a, b, f, fix_tol=3.0 * max(config.stop_tol, 1e-15),
                                      graph_tol=tau.tau_graph))
    expected = check_dual_symmetry(a, b, pairs, graph_tol=tau.tau_graph,
                                   tol=3.0 * tau.tau_graph)
    assert got == [expected.to_dict()]


_SOLUTION_REPORTS = ("solution-certificates", "fixed-point-bijection",
                     "fixed-point-isometry", "dual-symmetry")


def _generalized_monotone_config(tmp_path):
    data = _config_dict("subspace-ball")
    data["mode"] = "generalized"
    cfg = tmp_path / "gen-monotone.json"
    cfg.write_text(json.dumps(data))
    return cfg


@pytest.mark.parametrize("name", list(_REPORT_SETS)
                         + ["generalized-sphere", "generalized-monotone"])
def test_verify_reports_every_registry_identity_that_applies(tmp_path, name):
    if name == "generalized-sphere":
        cfg = _generalized_config(tmp_path)
    elif name == "generalized-monotone":
        cfg = _generalized_monotone_config(tmp_path)
    else:
        cfg = _write_config(tmp_path, name)
    report_path = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(report_path)]) == 0
    names = [r["identity_name"] for r in json.loads(report_path.read_text())]
    identities = [n for n in names if n not in _SOLUTION_REPORTS]
    assert names[:len(identities)] == identities
    config = ProblemConfig.from_path(cfg)
    a, b = config.operator_a, config.operator_b
    assert identities == [identity.name for identity in IDENTITIES
                          if identity.unmet(a, b) is None]


def test_verify_gates_the_certificates_on_the_requirement_table(tmp_path, monkeypatch):
    # the solution certificates need monotone operands, the entry of the
    # table that the registry reads too: with that entry refusing,
    # parallel-lines prints the registry reports that still apply and no
    # certificate
    error = analysis._REQUIREMENTS["monotone operands"][1]
    monkeypatch.setitem(analysis._REQUIREMENTS, "monotone operands",
                        (lambda A, B: False, error))
    cfg = _write_config(tmp_path, "parallel-lines")
    report_path = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(report_path)]) == 0
    names = [r["identity_name"] for r in json.loads(report_path.read_text())]
    config = ProblemConfig.from_path(cfg)
    a, b = config.operator_a, config.operator_b
    assert a.monotone and b.monotone
    assert names == [identity.name for identity in IDENTITIES
                     if identity.unmet(a, b) is None]
    assert "dr-firmly-nonexpansive" not in names and len(names) == 10


# Manifest configs whose operator_a is an affine-subspace normal cone,
# the configs that generalized mode admits.
_SUBSPACE_FIRST_CONFIGS = ["ray-vs-axis", "linear-asymmetric", "parallel-lines",
                           "subspace-ball", "three-halfspace-lift"]


def _counted_orbit_loops(monkeypatch):
    """Record (shape of x, n) each time a word table x computes its probe
    orbits: a ``_Words.orbits`` read that is its first, or deeper than
    the orbits it holds."""
    calls = []
    orbits = _Words.orbits

    def counted(self, n):
        held = self._orbits
        result = orbits(self, n)
        if self._orbits is not held:
            calls.append((np.shape(self()), n))
        return result

    monkeypatch.setattr(_Words, "orbits", counted)
    return calls


@pytest.mark.parametrize("name", list(_REPORT_SETS) + ["generalized-sphere"])
def test_verify_computes_the_probe_orbits_once(tmp_path, monkeypatch, name):
    # commutation, conjugation and shadow equality read the same orbits
    # of the probe points; no other report computes them
    calls = _counted_orbit_loops(monkeypatch)
    cfg = (_generalized_config(tmp_path) if name == "generalized-sphere"
           else _write_config(tmp_path, name))
    report_path = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(report_path)]) == 0
    names = {r["identity_name"] for r in json.loads(report_path.read_text())}
    config = ProblemConfig.from_path(cfg)
    points = len(config.start_points) + 10
    if name in _SUBSPACE_FIRST_CONFIGS or name == "generalized-sphere":
        assert {"commutation", "conjugation", "shadow-equality"} <= names
        assert calls == [((points, config.dimension), 20)]
    else:
        assert not names & {"commutation", "conjugation", "shadow-equality"}
        assert calls == []


def test_verify_corpus_computes_each_instance_probe_orbits_once(tmp_path, monkeypatch):
    # the orbit expectations of an instance read one set of orbits of its
    # first start point, at the deepest depth they ask for: subspace-ball,
    # halfspace-ball, three-halfspace-lift
    calls = _counted_orbit_loops(monkeypatch)
    assert main(["verify", "--corpus", "--out", str(tmp_path / "report.json")]) == 0
    assert calls == [((2,), 50), ((2,), 5), ((9,), 25)]


def test_main_builds_one_parser_and_runs_the_command_bound_at_call_time(monkeypatch):
    # a rebound cmd_verify module attribute is the one main runs, also
    # after the parser is built
    parser = cli._parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.config) or 0)
    monkeypatch.setattr(cli, "build_parser", None)  # a second build would fail
    assert main(["verify", "--config", "a.json"]) == 0
    assert main(["verify", "--config", "b.json"]) == 0
    assert seen == ["a.json", "b.json"]
    assert cli._parser() is parser


@pytest.mark.parametrize("name", _SUBSPACE_FIRST_CONFIGS)
def test_generalized_mode_changes_no_output_for_monotone_operands(tmp_path, capsys, name):
    # the mode admits a non-monotone selection; with monotone operands
    # every report, certificate and orbit is that of standard mode
    outputs = {}
    for mode in ("standard", "generalized"):
        cfg = _write_config(tmp_path, name, f"{mode}.json",
                            mutate=lambda d: d.__setitem__("mode", mode))
        code = main(["verify", "--config", str(cfg)])
        outputs[mode] = [(code, capsys.readouterr().out)]
        for order in ("ab", "ba", "bt"):
            out = tmp_path / mode / order / "orbit.csv"
            out.parent.mkdir(parents=True)
            code = main(["run", "--config", str(cfg), "--order", order, "--out", str(out)])
            summary = json.loads(capsys.readouterr().out)
            del summary["config"]
            csvs = [Path(run.pop("csv")).read_bytes() for run in summary["runs"]]
            outputs[mode].append((code, summary, csvs))
    assert outputs["generalized"] == outputs["standard"]
    assert all(run["cert_a"] is not None for _, summary, _ in outputs["standard"][1:]
               for run in summary["runs"])


@pytest.mark.parametrize("seed", ["0", "1", "123"])
def test_verify_generalized_mode_passes_for_every_seed(tmp_path, seed):
    # nonexpansive-transfer needs a monotone B and is skipped here
    cfg = _generalized_config(tmp_path)
    report_path = tmp_path / "gen-report.json"
    assert main(["verify", "--config", str(cfg), "--seed", seed,
                 "--out", str(report_path)]) == 0
    names = {r["identity_name"] for r in json.loads(report_path.read_text())}
    assert "nonexpansive-transfer" not in names


def test_verify_corpus(tmp_path, capsys):
    report_path = tmp_path / "corpus.json"
    code = main(["verify", "--corpus", "--out", str(report_path)])
    assert code == 0
    reports = json.loads(report_path.read_text())
    assert any(r["identity_name"].startswith("halfspace-ball/") for r in reports)
    assert all(r["passed"] for r in reports)
    assert len(reports) == 23
    # each report counts the violations it is handed: a grid point, a
    # matrix entry, a witness, a start, a fixed point or pair of them, an
    # orbit step
    assert [(r["identity_name"], r["sample_count"]) for r in reports] == [
        *((f"ray-vs-axis/{label}", 441) for label in (
            "t-ab", "t-ba", "rb-of-t-ab", "t-ba-of-rb", "rb-of-t-ba", "t-ab-of-rb")),
        ("linear-asymmetric/product-ab-ba", 4),
        ("linear-asymmetric/product-ba-ab", 4),
        ("linear-asymmetric/product-commutator", 4),
        ("bt-not-firm/t-ab", 441),
        ("bt-not-firm/t-ba", 441),
        ("bt-not-firm/composite-not-firm", 6),
        ("parallel-lines/fixed-point-plane", 4),
        ("parallel-lines/solution-split", 4),
        ("parallel-lines/bijection-isometry", 10),
        ("subspace-ball/conjugation", 20),
        ("subspace-ball/shadow-equality", 51),
        ("subspace-ball/shadow-limit-membership", 2),
        ("halfspace-ball/conjugation-failure", 5),
        ("three-halfspace-lift/consensus-feasibility", 4),
        ("three-halfspace-lift/commutation", 25),
        ("three-halfspace-lift/conjugation", 25),
        ("three-halfspace-lift/shadow-equality", 26),
    ]


def test_verify_counts_each_fixed_point_of_a_failed_certificate(tmp_path):
    # with tau_graph 0 no solution pair of linear-asymmetric's two fixed
    # points (one per start) passes its graph certificate: one inf per
    # fixed point, not one inf in all
    cfg = _write_config(tmp_path, "linear-asymmetric",
                        mutate=lambda d: d.__setitem__("tolerances", {"tau_graph": 0.0}))
    out = tmp_path / "reports.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
    reports = json.loads(out.read_text())
    failed = [r for r in reports if not r["passed"]]
    assert failed == [r for r in reports if r["identity_name"] == "solution-certificates"]
    assert [(r["max_violation"], r["sample_count"]) for r in failed] == [("inf", 2)]


def test_verify_rejects_nonmonotone_slot(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "linear-asymmetric",
        mutate=lambda d: d.__setitem__(
            "operator_a",
            {"kind": "linear_monotone", "matrix": [[-1.0, 0.0], [0.0, 1.0]]}),
    )
    code = main(["verify", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "eigenvalue" in err


def test_verify_needs_config_or_corpus(capsys):
    assert main(["verify"]) == 2


def test_verify_config_and_corpus_together_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--corpus", "--config", str(tmp_path / "missing.json")])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_verify_seed_changes_probe_points_not_outcome(tmp_path):
    cfg = _write_config(tmp_path, "subspace-ball")
    for seed in ("0", "1", "123"):
        assert main(["verify", "--config", str(cfg), "--seed", seed,
                     "--out", str(tmp_path / f"r{seed}.json")]) == 0


def test_verify_exits_three_when_reports_fail(tmp_path, monkeypatch, capsys):
    # an absurdly tight tolerance turns roundoff into failed reports
    cfg = _write_config(tmp_path, "subspace-ball")
    monkeypatch.setenv("DR_ORDER_TOL", "1e-30")
    code = main(["verify", "--config", str(cfg), "--out",
                 str(tmp_path / "r.json")])
    assert code == 3
    assert "FAILED" in capsys.readouterr().err


def test_env_tolerance_override(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, "subspace-ball")
    monkeypatch.setenv("DR_ORDER_TOL", "0.125")
    report_path = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(report_path)]) == 0
    reports = json.loads(report_path.read_text())
    by_name = {r["identity_name"]: r for r in reports}
    assert by_name["conjugation"]["tolerance"] == 0.125

    monkeypatch.setenv("DR_ORDER_TOL", "not-a-number")
    assert main(["verify", "--config", str(cfg)]) == 2


# ---------------------------------------------------------------------------
# compare


def test_compare_subspace_ball_defect_stays_numerical(tmp_path):
    cfg = _write_config(tmp_path, "subspace-ball")
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config", str(cfg), "--n", "8",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "left_1", "left_2", "right_1", "right_2",
                       "conj_residual"]
    assert len(rows) == 10
    for row in rows[1:]:
        assert float(row[5]) <= 1e-9


def test_compare_halfspace_ball_defect_grows(tmp_path):
    cfg = _write_config(tmp_path, "halfspace-ball")
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config", str(cfg), "--n", "5",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    defects = [float(row[5]) for row in rows[1:]]
    assert max(defects[1:]) > 0.1
    # frozen from the first oracle run of this fixed instance
    assert defects[1] == pytest.approx(1.4224105240453249, abs=1e-12)


def test_compare_start_at_solution_constant_columns(tmp_path):
    cfg = _write_config(
        tmp_path, "subspace-ball",
        mutate=lambda d: d.__setitem__("start_points", [[2.0, 1.0]]),
    )
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config", str(cfg), "--n", "5",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        assert [float(v) for v in row[1:5]] == pytest.approx([2.0, 1.0, 2.0, 1.0])


def test_compare_is_byte_deterministic(tmp_path):
    cfg = _write_config(tmp_path, "subspace-ball")
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert main(["compare", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["compare", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _reference_compare_rows(config, n):
    """The compare rows (left, right, conj_residual) by their definition:
    one dr_step call per orbit step, and one R_A call per row."""
    a, b = config.operator_a, config.operator_b
    left, right = [a.reflect(config.start_points[0])], [config.start_points[0]]
    for _ in range(n):
        left.append(dr_step(a, b, left[-1]))
        right.append(dr_step(b, a, right[-1]))
    return [(l, r, np.linalg.norm(r - a.reflect(l))) for l, r in zip(left, right)]


@pytest.mark.parametrize("name", list(_REPORT_SETS) + ["generalized-sphere"])
def test_compare_matches_the_reference_loop(tmp_path, monkeypatch, name):
    # compare reads the probe-orbit loop, which rounds a row of its
    # stacked starts as a batch row: the last bits of a cell may differ
    # from the lone-point steps of the reference
    calls = _counted_orbit_loops(monkeypatch)
    cfg = (_generalized_config(tmp_path) if name == "generalized-sphere"
           else _write_config(tmp_path, name))
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config", str(cfg), "--n", "12", "--out", str(out)]) == 0
    config = ProblemConfig.from_path(cfg)
    d = config.dimension
    assert calls == [((d,), 12)]
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    reference = _reference_compare_rows(config, 12)
    assert [row[0] for row in rows] == [str(m) for m in range(13)]
    for row, (left, right, conj) in zip(rows, reference, strict=True):
        cells = np.array([float(v) for v in row[1:2 * d + 1]])
        want = np.concatenate([left, right])
        assert np.all(np.abs(cells - want) <= 4e-16 * np.maximum(1.0, np.abs(want))), row[0]
        assert abs(float(row[-1]) - conj) <= 2e-15, row[0]


def test_compare_at_depth_zero_writes_the_start_row(tmp_path):
    cfg = _write_config(tmp_path, "subspace-ball")
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config", str(cfg), "--n", "0", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "left_1", "left_2", "right_1", "right_2", "conj_residual"]
    config = ProblemConfig.from_path(cfg)
    a, x0 = config.operator_a, config.start_points[0]
    left = a.reflect(x0)
    cells = [format(v, ".17g") for v in (*left, *x0, np.linalg.norm(x0 - a.reflect(left)))]
    assert rows[1:] == [["0", *cells]]


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize("command", ["verify", "compare"])
def test_divergent_instance_exits_one_with_one_line(tmp_path, capsys, command):
    cfg = _divergent_config(tmp_path)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "diverged" in err


# an output path in a missing directory, and one that is a directory
# (subspace-ball has one start point, so `run` writes to the path itself)
@pytest.mark.parametrize("command, out", [
    *(pytest.param(command, "missing/out", id=command)
      for command in ("run", "verify", "compare")),
    *(pytest.param(command, "directory", id=f"{command}-directory")
      for command in ("run", "verify", "compare")),
])
def test_missing_output_directory_exits_two(tmp_path, capsys, command, out):
    cfg = _write_config(tmp_path, "subspace-ball")
    (tmp_path / "directory").mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / out)]) == 2
    assert "cannot write" in capsys.readouterr().err
    # no temp file is left behind
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_env_tolerance_must_be_finite_and_nonnegative(tmp_path, monkeypatch, capsys, tol):
    # the one tolerance rule of operators and configs
    message = f"config error: DR_ORDER_TOL must be finite and nonnegative, got {float(tol)!r}\n"
    cfg = _write_config(tmp_path, "subspace-ball")
    monkeypatch.setenv("DR_ORDER_TOL", tol)
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == message
    # the corpus expectations keep their own tolerances, but a malformed
    # override is rejected there too
    assert main(["verify", "--corpus"]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("command, option", [
    pytest.param("verify", "--n", id="verify"),
    pytest.param("compare", "--n", id="compare"),
    pytest.param("verify", "--seed", id="verify-seed"),
])
def test_negative_depth_is_a_usage_error(tmp_path, capsys, command, option):
    cfg = _write_config(tmp_path, "subspace-ball")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), option, "-1",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()
    # the one count rule of step budgets and orbit depths
    assert capsys.readouterr().err.endswith(
        f"error: argument {option}: value must be nonnegative, got -1\n")


# ---------------------------------------------------------------------------
# config handling


def test_config_round_trip_bit_identical_evaluations(tmp_path):
    for name in ("subspace-ball", "three-halfspace-lift", "bt-not-firm"):
        original = ProblemConfig.from_dict(_config_dict(name))
        reloaded = ProblemConfig.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        rng = np.random.default_rng(60)
        for _ in range(5):
            x = rng.normal(0.0, 2.0, original.dimension)
            assert np.array_equal(original.operator_a.resolve(x),
                                  reloaded.operator_a.resolve(x))
            assert np.array_equal(original.operator_b.resolve(x),
                                  reloaded.operator_b.resolve(x))


def test_config_rejects_unknown_fields(tmp_path):
    cfg = _write_config(tmp_path, "ray-vs-axis",
                        mutate=lambda d: d.__setitem__("weird", 1))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2


def test_config_rejects_bad_version(tmp_path, capsys):
    # True == 1 in Python, but a boolean is no version number
    for version in (2, True):
        cfg = _write_config(tmp_path, "ray-vs-axis",
                            mutate=lambda d: d.__setitem__("version", version))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert f"unsupported config version {version!r}" in capsys.readouterr().err


def test_config_parse_error_is_line_anchored(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "version": 1,\n  oops\n}\n')
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err


def test_config_validation_rules():
    ops = {
        "a": operator_from_dict({"kind": "normal_cone_ray", "direction": [0.0, 1.0]}),
        "sphere": operator_from_dict({"kind": "sphere_selection",
                                      "center": [0.0, 0.0], "radius": 1.0,
                                      "tie_direction": [1.0, 0.0]}),
    }
    with pytest.raises(ConfigError):
        ProblemConfig(dimension=2, operator_a=ops["a"], operator_b=ops["sphere"],
                      start_points=[[0.0, 0.0]])  # selection needs generalized mode
    with pytest.raises(ConfigError):
        ProblemConfig(dimension=2, operator_a=ops["a"], operator_b=ops["sphere"],
                      start_points=[[0.0, 0.0]], mode="generalized")  # a not subspace
    with pytest.raises(ConfigError):
        ProblemConfig(dimension=3, operator_a=ops["a"], operator_b=ops["a"],
                      start_points=[[0.0, 0.0, 0.0]])  # dimension mismatch
    with pytest.raises(ConfigError):
        ProblemConfig(dimension=2, operator_a=ops["a"], operator_b=ops["a"],
                      start_points=[])
    with pytest.raises(ConfigError):
        Tolerances.from_dict({"tau_new": 1.0})


def test_config_tolerances_are_checked_where_they_are_built():
    plane = operator_from_dict(_PLANE)
    for fields, message in (({"tau_num": -1.0}, "tolerances.tau_num must be finite and "
                                                "nonnegative, got -1.0"),
                            ({"tau_graph": math.nan}, "tolerances.tau_graph must be finite "
                                                      "and nonnegative, got nan"),
                            ({"tau_psd": True}, "tolerances.tau_psd must be finite and "
                                                "nonnegative, got True")):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            Tolerances(**fields)
    with pytest.raises(ConfigError, match="^tolerances must be a Tolerances, got "):
        ProblemConfig(2, plane, plane, [[0.0, 0.0]], tolerances={"tau_num": 1.0})
    with pytest.raises(ConfigError, match="^stop_tol must be finite and nonnegative, got nan$"):
        ProblemConfig(2, plane, plane, [[0.0, 0.0]], stop_tol=math.nan)
    # every field is stored as a float, as a config document gives it
    assert Tolerances(tau_num=0).tau_num.hex() == "0x0.0p+0"


def test_config_counts_follow_the_count_rule():
    plane = operator_from_dict(_PLANE)
    for name, value, message in (
            ("dimension", True, "dimension must be a finite integer, got True"),
            ("dimension", "2", "dimension must be a finite integer, got '2'"),
            ("dimension", 2.5, "dimension must be a finite integer, got 2.5"),
            ("dimension", 0, "dimension must be at least 1"),
            ("max_iter", 10**400, f"max_iter must be a finite integer, got {10**400}"),
            ("max_iter", math.nan, "max_iter must be at least 1"),
            ("max_iter", 0.0, "max_iter must be at least 1")):
        args = {"dimension": 2, "operator_a": plane, "operator_b": plane,
                "start_points": [[0.0, 0.0]], name: value}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ProblemConfig(**args)
    config = ProblemConfig(2.0, plane, plane, [[0.0, 0.0]], max_iter=np.float64(7.0))
    assert (type(config.dimension), type(config.max_iter)) == (int, int)


def test_verify_isometry_report_does_not_depend_on_the_start_order(tmp_path, capsys):
    # every point is fixed for the plane/plane pair; the far pair's
    # distances overflow, so its isometry defect is |inf - inf| = nan,
    # which the report keeps wherever the pair comes in the start order
    # (the builtin max kept it only when it came first)
    starts = [[0.0, 0.0], [8e307, 8e307], [-8e307, -8e307]]
    path = tmp_path / "plane.json"
    for rotate in range(3):
        path.write_text(json.dumps({"version": 1, "dimension": 2, "operator_a": _PLANE,
                                    "operator_b": _PLANE,
                                    "start_points": starts[rotate:] + starts[:rotate]}))
        assert main(["verify", "--config", str(path)]) == 3
        reports = {r["identity_name"]: r for r in json.loads(capsys.readouterr().out)}
        assert reports["fixed-point-isometry"] == {
            "identity_name": "fixed-point-isometry", "max_violation": "nan", "sample_count": 3,
            "tolerance": 1e-9, "passed": False}, rotate


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o.csv")]) == 2


def _write_raw(tmp_path, name, field, raw, **values):
    """A corpus config whose top-level ``field`` holds the JSON text ``raw``
    and whose other top-level fields are updated from ``values``."""
    data = {**_config_dict(name), **values}
    data[field] = "@RAW@"
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(data).replace('"@RAW@"', raw))
    return path


# Documents that once ended in a Python traceback.
_MALFORMED = {
    "tolerances-list": ("tolerances", "[]"),
    "tau-num-string": ("tolerances", '{"tau_num": "abc"}'),
    "tau-num-null": ("tolerances", '{"tau_num": null}'),
    "max-iter-overflow": ("max_iter", "1e400"),
    "dimension-overflow": ("dimension", "1e400"),
    "max-iter-digits": ("max_iter", "9" * 5000),
    "nested-arrays": ("dimension", "[" * 100_000 + "]" * 100_000),
    "nested-operators": ("operator_b", '{"kind": "rotation", "inner": ' * 400
                         + '{"kind": "normal_cone_ray", "direction": [1.0, 0.0]}'
                         + "}" * 400),
}


@pytest.mark.parametrize("command", ["verify", "run"])
@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_config_is_a_config_error(tmp_path, capsys, command, case):
    cfg = _write_raw(tmp_path, "subspace-ball", *_MALFORMED[case])
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def _rotation_nest(depth):
    """A ray inside ``depth`` rotations, as JSON text."""
    return ('{"kind": "rotation", "inner": ' * depth
            + '{"kind": "normal_cone_ray", "direction": [1.0, 0.0]}' + "}" * depth)


def test_operator_nesting_limit_loads(tmp_path):
    cfg = _write_raw(tmp_path, "subspace-ball", "operator_b", _rotation_nest(MAX_NESTING))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 400])
def test_operator_nesting_past_the_limit_is_a_config_error(tmp_path, capsys, depth):
    cfg = _write_raw(tmp_path, "subspace-ball", "operator_b", _rotation_nest(depth))
    # the limit, not the interpreter's recursion limit, rejects the nest
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10 * depth))
    try:
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert f"operator_b: operators nested deeper than {MAX_NESTING}" in err


@pytest.mark.parametrize("command", ["verify", "run"])
def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b"\xff\xfe{")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


# Values that were accepted silently: infinite tolerances, a NaN stopping
# tolerance, non-integral or boolean counts, and a string count.
_REJECTED = {
    **{f"{tau}-overflow": ("tolerances", f'{{"{tau}": 1e400}}')
       for tau in ("tau_num", "tau_graph", "tau_psd", "tau_ortho")},
    "stop-tol-nan": ("stop_tol", "NaN"),
    "dimension-fraction": ("dimension", "2.5"),
    "max-iter-fraction": ("max_iter", "2.5"),
    "max-iter-string": ("max_iter", '"10"'),
    "max-iter-bool": ("max_iter", "true"),
    # JSON integers too large for a float
    **{f"{name}-400-digits": (name, "1" + "0" * 399) for name in ("max_iter", "dimension")},
    "tau-num-400-digits": ("tolerances", '{"tau_num": 1' + "0" * 399 + "}"),
    # ... in a point or an operator field, where the message names the
    # point, or the operator slot, kind and field
    "start-point-400-digits": ("start_points", "[[1" + "0" * 399 + ", 0.0]]",
                               "start_points[0]:"),
    "second-start-point-400-digits": ("start_points", "[[0.0, 0.0], [0.0, -1" + "0" * 399 + "]]",
                                      "start_points[1]:"),
    # a start point list that is not a list
    **{f"start-points-{case}": ("start_points", raw,
                                "start_points must be a list of points, got " + shown)
       for case, raw, shown in (("number", "5", "5"), ("null", "null", "None"),
                                ("string", '"ab"', "'ab'"))},
    **{f"ball-{name}-400-digits": (
        "operator_b", '{"kind": "normal_cone_ball", ' + body,
        "operator_b: operator 'normal_cone_ball' field " + repr(name))
       for name, body in (("center", '"center": [1' + "0" * 399 + ', 1.0], "radius": 1.0}'),
                          ("radius", '"center": [2.0, 1.0], "radius": 1' + "0" * 399 + "}"))},
}


@pytest.mark.parametrize("case", list(_REJECTED))
def test_non_finite_or_non_integral_values_are_rejected(tmp_path, capsys, case):
    field, raw, *named = _REJECTED[case]
    cfg = _write_raw(tmp_path, "subspace-ball", field, raw)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    default = f"tolerances.{next(iter(json.loads(raw)))}" if field == "tolerances" else field
    assert (named[0] if named else default) in err


def test_halfspace_with_nan_rhs_is_rejected(tmp_path, capsys):
    def nan_rhs(data):
        data["operator_a"]["rhs"] = float("nan")

    cfg = _write_config(tmp_path, "halfspace-ball", mutate=nan_rhs)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    assert "rhs must be finite" in capsys.readouterr().err


# Set parameters that once loaded as an empty box, a ball that is the
# whole space, or a sphere whose selection diverges.
_INFINITE_SETS = {
    "box-lower-plus-inf": ("standard", '{"kind": "normal_cone_box", '
                           '"lower": ["inf", 0.0], "upper": ["inf", 1.0]}', "box is empty"),
    "box-upper-minus-inf": ("standard", '{"kind": "normal_cone_box", '
                            '"lower": [0.0, "-inf"], "upper": [1.0, "-inf"]}', "box is empty"),
    "ball-radius-1e400": ("standard", '{"kind": "normal_cone_ball", '
                          '"center": [2.0, 1.0], "radius": 1e400}',
                          "ball radius must be finite"),
    "sphere-radius-1e400": ("generalized", '{"kind": "sphere_selection", '
                            '"center": [2.0, 1.0], "radius": 1e400, "tie_direction": [0.0, 1.0]}',
                            "sphere radius must be finite"),
}


@pytest.mark.parametrize("command", ["verify", "run"])
@pytest.mark.parametrize("case", list(_INFINITE_SETS))
def test_infinite_set_parameters_are_config_errors(tmp_path, capsys, command, case):
    mode, operator_b, message = _INFINITE_SETS[case]
    cfg = _write_raw(tmp_path, "subspace-ball", "operator_b", operator_b, mode=mode)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


def test_integral_float_counts_are_accepted(tmp_path):
    def floats(data):
        data["dimension"] = 2.0
        data["max_iter"] = 50.0

    cfg = _write_config(tmp_path, "subspace-ball", mutate=floats)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0


# ---------------------------------------------------------------------------
# loader fuzzing: mutated corpus documents never end in a traceback

_FUZZ_NUMBERS = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 1e-300,
                 0.0, -1.0, 2.5]
_FUZZ_OTHERS = [
    "abc", "inf", "-inf", None, True, [], {}, [1.0], [[1.0], [2.0, 3.0]],
    [[0.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]], [[1.0, 1.0], [1.0, 1.0]],
    [[1e308, 0.0], [0.0, 1e308]], {"kind": "nope"}, {"kind": "inverse", "inner": 5},
    {"kind": "rotation", "inner": {"kind": "normal_cone_ray"}},
    {"kind": "block_separable", "ops": [[0.0]]},
]
_MUTATIONS = ("drop", "add", "replace")


def _json_paths(doc, prefix=()):
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


def _mutate(doc, pick: int, mutation: str, value):
    paths = list(_json_paths(doc))[1:]
    path = paths[pick % len(paths)]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if mutation == "drop":
        del parent[key]
    elif mutation == "add":
        target = parent[key] if isinstance(parent[key], dict) else parent
        if isinstance(target, dict):
            target["extra"] = value
        else:
            target.append(value)
    else:
        parent[key] = value


def _budget_capped(doc):
    # a valid max_iter above 200 (or the 10^4 default) would make the
    # fuzzing slow, so it is capped; invalid values are kept
    if isinstance(doc, dict):
        it = doc.get("max_iter", 10_000)
        if (isinstance(it, (int, float)) and not isinstance(it, bool)
                and np.isfinite(it) and it > 200):
            doc["max_iter"] = 200
    return doc


@given(name=st.sampled_from(list(_REPORT_SETS)),
       steps=st.lists(st.tuples(st.integers(0, 10_000), st.sampled_from(_MUTATIONS),
                                st.one_of(st.sampled_from(_FUZZ_NUMBERS),
                                          st.sampled_from(_FUZZ_OTHERS))),
                      min_size=1, max_size=3))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_mutated_configs_never_raise(name, steps):
    doc = _config_dict(name)
    for pick, mutation, value in steps:
        if not isinstance(doc, (dict, list)) or not doc:
            break
        _mutate(doc, pick, mutation, copy.deepcopy(value))
    doc = _budget_capped(doc)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.json"
        cfg.write_text(json.dumps(doc))
        for argv in (["verify", "--n", "2", "--out", str(Path(tmp) / "r.json")],
                     ["run", "--out", str(Path(tmp) / "o.csv")]):
            assert main(argv + ["--config", str(cfg)]) in (0, 1, 2, 3)


# The CLI contract on mutated corpus configs: one or two leaves (numbers,
# strings, booleans, null) replaced by another JSON value, wrapped in a
# list (a wrong shape) or deleted; every command exits 0, 1, 2 or 3, and
# no exception escapes cli.main.
_LEAF_VALUES = [None, True, False, "abc", float("nan"), float("inf"), float("-inf"),
                1e308, -1e308, 10 ** 400, "wrap", "delete"]


def _replace_leaf(doc, pick: int, value):
    leaves = [path for path in list(_json_paths(doc))[1:] if not isinstance(
        functools.reduce(lambda node, key: node[key], path, doc), (dict, list))]
    path = leaves[pick % len(leaves)]
    parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
    if value == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = [parent[path[-1]]] if value == "wrap" else value


@given(name=st.sampled_from(list(_REPORT_SETS)),
       leaves=st.lists(st.tuples(st.integers(0, 10_000), st.sampled_from(_LEAF_VALUES)),
                       min_size=1, max_size=2))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_cli_exit_codes_hold_on_mutated_leaves(name, leaves):
    doc = _config_dict(name)
    for pick, value in leaves:
        _replace_leaf(doc, pick, value)
    doc = _budget_capped(doc)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "mutant.json"
        cfg.write_text(json.dumps(doc))
        for argv in (["run", "--out", str(Path(tmp) / "o.csv")],
                     ["verify", "--out", str(Path(tmp) / "r.json")],
                     ["compare", "--out", str(Path(tmp) / "c.csv")]):
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(argv + ["--config", str(cfg)]) in (0, 1, 2, 3), argv


# ---------------------------------------------------------------------------
# commutation through the CLI: R_A T_ab = T_ba R_A for affine A


def _orbit_rows(path, dim):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) for v in row[1:dim + 1]] for row in rows])


@pytest.mark.parametrize("name", ["subspace-ball", "parallel-lines"])
def test_run_orders_commute_through_reflector(tmp_path, name):
    data = _config_dict(name)
    data["stop_tol"] = 0.0
    data["max_iter"] = 15
    reflector = operator_from_dict(data["operator_a"])
    dim = data["dimension"]
    starts = data["start_points"] + [[7.0, -5.0, 3.0][:dim]]
    outputs = {}
    for order, points in (("ab", starts),
                          ("ba", [reflector.reflect(x).tolist() for x in starts])):
        data["start_points"] = points
        cfg = tmp_path / f"{order}.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / f"{order}.csv"
        assert main(["run", "--config", str(cfg), "--order", order,
                     "--out", str(out)]) == 0
        outputs[order] = [_orbit_rows(_orbit_path(str(out), i, len(points)), dim)
                          for i in range(len(points))]
    for ab, ba in zip(outputs["ab"], outputs["ba"]):
        # exact fixed points stop both orbits at the same step
        assert ab.shape == ba.shape and len(ab) > 2
        mapped = np.array([reflector.reflect(x) for x in ab])
        assert np.max(np.abs(ba - mapped)) <= 1e-8
