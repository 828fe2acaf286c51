import csv
import json

import numpy as np
import pytest

from drorder.cli import main
from drorder.config import ConfigError, ProblemConfig, Tolerances
from drorder.harness import corpus_instances
from drorder.operators import operator_from_dict


def _config_dict(name):
    for inst in corpus_instances():
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
# and the default depth 20.
_FIRM = [("dr-form-equivalence", 1), ("defect-decomposition", 1),
         ("dr-firmly-nonexpansive", 1)]
_ORBITS = [("commutation", 20), ("conjugation", 20), ("shadow-equality", 20),
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


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize("command", ["verify", "compare"])
def test_divergent_instance_exits_one_with_one_line(tmp_path, capsys, command):
    cfg = _divergent_config(tmp_path)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "diverged" in err


@pytest.mark.parametrize("command", ["run", "verify", "compare"])
def test_missing_output_directory_exits_two(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, "subspace-ball")
    out = tmp_path / "missing" / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_env_tolerance_must_be_finite_and_nonnegative(tmp_path, monkeypatch, tol):
    cfg = _write_config(tmp_path, "subspace-ball")
    monkeypatch.setenv("DR_ORDER_TOL", tol)
    assert main(["verify", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("command", ["verify", "compare"])
def test_negative_depth_is_a_usage_error(tmp_path, command):
    cfg = _write_config(tmp_path, "subspace-ball")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--n", "-1",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


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


def test_config_rejects_bad_version(tmp_path):
    cfg = _write_config(tmp_path, "ray-vs-axis",
                        mutate=lambda d: d.__setitem__("version", 2))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2


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


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o.csv")]) == 2
