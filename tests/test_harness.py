import json
import math
import re
import warnings
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from drorder import analysis, harness
from drorder.cli import main
from drorder.config import ProblemConfig
from drorder.harness import (
    FIGURE_START,
    NamedInstance,
    load_corpus,
    run_instance,
    write_manifest,
)

from draws import (
    random_affine_operator,
    random_monotone_operator,
    random_point,
    random_sphere_selection,
    random_subspace,
)

EXPECTED_NAMES = [
    "ray-vs-axis",
    "linear-asymmetric",
    "bt-not-firm",
    "parallel-lines",
    "subspace-ball",
    "halfspace-ball",
    "three-halfspace-lift",
]


def test_corpus_names_and_all_expectations_pass():
    instances = load_corpus()
    assert [inst.name for inst in instances] == EXPECTED_NAMES
    for inst in instances:
        for report in run_instance(inst):
            assert report.passed, (report.identity_name, report.max_violation)


def test_manifest_export_round_trip(tmp_path):
    path = write_manifest(tmp_path / "corpus.json")
    entries = json.loads(path.read_text())
    assert [e["name"] for e in entries] == EXPECTED_NAMES
    reloaded = load_corpus(path)
    for inst in reloaded:
        assert inst.expected  # expectations bound by name


def test_manifest_naming_an_unknown_instance_is_rejected(tmp_path):
    entries = json.loads(write_manifest(tmp_path / "corpus.json").read_text())
    entries[0]["name"] = "no-such-instance"
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(entries))
    with pytest.raises(ValueError, match="unknown instance 'no-such-instance'"):
        load_corpus(path)


_ENTRY_1 = "manifest entry 1 is not a {name, config} object"


@pytest.mark.parametrize("mutate, message", [
    pytest.param(lambda entries: {"instances": entries}, "must be a JSON array",
                 id="not-an-array"),
    pytest.param(lambda entries: [entries[0], entries[1]["name"]], _ENTRY_1,
                 id="entry-not-an-object"),
    pytest.param(lambda entries: [entries[0], {"config": entries[1]["config"]}], _ENTRY_1,
                 id="no-name"),
    pytest.param(lambda entries: [entries[0], {**entries[1], "name": ["ray-vs-axis"]}],
                 _ENTRY_1, id="name-not-a-string"),
    pytest.param(lambda entries: [entries[0], {"name": entries[1]["name"]}], _ENTRY_1,
                 id="no-config"),
])
def test_malformed_manifest_is_a_value_error_naming_the_entry(tmp_path, mutate, message):
    entries = json.loads(write_manifest(tmp_path / "corpus.json").read_text())
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(mutate(entries)))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_corpus(path)


def test_failure_exhibit_reports_shortfall():
    instances = {inst.name: inst for inst in load_corpus()}
    reports = run_instance(instances["halfspace-ball"])
    assert len(reports) == 1
    report = reports[0]
    # the conjugation defect exceeds the exhibit threshold by a wide
    # margin, so the shortfall is strongly negative
    assert report.passed
    assert report.max_violation < -1.0
    assert report.tolerance == 0.0


def test_out_of_budget_parallel_lines_gives_failed_reports(tmp_path):
    # a start whose budget runs out fails the expectations, it does not raise
    entries = json.loads(write_manifest(tmp_path / "corpus.json").read_text())
    entry = next(e for e in entries if e["name"] == "parallel-lines")
    entry["config"]["max_iter"] = 1
    path = tmp_path / "short.json"
    path.write_text(json.dumps(entries))
    instance = next(inst for inst in load_corpus(path) if inst.name == "parallel-lines")
    reports = run_instance(instance)
    assert [r.identity_name for r in reports] == [
        "parallel-lines/fixed-point-plane", "parallel-lines/solution-split",
        "parallel-lines/bijection-isometry"]
    for report in reports:
        assert report.max_violation == math.inf and not report.passed
    # one inf per sample: per start, and per start and pair of starts
    assert [r.sample_count for r in reports] == [4, 4, 10]


def test_run_instance_reports_an_overflowing_start_without_a_warning():
    # from (3e200, -7e200) the squared norms of subspace-ball's orbit gaps
    # overflow: the norms fall back to their scaled form, and the three
    # reports fail with finite violations, as from `drorder verify`
    instance = next(inst for inst in load_corpus() if inst.name == "subspace-ball")
    instance.config.start_points[0] = np.array([3e200, -7e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = run_instance(instance)
    assert not any(r.passed for r in reports)
    assert [float(f"{r.max_violation:.3g}") for r in reports] == [1.52e185, 5.95e184, 2.94e183]


@pytest.mark.parametrize("caller", ["corpus", "verify-config"])
def test_parallel_lines_finds_and_certifies_its_fixed_points_once(tmp_path, monkeypatch,
                                                                  caller):
    # one corpus pass, like one `verify --config`, finds the fixed point
    # of each of the 4 starts and certifies them once, through the same
    # loop; the pass's later expectations read that certificate
    counts = Counter()
    for name in ("find_fixed_point", "certify_fixed_points"):
        def counted(*args, _name=name, _original=getattr(analysis, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(analysis, name, counted)
    instance = next(inst for inst in load_corpus() if inst.name == "parallel-lines")
    assert len(instance.config.start_points) == 4
    if caller == "corpus":
        assert all(report.passed for report in run_instance(instance))
    else:
        path = tmp_path / "parallel-lines.json"
        path.write_text(json.dumps(instance.config.to_dict()))
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 0
    assert counts == {"find_fixed_point": 4, "certify_fixed_points": 1}


def test_each_expectation_alone_reports_as_in_the_full_pass():
    # no expectation reads what another one computed: run alone, in a pass
    # of a freshly loaded corpus, each gives the report of the full pass
    full = {inst.name: [r.to_dict() for r in run_instance(inst)] for inst in load_corpus()}
    assert sum(map(len, full.values())) == 23
    for name, reports in full.items():
        for index, want in enumerate(reports):
            instance = next(inst for inst in load_corpus() if inst.name == name)
            instance.expected = [instance.expected[index]]
            assert [r.to_dict() for r in run_instance(instance)] == [want]


def test_linear_asymmetric_builds_each_composite_matrix_once_per_pass(monkeypatch):
    # product-ab-ba, product-ba-ab and product-commutator read the affine
    # forms of T_ab T_ba and T_ba T_ab that their pass computes once
    calls = []

    def counted(T, _original=harness.dr_matrix):
        calls.append((T.first, T.second, T.form))
        return _original(T)

    monkeypatch.setattr(harness, "dr_matrix", counted)
    instance = next(inst for inst in load_corpus() if inst.name == "linear-asymmetric")
    a, b = instance.config.operator_a, instance.config.operator_b
    full = [r.to_dict() for r in run_instance(instance)]
    assert [r["identity_name"] for r in full] == [
        f"linear-asymmetric/{label}"
        for label in ("product-ab-ba", "product-ba-ab", "product-commutator")]
    assert all(r["passed"] for r in full)
    assert calls == [(a, b, "borwein_tam"), (b, a, "borwein_tam")]
    for index, want in enumerate(full):
        calls.clear()
        lone = NamedInstance(instance.name, instance.config, [instance.expected[index]])
        assert [r.to_dict() for r in run_instance(lone)] == [want]
        assert len(calls) == 2


def test_a_pass_reads_nothing_an_earlier_pass_computed():
    # the same expectation, after a full pass that found the fixed points,
    # in a pass whose budget finds none
    instance = next(inst for inst in load_corpus() if inst.name == "parallel-lines")
    assert all(report.passed for report in run_instance(instance))
    short = ProblemConfig.from_dict({**instance.config.to_dict(), "max_iter": 1})
    lone = NamedInstance(instance.name, short, [instance.expected[1]])
    [report] = run_instance(lone)
    assert report.identity_name == "parallel-lines/solution-split"
    assert report.max_violation == math.inf and not report.passed


def test_ray_vs_axis_resolves_each_grid_word_once(monkeypatch):
    # the six formulas read 9 distinct J words of the grid: J_A x, J_B x,
    # J_B R_A x, J_A R_B x, J_B T_ab x, J_B T_ba x, J_B R_B x,
    # J_A R_B R_B x and J_B R_A R_B x
    instance = next(inst for inst in load_corpus() if inst.name == "ray-vs-axis")
    shapes = []
    for cls in {type(instance.config.operator_a), type(instance.config.operator_b)}:
        def counted(self, x, resolve=cls.resolve):
            shapes.append(np.shape(x))
            return resolve(self, x)
        monkeypatch.setattr(cls, "resolve", counted)
    assert all(report.passed for report in run_instance(instance))
    assert shapes == [(harness.GRID_SIDE ** 2, 2)] * 9


def test_figure_start_matches_scenario_configs():
    instances = {inst.name: inst for inst in load_corpus()}
    for name in ("subspace-ball", "halfspace-ball"):
        start = instances[name].config.start_points[0]
        assert np.array_equal(start, np.asarray(FIGURE_START))


def test_random_generators_produce_valid_operators():
    rng = np.random.default_rng(50)
    for dim in (1, 2, 5, 8):
        for _ in range(30):
            op = random_monotone_operator(rng, dim)
            assert op.dim == dim
            assert op.monotone
            x = random_point(rng, dim)
            assert op.resolve(x).shape == (dim,)
        affine = random_affine_operator(rng, dim)
        assert affine.affine
        sub = random_subspace(rng, dim)
        assert 1 <= sub.rank <= max(dim - 1, 1)
        sel = random_sphere_selection(rng, dim)
        assert not sel.monotone


def test_random_generators_are_seed_deterministic():
    ops1 = [random_monotone_operator(np.random.default_rng(7), 3) for _ in range(5)]
    ops2 = [random_monotone_operator(np.random.default_rng(7), 3) for _ in range(5)]
    x = np.array([0.3, -1.2, 0.8])
    for a, b in zip(ops1, ops2):
        assert a.kind == b.kind
        assert np.array_equal(a.resolve(x), b.resolve(x))


def test_shipped_manifest_is_in_canonical_round_trip_form():
    shipped = Path(str(resources.files("drorder").joinpath("data/corpus.json")))
    entries = [{"name": inst.name, "config": inst.config.to_dict()}
               for inst in load_corpus()]
    assert json.dumps(entries, indent=2) + "\n" == shipped.read_text()


def test_grid_points_are_the_rows_of_the_grid_in_x_major_order():
    axis = np.linspace(-harness.GRID_EXTENT, harness.GRID_EXTENT, harness.GRID_SIDE)
    want = np.array([(gx, gy) for gx in axis for gy in axis])
    got = harness._grid_points()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
