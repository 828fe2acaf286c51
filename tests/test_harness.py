import csv
import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from drorder.harness import (
    FIGURE_START,
    figure_scenarios,
    load_corpus,
    random_affine_operator,
    random_monotone_operator,
    random_point,
    random_sphere_selection,
    random_subspace,
    run_instance,
    write_manifest,
)
from drorder.operators import is_monotone

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


def test_figure_scenarios_subspace(tmp_path):
    red, blue, report = figure_scenarios("subspace-ball", n=5, out_dir=tmp_path)
    assert report.passed
    # piecewise affine instances can hit an exact fixed point before n
    # steps; the orbit then stops and later terms coincide with the last
    for orbit, color in [(red, "red"), (blue, "blue")]:
        assert 2 <= len(orbit.governing) <= 6
        if len(orbit.governing) < 6:
            assert orbit.converged and orbit.residuals[-1] == 0.0
        path = tmp_path / f"subspace-ball-{color}.csv"
        assert path.exists()
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == len(orbit.governing) + 1


def test_figure_scenarios_halfspace_failure():
    red, blue, report = figure_scenarios("halfspace-ball", n=5)
    assert not report.passed
    assert report.max_violation > 1e-3


def test_figure_scenarios_start_at_solution_is_constant():
    # (2, 1) lies on the line and inside the ball
    red, blue, report = figure_scenarios("subspace-ball", x0=[2.0, 1.0], n=5)
    for orbit in (red, blue):
        assert orbit.converged
        for g in orbit.governing:
            assert np.allclose(g, [2.0, 1.0], atol=1e-12)
    assert report.max_violation <= 1e-12


def test_figure_scenarios_validation():
    with pytest.raises(ValueError):
        figure_scenarios("subspace-ball", n=3)
    with pytest.raises(ValueError):
        figure_scenarios("triangle-ball", n=5)


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
            assert is_monotone(op)
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
