"""The measurement tools under tools/ run against the package as it is.

Each tool is run as a subprocess with the package's src/ on PYTHONPATH,
on small inputs, so an API change that breaks one fails here.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from drorder import operators
from drorder.analysis import IDENTITIES

ROOT = Path(__file__).resolve().parents[1]


def _run_tool(*args) -> list[str]:
    """The stdout lines of ``tools/<args>``, which must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "tools" / args[0]), *map(str, args[1:])],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_code_lines_counts_every_module():
    lines = _run_tool("code_lines.py")
    modules = sorted(path.name for path in (ROOT / "src" / "drorder").glob("*.py"))
    assert [line.split()[1] for line in lines] == [*modules, "total"]
    counts = [int(line.split()[0]) for line in lines]
    assert all(count > 0 for count in counts[:-1]) and counts[-1] == sum(counts[:-1])


def test_identity_times_has_a_row_per_identity():
    lines = _run_tool("identity_times.py", "--repeat", "1")
    rows = [line.split() for line in lines]
    names = [identity.name for identity in IDENTITIES]
    assert [row[0] for row in rows[1:]] == ["(probe", *names, "total"]
    assert len(rows[0]) == 2 + 7  # "median us" and the seven manifest configs
    assert all(len(row) == len(rows[-1]) for row in rows[2:])
    assert all(float(cell) > 0.0 for cell in rows[-1][1:])


def test_layer_times_times_every_layer():
    lines = _run_tool("layer_times.py", "--repeat", "3", "--steps", "200")
    rows = [line.rsplit(None, 1) for line in lines[1:]]
    names = [name.strip() for name, _ in rows]
    assert {"as_point", "_as_points", "_row_norms (20, 12, 2), half the rows zero",
            "resolve normal_cone_ball", "dr_step line/ball",
            "apply line/ball, borwein_tam", "iterate line/ball ab, per step",
            "iterate plane/line ba, per step", "product kernel lift m=100",
            "iterate lift m=100, per step", "product kernel lift of 20 rays R^2",
            "product kernel lift of 20 boxes R^3"} <= set(names)
    # every kind's one-point resolve, its kernel, and the same point as a
    # (1, d) batch
    kinds = [name for name in names if name.startswith("resolve ") and "," not in name]
    assert len(kinds) == len(operators._CATALOG)
    assert [name for name in names if name.startswith("kernel ")] == [
        f"kernel {kind}" for kind in operators._CATALOG]
    assert [names[names.index(name) + 1] for name in kinds] == [
        name.replace("resolve", "kernel", 1) for name in kinds]
    assert [name for name in names if name.endswith(", (1, d) batch")] == [
        f"{name}, (1, d) batch" for name in kinds]
    assert [name for name in names if name.startswith("dr_matrix ")] == [
        f"dr_matrix {pair}, {form}" for pair in ("linear-asymmetric", "lift m=20")
        for form in ("dr", "borwein_tam")]
    assert all(float(value) > 0.0 for _, value in rows)


def test_orbit_memory_measures_both_long_orbit_pairs():
    lines = _run_tool("orbit_memory.py", "--steps", "2000", "--cap", "500")
    assert lines[0].split() == ["steps", "2000,", "cap", "500", "held", "B", "peak", "B",
                                "B/step", "B/row"]
    rows = [line.rsplit(None, 4) for line in lines[1:]]
    assert [row[0].strip() for row in rows] == ["iterate line/ball ab", "iterate plane/line ba"]
    for (_, held, peak, per_step, per_row), d in zip(rows, (2, 3)):
        assert 0 < int(held) <= int(peak)
        # past the cap a step adds its residual's 8 bytes
        assert 0.0 < float(per_step) <= 16.0
        # a kept row is 16 d bytes of a block; two array objects cost about 300
        assert 16 * d <= float(per_row) <= 20 * d


def test_cli_snapshot_writes_every_command(tmp_path):
    out = tmp_path / "snapshot"
    _run_tool("cli_snapshot.py", out)
    assert (out / "verify-corpus" / "exit.txt").read_text().strip() == "0"
    assert (out / "divergent" / "run" / "exit.txt").read_text().strip() == "1"
    assert len([path for path in out.rglob("*") if path.is_file()]) > 500


def test_ab_times_runs_a_tree_against_itself():
    src = ROOT / "src"
    lines = _run_tool("ab_times.py", src, src, "--rounds", "2", "--steps", "500")
    assert lines[0].startswith("rounds 2, steps 500,")
    rows = [line.split() for line in lines[2:]]
    assert [row[:2] for row in rows] == [[workload, side]
                                         for workload in ("long-orbit", "lift", "corpus-verify")
                                         for side in ("old", "new", "old/new")]
    for old, new, ratio in (rows[0:3], rows[3:6], rows[6:9]):
        # median, q1 and q3, then the rounds won, which no tie adds to
        assert all(float(cell) > 0.0 for row in (old, new, ratio) for cell in row[2:5])
        assert int(old[5]) + int(new[5]) <= 2 and len(ratio) == 5


def test_ab_times_rejects_trees_whose_outputs_differ(tmp_path):
    # one ulp more in the one-point ball kernel moves the line/ball orbit
    shutil.copytree(ROOT / "src" / "drorder", tmp_path / "drorder")
    path = tmp_path / "drorder" / "operators.py"
    kernel = "return self.center + (self.radius / dist) * v"
    assert kernel in path.read_text()
    path.write_text(path.read_text().replace(kernel, kernel + " * (1.0 + 2.0 ** -52)"))
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_times.py"), str(ROOT / "src"),
                           str(tmp_path), "--rounds", "1", "--steps", "500"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "long-orbit: the two trees give different outputs\n"


def test_ab_times_rejects_trees_whose_verify_output_differs(tmp_path):
    # a renamed report leaves every orbit as it is, and changes verify's stdout
    shutil.copytree(ROOT / "src" / "drorder", tmp_path / "drorder")
    path = tmp_path / "drorder" / "analysis.py"
    name = 'Identity("bt-half-sum"'
    assert name in path.read_text()
    path.write_text(path.read_text().replace(name, 'Identity("bt-half-sums"'))
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_times.py"), str(ROOT / "src"),
                           str(tmp_path), "--rounds", "1", "--steps", "500"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "corpus-verify: the two trees give different outputs\n"
