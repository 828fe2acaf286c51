"""The measurement tools under tools/ run against the package as it is.

Each tool is run as a subprocess with the package's src/ on PYTHONPATH,
on small inputs, so an API change that breaks one fails here.
"""

import os
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
    assert {"as_point", "_as_points", "resolve normal_cone_ball", "dr_step line/ball",
            "iterate line/ball ab, per step", "iterate plane/line ba, per step"} <= set(names)
    # every kind's one-point resolve, and the same point as a (1, d) batch
    kinds = [name for name in names if name.startswith("resolve ") and "," not in name]
    assert len(kinds) == len(operators._CATALOG)
    assert [name for name in names if name.endswith(", (1, d) batch")] == [
        f"{name}, (1, d) batch" for name in kinds]
    assert all(float(value) > 0.0 for _, value in rows)


def test_cli_snapshot_writes_every_command(tmp_path):
    out = tmp_path / "snapshot"
    _run_tool("cli_snapshot.py", out)
    assert (out / "verify-corpus" / "exit.txt").read_text().strip() == "0"
    assert (out / "divergent" / "run" / "exit.txt").read_text().strip() == "1"
    assert len([path for path in out.rglob("*") if path.is_file()]) > 500
