"""Snapshot what the CLI prints and writes on the shipped corpus configs.

Runs ``drorder.cli.main`` in-process.  For each command below it writes
the command's stdout, stderr, exit code and every file the command
wrote to a directory of its own under OUT_DIR, which is replaced.  In
stdout the path of OUT_DIR is replaced by a fixed token, so two
snapshots taken with different ``drorder`` sources on PYTHONPATH
compare with ``diff -r`` (stderr gets the same replacement):

    PYTHONPATH=old/src python3 tools/cli_snapshot.py /tmp/snap-old
    PYTHONPATH=src python3 tools/cli_snapshot.py /tmp/snap-new
    diff -r /tmp/snap-old /tmp/snap-new

Configs: the manifest's configs; subspace-ball with a sphere projector
selection as operator_b in generalized mode ("generalized-sphere"); and,
for each manifest config whose operator_a is an affine-subspace normal
cone, the same config in generalized mode ("<name>-generalized").

Commands: ``verify --corpus`` once; per config ``verify --config`` with
``--seed`` in {0, 1, 123} and ``--n`` in {20, 3}, and with ``--n 0`` (no
orbit steps), ``run --order`` in {ab, ba, bt}, and ``compare --n 12``.
On top of those, ``verify --config`` and ``run`` on a config whose
affine operator_b translates by 1e308, so that the first step
overflows ("divergent"): both exit 1 with one ``diverged:`` line.

Only the standard library and ``drorder`` are used.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from importlib import resources
from pathlib import Path

from drorder.cli import main as cli_main

TOKEN = "<OUT_DIR>"
SPHERE = {"kind": "sphere_selection", "center": [2.0, 1.0], "radius": 1.0,
          "tie_direction": [0.0, 1.0]}
ZERO = [[0.0, 0.0], [0.0, 0.0]]
DIVERGENT = {"version": 1, "dimension": 2,
             "operator_a": {"kind": "linear_monotone", "matrix": ZERO},
             "operator_b": {"kind": "affine_relation", "matrix": ZERO,
                            "offset": [1e308, 0.0]},
             "start_points": [[0.0, 0.0]]}


def _configs() -> dict[str, dict]:
    manifest = json.loads(resources.files("drorder").joinpath("data/corpus.json").read_text())
    configs = {entry["name"]: entry["config"] for entry in manifest}
    configs["generalized-sphere"] = {**configs["subspace-ball"], "mode": "generalized",
                                     "operator_b": SPHERE}
    for entry in manifest:
        if entry["config"]["operator_a"]["kind"] == "normal_cone_affine_subspace":
            configs[f"{entry['name']}-generalized"] = {**entry["config"],
                                                       "mode": "generalized"}
    return configs


def _commands(config: Path) -> dict[str, list[str]]:
    """Label -> argv of each per-config command; ``OUT`` marks the output path."""
    commands = {}
    for seed in ("0", "1", "123"):
        for n in ("20", "3"):
            commands[f"verify-seed{seed}-n{n}"] = ["verify", "--config", str(config),
                                                   "--seed", seed, "--n", n]
    commands["verify-n0"] = ["verify", "--config", str(config), "--n", "0"]
    for order in ("ab", "ba", "bt"):
        commands[f"run-{order}"] = ["run", "--config", str(config), "--order", order,
                                    "--out", "OUT/orbit.csv"]
    commands["compare"] = ["compare", "--config", str(config), "--n", "12",
                           "--out", "OUT/compare.csv"]
    return commands


def _snapshot(out_dir: Path, label: str, argv: list[str]) -> None:
    work = out_dir / label
    work.mkdir(parents=True)
    argv = [str(work / arg[4:]) if arg.startswith("OUT/") else arg for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    for stream, text in (("stdout", stdout), ("stderr", stderr)):
        (work / f"{stream}.txt").write_text(text.getvalue().replace(str(out_dir), TOKEN))
    (work / "exit.txt").write_text(f"{code}\n")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/cli_snapshot.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = Path(argv[0]).resolve()
    shutil.rmtree(out_dir, ignore_errors=True)
    (out_dir / "configs").mkdir(parents=True)
    _snapshot(out_dir, "verify-corpus", ["verify", "--corpus"])
    for name, data in _configs().items():
        config = out_dir / "configs" / f"{name}.json"
        config.write_text(json.dumps(data))
        for label, command in _commands(config).items():
            _snapshot(out_dir, f"{name}/{label}", command)
    divergent = out_dir / "configs" / "divergent.json"
    divergent.write_text(json.dumps(DIVERGENT))
    _snapshot(out_dir, "divergent/verify", ["verify", "--config", str(divergent)])
    _snapshot(out_dir, "divergent/run", ["run", "--config", str(divergent),
                                         "--out", "OUT/orbit.csv"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
