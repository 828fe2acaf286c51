"""Self-test of the benchmark; run from the repository root:

    python3 benchmarks/selftest.py

For each workload it checks that
  * two traced runs on the same seed report identical counts and ratios
    (every per-layer metric whose unit is not seconds),
  * an untraced run on a second seed passes every output check,
  * the printed metric names and units are those of BENCHMARK.json;
and, once, that the benchmark fails without printing a result in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits 1 on the first failed check.  Runs are short (--seconds 1).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED, OTHER_SEED = 7, 8
TIMEOUT_S = 600


def _run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def _result(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{what}: output checks failed\n{proc.stderr}")
    return result


def _expect_metrics(result: dict, declared: list[dict], what: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{what}: metrics differ from BENCHMARK.json: "
                             f"{sorted(set(got) ^ set(want))}")


def check_workload(workload: str, bench: dict) -> None:
    first = _result(_run(ROOT, workload, SEED, 1), f"{workload} traced #1")
    second = _result(_run(ROOT, workload, SEED, 1), f"{workload} traced #2")
    _expect_metrics(first, bench["per_layer"], f"{workload} traced")
    for name, metric in first["metrics"].items():
        if metric["unit"] == "s":
            continue
        a, b = metric["value"], second["metrics"][name]["value"]
        if a != b:
            raise AssertionError(f"{workload}: {name} is {a} then {b} on seed {SEED}")
    other = _result(_run(ROOT, workload, OTHER_SEED, 0), f"{workload} seed {OTHER_SEED}")
    _expect_metrics(other, bench["end_to_end"], f"{workload} untraced")
    print(f"ok {workload}: counts repeat on seed {SEED}, "
          f"{other['attempted']} operations pass on seed {OTHER_SEED}")


def check_bare_directory(bench: dict) -> None:
    """Without the program's sources the benchmark must fail, printing no result."""
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_bare_") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, bench["workloads"][0]["name"], SEED, 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise AssertionError(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok bare directory: exit {proc.returncode} with no result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_bare_directory(bench)
        for workload in bench["workloads"]:
            check_workload(workload["name"], bench)
    except AssertionError as exc:
        print(f"FAILED {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
