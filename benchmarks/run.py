"""drorder benchmark: seeded workloads through the public entry points.

Run from the repository root:

    python3 benchmarks/run.py --workload corpus-verify --seed 1 --seconds 40 --trace 0

or, for every workload in turn:

    for w in corpus-verify long-orbit consensus-lift; do
        python3 benchmarks/run.py --workload $w --seed 1 --seconds 40 --trace 0; done

Workloads (see BENCHMARK.json for why each exists):
  corpus-verify   `verify --corpus` and `verify --config` on the 7 corpus configs
  long-orbit      two `run` calls of 5e4 DR steps on inconsistent pairs
  consensus-lift  `iterate` on a 100-member lift in R^300 from 16 starts

Each run repeats rounds of the workload's fixed work for --seconds (at
least one round; no round is started that would end after the deadline
at the pace of the last one) and checks every operation's output.
Between the operations of each round it times batches of set-ups,
about SETUP_PER_ROUND set-ups a round, so that a round's set-up sample
spans the round like its work does; a round's time is the sum of its
operations' times.  work_per_s is the work of all rounds over their
total time; setup_s (the mean set-up of each round) and the latencies
are medians.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of one traced set-up plus round; a traced run spends
its first half untraced so that it can report the tracing overhead.
The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
Run outputs go to a temporary directory inside the checkout; the spans
of a traced run and a results record go to .bench_out/.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, so a 2-core machine measures the program and
# not the scheduler.  Must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("corpus-verify", "long-orbit", "consensus-lift")
SETUP_PER_ROUND = 50  # set-ups timed between the operations of a round
P80_MIN_ABOVE = 10  # samples a reported percentile must have above it

# The end-to-end metrics of the result line (BENCHMARK.json), as (name,
# unit).  Speed is work_per_s, normalised by the work done, because the
# steps a consensus-lift round takes depend on its seed; wall_s and the
# call latencies are printed above the result line but carry no bound.
END_TO_END = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _environment(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def _import_drorder() -> bool:
    """Import drorder from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import drorder
    except ImportError as exc:
        print(f"cannot import drorder from {SRC}: {exc}", file=sys.stderr)
        return False
    if Path(drorder.__file__).resolve().parent != SRC / "drorder":
        print(f"drorder imported from {drorder.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


class Tally:
    """Operations attempted, and the failure message of each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check_round(self, workload, ops) -> int:
        """Check every operation of a round; return its work units."""
        work = 0
        for i, op in enumerate(ops):
            self.attempted += 1
            if op.error is not None:
                self.failures.append(f"{op.label} #{i}: raised\n{op.error}")
                continue
            problem, units = workload.check(op, i)
            work += units
            if problem is not None:
                self.failures.append(f"{op.label} #{i}: {problem}")
        return work


def _rounds(workload, seconds: float, tally: Tally, setup_times=None, after_round=None):
    """Run rounds for ``seconds``; return (round seconds, work, latencies).

    The workload must be set up.  With ``setup_times`` given, a timed
    batch of set-ups precedes each operation, and the mean time of one
    set-up in the round is appended.
    """
    times, works, latencies = [], [], []
    per_batch = 0
    if setup_times is not None:
        per_batch = -(-SETUP_PER_ROUND // workload.ops_per_round())
    deadline = time.perf_counter() + seconds
    while True:
        batches: list[float] = []

        def between() -> None:
            if per_batch:
                t0 = time.perf_counter()
                for _ in range(per_batch):
                    workload.setup()
                batches.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        ops = workload.run_round(between)
        round_s = time.perf_counter() - t0
        times.append(sum(op.seconds for op in ops))
        if per_batch:
            setup_times.append(sum(batches) / (per_batch * len(batches)))
        latencies.extend(op.seconds for op in ops)
        works.append(tally.check_round(workload, ops))
        if after_round is not None:
            after_round(len(times))
        if time.perf_counter() + round_s > deadline:
            return times, works, latencies


def _p80(latencies: list[float]) -> tuple[float, int]:
    """80th percentile and the number of samples above it."""
    p80 = statistics.quantiles(latencies, n=5, method="inclusive")[3]
    return p80, sum(1 for x in latencies if x > p80)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    from tracer import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    env = _environment(seed)
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
        workload = WORKLOADS[workload_name](seed, Path(tmp))
        workload.setup()  # the cold first set-up is not sampled
        setup_times: list[float] = []
        budget = seconds / 2 if trace else seconds
        times, works, latencies = _rounds(workload, budget, tally, setup_times)

        layers: dict = {}
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                # the traced sample is one set-up plus the first round
                workload.setup()

                def after_round(n: int) -> None:
                    if n == 1:
                        layers.update(tracer.summary())
                        tracer.write(OUT / f"spans-{workload_name}.npz")
                    tracer.reset()

                traced_times, _, _ = _rounds(workload, budget, tally,
                                              after_round=after_round)
            finally:
                tracer.uninstall()
            layers["trace.overhead_s"] = (statistics.median(traced_times)
                                          - statistics.median(times))

    failed = len(tally.failures)
    for message in tally.failures[:5]:
        print(f"FAILED {message}", file=sys.stderr)

    wall = statistics.median(times)
    p80, above = _p80(latencies)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "work_per_s": sum(works) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    kind = WORKLOADS[workload_name]
    print(f"# workload {workload_name}, seed {seed}, {len(times)} untraced rounds, "
          f"{tally.attempted} operations, {failed} failed")
    print(f"# environment {json.dumps(env)}")
    if trace:
        metrics = {name: {"value": layers[name], "unit": u}
                   for name, u in per_layer_metrics()}
        print(f"# DR steps {layers['_base.dr_steps']} (base of the per-step ratios), "
              f"outer resolvent calls {layers['_base.outer_resolves']}")
        for name, m in metrics.items():
            print(f"{name:>52} = {m['value']!r} {m['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": u} for name, u in END_TO_END}
        p80_text = (f"{1e3 * p80:.6g} ms" if above >= P80_MIN_ABOVE
                    else f"n/a, needs {P80_MIN_ABOVE} samples above it")
        for name, text in (
            ("setup_s", f"{e2e['setup_s']:.6g} s   median over {len(setup_times)} rounds"),
            ("wall_s", f"{wall:.6g} s   median of {len(times)} rounds of fixed work"),
            (kind.rate_name, f"{e2e['work_per_s']:.6g} 1/s {kind.work_unit} per second "
                        "(work_per_s), over all rounds"),
            ("call_p50_ms", f"{1e3 * statistics.median(latencies):.6g} ms  "
                            f"over {len(latencies)} operations"),
            ("call_p80_ms", f"{p80_text}; {above} of {len(latencies)} are above"),
            ("peak_rss_mb", f"{e2e['peak_rss_mb']:.6g} MB"),
            ("error_rate", f"{failed / tally.attempted:.6g}     "
                           f"{failed} failed of {tally.attempted} attempted"),
        ):
            print(f"{name:>14} = {text}")
    record = {
        "workload": workload_name, "trace": trace, "seconds": seconds,
        "environment": env, "metrics": metrics,
        "setup_times_s": setup_times, "round_times_s": times, "round_work": works,
        "wall_s": wall, "call_latencies_s": latencies, "call_p80_ms": 1e3 * p80,
        "samples_above_p80": above, "attempted": tally.attempted, "failed": failed,
    }
    (OUT / f"result-{workload_name}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _import_drorder():
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
