"""Time each registry identity of ``verify --config`` on the manifest configs.

For each config of the corpus manifest this builds the probe points of
``drorder verify --config`` (``--seed``, ``--n``) and times, on those
points, every identity of ``drorder.analysis.IDENTITIES`` whose
requirements the operands meet, the way ``report_identities`` runs it:
each repeat builds one pair of word tables of the points and evaluates
the identities in registry order, all reading the same tables, so an
identity's row is the time of the words it adds to those of the rows
above it.  The probe orbits that commutation, conjugation and shadow
equality share are held by the table of the points and are computed
once per repeat, at the first of them; they get their own row,
"(probe orbits)", the time of ``words.orbits(n)``, and the three orbit
identities are timed from them.  The solution certificates of
``verify`` are not registry identities and are not timed.

Usage: PYTHONPATH=src python3 tools/identity_times.py [--repeat 51] [--seed 0] [--n 20]

Prints one row per identity and one column per config: the median wall
time of a call over --repeat calls, in microseconds ("-" where the
identity does not apply), then a row with the sum of each column.  Set
OMP_NUM_THREADS=1 (and the like) for numbers comparable with the
benchmark, which pins BLAS to one thread.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from drorder.analysis import IDENTITIES, _Words, _probe_points
from drorder.harness import load_corpus

ORBITS = "(probe orbits)"


def _config_times(config, seed: int, n: int, repeat: int) -> dict[str, float]:
    """Median microseconds of each applicable identity's violations, and
    of the shared probe orbits when an orbit identity applies."""
    a, b = config.operator_a, config.operator_b
    points = _probe_points(config, seed)
    applicable = [identity for identity in IDENTITIES if identity.unmet(a, b) is None]
    times: dict[str, list[float]] = {}

    def timed(row: str, call):
        start = time.perf_counter()
        value = call()
        times.setdefault(row, []).append(time.perf_counter() - start)
        return value

    for _ in range(repeat):
        words = (_Words(a, b, points), _Words(a, b, np.roll(points, -1, axis=0)))
        orbits = None
        for identity in applicable:
            if identity.on_orbits and orbits is None:
                orbits = timed(ORBITS, lambda: words[0].orbits(n))
            table = words if identity.pairwise else words[0]
            timed(identity.name, lambda: identity.violation(table, n))
    return {row: 1e6 * statistics.median(samples) for row, samples in times.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=51, help="calls timed per cell")
    parser.add_argument("--seed", type=int, default=0, help="seed of the probe points")
    parser.add_argument("--n", type=int, default=20, help="depth of the power identities")
    args = parser.parse_args()
    if args.repeat < 1 or args.n < 0:
        parser.error("--repeat must be positive and --n nonnegative")

    columns = {inst.name: _config_times(inst.config, args.seed, args.n, args.repeat)
               for inst in load_corpus()}
    rows = [ORBITS, *(identity.name for identity in IDENTITIES)]
    width = max(map(len, rows))
    print(f"{'median us':<{width}}" + "".join(f" {name:>20}" for name in columns))
    for row in rows:
        cells = [times.get(row) for times in columns.values()]
        print(f"{row:<{width}}" + "".join(
            f" {'-' if cell is None else f'{cell:.1f}':>20}" for cell in cells))
    print(f"{'total':<{width}}" + "".join(
        f" {sum(times.values()):>20.1f}" for times in columns.values()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
