"""Measure the route-time constants that ``auto`` predicts with.

    python3 tools/route_constants.py [--seed N]

``driver._ROW_TIME`` gives each admission row a predicted time: a fixed
cost in ms plus ms per work unit, times the row's work (``driver._work``).
This script draws ``INSTANCES`` seeded instances of each mode, small enough
for brute force, and times every admitted row on each through
``run_algorithm``, keeping the best of ``REPEATS`` runs.  No row counts
where the trivial screen answered, and a color coding counts only where it
ran every planned trial, as on a no.  For each (mode, algorithm) it fits
the two constants, both kept at 0 or above, by least squares on the log of
the time, and prints them as the literal of ``_ROW_TIME``.  A row whose
first run takes longer than ``SLOW_MS`` is timed once and still fitted; the
color-coding rows are drawn at small targets and losses so that no request
runs for seconds.

The fit depends on the machine; the constants in ``driver`` are what this
script printed with the default seed on a 2-vCPU machine with Python 3.11.
Another seed draws other instances, which shows how stable the fit is.  The
package is imported from the ``src`` directory of the checkout the script
is in.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from rescuepd import driver  # noqa: E402
from rescuepd.generators import gen_random_instance  # noqa: E402
from rescuepd.model import (COLLABORATIVE, STRICT, Instance,  # noqa: E402
                            build_derived_index)

SHAPES = ("star", "caterpillar", "random-binary", "random-multifurcating")
RANDOMIZED = ("fpt-d", "fpt-dbar")
INSTANCES = 300     # seeded instances per mode
REPEATS = 3         # timed runs per row, the best one kept
SLOW_MS = 50.0      # a row whose run takes longer is timed once


def draw(rng: random.Random, mode: str) -> Instance:
    """One seeded instance: half of them at a small target (the color
    coding by target), a quarter a small loss below the whole diversity
    (the color coding by loss), the rest at the default half-diversity
    target (the budget DPs)."""
    strict = mode == STRICT
    inst = gen_random_instance(
        n=rng.randint(4, 8 if strict else 12), n_teams=rng.randint(1, 3),
        max_ex=rng.randint(4, 6 if strict else 8), max_len=rng.randint(2, 4),
        max_weight=rng.randint(2, 4), tree_shape=rng.choice(SHAPES), mode=mode,
        seed=rng.randrange(2**31), savable_frac=rng.choice((0.3, 0.8, 1.0)))
    kind = rng.random()
    if kind < 0.5:
        target = rng.randint(2, 5)
    elif kind < 0.75 and not strict:
        target = max(0, inst.tree.total_weight() - rng.randint(1, 3))
    else:
        return inst
    return Instance(inst.tree, inst.taxa, inst.teams, target, mode)


def best_ms(instance: Instance, algorithm: str):
    """The best of ``REPEATS`` timed runs in ms, or None where the trivial
    screen answered, which does none of the row's work, and for a color
    coding that stopped before its last planned trial: those are priced by
    their no side, which runs every trial."""
    best = None
    for i in range(REPEATS):
        t0 = time.perf_counter()
        out = driver.run_algorithm(instance, algorithm, 1e-3, i)
        ms = (time.perf_counter() - t0) * 1e3
        if "trivial" in out.diagnostics or \
                algorithm in RANDOMIZED and (out.decision or not out.trials):
            return None
        best = ms if best is None else min(best, ms)
        if ms > SLOW_MS:
            break
    return best


def samples(seed: int):
    """(mode, algorithm) -> [(work units, best ms)] over every admitted row
    of ``INSTANCES`` seeded instances per mode."""
    points = defaultdict(list)
    for mode in (COLLABORATIVE, STRICT):
        rng = random.Random(f"route-constants/{mode}/{seed}")
        for _ in range(INSTANCES):
            inst = draw(rng, mode)
            idx = build_derived_index(inst)
            for algorithm, cost in driver._admitted(idx, 1e-3):
                ms = best_ms(inst, algorithm)
                if ms is not None:
                    points[mode, algorithm].append(
                        (driver._work(algorithm, idx, cost, 1e-3), ms))
    return points


def fit(points) -> tuple:
    """(fixed ms, ms per unit), both >= 0, minimizing the squared error of
    log(fixed + per_unit * units) against the log of the measured ms.  A
    time off by a factor counts the same above and below, so the fit
    follows the typical run; least squares on the relative error would sit
    below it, pulled down by the fastest runs.  The ratio per_unit / fixed
    is searched on a log grid; for each ratio the best fixed is closed-form."""
    units = np.array([p[0] for p in points], dtype=float)
    logs = np.log([p[1] for p in points])
    best = None
    for ratio in np.concatenate(([0.0], np.logspace(-9, 3, 1201))):
        shape = np.log1p(ratio * units)
        log_fixed = np.mean(logs - shape)
        error = np.sum((logs - log_fixed - shape) ** 2)
        if best is None or error < best[0]:
            best = (error, np.exp(log_fixed), np.exp(log_fixed) * ratio)
    return float(best[1]), float(best[2])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the drawn instances (default 1)")
    args = parser.parse_args(argv)
    points = samples(args.seed)
    print("_ROW_TIME = {")
    for mode in (COLLABORATIVE, STRICT):
        print(f"    {mode.upper()}: {{")
        for algorithm, *_ in driver.ADMISSION[mode]:
            rows = points.get((mode, algorithm), [])
            if len(rows) < 2:
                print(f"        # {algorithm!r}: {len(rows)} samples, not fitted")
                continue
            fixed, per_unit = fit(rows)
            print(f"        {algorithm!r}: ({fixed:.3g}, {per_unit:.3g}),"
                  f"  # {len(rows)} samples, units {min(r[0] for r in rows)}"
                  f"-{max(r[0] for r in rows)}")
        print("    },")
    print("}")


if __name__ == "__main__":
    main()
