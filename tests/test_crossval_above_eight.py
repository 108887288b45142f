"""Every admitted solver against brute force at n = 9-16.

The other oracle checks draw at most 8 taxa, and the benchmark's requests
have 4-7.  This tier draws 256 seeded instances of 9-16 taxa in both modes,
in every tree shape, with heavy edges, long windows and 1-3 teams, at three
kinds of target: half the diversity, a small one that admits fpt-d, and
the diversity less a small loss.  On caterpillars and random binary trees in
collaborative mode the loss is planted: one or two light leaves cannot be
saved, the teams have the hours for the rest, and the loss budget is their
weight give or take one, which admits fpt-dbar.  Each admitted solver runs
against ``brute_force`` at a guard of 16, raised above what ``auto`` admits
in strict mode.  A yes must match the oracle's and re-verify; the
randomized solvers' nos on yes-instances are counted against the
benchmark's binomial bound, not skipped.
"""

import importlib.util
import random
import sys
from collections import Counter
from pathlib import Path

from rescuepd import (Instance, TaxonInfo, TeamWindow, brute_force, pd_of_subset,
                      verify_schedule)
from rescuepd.driver import applicable_algorithms, run_algorithm
from rescuepd.generators import TREE_SHAPES, gen_random_instance

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
DELTA = 1e-3
GUARD = 16
INSTANCES = 256


def false_no_limit(chances):
    """The benchmark's bound on false nos, from perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads.false_no_limit(chances, DELTA)


def tier_instance(seed):
    """The seed fixes the mode, the shape and the kind of target; the rest
    is drawn from it."""
    rng = random.Random(seed)
    mode = ("collaborative", "strict")[seed % 2]
    shape = TREE_SHAPES[seed // 2 % len(TREE_SHAPES)]
    kind = seed // 8 % 3
    n = rng.randint(9, 16)
    if kind == 2 and mode == "collaborative" and shape in ("caterpillar", "random-binary"):
        base = gen_random_instance(n=n, n_teams=rng.randint(1, 3), max_ex=40, max_len=2,
                                   max_weight=rng.choice((3, 12)), tree_shape=shape,
                                   savable_frac=1.0, seed=seed)
        tree = base.tree
        light = [x for x in tree.taxa if tree.weight[x] <= 2]
        lost = rng.sample(light, min(len(light), rng.randint(1, 2)))
        taxa = dict(base.taxa, **{x: TaxonInfo(2, 1) for x in lost})
        loss = max(1, sum(tree.weight[x] for x in lost) + rng.randint(-1, 1))
        return Instance(tree, taxa, (TeamWindow(0, 40),) + base.teams[1:],
                        tree.total_weight() - loss)
    inst = gen_random_instance(n=n, n_teams=rng.randint(1, 3), max_ex=rng.choice((8, 40)),
                               max_len=rng.choice((3, 8)), max_weight=rng.choice((3, 12)),
                               tree_shape=shape, mode=mode, seed=seed)
    if kind == 0:
        return inst
    target = (rng.randint(2, 7 if mode == "collaborative" else 5) if kind == 1
              else inst.tree.total_weight() - rng.randint(1, 3))
    return Instance(inst.tree, inst.taxa, inst.teams, target, mode)


def test_every_admitted_solver_agrees_with_brute_force_above_eight_taxa():
    runs, yeses, chances, false_nos = Counter(), Counter(), 0, 0
    for seed in range(INSTANCES):
        inst = tier_instance(seed)
        oracle = brute_force(inst, guard=GUARD)
        if oracle.decision:
            assert verify_schedule(inst, oracle.schedule).ok, seed
            assert pd_of_subset(inst.tree, oracle.saved) >= inst.target, seed
        for algorithm in applicable_algorithms(inst, DELTA):
            out = run_algorithm(inst, algorithm, DELTA, seed)
            runs[algorithm] += 1
            yeses[algorithm] += out.decision
            randomized = algorithm in ("fpt-d", "fpt-dbar")
            if out.decision:
                assert oracle.decision, (seed, algorithm)
                assert verify_schedule(inst, out.schedule).ok, (seed, algorithm)
                assert pd_of_subset(inst.tree, out.saved) >= inst.target, (seed, algorithm)
            else:
                assert randomized or not oracle.decision, (seed, algorithm)
            if randomized and oracle.decision:
                chances += 1
                false_nos += not out.decision
    # the tier reaches every solver of both modes, fpt-dbar on yes and no
    assert set(runs) == {"star", "fpt-d", "fpt-dbar", "hours-teams", "hours-budget",
                         "xp-counts", "hours-subsets", "brute"}
    assert runs["fpt-dbar"] > yeses["fpt-dbar"] >= 5
    assert false_nos < false_no_limit(chances)
