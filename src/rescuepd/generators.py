"""Seeded instance generation.

Random instances for cross-validation sweeps (several tree shapes, tunable
savable fraction) and the subset-sum star family, a deterministic source of
hard instances whose yes/no status mirrors the underlying subset-sum
question.
"""

from __future__ import annotations

import math
import random

from .errors import BadParams
from .model import (COLLABORATIVE, Instance, PhyloTree, TaxonInfo, TeamWindow,
                    _integer)

TREE_SHAPES = ("star", "caterpillar", "random-binary", "random-multifurcating")


def _build_tree(shape: str, labels, rng: random.Random, max_weight: int,
                min_weight: int = 1) -> PhyloTree:
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"v{counter[0]}"

    def wt():
        return rng.randint(min_weight, max_weight)

    edges = []

    def split(group, parent, multi):
        if len(group) == 1:
            edges.append((parent, group[0], wt()))
            return
        n_parts = 2 if not multi else rng.randint(2, min(4, len(group)))
        if n_parts >= len(group):
            for leaf in group:
                edges.append((parent, leaf, wt()))
            return
        shuffled = list(group)
        rng.shuffle(shuffled)
        cuts = sorted(rng.sample(range(1, len(group)), n_parts - 1))
        parts = []
        prev = 0
        for cut in cuts + [len(group)]:
            parts.append(shuffled[prev:cut])
            prev = cut
        for part in parts:
            if len(part) == 1:
                edges.append((parent, part[0], wt()))
            else:
                v = fresh()
                edges.append((parent, v, wt()))
                split(part, v, multi)

    root = "root"
    if shape == "star":
        for leaf in labels:
            edges.append((root, leaf, wt()))
    elif shape == "caterpillar":
        spine = root
        rest = list(labels)
        while len(rest) > 2:
            leaf = rest.pop(0)
            nxt = fresh()
            edges.append((spine, leaf, wt()))
            edges.append((spine, nxt, wt()))
            spine = nxt
        for leaf in rest:
            edges.append((spine, leaf, wt()))
    elif shape == "random-binary":
        split(list(labels), root, multi=False)
    elif shape == "random-multifurcating":
        split(list(labels), root, multi=True)
    else:
        raise BadParams(f"unknown tree shape {shape!r}")
    return PhyloTree.from_edges(edges)


def gen_random_instance(n: int = 6, n_teams: int = 2, max_ex: int = 8,
                        max_len: int = 6, max_weight: int = 5,
                        tree_shape: str = "random-binary",
                        mode: str = COLLABORATIVE, seed: int = 0,
                        target: int = None, savable_frac: float = 0.8,
                        min_weight: int = 1) -> Instance:
    """Reproducible random instance; target defaults to half the diversity."""
    sizes = (n, n_teams, max_ex, max_len, max_weight, min_weight)
    if not all(map(_integer, sizes)) or not isinstance(savable_frac, (int, float)):
        raise BadParams("sizes must be integers and savable_frac a number, got "
                        f"{sizes} and {savable_frac!r}")
    if n < 2:
        raise BadParams("need at least two taxa")
    if min(sizes[1:]) < 1:
        raise BadParams("all size parameters must be positive")
    if min_weight > max_weight:
        raise BadParams("min_weight must not exceed max_weight")
    if tree_shape not in TREE_SHAPES:
        raise BadParams(f"tree shape must be one of {TREE_SHAPES}")
    try:
        rng = random.Random(seed)
    except TypeError:
        raise BadParams("seed must be None, an int, a float, a str or bytes, "
                        f"got {seed!r}") from None
    labels = [f"x{i}" for i in range(1, n + 1)]
    tree = _build_tree(tree_shape, labels, rng, max_weight, min_weight)
    taxa = {}
    for x in labels:
        length = rng.randint(1, max_len)
        if rng.random() < savable_frac:
            ex = rng.randint(length, max(length, max_ex))
        else:
            ex = rng.randint(1, max_ex)
        taxa[x] = TaxonInfo(length, ex)
    teams = []
    horizon = max(max_ex, 2)
    for _ in range(n_teams):
        start = rng.randint(0, horizon - 1)
        end = rng.randint(start + 1, horizon)
        teams.append(TeamWindow(start, end))
    if target is None:
        target = math.ceil(tree.total_weight() / 2)
    return Instance(tree, taxa, tuple(teams), target, mode)


def reduce_subset_sum(values, k: int, goal: int, pad: int = None) -> Instance:
    """Star instance encoding: pick k values summing to the goal.

    Each value z becomes a taxon with edge weight and rescue length z + pad;
    one team and every deadline equal the target, so a set meets the target
    exactly when it has k members whose values sum to the goal.  ``pad``
    defaults to one more than the sum of all values.
    """
    values = list(values)
    if not all(map(_integer, (*values, k, goal, 0 if pad is None else pad))):
        raise BadParams("values, k, goal and pad must be integers, got "
                        f"{values}, {k!r}, {goal!r} and {pad!r}")
    if not values or any(z < 1 for z in values):
        raise BadParams("values must be positive integers")
    if k < 1 or k > len(values):
        raise BadParams(f"k must be in [1, {len(values)}]")
    if goal < 0:
        raise BadParams("goal must be nonnegative")
    if pad is None:
        pad = sum(values) + 1
    elif pad <= sum(values):
        raise BadParams("pad must exceed the sum of all values")
    horizon = goal + k * pad
    edges = [("root", f"x{i}", z + pad) for i, z in enumerate(values, start=1)]
    tree = PhyloTree.from_edges(edges)
    taxa = {f"x{i}": TaxonInfo(z + pad, horizon)
            for i, z in enumerate(values, start=1)}
    return Instance(tree, taxa, (TeamWindow(0, horizon),), horizon, COLLABORATIVE)
