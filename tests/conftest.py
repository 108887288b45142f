"""Shared fixtures: the worked examples used across the suite."""

import pytest

from rescuepd import Instance, PhyloTree, TaxonInfo, TeamWindow
from rescuepd.color_loss import make_loss_coloring
from rescuepd.generators import reduce_subset_sum


def color_mask(*colors):
    m = 0
    for c in colors:
        m |= 1 << (c - 1)
    return m


@pytest.fixture
def fig1_instance():
    """Four staggered teams, six taxa, two deadline groups per class."""
    tree = PhyloTree.from_edges(
        [("root", f"x{i}", 1) for i in range(1, 7)])
    taxa = {
        "x1": TaxonInfo(10, 7), "x2": TaxonInfo(9, 7),
        "x3": TaxonInfo(13, 18), "x4": TaxonInfo(8, 12),
        "x5": TaxonInfo(7, 12), "x6": TaxonInfo(5, 18),
    }
    teams = (TeamWindow(0, 17), TeamWindow(2, 13),
             TeamWindow(3, 15), TeamWindow(4, 18))
    return Instance(tree, taxa, teams, target=6)


@pytest.fixture
def fig3_instance():
    """Three teams; the first taxon must start before the first deadline."""
    tree = PhyloTree.from_edges(
        [("root", f"x{i}", 1) for i in range(1, 7)])
    taxa = {
        "x1": TaxonInfo(8, 4), "x2": TaxonInfo(4, 7), "x3": TaxonInfo(7, 7),
        "x4": TaxonInfo(8, 15), "x5": TaxonInfo(6, 15), "x6": TaxonInfo(6, 15),
    }
    teams = (TeamWindow(2, 15), TeamWindow(0, 15), TeamWindow(0, 11))
    return Instance(tree, taxa, teams, target=6)


class Fig2:
    """Loss-colored tree fixture: palette of 12 colors, loss budget 6.

    Edges are named by their child vertex: the three root edges are v1, v2,
    v3; leaf edges carry the leaf name.  v3 and x4 are the heavy edges
    (weight above the loss budget).  Weights equal the color-set sizes.
    """

    def __init__(self):
        self.loss = 6
        self.tree = PhyloTree.from_edges([
            ("v0", "v1", 3), ("v0", "v2", 3), ("v0", "v3", 7),
            ("v1", "x1", 2), ("v1", "x2", 3),
            ("v2", "x3", 2), ("v2", "x4", 7),
            ("v3", "x5", 1), ("v3", "x6", 3),
        ])
        key = {"v1": 2, "v2": 9, "v3": 12, "x1": 10, "x2": 6,
               "x3": 3, "x4": 8, "x5": 4, "x6": 5}
        extras = {"v1": color_mask(1, 7), "v2": color_mask(2, 3),
                  "x1": color_mask(9), "x2": color_mask(4, 11),
                  "x3": color_mask(7), "x5": 0, "x6": color_mask(3, 8)}
        self.coloring = make_loss_coloring(self.tree, self.loss, key, extras)
        taxa = {
            "x1": TaxonInfo(10, 15), "x2": TaxonInfo(13, 30),
            "x3": TaxonInfo(9, 25), "x4": TaxonInfo(7, 15),
            "x5": TaxonInfo(9, 25), "x6": TaxonInfo(12, 25),
        }
        # teams chosen so the per-class deficits come out as (10, 22, 35)
        teams = (TeamWindow(0, 7), TeamWindow(18, 25),
                 TeamWindow(15, 25), TeamWindow(24, 25))
        self.instance = Instance(self.tree, taxa, teams,
                                 target=self.tree.total_weight() - self.loss)
        # the worked anchored set and the variant without a valid ordering
        self.anchored = [("x1", "v1", "x2"), ("x2", "v0", "v3"),
                         ("x6", "v3", "x5")]
        self.anchored_bad = [("x1", "v0", "v3"), ("x2", "v1", "x1"),
                             ("x6", "v3", "x5")]


@pytest.fixture
def fig2():
    return Fig2()


@pytest.fixture
def prop5_instance():
    """Subset-sum star: values {1,2,3}, pick 2 summing to 5, pad 7."""
    return reduce_subset_sum([1, 2, 3], 2, 5, 7)


def split_rescue(mode, b_deadline=9):
    """(a:3,b:1); with a = (2, 1) and b = (5, 9) under teams (0, 1) and
    (0, 1), target 3: both teams must share slot 1 on a, so the answer is
    yes in collaborative mode and no in strict mode.  b cannot be saved by
    any deadline; an earlier one keeps the strict team-subset DP small."""
    tree = PhyloTree.from_edges([("r", "a", 3), ("r", "b", 1)])
    taxa = {"a": TaxonInfo(2, 1), "b": TaxonInfo(5, b_deadline)}
    return Instance(tree, taxa, (TeamWindow(0, 1), TeamWindow(0, 1)), 3, mode)
