import gc
import weakref

import pytest

from rescuepd import (Instance, PhyloTree, TaxonInfo, TeamWindow,
                      build_derived_index, pd_of_subset, savable_alone)
from rescuepd.errors import InvalidInstance, UnknownTaxon
from rescuepd.files import instance_from_dict, instance_to_dict
from rescuepd.generators import TREE_SHAPES, gen_random_instance
from rescuepd.errors import RescuePDError
from rescuepd.feasibility import (Schedule, build_collaborative_schedule,
                                  strict_feasible)
from rescuepd.model import canon
from rescuepd.outcome import checked_yes, trivial_outcome

from reference import fresh_preorder, prefix
from conftest import split_rescue

import random


def test_fig1_derived_index(fig1_instance):
    idx = build_derived_index(fig1_instance)
    assert idx.ex_values == (7, 12, 18)
    assert idx.hours == (19, 39, 54)   # the printed 55 contradicts the sums
    assert idx.team_hours == ((7, 12, 17), (5, 10, 11), (4, 9, 12), (3, 8, 14))
    assert idx.order == ("x1", "x2", "x4", "x5", "x3", "x6")
    assert [idx.class_of[x] for x in idx.order] == [0, 0, 1, 1, 2, 2]
    assert idx.deficits == (19 - 19, 34 - 39, 52 - 54)


def test_fig3_derived_index(fig3_instance):
    idx = build_derived_index(fig3_instance)
    assert idx.ex_values == (4, 7, 15)
    assert idx.hours == (10, 19, 39)   # the printed 49 contradicts the sums


def test_single_team_two_deadlines():
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    inst = Instance(tree, {"a": TaxonInfo(1, 2), "b": TaxonInfo(1, 4)},
                    (TeamWindow(0, 4),), target=1)
    idx = build_derived_index(inst)
    assert idx.ex_values == (2, 4)
    assert idx.hours == (2, 4)
    assert set(prefix(idx, 0)) < set(prefix(idx, 1))


def test_index_identities(fig1_instance):
    idx = build_derived_index(fig1_instance)
    for k in range(idx.n_classes):
        need = sum(fig1_instance.length(x) for x in prefix(idx, k))
        assert idx.deficits[k] == need - idx.hours[k]
        assert sum(t[k] for t in idx.team_hours) == idx.hours[k]
        if k:
            assert idx.hours[k] >= idx.hours[k - 1]


def test_pd_empty_full_and_path(fig2):
    tree = fig2.tree
    assert pd_of_subset(tree, []) == 0
    assert pd_of_subset(tree, tree.taxa) == tree.total_weight()
    assert pd_of_subset(tree, ["x3"]) == 3 + 2
    with pytest.raises(UnknownTaxon):
        pd_of_subset(tree, ["nope"])


def test_pd_monotone_and_submodular():
    rng = random.Random(5)
    for seed in range(20):
        inst = gen_random_instance(n=6, seed=seed,
                                   tree_shape="random-multifurcating")
        tree = inst.tree
        taxa = list(tree.taxa)
        for _ in range(10):
            a = {x for x in taxa if rng.random() < 0.4}
            b = a | {x for x in taxa if rng.random() < 0.4}
            assert pd_of_subset(tree, a) <= pd_of_subset(tree, b)
            x = rng.choice(taxa)
            if x in b:
                continue
            gain_a = pd_of_subset(tree, a | {x}) - pd_of_subset(tree, a)
            gain_b = pd_of_subset(tree, b | {x}) - pd_of_subset(tree, b)
            assert gain_a >= gain_b


def test_classify_trivial(fig1_instance):
    idx = build_derived_index(fig1_instance)
    total = idx.pd_total
    yes = Instance(fig1_instance.tree, fig1_instance.taxa,
                   fig1_instance.teams, 0)
    no = Instance(fig1_instance.tree, fig1_instance.taxa,
                  fig1_instance.teams, total + 1)
    out = trivial_outcome(build_derived_index(yes), "brute")
    assert out.decision and out.diagnostics["trivial"] == "target is zero"
    out = trivial_outcome(build_derived_index(no), "brute")
    assert not out.decision
    assert out.diagnostics["trivial"] == "target exceeds total diversity"
    assert trivial_outcome(idx, "brute") is None


@pytest.mark.parametrize("mode", ["collaborative", "strict"])
def test_unsavable_taxon_listed(mode):
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    inst = Instance(tree, {"a": TaxonInfo(10, 3), "b": TaxonInfo(1, 5)},
                    (TeamWindow(0, 20),), target=1, mode=mode)
    idx = build_derived_index(inst)
    assert not savable_alone(inst, idx, "a")
    assert savable_alone(inst, idx, "b")


def test_tree_validation_errors():
    with pytest.raises(InvalidInstance):
        PhyloTree.from_edges([("r", "a", 0), ("r", "b", 1)])
    with pytest.raises(InvalidInstance):  # out-degree 1 internal vertex
        PhyloTree.from_edges([("r", "v", 1), ("r", "b", 1), ("v", "a", 1)])
    with pytest.raises(InvalidInstance):  # two parents
        PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1), ("b", "a", 1)])
    with pytest.raises(InvalidInstance):  # two roots
        PhyloTree.from_edges([("r", "a", 1), ("s", "b", 1)])


@pytest.mark.parametrize("shape", TREE_SHAPES)
def test_preorder_is_stored_once(shape):
    tree = gen_random_instance(n=30, seed=4, tree_shape=shape).tree
    order = tree.preorder()
    assert isinstance(order, tuple) and tree.preorder() is order
    assert list(order) == fresh_preorder(tree)
    assert tree.edge_order == order[1:]
    assert tree.taxa == tuple(sorted(v for v in order if tree.is_leaf(v)))


def test_instance_validation_errors():
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    taxa = {"a": TaxonInfo(1, 1), "b": TaxonInfo(1, 1)}
    with pytest.raises(InvalidInstance):
        Instance(tree, {"a": taxa["a"]}, (TeamWindow(0, 1),), 0)
    with pytest.raises(InvalidInstance):
        Instance(tree, taxa, (), 0)
    with pytest.raises(InvalidInstance):
        Instance(tree, taxa, (TeamWindow(3, 3),), 0)
    with pytest.raises(InvalidInstance):
        Instance(tree, {"a": TaxonInfo(0, 1), "b": taxa["b"]},
                 (TeamWindow(0, 1),), 0)


def two_leaves(target=2, a=TaxonInfo(1, 2), team=TeamWindow(0, 2)):
    """Two unit leaves under one root and one team, with one field swapped."""
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    return Instance(tree, {"a": a, "b": TaxonInfo(1, 2)}, (team,), target)


@pytest.mark.parametrize("fields", [
    {"target": 2.0},
    {"target": True},
    {"a": TaxonInfo(1.0, 2)},
    {"a": TaxonInfo(1, "2")},
    {"a": TaxonInfo(1, 2.5)},
    {"a": (1, 2)},
    {"team": TeamWindow(0, 2.0)},
    {"team": TeamWindow(0.0, 2)},
    {"team": (0, 5)},
], ids=["float target", "bool target", "float length", "string deadline",
        "float deadline", "tuple taxon", "float window end", "float window start",
        "tuple team"])
def test_non_integer_fields_are_invalid(fields):
    # each once leaked a bare TypeError or AttributeError, from the
    # constructor or from a solver, or got an answer
    with pytest.raises(InvalidInstance):
        two_leaves(**fields)
    assert two_leaves().target == 2


UNIT_TAXA = {"a": TaxonInfo(1, 2), "b": TaxonInfo(1, 2)}


@pytest.mark.parametrize("build", [
    lambda: PhyloTree.from_edges([("r", "a", 1), ("r", 1, 1)]),
    lambda: PhyloTree.from_edges([("r", "a", 1, 1), ("r", "b", 1)]),
    lambda: PhyloTree.from_edges(5),
    lambda: PhyloTree.from_edges([("r", ["a"], 1), ("r", "b", 1)]),
    lambda: PhyloTree.from_edges([("r", "a", 1), (1, "b", 1)]),
    lambda: Instance(PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)]),
                     None, (TeamWindow(0, 2),), 1),
    lambda: Instance(PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)]),
                     {"a": TaxonInfo(1, 2), 1: TaxonInfo(1, 2)}, (TeamWindow(0, 2),), 1),
    lambda: Instance(None, UNIT_TAXA, (TeamWindow(0, 2),), 1),
    lambda: Instance(PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)]), UNIT_TAXA, 5, 1),
], ids=["mixed leaf labels", "4-tuple edge", "edges not iterable", "unhashable label",
        "two roots of mixed types", "taxa None", "taxa of mixed label types", "tree None",
        "teams not a sequence"])
def test_malformed_models_are_invalid_instances(build):
    # each once leaked a bare TypeError or ValueError
    with pytest.raises(InvalidInstance):
        build()


@pytest.mark.parametrize("args", [
    ("r", {"r": (["a"], "b")}, {"b": 1}),
    ("r", None, {"a": 1, "b": 1}),
    ("r", {"r": ("a", "b")}, None),
    ("r", {"r": ("a", "b")}, "ab"),
    ("r", {"r": 5}, {}),
    (["r"], {}, {}),
], ids=["unhashable child label", "children None", "weight None", "weight a string",
        "children not sequences", "unhashable root"])
def test_trees_built_directly_reject_malformed_maps(args):
    # each once leaked a bare TypeError, AttributeError or ValueError
    with pytest.raises(InvalidInstance):
        PhyloTree(*args)
    tree = PhyloTree(0, {0: (1, 2)}, {1: 2, 2: 3})
    assert tree.taxa == (1, 2) and tree.preorder() == (0, 1, 2)


def test_int_labels_still_build():
    tree = PhyloTree.from_edges([(0, 1, 2), (0, 2, 3)])
    inst = Instance(tree, {1: TaxonInfo(1, 2), 2: TaxonInfo(1, 2)}, (TeamWindow(0, 2),), 5)
    assert tree.taxa == (1, 2) and build_derived_index(inst).order == (1, 2)


def test_taxa_sets_with_unknown_labels_raise_unknown_taxon():
    # canon leaked a bare TypeError on labels that cannot be ordered, and
    # savable_alone a KeyError on a label that is not a taxon
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    inst = Instance(tree, UNIT_TAXA, (TeamWindow(0, 2),), 1)
    strict = Instance(tree, UNIT_TAXA, (TeamWindow(0, 2),), 1, "strict")
    idx = build_derived_index(inst)
    for call in (lambda: canon(["a", 1]),
                 lambda: build_collaborative_schedule(idx, ["a", 1]),
                 lambda: strict_feasible(strict, ["a", 1]),
                 lambda: savable_alone(inst, idx, "zz"),
                 lambda: savable_alone(strict, build_derived_index(strict), "zz"),
                 lambda: savable_alone(inst, idx, ["a"])):
        with pytest.raises(UnknownTaxon):
            call()
    assert canon(["b", "a"]) == ("a", "b") and savable_alone(inst, idx, "a")


def test_capacity_overflow_rejected():
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    huge = 2**63
    inst = Instance(tree, {"a": TaxonInfo(1, huge), "b": TaxonInfo(1, 1)},
                    (TeamWindow(0, huge), TeamWindow(0, huge)), target=1)
    with pytest.raises(InvalidInstance):
        build_derived_index(inst)


def test_reserialized_instance_same_index():
    for seed in range(10):
        inst = gen_random_instance(n=6, seed=seed,
                                   tree_shape="random-multifurcating")
        back = instance_from_dict(instance_to_dict(inst))
        a, b = build_derived_index(inst), build_derived_index(back)
        assert a.ex_values == b.ex_values
        assert a.hours == b.hours
        assert a.team_hours == b.team_hours
        assert a.deficits == b.deficits
        assert a.order == b.order
        assert a.pd_total == b.pd_total


def test_checked_yes_rejects_a_bad_witness():
    idx = build_derived_index(split_rescue("collaborative"))
    shared = {(0, 1): "a", (1, 1): "a"}
    out = checked_yes(idx, "x", ("a",), Schedule("collaborative", shared, ("a",)), trials=2)
    assert (out.decision, out.value, out.trials) == (True, 3, 2)
    for saved, sched in [
            (("b",), Schedule("collaborative", {}, ("b",))),              # diversity 1 < 3
            (("a",), Schedule("collaborative", {(0, 1): "a"}, ("a",))),   # a underfilled
            (("a",), Schedule("strict", shared, ("a",))),                 # other mode
            (("a", "b"), Schedule("collaborative", shared, ("a",)))]:     # b not scheduled
        with pytest.raises(RescuePDError):
            checked_yes(idx, "x", saved, sched)


def test_the_same_instance_gets_the_very_same_index(fig1_instance):
    idx = build_derived_index(fig1_instance)
    assert build_derived_index(fig1_instance) is idx


def test_an_equal_but_distinct_instance_gets_its_own_index(fig1_instance):
    twin = Instance(fig1_instance.tree, dict(fig1_instance.taxa), fig1_instance.teams,
                    fig1_instance.target, fig1_instance.mode)
    assert twin == fig1_instance and twin is not fig1_instance
    first = build_derived_index(fig1_instance)
    second = build_derived_index(twin)
    assert second is not first and second.instance is twin and second == first


def test_a_build_that_raises_is_not_kept(fig1_instance):
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    huge = 2**63
    over = Instance(tree, {"a": TaxonInfo(1, huge), "b": TaxonInfo(1, 1)},
                    (TeamWindow(0, huge), TeamWindow(0, huge)), target=1)
    kept = build_derived_index(fig1_instance)
    for _ in range(2):
        with pytest.raises(InvalidInstance):
            build_derived_index(over)
    assert build_derived_index(fig1_instance) is kept


def test_the_index_keeps_no_earlier_instance_alive():
    first = gen_random_instance(n=5, seed=1)
    ref = weakref.ref(first)
    build_derived_index(first)
    build_derived_index(gen_random_instance(n=5, seed=2))
    del first
    gc.collect()
    assert ref() is None
