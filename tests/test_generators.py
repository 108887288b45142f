import itertools

import pytest

from rescuepd import brute_force_time_pd, build_derived_index
from rescuepd.errors import BadParams
from rescuepd.generators import (TREE_SHAPES, gen_random_instance,
                                 reduce_subset_sum)


def test_determinism():
    a = gen_random_instance(n=2, tree_shape="star", seed=123)
    b = gen_random_instance(n=2, tree_shape="star", seed=123)
    assert a.tree == b.tree and a.taxa == b.taxa and a.teams == b.teams
    assert a.target == b.target


def test_binary_edge_count():
    for seed in range(10):
        inst = gen_random_instance(n=6, seed=seed, tree_shape="random-binary")
        tree = inst.tree
        assert tree.is_binary()
        assert len(tree.weight) == 2 * 6 - 2
        leaf_edges = sum(1 for e in tree.edge_order if tree.is_leaf(e))
        assert leaf_edges == 6


def test_all_shapes_validate():
    for shape in TREE_SHAPES:
        for seed in range(125):
            inst = gen_random_instance(n=3 + seed % 6, seed=seed,
                                       tree_shape=shape)
            build_derived_index(inst)   # raises on any broken invariant


def test_bad_params():
    with pytest.raises(BadParams):
        gen_random_instance(n=1)
    with pytest.raises(BadParams):
        gen_random_instance(n=4, tree_shape="banyan")
    with pytest.raises(BadParams):
        reduce_subset_sum([], 1, 1)
    with pytest.raises(BadParams):
        reduce_subset_sum([1, 2], 3, 1)
    with pytest.raises(BadParams):
        reduce_subset_sum([1, 2], 1, 3, pad=2)


@pytest.mark.parametrize("make", [
    lambda: gen_random_instance(n=2.5),
    lambda: gen_random_instance(n_teams=None),
    lambda: gen_random_instance(max_weight="5"),
    lambda: gen_random_instance(savable_frac="a"),
    lambda: reduce_subset_sum(["a"], 1, 2),
    lambda: reduce_subset_sum([1, 2], 1.0, 2),
    lambda: reduce_subset_sum([1, 2], 1, None),
    lambda: reduce_subset_sum([1, 2], 1, 2, pad="9"),
], ids=["n", "n_teams", "max_weight", "savable_frac", "values", "k", "goal", "pad"])
def test_sizes_that_are_not_integers_are_bad_params(make):
    with pytest.raises(BadParams):
        make()


@pytest.mark.parametrize("seed", [[1], {}, object()], ids=["list", "dict", "object"])
def test_seeds_that_random_refuses_are_bad_params(seed):
    with pytest.raises(BadParams):
        gen_random_instance(seed=seed)


@pytest.mark.parametrize("seed", ["a", b"a", 7, 2.5])
def test_seeds_that_random_takes_still_work(seed):
    a, b = gen_random_instance(seed=seed), gen_random_instance(seed=seed)
    assert a.tree == b.tree and a.taxa == b.taxa and a.teams == b.teams


def test_subset_sum_structure():
    inst = reduce_subset_sum([1, 2, 3], 2, 5, 7)
    assert sorted(inst.tree.weight.values()) == [8, 9, 10]
    assert all(info.rescue_length == inst.tree.weight[x]
               for x, info in inst.taxa.items())
    assert inst.target == 5 + 2 * 7
    assert all(info.extinction_time == inst.target
               for info in inst.taxa.values())
    assert inst.teams == (__import__("rescuepd").TeamWindow(0, 19),)


def test_subset_sum_single_value():
    inst = reduce_subset_sum([4], 1, 4)
    assert brute_force_time_pd(inst).decision


def test_subset_sum_roundtrip():
    cases = [
        ([1, 2, 3], 2, 5), ([1, 2, 3], 2, 6), ([2, 4], 1, 3),
        ([5, 5, 5], 3, 15), ([1, 1, 2, 7], 2, 8), ([3, 9, 4, 6], 2, 10),
        ([2, 3, 5, 8, 13], 3, 16), ([2, 3, 5, 8, 13], 3, 17),
        ([6, 6, 6, 1], 2, 7), ([10, 20, 30, 40, 50, 60], 4, 140),
    ]
    for values, k, goal in cases:
        expected = any(sum(c) == goal
                       for c in itertools.combinations(values, k))
        got = brute_force_time_pd(reduce_subset_sum(values, k, goal)).decision
        assert got == expected, (values, k, goal)
