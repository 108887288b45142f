"""pd_of_subset, the union of the members' root paths, against the
bottom-up whole-tree walk of tests/reference.py."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescuepd import PhyloTree, pd_of_subset
from rescuepd.errors import UnknownTaxon
from rescuepd.generators import TREE_SHAPES, gen_random_instance

from reference import pd_bottom_up


@settings(deadline=None, max_examples=150)
@given(st.data(), st.sampled_from(TREE_SHAPES), st.integers(2, 80),
       st.integers(0, 10**6))
def test_pd_equals_the_bottom_up_walk(data, shape, n, seed):
    tree = gen_random_instance(n=n, seed=seed, tree_shape=shape, max_weight=9).tree
    members = data.draw(st.lists(st.sampled_from(tree.taxa), max_size=2 * n))
    assert pd_of_subset(tree, members) == pd_bottom_up(tree, members)
    assert pd_of_subset(tree, iter(members)) == pd_bottom_up(tree, members)
    internal = [v for v in tree.preorder() if tree.children.get(v)]
    assert tree.root in internal
    for bad in (data.draw(st.sampled_from(internal)), "no such taxon", 7, None):
        for call in (pd_of_subset, pd_bottom_up):
            with pytest.raises(UnknownTaxon):
                call(tree, [*members, bad])
    for unhashable in (["a"], [tree.taxa[0]], {}):
        with pytest.raises(UnknownTaxon):
            pd_of_subset(tree, [*members, unhashable])


def test_pd_of_a_single_vertex_tree():
    tree = PhyloTree("x", {}, {})
    assert tree.taxa == ("x",)
    for call in (pd_of_subset, pd_bottom_up):
        assert call(tree, ["x"]) == call(tree, ["x", "x"]) == call(tree, []) == 0
        with pytest.raises(UnknownTaxon):
            call(tree, ["y"])


def test_pd_of_a_long_caterpillar_path():
    tree = gen_random_instance(n=400, seed=3, tree_shape="caterpillar").tree
    deepest = max(tree.taxa, key=lambda x: len(tree.root_path(x)))
    assert len(tree.root_path(deepest)) >= 399
    assert pd_of_subset(tree, [deepest]) == \
        sum(tree.weight[e] for e in tree.root_path(deepest)) == \
        pd_bottom_up(tree, [deepest])
    assert pd_of_subset(tree, tree.taxa) == tree.total_weight()
