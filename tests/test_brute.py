import itertools
import time
import tracemalloc

import pytest

from rescuepd import (Instance, PhyloTree, TaxonInfo, TeamWindow, brute,
                      brute_force, brute_force_s_time_pd, brute_force_time_pd,
                      build_derived_index, collaborative_feasible,
                      pd_of_subset, strict_feasible, verify_schedule)
from rescuepd.errors import InstanceTooLarge, InvalidInstance
from rescuepd.files import schedule_to_dict
from rescuepd.generators import TREE_SHAPES, gen_random_instance
from rescuepd.model import MAX_HOURS

from reference import (SearchSpaceTooLarge, brute_force_by_combinations,
                       exhaustive_schedule_search)


def test_star_example():
    tree = PhyloTree.from_edges([("r", "x1", 2), ("r", "x2", 3)])
    inst = Instance(tree, {"x1": TaxonInfo(2, 2), "x2": TaxonInfo(2, 4)},
                    (TeamWindow(0, 4),), target=5)
    out = brute_force_time_pd(inst)
    assert out.decision and out.saved == ("x1", "x2") and out.value == 5


def test_target_zero_yes():
    inst = gen_random_instance(n=4, seed=3, target=0)
    out = brute_force_time_pd(inst)
    assert out.decision
    # the empty set already suffices, and it is the preferred witness
    assert out.saved == () or out.value >= 0


def test_prop5_reduction(prop5_instance):
    out = brute_force_time_pd(prop5_instance)
    assert out.decision and out.value == 19
    assert out.saved == ("x2", "x3")


def test_one_team_strict_equals_collaborative():
    for seed in range(10):
        inst = gen_random_instance(n=5, n_teams=1, max_ex=6, max_len=4,
                                   max_weight=3, seed=seed)
        a = brute_force_time_pd(inst)
        b = brute_force_s_time_pd(inst)
        assert a.decision == b.decision and a.value == b.value


def test_three_team_partition_example():
    tree = PhyloTree.from_edges([("r", f"x{i}", 1) for i in range(1, 7)])
    lens = [2, 3, 5, 2, 3, 5]
    taxa = {f"x{i}": TaxonInfo(lens[i - 1], 5) for i in range(1, 7)}
    inst = Instance(tree, taxa, (TeamWindow(0, 5),) * 3, target=6, mode="strict")
    out = brute_force_s_time_pd(inst)
    partitionable = any(
        all(sum(l for l, t in zip(lens, choice) if t == team) <= 5
            for team in range(3))
        for choice in itertools.product(range(3), repeat=6))
    assert out.decision == partitionable
    assert not out.decision and out.value == 5   # 20 hours needed, 15 available


def test_strict_never_beats_collaborative():
    for seed in range(15):
        inst = gen_random_instance(n=5, n_teams=2, max_ex=5, max_len=4,
                                   max_weight=3, seed=seed)
        assert (brute_force_time_pd(inst).value
                >= brute_force_s_time_pd(inst).value)


def test_relabeling_invariance():
    for seed in range(8):
        inst = gen_random_instance(n=5, n_teams=2, max_ex=5, max_len=4,
                                   max_weight=3, seed=seed)
        mapping = {x: f"z{9 - i}" for i, x in enumerate(inst.tree.taxa)}
        edges = []
        for v in inst.tree.preorder():
            for c in inst.tree.children.get(v, ()):
                edges.append((mapping.get(v, v), mapping.get(c, c),
                              inst.tree.weight[c]))
        relabeled = Instance(PhyloTree.from_edges(edges),
                             {mapping[x]: info for x, info in inst.taxa.items()},
                             inst.teams, inst.target, inst.mode)
        a, b = brute_force_time_pd(inst), brute_force_time_pd(relabeled)
        assert a.decision == b.decision and a.value == b.value
        c, d = brute_force_s_time_pd(inst), brute_force_s_time_pd(relabeled)
        assert c.decision == d.decision and c.value == d.value


def test_exhaustive_agrees_with_feasibility_oracles():
    for seed in range(10):
        inst = gen_random_instance(n=4, n_teams=2, max_ex=4, max_len=3,
                                   max_weight=2, seed=seed)
        idx = build_derived_index(inst)
        strict_inst = Instance(inst.tree, inst.taxa, inst.teams, inst.target,
                               "strict")
        for k in range(len(inst.tree.taxa) + 1):
            for subset in itertools.combinations(inst.tree.taxa, k):
                assert (exhaustive_schedule_search(inst, subset)
                        == collaborative_feasible(idx, subset))
                assert (exhaustive_schedule_search(strict_inst, subset)
                        == (strict_feasible(strict_inst, subset) is not None))


def test_guards():
    inst = gen_random_instance(n=6, seed=0)
    with pytest.raises(InstanceTooLarge):
        brute_force_time_pd(inst, guard=5)
    with pytest.raises(InstanceTooLarge):
        brute_force_s_time_pd(inst, guard=5)
    big = gen_random_instance(n=8, n_teams=3, max_ex=9, seed=1)
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_schedule_search(big, big.tree.taxa, guard=10)


@pytest.mark.parametrize("mode", ["collaborative", "strict"])
def test_mode_dispatch_honours_a_zero_guard(mode):
    """guard=0 admits no taxon, as each mode's oracle does; only None picks
    the mode's default guard."""
    inst = gen_random_instance(n=4, seed=0, mode=mode)
    with pytest.raises(InstanceTooLarge):
        brute_force(inst, guard=0)
    assert brute_force(inst, guard=None) == brute_force(inst, guard=4)


def assert_witness(inst, out):
    """A yes ships a verified schedule; a no ships none, and its best set is
    still feasible."""
    if out.decision:
        assert verify_schedule(inst, out.schedule).ok
    elif inst.mode == "strict":
        assert out.schedule is None
        assert strict_feasible(inst, out.saved) is not None
    else:
        assert out.schedule is None
        assert collaborative_feasible(build_derived_index(inst), out.saved)


def test_witnesses_verify():
    for seed in range(10):
        inst = gen_random_instance(n=5, n_teams=2, max_ex=5, max_len=4,
                                   max_weight=3, seed=seed)
        assert_witness(inst, brute_force(inst))
        strict_inst = Instance(inst.tree, inst.taxa, inst.teams,
                               inst.target, "strict")
        assert_witness(strict_inst, brute_force(strict_inst))


@pytest.mark.parametrize("mode", ["collaborative", "strict"])
def test_no_answer_builds_no_schedule(mode):
    # 3 hours save a (diversity 2) but not b as well; target 3 is a no
    tree = PhyloTree.from_edges([("r", "a", 2), ("r", "b", 1)])
    inst = Instance(tree, {"a": TaxonInfo(3, 3), "b": TaxonInfo(1, 3)},
                    (TeamWindow(0, 3),), target=3, mode=mode)
    out = brute_force(inst)
    assert not out.decision and out.value == 2 and out.saved == ("a",)
    assert out.schedule is None
    assert_witness(inst, out)


def test_no_answer_near_the_hours_bound_stays_small():
    """The best set {b, d} needs 2^62 + 2 hours; a no must not list them."""
    star = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 2), ("r", "c", 2),
                                 ("r", "d", 2)])
    early = 3 * 2**61
    taxa = {"a": TaxonInfo(MAX_HOURS, MAX_HOURS),
            "b": TaxonInfo(2**62 + 1, MAX_HOURS),
            "c": TaxonInfo(early, early), "d": TaxonInfo(1, early)}
    inst = Instance(star, taxa, (TeamWindow(0, MAX_HOURS),), target=6)
    tracemalloc.start()
    try:
        out = brute_force(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not out.decision and out.value == 4 and out.saved == ("b", "d")
    assert out.schedule is None
    assert peak < 2**20


def timed_brute(inst):
    start = time.perf_counter()
    out = brute_force(inst)
    return out, time.perf_counter() - start


def test_strict_no_with_many_teams_answers_fast():
    """Eight taxa of length 2 and five teams that fit one each: the strict
    table has 2^8 states, where the subsets have 109,601 orderings in all."""
    tree = PhyloTree.from_edges([("r", f"x{k}", 1) for k in range(8)])
    taxa = {f"x{k}": TaxonInfo(2, 30) for k in range(8)}
    inst = Instance(tree, taxa, (TeamWindow(0, 3),) * 5, 8, "strict")
    out, seconds = timed_brute(inst)
    assert not out.decision and out.value == 5 and out.schedule is None
    assert seconds < 0.25


@pytest.mark.parametrize("scale", [10**4, 10**6])
def test_strict_no_time_does_not_grow_with_the_hours(scale):
    """Six taxa of lengths L to 3L need 12L hours of two teams' 8L; deciding
    subsets writes no timeslot, so L does not enter the time."""
    lengths = [scale + 2 * scale * k // 5 for k in range(6)]
    tree = PhyloTree.from_edges([("r", f"x{k}", 1) for k in range(6)])
    taxa = {f"x{k}": TaxonInfo(ell, 4 * scale) for k, ell in enumerate(lengths)}
    inst = Instance(tree, taxa, (TeamWindow(0, 4 * scale),) * 2, 6, "strict")
    out, seconds = timed_brute(inst)
    assert not out.decision and out.value == 4 and out.schedule is None
    assert seconds < 0.25


def one_taxon_instance(seed, mode):
    """gen_random_instance draws two taxa or more; one taxon on one edge."""
    length = 1 + seed % 4
    tree = PhyloTree.from_edges([("r", "x1", 1 + seed % 3)])
    return Instance(tree, {"x1": TaxonInfo(length, 1 + seed % 6)},
                    (TeamWindow(seed % 2, 2 + seed % 5),), target=seed % 4,
                    mode=mode)


def assert_same_outcome(got, want):
    """Decision, value, saved set and schedule, field for field."""
    assert (got.decision, got.value, got.saved) == (want.decision, want.value, want.saved)
    assert (got.schedule is None) == (want.schedule is None)
    if want.schedule is not None:
        assert schedule_to_dict(got.schedule, got.value) == \
            schedule_to_dict(want.schedule, want.value)


@pytest.mark.parametrize("mode", ["collaborative", "strict"])
@pytest.mark.parametrize("shape", TREE_SHAPES)
def test_the_block_search_equals_the_combinations_oracle(mode, shape):
    """Forty seeded instances of 1-10 taxa per (mode, shape), 320 in all,
    with the same decision, value, saved set and schedule as the loop over
    itertools.combinations."""
    for seed in range(40):
        n = 1 + seed % 10
        inst = (one_taxon_instance(seed, mode) if n == 1 else
                gen_random_instance(n=n, n_teams=1 + seed % 3, max_ex=8,
                                    max_len=4, tree_shape=shape, mode=mode,
                                    seed=seed))
        assert_same_outcome(brute_force(inst, guard=10), brute_force_by_combinations(inst))


@pytest.mark.parametrize("mode", ["collaborative", "strict"])
def test_unit_star_ties_break_by_length_then_labels(mode, monkeypatch):
    """On unit-weight stars many sets share the best diversity, so the total
    length and then the label order decide; blocks of 8 subsets make the
    best set of one block compete with those of the others."""
    monkeypatch.setattr(brute, "BLOCK_SUBSETS", 8)
    for seed in range(60):
        inst = gen_random_instance(n=3 + seed % 7, n_teams=1 + seed % 2,
                                   max_ex=6, max_len=2, max_weight=1,
                                   tree_shape="star", mode=mode, seed=seed)
        assert_same_outcome(brute_force(inst, guard=10), brute_force_by_combinations(inst))


@pytest.mark.parametrize("mode", ["collaborative", "strict"])
def test_weights_and_lengths_past_64_bits(mode):
    """Edge weights from 2^63 up and lengths above MAX_HOURS: sums beyond
    int64 are taken exactly, so the value is the set's diversity and the
    outcome the oracle's."""
    for seed in range(12):
        small = gen_random_instance(n=3 + seed % 5, max_ex=8, max_len=4,
                                    mode=mode, seed=seed)
        tree = small.tree
        heavy = PhyloTree(tree.root, tree.children,
                          {e: w * 2**63 + seed for e, w in tree.weight.items()})
        taxa = dict(small.taxa)
        taxa[tree.taxa[0]] = TaxonInfo(MAX_HOURS + 1 + seed, MAX_HOURS)
        inst = Instance(heavy, taxa, small.teams, heavy.total_weight() // 3, mode)
        out = brute_force(inst)
        assert out.value == pd_of_subset(heavy, out.saved)
        assert tree.taxa[0] not in out.saved
        assert_same_outcome(out, brute_force_by_combinations(inst))


def test_twenty_taxa_in_bounded_memory_and_time():
    """2^20 subsets go through 256 blocks of 2^12: the peak stays within a
    few MiB and the search within a fraction of the per-subset loop's 4 s."""
    inst = gen_random_instance(n=20, n_teams=3, max_ex=16, seed=1)
    tracemalloc.start()
    try:
        out, seconds = timed_brute(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.decision and out.value == 99
    assert verify_schedule(inst, out.schedule).ok
    assert peak < 16 * 2**20
    assert seconds < 2.0


def test_strict_brute_answers_past_max_hours():
    """Strict brute force reads no derived index, so total team hours past
    MAX_HOURS, which build_derived_index rejects, get the strict table's
    answer: at every target, the preferred set among those that
    strict_feasible places."""
    tree = PhyloTree.from_edges([("r", "u", 2), ("r", "c", 5), ("u", "a", 3),
                                 ("u", "v", 1), ("v", "b", 4), ("v", "d", 1)])
    taxa = {"a": TaxonInfo(2, 3), "b": TaxonInfo(2, 2),
            "c": TaxonInfo(3, MAX_HOURS), "d": TaxonInfo(1, 4)}
    teams = (TeamWindow(0, 3), TeamWindow(2, MAX_HOURS))    # MAX_HOURS + 1 hours
    base = Instance(tree, taxa, teams, 1, "strict")
    with pytest.raises(InvalidInstance):
        build_derived_index(base)
    placed = [s for r in range(len(taxa) + 1) for s in itertools.combinations(tree.taxa, r)
              if strict_feasible(base, s, guard=None) is not None]
    assert 1 < len(placed) < 2 ** len(taxa)     # "a" and "b" both need team 0
    best = min(placed, key=lambda s: (-pd_of_subset(tree, s),
                                      sum(taxa[x].rescue_length for x in s), s))
    value = pd_of_subset(tree, best)
    for target in range(1, tree.total_weight() + 2):
        inst = Instance(tree, taxa, teams, target, "strict")
        out = brute_force_s_time_pd(inst)
        assert (out.decision, out.value, out.saved) == (value >= target, value, best)
        assert out.decision == (out.schedule is not None)
        if out.decision:
            assert verify_schedule(inst, out.schedule).ok
