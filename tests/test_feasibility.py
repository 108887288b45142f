import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescuepd import (Instance, PhyloTree, Schedule, TaxonInfo, TeamWindow,
                      build_collaborative_schedule, build_derived_index,
                      collaborative_feasible, pd_of_subset,
                      schedule_team_parts, strict_feasible, verify_schedule)
from rescuepd.errors import DomainMismatch, InfeasibleSet, SetTooLarge, UnknownTaxon
from rescuepd.feasibility import strict_table
from rescuepd.generators import gen_random_instance

from conftest import split_rescue

from reference import (availability, exhaustive_schedule_search,
                       single_team_feasible, strict_feasible_by_orderings,
                       strict_feasible_by_partition,
                       strict_feasible_given_ordering, strict_table_every_bit)


def two_leaf_instance(info_a, info_b, teams, mode="collaborative"):
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    return Instance(tree, {"a": info_a, "b": info_b}, teams, 0, mode)


def test_fig1_feasibility(fig1_instance):
    idx = build_derived_index(fig1_instance)
    assert collaborative_feasible(idx, fig1_instance.tree.taxa)
    assert collaborative_feasible(idx, [])
    harder = dict(fig1_instance.taxa)
    harder["x1"] = TaxonInfo(11, 7)
    bumped = Instance(fig1_instance.tree, harder, fig1_instance.teams, 6)
    assert not collaborative_feasible(build_derived_index(bumped),
                                      bumped.tree.taxa)


def test_fig3_feasibility(fig3_instance):
    idx = build_derived_index(fig3_instance)
    assert collaborative_feasible(idx, fig3_instance.tree.taxa)


def test_build_schedule_empty_and_greedy():
    inst = two_leaf_instance(TaxonInfo(2, 2), TaxonInfo(2, 4),
                             (TeamWindow(0, 4),))
    idx = build_derived_index(inst)
    empty = build_collaborative_schedule(idx, [])
    assert empty.assignment == {}
    sched = build_collaborative_schedule(idx, ["a", "b"])
    assert sched.assignment == {(0, 1): "a", (0, 2): "a",
                                (0, 3): "b", (0, 4): "b"}
    assert verify_schedule(inst, sched).ok


def test_build_schedule_fig1(fig1_instance):
    idx = build_derived_index(fig1_instance)
    sched = build_collaborative_schedule(idx, fig1_instance.tree.taxa)
    report = verify_schedule(fig1_instance, sched)
    assert report.ok
    with pytest.raises(InfeasibleSet):
        bad = Instance(fig1_instance.tree,
                       {**fig1_instance.taxa, "x1": TaxonInfo(11, 7)},
                       fig1_instance.teams, 6)
        build_collaborative_schedule(build_derived_index(bad), bad.tree.taxa)


def test_single_team_feasible_cases():
    info = {"x": TaxonInfo(10, 10)}
    assert single_team_feasible(TeamWindow(0, 10), info, ["x"])
    assert not single_team_feasible(TeamWindow(2, 10), {"x": TaxonInfo(9, 10)},
                                    ["x"])
    info = {"a": TaxonInfo(4, 7), "b": TaxonInfo(7, 7)}
    assert not single_team_feasible(TeamWindow(0, 15), info, ["a", "b"])


def test_single_team_matches_collaborative():
    for seed in range(15):
        inst = gen_random_instance(n=5, n_teams=1, max_ex=6, max_len=4,
                                   max_weight=3, seed=seed)
        idx = build_derived_index(inst)
        team = inst.teams[0]
        for k in range(len(inst.tree.taxa) + 1):
            for subset in itertools.combinations(inst.tree.taxa, k):
                assert (single_team_feasible(team, inst.taxa, subset)
                        == collaborative_feasible(idx, subset))


def test_strict_ordering_greedy():
    tree = PhyloTree.from_edges([("r", "xa", 9), ("r", "xb", 10)])
    inst = Instance(tree, {"xa": TaxonInfo(9, 19), "xb": TaxonInfo(10, 19)},
                    (TeamWindow(0, 19),), 0, "strict")
    sched = strict_feasible_given_ordering(inst, ["xa", "xb"])
    assert sched is not None
    assert all(sched.assignment[(0, j)] == "xa" for j in range(1, 10))
    assert all(sched.assignment[(0, j)] == "xb" for j in range(10, 20))

    empty = strict_feasible_given_ordering(inst, [])
    assert empty is not None and empty.assignment == {}

    late = two_leaf_instance(TaxonInfo(3, 2), TaxonInfo(1, 5),
                             (TeamWindow(0, 5),), "strict")
    assert strict_feasible_given_ordering(late, ["a"]) is None


def test_strict_feasible_split_and_none():
    inst = two_leaf_instance(TaxonInfo(5, 5), TaxonInfo(5, 5),
                             (TeamWindow(0, 5), TeamWindow(0, 5)), "strict")
    sched = strict_feasible(inst, ["a", "b"])
    assert sched is not None
    teams_used = {sched.assignment[key] for key in sched.assignment}
    assert teams_used == {"a", "b"}
    assert verify_schedule(inst, sched).ok

    inst2 = two_leaf_instance(TaxonInfo(3, 3), TaxonInfo(3, 5),
                              (TeamWindow(0, 5),), "strict")
    assert strict_feasible(inst2, ["a", "b"]) is None
    assert strict_feasible(inst2, []) is not None

    with pytest.raises(SetTooLarge):
        strict_feasible(inst, ["a", "b"], guard=1)


def test_strict_greedy_vs_partition_oracle():
    """Open cross-check: the subset table vs direct partition search.

    Any disagreement here is a finding to investigate, not to paper over.
    """
    for seed in range(40):
        n = 6 if seed % 5 == 0 else 5
        inst = gen_random_instance(n=n, n_teams=2, max_ex=5, max_len=4,
                                   max_weight=3, seed=seed, mode="strict")
        for k in range(len(inst.tree.taxa) + 1):
            for subset in itertools.combinations(inst.tree.taxa, k):
                greedy = strict_feasible(inst, subset) is not None
                partition = strict_feasible_by_partition(inst, subset)
                assert greedy == partition, (seed, subset)


@st.composite
def strict_instances(draw):
    """1-7 taxa of length 1-4 on 1-3 teams whose windows start at 0-5;
    deadlines fall below and above the window ends."""
    teams = []
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, 5))
        teams.append(TeamWindow(start, start + draw(st.integers(1, 8))))
    horizon = max(t.end for t in teams)
    taxa = {f"x{k}": TaxonInfo(draw(st.integers(1, 4)),
                               draw(st.integers(1, horizon + 2)))
            for k in range(draw(st.integers(1, 7)))}
    tree = PhyloTree.from_edges([("r", x, 1) for x in taxa])
    return Instance(tree, taxa, tuple(teams), 0, "strict")


@settings(deadline=None, max_examples=120)
@given(strict_instances())
def test_subset_table_matches_the_ordering_greedy(inst):
    """On every subset, the subset table decides as the greedy over every
    ordering does, and each schedule it returns saves the set and verifies."""
    for k in range(len(inst.tree.taxa) + 1):
        for subset in itertools.combinations(inst.tree.taxa, k):
            sched = strict_feasible(inst, subset)
            oracle = strict_feasible_by_orderings(inst, subset)
            assert (sched is not None) == (oracle is not None), subset
            if sched is not None:
                assert sched.saved == subset and verify_schedule(inst, sched).ok


@pytest.mark.parametrize("seed", range(100))
def test_subset_table_visits_set_bits_to_the_same_table(seed):
    """The table over each state's own taxa, with each taxon's next fresh
    team found in advance, is the table that tries every taxon and walks the
    teams one by one, entry for entry."""
    inst = gen_random_instance(n=2 + seed % 8, n_teams=1 + seed % 4, max_ex=9,
                               max_len=4, mode="strict", seed=seed)
    taxa = inst.tree.taxa
    assert strict_table(inst, taxa) == strict_table_every_bit(inst, taxa)


def test_strict_implies_collaborative():
    for seed in range(20):
        inst = gen_random_instance(n=4, n_teams=2, max_ex=5, max_len=4,
                                   max_weight=3, seed=seed, mode="strict")
        idx = build_derived_index(inst)
        for k in range(len(inst.tree.taxa) + 1):
            for subset in itertools.combinations(inst.tree.taxa, k):
                if strict_feasible(inst, subset) is not None:
                    assert collaborative_feasible(idx, subset)


def test_verify_schedule_failures():
    inst = two_leaf_instance(TaxonInfo(2, 2), TaxonInfo(2, 4),
                             (TeamWindow(0, 4),))
    post = Schedule("collaborative", {(0, 3): "a", (0, 1): "a"}, ("a",))
    report = verify_schedule(inst, post)
    assert not report.ok and ("a", 0, 3) in report.post_deadline

    strict_inst = two_leaf_instance(TaxonInfo(2, 4), TaxonInfo(2, 4),
                                    (TeamWindow(0, 4), TeamWindow(0, 4)),
                                    "strict")
    shared = Schedule("strict", {(0, 1): "a", (1, 2): "a"}, ("a",))
    report = verify_schedule(strict_inst, shared)
    assert not report.ok and report.strictness == ["a"]

    gap = Schedule("strict", {(0, 1): "a", (0, 3): "a"}, ("a",))
    assert verify_schedule(strict_inst, gap).strictness == ["a"]

    short = Schedule("collaborative", {(0, 1): "a"}, ("a",))
    assert verify_schedule(inst, short).underfilled == ["a"]

    with pytest.raises(DomainMismatch):
        verify_schedule(inst, Schedule("collaborative", {(0, 9): "a"}, ()))


def test_verify_schedule_judges_in_the_instances_mode():
    strict_inst = split_rescue("strict")
    shared = Schedule("collaborative", {(0, 1): "a", (1, 1): "a"}, ("a",))
    report = verify_schedule(strict_inst, shared)
    assert not report.ok and report.mode == "strict"
    assert report.strictness == ["a"]
    collaborative_inst = split_rescue("collaborative")
    assert verify_schedule(collaborative_inst, shared).ok
    relabeled = Schedule("strict", shared.assignment, shared.saved)
    report = verify_schedule(collaborative_inst, relabeled)
    assert not report.ok and not report.strictness
    for mode in ("collaborative", "strict", "weird"):
        empty = Schedule(mode, {}, ())
        assert verify_schedule(strict_inst, empty).ok == (mode == "strict")


def test_verify_schedule_rejects_unknown_taxa():
    inst = split_rescue("collaborative")
    for sched in (Schedule("collaborative", {(0, 1): "z"}, ()),
                  Schedule("collaborative", {}, ("z",))):
        with pytest.raises(UnknownTaxon):
            verify_schedule(inst, sched)


@pytest.mark.parametrize("call, error", [
    (lambda c, s: collaborative_feasible(build_derived_index(c), ["a", "zz"]), UnknownTaxon),
    (lambda c, s: build_collaborative_schedule(build_derived_index(c), ["zz"]), UnknownTaxon),
    (lambda c, s: strict_feasible(s, ["zz"]), UnknownTaxon),
    (lambda c, s: schedule_team_parts(s, [["zz"], []]), UnknownTaxon),
    (lambda c, s: schedule_team_parts(s, [[], [], ["a"]]), DomainMismatch),
    (lambda c, s: collaborative_feasible(build_derived_index(c), None), UnknownTaxon),
    (lambda c, s: collaborative_feasible(build_derived_index(c), [["a"]]), UnknownTaxon),
    (lambda c, s: build_collaborative_schedule(build_derived_index(c), None), UnknownTaxon),
    (lambda c, s: strict_feasible(s, None), UnknownTaxon),
    (lambda c, s: pd_of_subset(c.tree, None), UnknownTaxon),
    (lambda c, s: schedule_team_parts(s, None), UnknownTaxon),
    (lambda c, s: schedule_team_parts(s, [None]), UnknownTaxon),
    (lambda c, s: verify_schedule(s, Schedule("strict", None, ())), DomainMismatch),
    (lambda c, s: verify_schedule(s, Schedule("strict", [((0, 1), "a")], ())),
     DomainMismatch),
    (lambda c, s: verify_schedule(s, Schedule("strict", {(0, 1): ["x"]}, ())), UnknownTaxon),
    (lambda c, s: verify_schedule(s, Schedule("strict", {(0, 1): "a"}, None)), UnknownTaxon),
    (lambda c, s: verify_schedule(s, Schedule("strict", {}, (["a"],))), UnknownTaxon),
], ids=["collaborative_feasible", "build_collaborative_schedule", "strict_feasible",
        "schedule_team_parts", "part without a team", "collaborative_feasible None",
        "collaborative_feasible unhashable", "build_collaborative_schedule None",
        "strict_feasible None", "pd_of_subset None", "schedule_team_parts None",
        "part None", "assignment None", "assignment list", "unhashable label",
        "saved None", "unhashable saved label"])
def test_feasibility_rejects_unknown_taxa_and_extra_parts(call, error):
    with pytest.raises(error):
        call(split_rescue("collaborative"), split_rescue("strict"))


def test_repeated_labels_are_one_taxon():
    """A taxa set names a taxon once however often it lists it: two unit
    taxa due at 1 and one (0, 1) team save {a}, listed as a, a.  Parts
    are per team, so a taxon in two of them is InfeasibleSet."""
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    taxa = {"a": TaxonInfo(1, 1), "b": TaxonInfo(1, 1)}
    inst = Instance(tree, taxa, (TeamWindow(0, 1),), 1)
    idx = build_derived_index(inst)
    assert collaborative_feasible(idx, ["a", "a"])
    assert build_collaborative_schedule(idx, ["a", "a"]) == \
        build_collaborative_schedule(idx, ["a"])
    strict = Instance(tree, taxa, inst.teams, 1, "strict")
    assert strict_feasible(strict, ["a", "a"]) == strict_feasible(strict, ["a"]) == \
        Schedule("strict", {(0, 1): "a"}, ("a",))
    two = Instance(tree, taxa, (TeamWindow(0, 1), TeamWindow(0, 1)), 1, "strict")
    assert schedule_team_parts(two, [["a", "a"], ["b"]]) == \
        Schedule("strict", {(0, 1): "a", (1, 1): "b"}, ("a", "b"))
    with pytest.raises(InfeasibleSet):
        schedule_team_parts(two, [["a"], ["a"]])


def test_schedule_team_parts():
    inst = two_leaf_instance(TaxonInfo(2, 2), TaxonInfo(3, 4),
                             (TeamWindow(0, 5), TeamWindow(0, 5)), "strict")
    sched = schedule_team_parts(inst, [["a"], ["b"]])
    assert verify_schedule(inst, sched).ok
    with pytest.raises(InfeasibleSet):
        # back-to-back after a, b would end at slot 5 > its deadline 4
        schedule_team_parts(inst, [["a", "b"], []])


def test_exhaustive_search_examples():
    inst = two_leaf_instance(TaxonInfo(3, 2), TaxonInfo(1, 1),
                             (TeamWindow(0, 2),))
    assert exhaustive_schedule_search(inst, [])
    assert not exhaustive_schedule_search(inst, ["a"])
    inst2 = two_leaf_instance(TaxonInfo(2, 2), TaxonInfo(1, 1),
                              (TeamWindow(0, 3),))
    assert exhaustive_schedule_search(inst2, ["a"])


def test_schedules_follow_the_listed_pairs():
    from reference import collaborative_schedule_from_pairs
    checked = 0
    for seed in range(40):
        inst = gen_random_instance(n=5, n_teams=1 + seed % 4, max_ex=9,
                                   max_len=3, seed=seed)
        idx = build_derived_index(inst)
        for size in range(1, 4):
            for subset in itertools.combinations(inst.tree.taxa, size):
                if not collaborative_feasible(idx, subset):
                    continue
                sched = build_collaborative_schedule(idx, subset)
                assert sched == collaborative_schedule_from_pairs(idx, subset)
                assert list(inst.pairs_by_slot()) == sorted(
                    availability(inst), key=lambda ij: (ij[1], ij[0]))
                checked += 1
    assert checked > 100


def test_malformed_pairs_are_outside_the_availability_set():
    inst = two_leaf_instance(TaxonInfo(1, 3), TaxonInfo(1, 3),
                             (TeamWindow(0, 3), TeamWindow(1, 2)))
    assert verify_schedule(inst, Schedule("collaborative", {(1, 2): "a",
                                                           (False, 1): "b"})).ok
    for key in [(0, 0), (0, 4), (1, 1), (2, 1), (-1, 2), (0, 1.0), ("0", 1),
                (0,), (0, 1, 2), "01", None, frozenset({0, 1})]:
        with pytest.raises(DomainMismatch):
            verify_schedule(inst, Schedule("collaborative", {key: "a"}, ()))
