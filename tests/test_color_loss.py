import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescuepd import (Instance, LossColoring, PhyloTree, TaxonInfo, TeamWindow,
                      brute_force_time_pd, build_derived_index,
                      collaborative_feasible, loss_dp_solve,
                      loss_table_entry_count, make_loss_coloring,
                      pd_of_subset, solve_time_pd_by_loss,
                      solve_time_pd_by_target, trial_count, verify_schedule)
from rescuepd.color_loss import TABLE_GUARD, _LossBatch
from rescuepd.color_target import trial_draws
from rescuepd.driver import (LOSS_WORK_CAP, applicable_algorithms, run_algorithm,
                             solve_auto)
from rescuepd.errors import BadParams, LossTooLarge, NonBinaryTree
from rescuepd.generators import gen_random_instance
from rescuepd.model import MAX_HOURS
from rescuepd.newick import parse_newick

from conftest import color_mask
from lemmas import (anchored_set_for_sacrifice, check_color_respectful,
                    find_valid_ordering, injective_coloring, is_good,
                    is_q_grounding, path_between)
from reference import (_LossDP, candidate_tuples, loss_coloring_from_draws,
                       loss_draw_width, offspring, prefix,
                       reference_loss_dp_solve, solve_by_loss_trial_by_trial)


def deadline_of(instance):
    return lambda x: instance.deadline(x)


@pytest.mark.parametrize("loss", [-1, 1.5, "2", None])
def test_bad_loss_sizes_are_bad_params(loss):
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    inst = Instance(tree, {"a": TaxonInfo(1, 2), "b": TaxonInfo(1, 2)},
                    (TeamWindow(0, 1),), target=1)
    coloring = make_loss_coloring(tree, 1, {e: 1 for e in tree.edge_order}, {})
    with pytest.raises(BadParams):
        loss_dp_solve(inst, coloring, loss)


@pytest.mark.parametrize("loss", [-1, 1.5, "2", None, True])
def test_a_coloring_refuses_bad_losses(loss):
    """make_loss_coloring checks the loss before it reads any color: "2"
    would compare an int with a str, and -1 would size a palette of -2."""
    tree = parse_newick("((a:1,b:1)u:1,c:2)r;")
    with pytest.raises(BadParams):
        make_loss_coloring(tree, loss, {e: 1 for e in tree.edge_order}, {})


@pytest.mark.parametrize("keys, extras", [(None, {}), ("key", {}), ({}, None), ({}, [])])
def test_color_maps_that_are_not_mappings_are_bad_params(keys, extras):
    """Key colors or extra color masks that are not mappings of edges are
    BadParams: from make_loss_coloring, and from loss_dp_solve for a
    coloring built directly."""
    tree = parse_newick("((a:1,b:1)u:1,c:2)r;")
    inst = Instance(tree, {x: TaxonInfo(1, 2) for x in tree.taxa},
                    (TeamWindow(0, 2),), tree.total_weight() - 2)
    if keys == {}:
        keys = {e: 1 for e in tree.edge_order}
    with pytest.raises(BadParams):
        make_loss_coloring(tree, 2, keys, extras)
    with pytest.raises(BadParams):
        loss_dp_solve(inst, LossColoring(4, keys, extras, frozenset()), 2)


def test_fig2_eligibility_and_pd(fig2):
    assert sorted(fig2.coloring.eligible) == \
        ["v1", "v2", "x1", "x2", "x3", "x5", "x6"]
    assert pd_of_subset(fig2.tree, ["x3"]) == 5


def test_fig2_good_tuples(fig2):
    col, tree = fig2.coloring, fig2.tree
    # c(e4) = {9, 10} inside C1, key color 6 of e5 inside C2
    assert is_good(tree, col, ("x1", "v1", "x2"), color_mask(9, 10),
                   color_mask(6))
    # any path through the heavy edge under v2 is out
    full = (1 << 12) - 1
    assert not is_good(tree, col, ("x4", "v0", "v1"), full, full)
    assert not is_good(tree, col, ("x4", "v2", "x3"), full, full)
    # empty sibling-color set can never be good
    assert not is_good(tree, col, ("x1", "v1", "x2"), color_mask(9, 10), 0)


def test_fig2_candidate_tuples_first_class(fig2):
    idx = build_derived_index(fig2.instance)
    got = {(x, v, e) for x, v, e, _ in
           candidate_tuples(fig2.tree, fig2.coloring, idx, 0)}
    # key color 9 of the second root edge collides with c(e4)
    assert got == {("x1", "v1", "x2"), ("x1", "v0", "v3")}


def test_fig2_grounding(fig2):
    idx = build_derived_index(fig2.instance)
    col = fig2.coloring
    assert is_q_grounding(0, color_mask(1, 2, 3), 0, col, idx)
    assert is_q_grounding(color_mask(4, 5), 0, 0, col, idx)
    assert is_q_grounding(color_mask(6, 7, 8, 9, 10, 11),
                          color_mask(1, 2, 3, 4, 5, 12), 0, col, idx)
    assert not is_q_grounding(color_mask(9, 10), color_mask(6), 0, col, idx)


def test_fig2_color_respectful(fig2):
    idx = build_derived_index(fig2.instance)
    col, tree = fig2.coloring, fig2.tree
    assert check_color_respectful(fig2.anchored, col, idx)
    plus = set()
    for x, v, e in fig2.anchored:
        plus.update(path_between(tree, v, x))
    mask = col.path_mask(plus)
    assert mask == color_mask(*range(1, 12))            # c(E+) = [11]
    keys = sorted(col.key_color[e] for _, _, e in fig2.anchored)
    assert keys == [4, 6, 12]                           # sibling key colors
    assert find_valid_ordering(tree, col, fig2.anchored_bad,
                               deadline_of(fig2.instance)) is None
    assert not check_color_respectful(fig2.anchored_bad, col, idx)
    assert check_color_respectful([], col, idx)


def test_fig2_deficit_thresholds(fig2):
    idx = build_derived_index(fig2.instance)
    assert idx.deficits == (10, 22, 35)
    sacrifice = [x for x, _, _ in fig2.anchored]
    per_class = [sum(fig2.instance.length(x) for x in sacrifice
                     if x in prefix(idx, k)) for k in range(3)]
    assert per_class == [10, 22, 35]
    # the sacrifice meets every deficit, so the rest can be saved in time
    saved = set(fig2.tree.taxa) - set(sacrifice)
    assert collaborative_feasible(idx, saved)


def test_loss_base_case_saves_everything():
    tree = PhyloTree.from_edges([("r", "v", 2), ("v", "a", 1), ("v", "b", 3),
                                 ("r", "c", 2)])
    inst = Instance(tree, {"a": TaxonInfo(1, 3), "b": TaxonInfo(1, 3),
                           "c": TaxonInfo(1, 3)},
                    (TeamWindow(0, 3),), target=tree.total_weight() - 1)
    out = solve_time_pd_by_loss(inst, delta=0.01, seed=0)
    assert out.decision and out.saved == ("a", "b", "c")


def test_loss_zero_budget_direct():
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    ok = Instance(tree, {"a": TaxonInfo(1, 2), "b": TaxonInfo(1, 2)},
                  (TeamWindow(0, 2),), target=2)
    out = solve_time_pd_by_loss(ok, seed=1)
    assert out.decision and out.trials == 0 and out.saved == ("a", "b")
    bad = Instance(tree, {"a": TaxonInfo(2, 2), "b": TaxonInfo(2, 2)},
                   (TeamWindow(0, 2),), target=2)
    out = solve_time_pd_by_loss(bad, seed=1)
    assert not out.decision and out.trials == 0


def test_loss_solver_against_oracle():
    for seed in range(8):
        base = gen_random_instance(n=5, n_teams=2, max_ex=6, max_len=4,
                                   max_weight=3, seed=seed,
                                   tree_shape="random-binary")
        idx = build_derived_index(base)
        for loss in (0, 1, 2, 3):
            target = idx.pd_total - loss
            inst = Instance(base.tree, base.taxa, base.teams, target)
            oracle = brute_force_time_pd(inst)
            out = solve_time_pd_by_loss(inst, delta=0.02, seed=seed)
            if oracle.decision:
                assert out.decision, (seed, loss)
                assert pd_of_subset(inst.tree, out.saved) >= target
                assert verify_schedule(inst, out.schedule).ok
            else:
                assert not out.decision, (seed, loss)


def outcome_fields(out):
    return (out.decision, out.algorithm, out.saved, out.value, out.trials,
            out.seed, out.diagnostics, out.schedule and out.schedule.assignment)


def test_block_draws_match_the_trial_by_trial_loop():
    # yes-instances at loss 2 whose first success falls in several blocks,
    # and no-instances at losses 1 and 2 that run every planned trial
    late = []
    for seed in (51, 61, 68, 110):
        base = gen_random_instance(n=6, n_teams=2, max_ex=6, max_len=2,
                                   max_weight=3, seed=seed, savable_frac=1.0)
        inst = Instance(base.tree, base.taxa, base.teams, base.tree.total_weight() - 2)
        for solver_seed in range(8):
            out = solve_time_pd_by_loss(inst, 1e-3, solver_seed)
            assert out.decision
            assert outcome_fields(out) == outcome_fields(
                solve_by_loss_trial_by_trial(inst, 1e-3, solver_seed))
            late.append(out.trials > 5)
    assert sum(late) >= 8
    for seed, loss in ((0, 1), (1, 2), (3, 2)):
        base = gen_random_instance(n=6, max_ex=8, max_len=3, max_weight=3, seed=seed)
        inst = Instance(base.tree, base.taxa, base.teams, base.tree.total_weight() - loss)
        out = solve_time_pd_by_loss(inst, 1e-3, seed)
        assert not out.decision and out.trials == trial_count(2 * loss, 1e-3)
        assert outcome_fields(out) == outcome_fields(
            solve_by_loss_trial_by_trial(inst, 1e-3, seed))


@pytest.mark.parametrize("target", [0, 4])
def test_trivial_outcome_carries_the_seed(target):
    # target 0 is a trivial yes, 4 exceeds the tree's diversity 3
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 2)])
    inst = Instance(tree, {"a": TaxonInfo(1, 2), "b": TaxonInfo(1, 2)},
                    (TeamWindow(0, 2),), target=target)
    by_loss = solve_time_pd_by_loss(inst, 1e-3, 7)
    assert by_loss.diagnostics["trivial"]
    assert by_loss.seed == solve_time_pd_by_target(inst, 1e-3, 7).seed == 7


def test_loss_requires_binary_tree():
    inst = gen_random_instance(n=5, seed=1, tree_shape="star")
    idx = build_derived_index(inst)
    nontrivial = Instance(inst.tree, inst.taxa, inst.teams, idx.pd_total - 1)
    with pytest.raises(NonBinaryTree):
        solve_time_pd_by_loss(nontrivial)


def test_loss_mask_guard():
    inst = gen_random_instance(n=5, seed=1, tree_shape="random-binary",
                               max_weight=5)
    idx = build_derived_index(inst)
    small_target = Instance(inst.tree, inst.taxa, inst.teams,
                            max(1, idx.pd_total - 20))
    with pytest.raises(LossTooLarge):
        solve_time_pd_by_loss(small_target)


def test_table_entry_count_formula():
    # sum over |C1| <= loss of C(2*loss, |C1|) * 2^(2*loss-|C1|) per class
    assert loss_table_entry_count(1, 1) == 4 + 2 * 2
    assert loss_table_entry_count(2, 3) == \
        3 * sum([16, 4 * 8, 6 * 4])


@pytest.mark.parametrize("loss, n_classes", [(-1, 2), ("a", 2), (1.5, 2), (2, -1), (2, "a")])
def test_table_entry_count_rejects_bad_sizes(loss, n_classes):
    # a negative loss once counted 0 entries, and "a" leaked a TypeError
    with pytest.raises(BadParams):
        loss_table_entry_count(loss, n_classes)


def test_dp_entry_count_matches_formula():
    base = gen_random_instance(n=4, n_teams=2, max_ex=4, max_len=3,
                               max_weight=3, seed=5,
                               tree_shape="random-binary")
    idx = build_derived_index(base)
    for loss in (2, 3):
        inst = Instance(base.tree, base.taxa, base.teams, idx.pd_total - loss)
        col = injective_coloring(inst.tree)
        col = make_loss_coloring(inst.tree, loss,
                                 {e: 1 + i % (2 * loss)
                                  for i, e in enumerate(inst.tree.edge_order)},
                                 {e: 0 for e in inst.tree.edge_order})
        found, anchored, entries = loss_dp_solve(inst, col, loss)
        assert entries == loss_table_entry_count(loss, idx.n_classes)


def test_table_order_invariance():
    """Any enumeration respecting |C1| produces the identical table."""
    from rescuepd.color_loss import _masks_of_popcount

    class ReversedOrder(_LossDP):
        def run(self):
            for pc in range(self.loss + 1):
                for c1 in reversed(list(_masks_of_popcount(self.bits, pc))):
                    self._fill_c1(c1)

    base = gen_random_instance(n=5, n_teams=2, max_ex=5, max_len=4,
                               max_weight=3, seed=9,
                               tree_shape="random-binary")
    idx = build_derived_index(base)
    loss = 3
    inst = Instance(base.tree, base.taxa, base.teams, idx.pd_total - loss)
    idx2 = build_derived_index(inst)
    key = {e: 1 + (i * 3) % (2 * loss)
           for i, e in enumerate(inst.tree.edge_order)}
    extras = {e: (1 << (i % (2 * loss))) if inst.tree.weight[e] == 2 else 0
              for i, e in enumerate(inst.tree.edge_order)}
    col = make_loss_coloring(inst.tree, loss, key, extras)
    forward = _LossDP(idx2, col, loss)
    forward.run()
    backward = ReversedOrder(idx2, col, loss)
    backward.run()
    assert forward.table == backward.table


def test_witness_construction_properties():
    for seed in range(12):
        inst = gen_random_instance(n=5, n_teams=2, max_ex=6, max_len=4,
                                   max_weight=3, seed=seed,
                                   tree_shape="random-binary")
        tree = inst.tree
        idx = build_derived_index(inst)
        col = injective_coloring(tree)
        for k in range(1, len(tree.taxa) + 1):
            for saved in itertools.combinations(tree.taxa, k):
                if not collaborative_feasible(idx, saved):
                    continue
                sacrificed = set(tree.taxa) - set(saved)
                if not sacrificed:
                    continue
                anchored = anchored_set_for_sacrifice(tree, sacrificed,
                                                      deadline_of(inst))
                plus = set()
                paths = []
                for x, v, e in anchored:
                    p = set(path_between(tree, v, x))
                    assert not (plus & p)      # pairwise-disjoint paths
                    plus |= p
                    paths.append(p)
                dead = {e for e in tree.edge_order
                        if set(offspring(tree, e)) <= sacrificed}
                assert plus == dead            # paths account for dead edges
                assert pd_of_subset(tree, saved) == \
                    idx.pd_total - sum(tree.weight[e] for e in dead)
                assert find_valid_ordering(tree, col, anchored,
                                           deadline_of(inst)) is not None


def test_deficit_near_the_hours_bound():
    """A deficit of -(2^63 - 9) lies above the table's -infinity: the loss
    DP backtracks to a good base and fpt-dbar finds the yes."""
    tree = parse_newick("((a:1,b:1):1,c:1);")
    taxa = {"a": TaxonInfo(1, 1), "b": TaxonInfo(1, MAX_HOURS),
            "c": TaxonInfo(1, MAX_HOURS)}
    inst = Instance(tree, taxa, (TeamWindow(5, MAX_HOURS),), target=3)
    assert brute_force_time_pd(inst).value == 3
    assert applicable_algorithms(inst)[0] == "fpt-dbar"
    for seed in range(3):
        out = run_algorithm(inst, "fpt-dbar", 1e-3, seed)
        assert out.algorithm == "fpt-dbar"
        assert out.decision and out.value == 3 and out.saved == ("b", "c")
        assert verify_schedule(inst, out.schedule).ok
        out = solve_auto(inst, seed=seed)
        assert out.decision and out.algorithm == out.diagnostics["auto"]
        assert verify_schedule(inst, out.schedule).ok


# first trials of the solver's blocks of 4, 16, 64 and 256 colorings
BLOCK_STARTS = (1, 5, 21, 85, 341)


def batch_for(instance, loss):
    return _LossBatch(build_derived_index(instance), loss)


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_batched_decisions_match_the_scalar_table(data):
    loss = data.draw(st.integers(1, 3), label="loss")
    n_classes = data.draw(st.integers(1, 6), label="classes")
    base = gen_random_instance(
        n=data.draw(st.integers(2, 7), label="n"),
        n_teams=data.draw(st.integers(1, 2), label="teams"), max_ex=2 * n_classes,
        max_len=data.draw(st.integers(1, 4), label="max length"), max_weight=3,
        tree_shape=data.draw(st.sampled_from(("caterpillar", "random-binary")),
                             label="shape"),
        seed=data.draw(st.integers(0, 10**6), label="instance"))
    deadline = st.sampled_from([2 * c for c in range(1, n_classes + 1)])
    taxa = {x: TaxonInfo(base.length(x), data.draw(deadline, label="deadline"))
            for x in base.tree.taxa}
    # the table reads the loss only as its palette of 2 * loss colors
    inst = Instance(base.tree, taxa, base.teams,
                    max(0, base.tree.total_weight() - loss))
    start = data.draw(st.sampled_from(BLOCK_STARTS), label="block start")
    first = data.draw(st.integers(max(1, start - 8), start), label="first")
    count = data.draw(st.integers(1, 24), label="count")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    draws = trial_draws(seed, first, count, 2 * loss, loss_draw_width(inst.tree, loss))
    got = batch_for(inst, loss).decide(draws).tolist()
    want = [reference_loss_dp_solve(
        inst, loss_coloring_from_draws(inst.tree, loss, row), loss)[0] for row in draws]
    assert got == want


def spy_fill(monkeypatch):
    """The number of rows of each table pass the batches run."""
    rows = []
    fill = _LossBatch._fill
    monkeypatch.setattr(_LossBatch, "_fill", lambda self, pmask, kbit, shift:
                        rows.append(len(pmask)) or fill(self, pmask, kbit, shift))
    return rows


def reference_decisions(inst, loss, draws):
    return [reference_loss_dp_solve(
        inst, loss_coloring_from_draws(inst.tree, loss, row), loss)[0] for row in draws]


def test_screened_rows_keep_their_decisions(monkeypatch):
    """Over instances whose deficits some colorings cannot pay, the screen
    removes rows before the table and yet every row's decision is the
    scalar table's; rows of both answers pass it."""
    passed = spy_fill(monkeypatch)
    total = yes = 0
    for case in range(40):
        loss = 1 + case % 3
        n_classes = 1 + case % 3
        base = gen_random_instance(n=4 + case % 3, n_teams=1 + case % 2,
                                   max_ex=2 * n_classes, max_len=1 + case % 2,
                                   max_weight=2, tree_shape="random-binary",
                                   seed=700 + case)
        taxa = {x: TaxonInfo(base.length(x), 2 + 2 * (i % n_classes))
                for i, x in enumerate(base.tree.taxa)}
        inst = Instance(base.tree, taxa, base.teams, base.tree.total_weight() - loss)
        draws = trial_draws(case, 2, 16, 2 * loss, loss_draw_width(inst.tree, loss))
        got = batch_for(inst, loss).decide(draws).tolist()
        assert got == reference_decisions(inst, loss, draws), case
        total += len(draws)
        yes += sum(got)
    screened = total - sum(passed)
    assert 0 < screened < total and 0 < yes < total - screened, (screened, yes, total)


def test_a_deficit_paid_exactly_passes_the_screen():
    """Only a can be sacrificed, and its length is the deficit: a coloring
    under which a's tuple is a candidate is a yes."""
    tree = parse_newick("((a:1,b:2):1,c:2);")
    taxa = {"a": TaxonInfo(2, 2), "b": TaxonInfo(1, 2), "c": TaxonInfo(1, 2)}
    inst = Instance(tree, taxa, (TeamWindow(0, 2),), tree.total_weight() - 1)
    assert build_derived_index(inst).deficits == (2,)
    draws = trial_draws(3, 2, 16, 2, loss_draw_width(tree, 1))
    got = batch_for(inst, 1).decide(draws).tolist()
    assert got == reference_decisions(inst, 1, draws)
    assert any(got) and not all(got)
    for seed in range(3):
        assert outcome_fields(solve_time_pd_by_loss(inst, 1e-3, seed)) == \
            outcome_fields(solve_by_loss_trial_by_trial(inst, 1e-3, seed))


def test_the_screen_counts_each_taxon_once():
    """a and b are 2^61 - 2 long, and each has three tuples within the
    loss.  The lengths sum to below 2^62, so the cells are int64, but five
    candidate tuples of a and b would sum to 2^63 or more: a screen that
    counted tuples would wrap round in int64 and lose yes rows."""
    length = 2**61 - 2
    tree = parse_newick("(((a:1,b:1):1,c:1):1,d:1);")
    hours = 2**61
    taxa = dict({x: TaxonInfo(1, hours) for x in tree.taxa},
                a=TaxonInfo(length, hours), b=TaxonInfo(length, hours))
    inst = Instance(tree, taxa, (TeamWindow(0, hours),), tree.total_weight() - 3)
    idx = build_derived_index(inst)
    assert idx.deficits == (length,)
    batch = batch_for(inst, 3)
    assert batch.dtype is np.int64
    draws = trial_draws(11, 2, 64, 6, loss_draw_width(tree, 3))
    got = batch.decide(draws).tolist()
    assert got == reference_decisions(inst, 3, draws)
    wrapping = []
    for row, found in zip(draws, got):
        cands = candidate_tuples(tree, loss_coloring_from_draws(tree, 3, row), idx, 0)
        by_tuple = sum(inst.length(x) for x, _, _, path in cands
                       if sum(tree.weight[e] for e in path) <= 3)
        wrapping.append(found and by_tuple >= 2**63)
    assert any(wrapping)


@pytest.mark.parametrize("owing", [0, 1, 2])
def test_hopeless_instances_fill_no_table(monkeypatch, owing):
    """Three deadline classes, and only s, due in the last, can be lost.
    The deficit of class ``owing`` is positive and more than the taxa due
    by then that can be lost are long; the others are not positive.  Every
    coloring is screened out, no table is filled, and the outcome is the
    trial-by-trial loop's."""
    passed = spy_fill(monkeypatch)
    tree = parse_newick("((x0:2,x1:2):1,(x2:2,s:1):1);")
    lengths = {0: (2, 1, 1, 1), 1: (1, 5, 1, 1), 2: (1, 1, 5, 1)}[owing]
    deadlines = {0: (1, 10, 20, 20), 1: (1, 3, 20, 20), 2: (1, 2, 3, 3)}[owing]
    taxa = {x: TaxonInfo(ell, ex)
            for x, ell, ex in zip(("x0", "x1", "x2", "s"), lengths, deadlines)}
    inst = Instance(tree, taxa, (TeamWindow(0, 20),), tree.total_weight() - 1)
    deficits = build_derived_index(inst).deficits
    assert [q for q, d in enumerate(deficits) if d > 0] == [owing]
    for seed in range(2):
        out = solve_time_pd_by_loss(inst, 1e-3, seed)
        assert not out.decision and out.trials == trial_count(2, 1e-3)
        assert outcome_fields(out) == outcome_fields(
            solve_by_loss_trial_by_trial(inst, 1e-3, seed))
    assert passed == []


def three_unit_taxa(owed):
    """((a:1,b:1):1,(c:1,d:5):1) at loss 2, one deadline class: a, b and c
    take one hour each and are the only taxa within the loss; d is heavy.
    The one team has 4 - owed hours, so the deficit is ``owed``."""
    tree = parse_newick("((a:1,b:1):1,(c:1,d:5):1);")
    taxa = {x: TaxonInfo(1, 4) for x in tree.taxa}
    inst = Instance(tree, taxa, (TeamWindow(0, 4 - owed),), tree.total_weight() - 2)
    assert build_derived_index(inst).deficits == (owed,)
    return inst


def test_the_screen_counts_at_most_loss_taxa(monkeypatch):
    """Deficit 3 at loss 2: a, b and c together pay it, and under some
    colorings all three have a candidate tuple, yet no two of them do.  A
    colored yes sacrifices at most ``loss`` taxa, so every coloring is
    screened out, no table is filled, and the outcome is the trial-by-trial
    loop's."""
    passed = spy_fill(monkeypatch)
    inst = three_unit_taxa(3)
    idx, tree = build_derived_index(inst), inst.tree
    draws = trial_draws(4, 1, 64, 4, loss_draw_width(tree, 2))
    all_three = [row for row in draws
                 if {x for x, *_ in candidate_tuples(
                     tree, loss_coloring_from_draws(tree, 2, row), idx, 0)} >= set("abc")]
    assert all_three
    assert not batch_for(inst, 2).decide(draws).any()
    for seed in range(2):
        out = solve_time_pd_by_loss(inst, 0.1, seed)
        assert not out.decision and out.trials == trial_count(4, 0.1)
        assert outcome_fields(out) == outcome_fields(
            solve_by_loss_trial_by_trial(inst, 0.1, seed))
    assert passed == []


def test_loss_taxa_that_pay_pass_the_screen(monkeypatch):
    """Deficit 2 at loss 2: two of a, b and c pay it, and sacrificing a and
    c loses weight 2, so some colorings pass the screen and are yeses, and
    every row's decision is the scalar table's."""
    passed = spy_fill(monkeypatch)
    inst = three_unit_taxa(2)
    draws = trial_draws(4, 1, 64, 4, loss_draw_width(inst.tree, 2))
    got = batch_for(inst, 2).decide(draws).tolist()
    assert got == reference_decisions(inst, 2, draws)
    assert sum(passed) >= sum(got) > 0
    for seed in range(2):
        out = solve_time_pd_by_loss(inst, 0.1, seed)
        assert out.decision
        assert outcome_fields(out) == outcome_fields(
            solve_by_loss_trial_by_trial(inst, 0.1, seed))


def spy_passes(monkeypatch):
    """(rows, found, table) of each table pass the batches run."""
    passes = []
    fill = _LossBatch._fill
    def spy(self, pmask, kbit, shift):
        found, table = fill(self, pmask, kbit, shift)
        passes.append((len(pmask), found.copy(), table))
        return found, table
    monkeypatch.setattr(_LossBatch, "_fill", spy)
    return passes


def test_the_witness_reads_the_deciding_pass(monkeypatch):
    """Seeded yeses at losses 2 and 3, first successes in the first and the
    second block: the solver fills no table after the pass that decides its
    first success, and its outcome is the trial-by-trial loop's.  The table
    ``decide`` keeps is that of a fresh one-row fill of the same coloring,
    and loss_dp_solve on another coloring, with the same batch, fills a
    table and matches the scalar table."""
    passes = spy_passes(monkeypatch)
    later = 0
    for seed, loss, solver_seed in itertools.product((51, 61, 68, 110), (2, 3), range(4)):
        base = gen_random_instance(n=6, n_teams=2, max_ex=6, max_len=2,
                                   max_weight=3, seed=seed, savable_frac=1.0)
        inst = Instance(base.tree, base.taxa, base.teams, base.tree.total_weight() - loss)
        idx, tree = build_derived_index(inst), inst.tree
        del passes[:]
        out = solve_time_pd_by_loss(inst, 1e-3, solver_seed)
        assert out.decision and out.trials >= 1
        assert outcome_fields(out) == outcome_fields(
            solve_by_loss_trial_by_trial(inst, 1e-3, solver_seed))
        assert passes[-1][1].any()
        assert not any(found.any() for _, found, _ in passes[:-1])
        later += out.trials > 4
        # trials 1 .. the first success as one block of a new batch
        batch = batch_for(inst, loss)
        draws = trial_draws(solver_seed, 1, out.trials, 2 * loss, batch.width)
        found = batch.decide(draws)
        assert found[-1] and not found[:-1].any()
        coloring = loss_coloring_from_draws(tree, loss, draws[-1])
        del passes[:]
        got = loss_dp_solve(inst, coloring, loss, idx, batch)
        assert passes == [] and got == reference_loss_dp_solve(inst, coloring, loss)
        assert loss_dp_solve(inst, coloring, loss, idx, batch_for(inst, loss)) == got
        assert len(passes) == 1 and passes[0][0] == 1
        assert np.array_equal(passes[0][2][0], batch.kept[2])
        other = loss_coloring_from_draws(tree, loss, trial_draws(
            solver_seed + 1, 1, 1, 2 * loss, batch.width)[0])
        del passes[:]
        got = loss_dp_solve(inst, other, loss, idx, batch)
        assert len(passes) == 1 and got == reference_loss_dp_solve(inst, other, loss)
    assert later >= 4, later


def test_the_kept_row_is_matched_on_its_sibling_colors(monkeypatch):
    """d weighs more than the loss, so its key color is on no path, but it
    is the sibling of c's tuple.  A coloring that differs from the kept one
    only there has the kept path colors and other sibling colors: it fills
    its own table and still matches the scalar table."""
    passes = spy_passes(monkeypatch)
    inst = three_unit_taxa(2)
    idx, tree = build_derived_index(inst), inst.tree
    batch = batch_for(inst, 2)
    draws = trial_draws(4, 1, 64, 4, batch.width)
    row = draws[np.flatnonzero(batch.decide(draws))[0]]
    kept = loss_coloring_from_draws(tree, 2, row)
    for color in set(range(1, 5)) - {kept.key_color["d"]}:
        other = make_loss_coloring(tree, 2, dict(kept.key_color, d=color),
                                   kept.extra_colors)
        del passes[:]
        got = loss_dp_solve(inst, other, 2, idx, batch)
        assert len(passes) == 1 and got == reference_loss_dp_solve(inst, other, 2)
    del passes[:]
    assert loss_dp_solve(inst, kept, 2, idx, batch) == reference_loss_dp_solve(inst, kept, 2)
    assert passes == []


@pytest.mark.parametrize("length, int64_cells", [(2**60 - 1, True), (2**60, False)])
def test_lengths_near_the_int64_bound(monkeypatch, length, int64_cells):
    """Four taxa of one length: saving three of them needs 3 * length hours,
    one less is given, and only a weight-1 leaf may be lost.  The lengths
    sum to just under 2^62, where the batch keeps int64 cells, or to 2^62,
    where it keeps Python ints in object cells; both run every planned
    trial as the trial-by-trial loop does.  (A yes would list every hour of
    its schedule.)"""
    dtypes = []
    monkeypatch.setattr(_LossBatch, "decide",
                        lambda self, draws, run=_LossBatch.decide:
                        dtypes.append(self.dtype) or run(self, draws))
    tree = parse_newick("((a:1,b:2):1,(c:2,d:1):1);")
    hours = 3 * length - 1
    one_class = {x: TaxonInfo(length, hours) for x in tree.taxa}
    # a and b due at slot length, when only one of them can be done
    two_classes = dict(one_class, a=TaxonInfo(length, length),
                       b=TaxonInfo(length, length))
    for taxa in (one_class, two_classes):
        inst = Instance(tree, taxa, (TeamWindow(0, hours),), tree.total_weight() - 1)
        assert max(build_derived_index(inst).deficits) == length + 1
        for seed in range(3):
            out = solve_time_pd_by_loss(inst, 1e-3, seed)
            assert not out.decision and out.trials == trial_count(2, 1e-3)
            assert outcome_fields(out) == outcome_fields(
                solve_by_loss_trial_by_trial(inst, 1e-3, seed))
    assert set(dtypes) == {np.int64 if int64_cells else object}


def test_loss_table_guard_refuses_before_building():
    """Loss 8 over two deadline classes needs 81.8 M table entries, above
    the guard: the solver and loss_dp_solve refuse it before they build
    any table."""
    tree = parse_newick("((a:4,b:4):1,c:4);")
    taxa = {"a": TaxonInfo(1, 1), "b": TaxonInfo(1, 2), "c": TaxonInfo(1, 2)}
    inst = Instance(tree, taxa, (TeamWindow(0, 1),), tree.total_weight() - 8)
    idx = build_derived_index(inst)
    assert idx.loss_budget == 8
    assert loss_table_entry_count(8, idx.n_classes) > TABLE_GUARD >= LOSS_WORK_CAP
    coloring = make_loss_coloring(tree, 8, {e: 1 for e in tree.edge_order}, {})
    t0 = time.perf_counter()
    with pytest.raises(LossTooLarge):
        solve_time_pd_by_loss(inst)
    with pytest.raises(LossTooLarge):
        loss_dp_solve(inst, coloring, 8)
    assert time.perf_counter() - t0 < 0.5


def test_layer_chunks_bound_the_fill_memory():
    """One class and loss 6: a whole layer's gathered children would be
    1.5 M cells, some 60 MiB of working memory, for a table of 4.1 MiB.
    Filled in chunks of c1, loss_dp_solve peaks below 16 MiB, its layers
    and table included, with the scalar table's outcome.  Layers of loss 3
    or less, as the benchmark streams have, stay whole."""
    tree = parse_newick("(((((a:1,b:1):1,c:1):1,d:1):1,e:1):1,f:1);")
    inst = Instance(tree, {x: TaxonInfo(2, 5) for x in tree.taxa},
                    (TeamWindow(0, 5),), tree.total_weight() - 6)
    row = trial_draws(0, 2, 1, 12, loss_draw_width(tree, 6))[0]  # a yes coloring
    coloring = loss_coloring_from_draws(tree, 6, row)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        got = loss_dp_solve(inst, coloring, 6)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20
    assert got[0] and got == reference_loss_dp_solve(inst, coloring, 6)
    # up to loss 3, seven taxa in seven classes fill each layer in one pass
    wide = parse_newick("((((((a:1,b:1):1,c:1):1,d:1):1,e:1):1,f:1):1,g:1);")
    taxa = {x: TaxonInfo(1, i + 1) for i, x in enumerate(sorted(wide.taxa))}
    for loss in (1, 2, 3):
        batch = batch_for(Instance(wide, taxa, (TeamWindow(0, 3),),
                                   wide.total_weight() - loss), loss)
        assert batch.nc == 7 and len(batch.layers) == loss + 1


def drawn_instance(data, loss, huge):
    """A random binary instance that may lose ``loss``.  With ``huge``, its
    lengths, deadlines and team windows are scaled by one factor that keeps
    the hours within 2^63 - 1: decisions stay, and the lengths may sum past
    2^62."""
    n_classes = data.draw(st.integers(1, 6), label="classes")
    base = gen_random_instance(
        n=data.draw(st.integers(2, 7), label="n"),
        n_teams=data.draw(st.integers(1, 3), label="teams"), max_ex=2 * n_classes,
        max_len=data.draw(st.integers(1, 3), label="max length"), max_weight=3,
        tree_shape=data.draw(st.sampled_from(("caterpillar", "random-binary")),
                             label="shape"),
        seed=data.draw(st.integers(0, 10**6), label="instance"))
    deadline = st.sampled_from([2 * c for c in range(1, n_classes + 1)])
    taxa = {x: TaxonInfo(base.length(x), data.draw(deadline, label="deadline"))
            for x in base.tree.taxa}
    inst = Instance(base.tree, taxa, base.teams,
                    max(0, base.tree.total_weight() - loss))
    if not huge:
        return inst
    f = MAX_HOURS // max(1, build_derived_index(inst).hours[-1])
    return Instance(inst.tree,
                    {x: TaxonInfo(i.rescue_length * f, i.extinction_time * f)
                     for x, i in taxa.items()},
                    tuple(TeamWindow(t.start * f, t.end * f) for t in inst.teams),
                    inst.target)


def drawn_coloring(data, tree, loss):
    """A trial's coloring, a hand-made coloring whose ill-formed edges are
    demoted, one built directly that makes only some of its well-formed
    edges eligible, or the injective coloring, whose colors may lie off the
    palette."""
    kind = data.draw(st.sampled_from(("trial", "demoted", "direct", "injective")),
                     label="kind")
    if kind == "trial":
        row = trial_draws(data.draw(st.integers(0, 2**32), label="seed"),
                          data.draw(st.integers(1, 400), label="trial"), 1,
                          2 * loss, loss_draw_width(tree, loss))[0]
        return loss_coloring_from_draws(tree, loss, row)
    if kind == "injective":
        return injective_coloring(tree)
    palette = st.integers(1, 2 * loss)
    key, extras = {}, {}
    for e in tree.edge_order:
        key[e] = data.draw(palette, label="key")
        colors = data.draw(st.one_of(
            st.sets(palette, min_size=tree.weight[e] - 1, max_size=tree.weight[e] - 1),
            st.sets(palette)), label="extras")
        extras[e] = color_mask(*colors)
    coloring = make_loss_coloring(tree, loss, key, extras)
    if kind == "demoted":
        return coloring
    eligible = frozenset(e for e in sorted(coloring.eligible)
                         if data.draw(st.booleans(), label=f"{e} eligible"))
    return LossColoring(coloring.n_colors, key, coloring.extra_colors, eligible)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_one_row_equals_the_scalar_table(data):
    """loss_dp_solve, one row of the batched table, gives the scalar
    table's decision, witness and entry count on every coloring."""
    loss = data.draw(st.integers(1, 3), label="loss")
    inst = drawn_instance(data, loss, data.draw(st.booleans(), label="huge"))
    coloring = drawn_coloring(data, inst.tree, loss)
    assert loss_dp_solve(inst, coloring, loss) == \
        reference_loss_dp_solve(inst, coloring, loss)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_one_row_candidates_are_the_oracle_rule(data):
    """The candidates that solve_one hands its backtrack are the oracle's
    candidate_tuples whose paths are within the loss and whose colors are
    in the palette: the same tuples, with the same colors, in the same
    order.  The rule reads no length or deadline, so the instance has the
    hours to save every taxon, and every coloring reaches the backtrack."""
    loss = data.draw(st.integers(1, 3), label="loss")
    base = drawn_instance(data, loss, False)
    tree = base.tree
    inst = Instance(tree, base.taxa,
                    (TeamWindow(0, 1),) * sum(map(base.length, tree.taxa)), base.target)
    idx = build_derived_index(inst)
    assert max(idx.deficits) <= 0
    coloring = drawn_coloring(data, tree, loss)
    full = (1 << 2 * loss) - 1
    want = []
    for x, v, e, path in candidate_tuples(tree, coloring, idx, idx.n_classes - 1):
        pm, kb = coloring.path_mask(path), coloring.key_bit(e)
        if sum(tree.weight[p] for p in path) <= loss and pm | kb <= full:
            want.append((idx.class_of[x], inst.length(x), pm, kb, (x, v, e)))
    got = []
    extract = _LossBatch._extract
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_LossBatch, "_extract",
                      lambda self, table, cands, *cell:
                      got.append(cands) or extract(self, table, cands, *cell))
        assert loss_dp_solve(inst, coloring, loss)[:2] == (True, [])
    assert got == [want]


MISSING = object()


@pytest.mark.parametrize("key, extras", [
    (0, {}), (-3, {}), (1.5, {}), (None, {}), (True, {}), (MISSING, {}),
    (4, {"u": -1}), (4, {"a": 1.5}), (4, {"b": None}), (4, {"c": "1"}),
], ids=["key 0", "key -3", "key 1.5", "key None", "key True", "no key",
        "extras -1", "extras 1.5", "extras None", "extras str"])
def test_malformed_loss_colorings_are_bad_params(key, extras):
    """A key color of edge c that is not an integer >= 1, or an extra color
    mask that is not an integer >= 0, is BadParams: from make_loss_coloring,
    and from loss_dp_solve for a coloring built directly."""
    tree = parse_newick("((a:1,b:1)u:1,c:2)r;")
    inst = Instance(tree, {x: TaxonInfo(1, 2) for x in tree.taxa},
                    (TeamWindow(0, 2),), tree.total_weight() - 2)
    keys = {"u": 1, "a": 2, "b": 3}
    if key is not MISSING:
        keys["c"] = key
    extras = dict({"u": 0, "a": 0, "b": 0}, **extras)
    with pytest.raises(BadParams):
        make_loss_coloring(tree, 2, keys, extras)
    with pytest.raises(BadParams):
        loss_dp_solve(inst, LossColoring(4, keys, extras, frozenset("uab")), 2)


def test_an_eligible_edge_needs_as_many_colors_as_it_weighs():
    """Edge c weighs 2 but has one color: BadParams, while the coloring that
    makes it ineligible, and one whose key colors lie off the palette, are
    answered."""
    tree = parse_newick("((a:1,b:1)u:1,c:2)r;")
    inst = Instance(tree, {x: TaxonInfo(1, 2) for x in tree.taxa},
                    (TeamWindow(0, 2),), tree.total_weight() - 2)
    keys, extras = {"u": 1, "a": 2, "b": 3, "c": 4}, {"u": 0, "a": 0, "b": 0}
    with pytest.raises(BadParams):
        loss_dp_solve(inst, LossColoring(4, keys, extras, frozenset("uabc")), 2)
    for coloring in (LossColoring(4, keys, extras, frozenset("uab")),
                     LossColoring(4, dict(keys, c=70), dict(extras, c=1 << 80),
                                  frozenset("uabc"))):
        assert loss_dp_solve(inst, coloring, 2) == \
            reference_loss_dp_solve(inst, coloring, 2)


@pytest.mark.parametrize("length", [2**62, MAX_HOURS])
def test_cells_beyond_the_int64_bound(length):
    """Taxon a is too long for the one team, so a yes sacrifices it, and
    its cells hold at least 2^62: loss_dp_solve, which builds no schedule,
    finds them as the scalar table does.  With d as long too, both must
    be sacrificed, which the loss forbids: the solver says no in every
    planned trial, as the trial-by-trial loop does."""
    tree = parse_newick("((a:1,b:2):1,(c:2,d:1):1);")
    taxa = dict({x: TaxonInfo(1, 4) for x in tree.taxa}, a=TaxonInfo(length, 2))
    inst = Instance(tree, taxa, (TeamWindow(0, 4),), tree.total_weight() - 1)
    idx = build_derived_index(inst)
    batch = _LossBatch(idx, 1)
    assert batch.dtype is object
    width = loss_draw_width(tree, 1)
    found = []
    for row in trial_draws(5, 1, 8, 2, width):
        coloring = loss_coloring_from_draws(tree, 1, row)
        got = loss_dp_solve(inst, coloring, 1, idx, batch)
        assert got == reference_loss_dp_solve(inst, coloring, 1, idx)
        found.append(got[0])
    assert any(found) and not all(found)
    no = Instance(tree, dict(taxa, d=TaxonInfo(length, 2)), inst.teams, inst.target)
    for seed in range(2):
        out = solve_time_pd_by_loss(no, 1e-3, seed)
        assert not out.decision and out.trials == trial_count(2, 1e-3)
        assert outcome_fields(out) == outcome_fields(
            solve_by_loss_trial_by_trial(no, 1e-3, seed))


def test_witness_follows_the_scan_order():
    """Sacrificing x1 alone or x3 alone both meet the deficits under this
    coloring.  The accepting cell is the first in the scan order (c1 by
    popcount and position, c2 downwards), and its backtrack gives x3; a
    scan with c2 upwards would give x1."""
    tree = parse_newick("(x1:1,(x2:2,x3:1)v1:1)root;")
    taxa = {"x1": TaxonInfo(1, 4), "x2": TaxonInfo(2, 4), "x3": TaxonInfo(2, 2)}
    inst = Instance(tree, taxa, (TeamWindow(0, 4),), 3)
    coloring = loss_coloring_from_draws(tree, 2, [2, 4, 2, 3, 4, 2])
    got = loss_dp_solve(inst, coloring, 2)
    assert got == reference_loss_dp_solve(inst, coloring, 2)
    assert got[:2] == (True, [("x3", "v1", "x2")])
