import dataclasses
import itertools
import math
import random
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescuepd import (Instance, PhyloTree, TaxonInfo, TeamWindow,
                      brute_force_s_time_pd, brute_force_time_pd,
                      build_derived_index, collaborative_feasible,
                      color_edges_from_hash, pd_of_subset,
                      schedule_team_parts, solve_colored_s_time_pd,
                      solve_colored_time_pd,
                      solve_s_time_pd_by_target, solve_time_pd_by_loss,
                      solve_time_pd_by_target, strict_feasible, trial_count,
                      verify_schedule)
from rescuepd.color_target import MASK_LIMIT, TargetColoring, _TrialPlan, trial_draws
from rescuepd.driver import solve_auto
from rescuepd.errors import BadParams, TargetTooLarge
from rescuepd.generators import TREE_SHAPES, gen_random_instance
from rescuepd.model import COLLABORATIVE, MAX_HOURS, STRICT

from reference import (plain_colored_s_time_pd, plain_colored_time_pd,
                       printed_rule_decision)


def mask(*colors):
    m = 0
    for c in colors:
        m |= 1 << (c - 1)
    return m


def test_color_edges_from_hash_examples():
    tree = PhyloTree.from_edges([("r", "a", 2), ("r", "b", 3)])
    identity = list(range(6))   # 1-based positions map to themselves
    col = color_edges_from_hash(tree, 5, identity)
    assert col.edge_colors["a"] == mask(1, 2)
    assert col.edge_colors["b"] == mask(3, 4, 5)

    const = lambda pos: 2
    col = color_edges_from_hash(tree, 5, const)
    assert col.edge_colors["a"] == mask(2)
    assert col.edge_colors["b"] == mask(2)

    col = color_edges_from_hash(tree, 3, [None, 1, 1, 2, 3, 3])
    assert col.edge_colors["a"] == mask(1)
    assert col.edge_colors["b"] == mask(2, 3)

    with pytest.raises(BadParams):
        color_edges_from_hash(tree, 2, [None, 1, 3, 1, 1, 1])
    for short in ([1], [None, 1, 2, 1, 2], {1: 1, 2: 2}):  # positions 1, 5, 3 missing
        with pytest.raises(BadParams):
            color_edges_from_hash(tree, 2, short)
    for odd in ("1", None, 1.5):
        with pytest.raises(BadParams):
            color_edges_from_hash(tree, 2, [None, 1, odd, 1, 1, 1])



def test_an_ndarray_row_colors_as_a_list_or_a_callable_does():
    """Sliced or read position by position, the same colors give the same
    edge masks; bad colors raise BadParams on every path."""
    tree = PhyloTree.from_edges([("r", "u", 2), ("u", "a", 3), ("u", "b", 1),
                                 ("r", "c", 4)])
    rng = np.random.default_rng(5)
    for k in (1, 3, 7, 30):
        row = rng.integers(1, k + 1, size=11)
        want = color_edges_from_hash(tree, k, row.tolist())
        assert color_edges_from_hash(tree, k, row) == want
        assert color_edges_from_hash(tree, k, row.astype(np.uint8)) == want
        assert color_edges_from_hash(tree, k, lambda pos: int(row[pos])) == want
    for bad in (0, 4, -1, 2**40):
        row = np.ones(11, dtype=np.int64)
        row[7] = bad
        for f in (row, row.tolist()):
            with pytest.raises(BadParams):
                color_edges_from_hash(tree, 3, f)
    for odd in (np.ones(10, dtype=np.int64), np.ones(11), np.ones(11, dtype=bool),
                [None] + [1] * 9 + [2**70]):
        with pytest.raises(BadParams):
            color_edges_from_hash(tree, 3, odd)


def test_a_wide_row_colors_in_linear_numpy_time():
    """One edge of weight 10^6: its colors are checked and merged in a few
    numpy passes, not one Python step per position (about 0.8 s)."""
    width = 10**6
    tree = PhyloTree.from_edges([("r", "u", 1), ("u", "a", width), ("u", "b", 1),
                                 ("r", "c", 1)])
    row = np.random.default_rng(0).integers(1, 4, size=width + 4)
    start = time.perf_counter()
    col = color_edges_from_hash(tree, 3, row)
    assert time.perf_counter() - start < 0.25
    assert col.edge_colors == {"u": mask(row[1]), "a": 0b111, "b": mask(row[width + 2]),
                               "c": mask(row[width + 3])}

def test_taxon_masks_union():
    tree = PhyloTree.from_edges([("r", "v", 1), ("v", "a", 1), ("v", "b", 1),
                                 ("r", "c", 2)])
    col = TargetColoring(4, {"v": mask(1), "a": mask(2), "b": mask(3),
                             "c": mask(3, 4)})
    masks = col.taxon_masks(tree)
    assert masks == {"a": mask(1, 2), "b": mask(1, 3), "c": mask(3, 4)}


def colored_brute(idx, coloring):
    """Subsets covering the palette and passing feasibility."""
    taxa = idx.instance.tree.taxa
    masks = coloring.taxon_masks(idx.instance.tree)
    full = (1 << coloring.n_colors) - 1
    for k in range(len(taxa) + 1):
        for subset in itertools.combinations(taxa, k):
            got = 0
            for x in subset:
                got |= masks[x]
            if got & full == full and collaborative_feasible(idx, subset):
                return True
    return False


def colored_brute_strict(instance, coloring):
    taxa = instance.tree.taxa
    masks = coloring.taxon_masks(instance.tree)
    full = (1 << coloring.n_colors) - 1
    for k in range(len(taxa) + 1):
        for subset in itertools.combinations(taxa, k):
            got = 0
            for x in subset:
                got |= masks[x]
            if got & full == full and strict_feasible(instance, subset) is not None:
                return True
    return False


def covered(masks, taxa):
    got = 0
    for x in taxa:
        got |= masks[x]
    return got


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_kernels_match_the_colored_oracles(data):
    """Both one-coloring kernels against the brute-force colored oracles on
    any edge coloring, the empty palette included.  A collaborative witness
    covers the palette and is feasible; strict parts are disjoint, cover the
    palette, and each fits its team."""
    strict = data.draw(st.booleans(), label="strict")
    k = data.draw(st.integers(0, 6), label="k")
    inst = gen_random_instance(
        n=data.draw(st.integers(2, 6), label="n"),
        n_teams=data.draw(st.integers(1, 3), label="teams"),
        max_ex=8, max_len=data.draw(st.integers(1, 4), label="max length"),
        max_weight=3, tree_shape=data.draw(st.sampled_from(TREE_SHAPES), label="shape"),
        seed=data.draw(st.integers(0, 10**6), label="instance"),
        mode=STRICT if strict else COLLABORATIVE)
    idx = build_derived_index(inst)
    full = (1 << k) - 1
    col = TargetColoring(k, {e: data.draw(st.integers(0, full), label=f"colors of {e}")
                             for e in inst.tree.edge_order})
    masks = col.taxon_masks(inst.tree)
    kernel = solve_colored_s_time_pd if strict else solve_colored_time_pd
    ok, found = kernel(idx, col)
    assert ok == (colored_brute_strict(inst, col) if strict else colored_brute(idx, col))
    if not ok:
        assert found is None
    elif strict:
        saved = [x for part in found for x in part]
        assert len(found) == len(inst.teams) and len(saved) == len(set(saved))
        assert covered(masks, saved) == full
        assert verify_schedule(inst, schedule_team_parts(inst, found)).ok
    else:
        assert covered(masks, found) == full
        assert collaborative_feasible(idx, found)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_one_team_kernels_save_the_same_set(data):
    """With one team, the strict kernel's one capacity row is the
    collaborative row: both kernels decide alike, and the collaborative
    saved set is the union of the strict parts."""
    k = data.draw(st.integers(0, 6), label="k")
    inst = gen_random_instance(
        n=data.draw(st.integers(2, 7), label="n"), n_teams=1, max_ex=8,
        max_len=data.draw(st.integers(1, 4), label="max length"), max_weight=3,
        tree_shape=data.draw(st.sampled_from(TREE_SHAPES), label="shape"),
        seed=data.draw(st.integers(0, 10**6), label="instance"))
    strict = dataclasses.replace(inst, mode=STRICT)
    full = (1 << k) - 1
    col = TargetColoring(k, {e: data.draw(st.integers(0, full), label=f"colors of {e}")
                             for e in inst.tree.edge_order})
    ok, saved = solve_colored_time_pd(build_derived_index(inst), col)
    strict_ok, parts = solve_colored_s_time_pd(build_derived_index(strict), col)
    assert ok == strict_ok
    if ok:
        assert len(parts) == 1 and saved == tuple(sorted(parts[0]))
    else:
        assert saved is None and parts is None


def test_colored_solver_trivial_cases():
    inst = gen_random_instance(n=4, seed=2)
    idx = build_derived_index(inst)
    empty = TargetColoring(0, {e: 0 for e in inst.tree.edge_order})
    assert solve_colored_time_pd(idx, empty)[0]

    # color 1 never used: unsatisfiable
    col = TargetColoring(2, {e: mask(2) for e in inst.tree.edge_order})
    assert solve_colored_time_pd(idx, col) == (False, None)


def test_colored_pair_example():
    tree = PhyloTree.from_edges([("r", "x1", 1), ("r", "x2", 1)])
    inst = Instance(tree, {"x1": TaxonInfo(2, 4), "x2": TaxonInfo(3, 6)},
                    (TeamWindow(0, 6),), target=2)
    idx = build_derived_index(inst)
    col = TargetColoring(2, {"x1": mask(1), "x2": mask(2)})
    ok, saved = solve_colored_time_pd(idx, col)
    assert ok and saved == ("x1", "x2")
    total = inst.length("x1") + inst.length("x2")
    assert total == 5 <= idx.hours[-1]


def test_colored_exactness_small_sweep():
    checked = 0
    for seed in range(12):
        inst = gen_random_instance(n=5, n_teams=2, max_ex=6, max_len=4,
                                   max_weight=3, seed=seed, target=4)
        idx = build_derived_index(inst)
        width = inst.tree.total_weight()
        for trial in range(4):
            f = [((pos * 7 + trial * 3 + seed) % inst.target) + 1
                 for pos in range(width + 1)]
            col = color_edges_from_hash(inst.tree, inst.target, f)
            got, witness = solve_colored_time_pd(idx, col)
            assert got == colored_brute(idx, col)
            if got:
                cov = 0
                for x in witness:
                    cov |= col.taxon_masks(inst.tree)[x]
                assert cov == (1 << inst.target) - 1
                assert collaborative_feasible(idx, witness)
                checked += 1
    assert checked > 5


def test_colored_strict_exactness_small_sweep():
    for seed in range(10):
        inst = gen_random_instance(n=4, n_teams=2, max_ex=5, max_len=3,
                                   max_weight=2, seed=seed, target=3,
                                   mode="strict")
        idx = build_derived_index(inst)
        width = inst.tree.total_weight()
        for trial in range(3):
            f = [((pos * 5 + trial + seed) % inst.target) + 1
                 for pos in range(width + 1)]
            col = color_edges_from_hash(inst.tree, inst.target, f)
            got, parts = solve_colored_s_time_pd(idx, col)
            assert got == colored_brute_strict(inst, col)


def test_colored_strict_one_team_matches_collaborative():
    for seed in range(8):
        inst = gen_random_instance(n=4, n_teams=1, max_ex=5, max_len=3,
                                   max_weight=2, seed=seed, target=3)
        idx = build_derived_index(inst)
        width = inst.tree.total_weight()
        f = [(pos % inst.target) + 1 for pos in range(width + 1)]
        col = color_edges_from_hash(inst.tree, inst.target, f)
        assert (solve_colored_time_pd(idx, col)[0]
                == solve_colored_s_time_pd(idx, col)[0])


def test_colored_strict_split_example():
    tree = PhyloTree.from_edges([("r", "x1", 1), ("r", "x2", 1)])
    inst = Instance(tree, {"x1": TaxonInfo(3, 3), "x2": TaxonInfo(4, 13)},
                    (TeamWindow(0, 3), TeamWindow(9, 13)), target=2,
                    mode="strict")
    idx = build_derived_index(inst)
    col = TargetColoring(2, {"x1": mask(1), "x2": mask(2)})
    ok, parts = solve_colored_s_time_pd(idx, col)
    assert ok
    assert sorted(x for part in parts for x in part) == ["x1", "x2"]
    assert "x1" in parts[0] and "x2" in parts[1]


def test_capacity_rule_variants():
    """The printed per-team bound checks the intermediate class and misses
    sets where a quick early rescue precedes a long one; the added-class
    bound matches the strict oracle.  The printed rule is kept in the test
    reference so any oracle disagreement localizes to this choice."""
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "x", 1)])
    inst = Instance(tree, {"a": TaxonInfo(1, 1), "x": TaxonInfo(5, 10)},
                    (TeamWindow(0, 10),), target=2, mode="strict")
    idx = build_derived_index(inst)
    col = TargetColoring(2, {"a": mask(1), "x": mask(2)})
    assert strict_feasible(inst, ["a", "x"]) is not None
    ok_fixed, _ = solve_colored_s_time_pd(idx, col)
    ok_printed = printed_rule_decision(idx, col)
    assert ok_fixed and not ok_printed


def test_capacity_rules_agree_when_oracle_does():
    """added-class never claims yes where the strict oracle says no."""
    for seed in range(10):
        inst = gen_random_instance(n=4, n_teams=2, max_ex=5, max_len=3,
                                   max_weight=2, seed=300 + seed, target=3,
                                   mode="strict")
        idx = build_derived_index(inst)
        width = inst.tree.total_weight()
        f = [(pos % inst.target) + 1 for pos in range(width + 1)]
        col = color_edges_from_hash(inst.tree, inst.target, f)
        fixed, _ = solve_colored_s_time_pd(idx, col)
        printed = printed_rule_decision(idx, col)
        oracle = colored_brute_strict(inst, col)
        assert fixed == oracle
        if printed:          # the printed rule is only ever too strict
            assert oracle


def test_kernels_accept_lengths_near_the_hours_bound():
    """A partial length of 2^62 is reachable, not the sentinel: both scalar
    kernels agree with the batched table on a 2^62 + 1 hour rescue."""
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    taxa = {"a": TaxonInfo(2**62, MAX_HOURS), "b": TaxonInfo(1, MAX_HOURS)}
    draws = np.array([[1, 1, 2]])       # one color per edge, both covered
    for mode, kernel in (("collaborative", solve_colored_time_pd),
                         ("strict", solve_colored_s_time_pd)):
        inst = Instance(tree, taxa, (TeamWindow(0, MAX_HOURS),), target=2,
                        mode=mode)
        idx = build_derived_index(inst)
        ok, found = kernel(idx, color_edges_from_hash(tree, 2, draws[0]))
        assert ok, mode
        saved = [x for part in found for x in part] if mode == "strict" else found
        assert sorted(saved) == ["a", "b"]
        caps = idx.team_hours if mode == "strict" else (idx.hours,)
        assert _TrialPlan(idx, 2, caps).decide(draws).tolist() == [True]


def near_max_hours(base, rng):
    """base with team windows up to MAX_HOURS in total and lengths near a
    team's whole window or near 2^63, the edge of the batched table's uint64
    cells."""
    n_teams = len(base.teams)
    big = MAX_HOURS // n_teams
    teams = tuple(TeamWindow(rng.randint(0, 3), rng.randint(big - 64, big))
                  for _ in range(n_teams))
    taxa = {x: TaxonInfo(rng.choice((rng.randint(1, big), rng.randint(big - 64, big),
                                     rng.randint(2**62, MAX_HOURS))),
                         rng.randint(1, big))
            for x in base.tree.taxa}
    return Instance(base.tree, taxa, teams, base.target, base.mode)


def test_kernels_return_the_plain_oracle_parts():
    """The one-row kernels return the very decision and parts of the
    plain-Python kernel in ``tests/reference.py``, called directly and with
    the request's plan after it decided a 16-row block: palettes of 0-10
    colors (strict teams merged by the ranked product from 9 colors on),
    1-5 teams, both modes, taxa that fit no capacity row, taxa with no
    colors, and lengths near MAX_HOURS."""
    rng = random.Random(28)
    seen = Counter()
    for case in range(220):
        strict = case % 2 == 1
        k, n_teams = case % 11, 1 + case // 2 % 5
        inst = gen_random_instance(n=rng.randint(2, 8), n_teams=n_teams, max_ex=8,
                                   max_len=rng.randint(1, 5), max_weight=3,
                                   savable_frac=rng.choice((0.3, 0.7, 1.0)),
                                   tree_shape=rng.choice(TREE_SHAPES),
                                   seed=rng.randrange(10**6),
                                   mode=STRICT if strict else COLLABORATIVE)
        huge = case % 3 == 0
        if huge:
            inst = near_max_hours(inst, rng)
        idx = build_derived_index(inst)
        full = (1 << k) - 1
        col = TargetColoring(k, {e: rng.choice((0, rng.randint(0, full), rng.randint(0, full)))
                                 for e in inst.tree.edge_order})
        kernel, oracle = ((solve_colored_s_time_pd, plain_colored_s_time_pd) if strict
                          else (solve_colored_time_pd, plain_colored_time_pd))
        want = oracle(idx, col)
        assert kernel(idx, col) == want, case
        plan = _TrialPlan(idx, k, idx.team_hours if strict else (idx.hours,))
        if k:
            plan.decide(trial_draws(case, 1, 16, k, inst.tree.total_weight()))
        assert kernel(idx, col, plan) == want, case
        seen["yes"] += want[0]
        seen["no"] += not want[0]
        seen["ranked yes"] += want[0] and strict and k >= 9 and n_teams > 1
        seen["no room"] += any(room < 0 for rows in plan.room for room in rows)
        seen["no colors"] += 0 in col.taxon_masks(inst.tree).values()
        seen["huge yes"] += want[0] and huge and k > 0
    assert min(seen[key] for key in ("yes", "no", "ranked yes", "no room", "no colors",
                                     "huge yes")) > 0, seen


def test_bad_colorings_raise_rescuepd_errors():
    """A coloring that misses an edge, has a color off its palette or a
    palette size that is not an integer >= 0 is BadParams, and a palette
    wider than MASK_LIMIT is TargetTooLarge, in both kernels, before any
    table is built."""
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    taxa = {"a": TaxonInfo(1, 2), "b": TaxonInfo(1, 2)}
    bad = (TargetColoring(2, {}), TargetColoring(2, {"a": mask(1)}),
           TargetColoring(2, {"a": mask(1), "b": mask(3)}),
           TargetColoring(2, {"a": mask(1), "b": -1}),
           TargetColoring(2, {"a": mask(1), "b": "2"}),
           TargetColoring(-1, {"a": 0, "b": 0}), TargetColoring(2.0, {"a": 1, "b": 2}))
    for mode, kernel in ((COLLABORATIVE, solve_colored_time_pd),
                         (STRICT, solve_colored_s_time_pd)):
        idx = build_derived_index(Instance(tree, taxa, (TeamWindow(0, 2),), 2, mode))
        for coloring in bad:
            with pytest.raises(BadParams):
                kernel(idx, coloring)
        with pytest.raises(TargetTooLarge):
            kernel(idx, TargetColoring(MASK_LIMIT + 1, {"a": mask(1), "b": mask(2)}))


def test_taxon_masks_checks_the_palette_first():
    """Called directly, taxon_masks raises BadParams for a palette size that
    is not an integer >= 0 and TargetTooLarge above MASK_LIMIT."""
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    for n_colors in (-1, 2.0, "2"):
        with pytest.raises(BadParams):
            TargetColoring(n_colors, {"a": 0, "b": 0}).taxon_masks(tree)
    with pytest.raises(TargetTooLarge):
        TargetColoring(MASK_LIMIT + 1, {"a": mask(1), "b": mask(2)}).taxon_masks(tree)


@pytest.mark.parametrize("n_colors", ["a", None, -1, 2.5])
def test_trial_count_rejects_a_bad_palette_size(n_colors):
    with pytest.raises(BadParams):
        trial_count(n_colors, 0.5)


def test_wide_unit_star_answers_no_in_seconds():
    """The singleton shortcut takes one PD per taxon, and each walks one root
    path, not the whole tree, so the cost stays linear in the leaves."""
    n = 10_000
    tree = PhyloTree.from_edges([("r", f"x{i}", 1) for i in range(n)])
    inst = Instance(tree, {x: TaxonInfo(1, 2) for x in tree.taxa},
                    (TeamWindow(0, 1),), target=3)
    start = time.perf_counter()
    out = solve_time_pd_by_target(inst, delta=0.5, seed=0)
    assert time.perf_counter() - start < 5
    assert (out.decision, out.trials) == (False, 14)


@pytest.mark.parametrize("n_colors", [MASK_LIMIT + 1, 710, 800])
def test_trial_count_rejects_a_palette_above_the_mask_limit(n_colors):
    """e^710 overflows a float; every palette above MASK_LIMIT is refused
    first, as the solvers refuse it."""
    with pytest.raises(TargetTooLarge):
        trial_count(n_colors, 0.5)
    assert trial_count(MASK_LIMIT, 1e-3) == math.ceil(math.exp(MASK_LIMIT) * math.log(1000))


def test_trial_count():
    assert trial_count(1, 0.5) == 2      # ceil(e * ln 2)
    assert trial_count(5, 1e-3) == 1026  # ceil(e^5 * ln 1000)
    with pytest.raises(BadParams):
        trial_count(3, 0.0)
    with pytest.raises(BadParams):
        trial_count(3, 1.5)
    for delta in ("0.1", None, float("nan")):
        with pytest.raises(BadParams):
            trial_count(3, delta)


RANDOMIZED_ENTRIES = (solve_time_pd_by_target, solve_s_time_pd_by_target,
                      solve_time_pd_by_loss, solve_auto)


@pytest.mark.parametrize("solve", RANDOMIZED_ENTRIES)
def test_bad_seed_or_delta_is_bad_params(solve):
    inst = gen_random_instance(n=5, seed=6, target=3)
    hopeless = Instance(inst.tree, inst.taxa, inst.teams, inst.tree.total_weight() + 1)
    for inst in (inst, hopeless):  # a trivial no is rejected too
        for seed in (-1, 1.5, "3", None):
            with pytest.raises(BadParams):
                solve(inst, 1e-3, seed)
        for delta in ("0.1", None, 0, 1, -0.5, float("nan")):
            with pytest.raises(BadParams):
                solve(inst, delta, 0)


def test_seed_accepts_any_integer_type():
    inst = gen_random_instance(n=5, seed=9, target=4)
    plain = solve_time_pd_by_target(inst, 0.01, 7)
    for seed in (np.int64(7), np.uint8(7)):
        out = solve_time_pd_by_target(inst, 0.01, seed)
        assert (out.decision, out.trials, out.seed) == (plain.decision, plain.trials, 7)
        assert type(out.seed) is int


def test_target_solver_against_oracle():
    for seed in range(20):
        inst = gen_random_instance(n=6, n_teams=2, max_ex=6, max_len=4,
                                   max_weight=3, seed=seed, target=5)
        oracle = brute_force_time_pd(inst)
        out = solve_time_pd_by_target(inst, delta=0.01, seed=seed)
        if oracle.decision:
            assert out.decision
            assert pd_of_subset(inst.tree, out.saved) >= inst.target
            assert verify_schedule(inst, out.schedule).ok
        else:
            assert not out.decision   # soundness is deterministic


def test_strict_target_solver_against_oracle():
    for seed in range(15):
        inst = gen_random_instance(n=4, n_teams=2, max_ex=5, max_len=4,
                                   max_weight=2, seed=seed, target=3,
                                   mode="strict")
        oracle = brute_force_s_time_pd(inst)
        out = solve_s_time_pd_by_target(inst, delta=0.01, seed=seed)
        if oracle.decision:
            assert out.decision
            assert verify_schedule(inst, out.schedule).ok
        else:
            assert not out.decision


def test_target_monotone_in_target():
    for seed in range(8):
        base = gen_random_instance(n=5, n_teams=2, max_ex=6, max_len=4,
                                   max_weight=3, seed=seed)
        decisions = []
        for target in range(1, 7):
            inst = Instance(base.tree, base.taxa, base.teams, target)
            decisions.append(solve_time_pd_by_target(inst, delta=0.01,
                                                     seed=seed).decision)
        # once the solver fails at some target, larger targets cannot succeed
        for lo, hi in zip(decisions, decisions[1:]):
            assert lo or not hi


def test_target_one_yes_when_anything_savable():
    inst = gen_random_instance(n=4, seed=9, target=1)
    out = solve_time_pd_by_target(inst, delta=0.5, seed=0)
    assert out.decision and len(out.saved) == 1


def test_trial_order_independence():
    """The reported trial equals the first success over the trial index
    space, so any execution order (or parallel split) gives the same
    outcome for a fixed (seed, delta)."""
    from reference import trial_colors
    inst = gen_random_instance(n=5, n_teams=2, max_ex=6, max_len=4,
                               max_weight=3, seed=34, target=4)
    idx = build_derived_index(inst)
    out = solve_time_pd_by_target(inst, delta=0.05, seed=5)
    assert out.decision and out.trials >= 1
    width = inst.tree.total_weight()
    successes = []
    for trial in range(1, out.diagnostics["planned_trials"] + 1):
        f = trial_colors(5, trial, inst.target, width)
        col = color_edges_from_hash(inst.tree, inst.target, f)
        if solve_colored_time_pd(idx, col)[0]:
            successes.append(trial)
            if len(successes) > 3:
                break
    assert successes and successes[0] == out.trials


def test_determinism_and_guard():
    inst = gen_random_instance(n=5, seed=4, target=4)
    a = solve_time_pd_by_target(inst, delta=0.01, seed=11)
    b = solve_time_pd_by_target(inst, delta=0.01, seed=11)
    assert (a.decision, a.saved, a.trials) == (b.decision, b.saved, b.trials)
    tree = PhyloTree.from_edges([("r", "a", 20), ("r", "b", 20)])
    big = Instance(tree, {"a": TaxonInfo(1, 2), "b": TaxonInfo(1, 2)},
                   (TeamWindow(0, 2),), target=35)
    with pytest.raises(TargetTooLarge):
        solve_time_pd_by_target(big)
