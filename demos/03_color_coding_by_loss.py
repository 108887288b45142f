"""Color coding parameterized by the acceptable diversity loss.

When the target sits close to the tree's total diversity, it is cheaper to
reason about what gets sacrificed.  Anchored tuples (taxon, anchor,
sibling edge) track the dead edges of a sacrifice; key and extra colors
make the bookkeeping exact.  The solver decides the colored instances from
seeded random palettes and re-verifies every yes.
"""

from rescuepd import (Instance, brute_force_time_pd, build_derived_index,
                      gen_random_instance, solve_time_pd_by_loss)

base = gen_random_instance(n=6, n_teams=2, max_ex=8, max_len=5,
                           max_weight=4, min_weight=2, savable_frac=0.85,
                           tree_shape="random-binary", seed=8)
idx = build_derived_index(base)
oracle = brute_force_time_pd(base)
best_loss = idx.pd_total - oracle.value
print("total diversity:", idx.pd_total, "| optimal loss:", best_loss)

for budget in range(max(0, best_loss - 1), best_loss + 2):
    instance = Instance(base.tree, base.taxa, base.teams,
                        idx.pd_total - budget)
    out = solve_time_pd_by_loss(instance, delta=1e-3, seed=4)
    print(f"loss budget {budget}: {'yes' if out.decision else 'no'}"
          f" (trials {out.trials})",
          f"sacrificed {sorted(set(base.tree.taxa) - set(out.saved))}"
          if out.decision else "")

# the solver's own account of the optimal budget
instance = Instance(base.tree, base.taxa, base.teams, oracle.value)
out = solve_time_pd_by_loss(instance, delta=1e-3, seed=4)
print(f"\nloss budget {best_loss}: success at trial {out.trials} of"
      f" {out.diagnostics['planned_trials']} planned, each filling"
      f" {out.diagnostics['table_entries']} table entries")
print(f"sacrificed {sorted(set(base.tree.taxa) - set(out.saved))}, losing"
      f" {idx.pd_total - out.value} of {idx.pd_total} diversity")
