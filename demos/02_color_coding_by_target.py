"""Color coding parameterized by the target diversity.

Weight units along edges become colors; a taxa set covering the whole
palette certifies diversity at least the palette size.  One colored round
is an exact dynamic program over color sets; the randomized wrapper
repeats rounds until a witness appears or the planned trial budget is
exhausted.
"""

from rescuepd import (brute_force_time_pd, build_derived_index,
                      color_edges_from_hash, gen_random_instance,
                      solve_colored_time_pd, solve_time_pd_by_target,
                      trial_count)

instance = gen_random_instance(n=6, n_teams=2, max_ex=6, max_len=4,
                               max_weight=3, seed=8, target=5)
idx = build_derived_index(instance)
print("instance: n=6, target", instance.target,
      "of total", idx.pd_total)

# one hand-picked coloring: stripe the weight units round-robin
width = instance.tree.total_weight()
f = [(pos % instance.target) + 1 for pos in range(width + 1)]
coloring = color_edges_from_hash(instance.tree, instance.target, f)
ok, saved = solve_colored_time_pd(idx, coloring)
print("striped coloring says:", "yes via " + ",".join(saved) if ok else "no")

print("planned trials at delta 1e-3:", trial_count(instance.target, 1e-3))
out = solve_time_pd_by_target(instance, delta=1e-3, seed=0)
print("randomized solver:", "yes" if out.decision else "no",
      "| witness:", out.saved, "| trials used:", out.trials)

oracle = brute_force_time_pd(instance)
print("oracle agrees:", oracle.decision == out.decision,
      "(optimal diversity", oracle.value, ")")
