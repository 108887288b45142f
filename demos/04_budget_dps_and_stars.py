"""The budget-vector tree DPs and the star knapsack solver.

Three exact alternatives to color coding: budget the teams per timeslot,
budget the hours per deadline class, or (strict mode) budget team subsets
per timeslot.  On stars the problem collapses to one knapsack indexed by
capacity, the taxa taken in deadline order and each capped at the hours of
its deadline class.
"""

from rescuepd import (brute_force, gen_random_instance, reduce_subset_sum,
                      solve_s_time_pd_team_subsets, solve_star,
                      solve_time_pd_hour_vectors, solve_time_pd_team_vectors,
                      solve_time_pd_xp)

inst = gen_random_instance(n=6, n_teams=2, max_ex=4, max_len=4,
                           max_weight=3, seed=5)
print("collaborative instance, target", inst.target)
for name, solver in [("team counts ", solve_time_pd_team_vectors),
                     ("hour budgets", solve_time_pd_hour_vectors),
                     ("count matrix", solve_time_pd_xp)]:
    out = solver(inst)
    print(f"  {name}: {'yes' if out.decision else 'no'}"
          f" optimal diversity {out.value}")
print("  oracle      :", brute_force(inst).value)

strict = gen_random_instance(n=5, n_teams=2, max_ex=3, max_len=3,
                             max_weight=3, seed=6, mode="strict")
out = solve_s_time_pd_team_subsets(strict)
print(f"\nstrict instance: team-subset DP says"
      f" {'yes' if out.decision else 'no'} value {out.value},"
      f" oracle value {brute_force(strict).value}")

star = reduce_subset_sum([3, 5, 6, 9], 2, 11)
print("\nsubset-sum star (pick 2 of {3,5,6,9} summing to 11):")
out = solve_star(star)
print(f"  star solver: {'yes' if out.decision else 'no'}"
      f" via {out.saved if out.decision else '-'}")
