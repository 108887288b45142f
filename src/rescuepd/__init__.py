"""Exact solvers for time-critical phylogenetic diversity rescue planning.

Given a weighted rooted tree over a set of taxa, per-taxon rescue lengths
and extinction deadlines, and team availability windows, decide whether a
subset of taxa with diversity at least a target can be saved in time, and
produce a verified schedule when it can.  Teams may share work on a taxon
(collaborative mode) or must each handle whole taxa in single consecutive
runs (strict mode).
"""

from .brute import brute_force, brute_force_s_time_pd, brute_force_time_pd
from .budget_dp import (solve_s_time_pd_team_subsets,
                        solve_time_pd_hour_vectors, solve_time_pd_team_vectors)
from .color_loss import (LossColoring, loss_dp_solve, loss_table_entry_count,
                         make_loss_coloring, solve_time_pd_by_loss)
from .color_target import (TargetColoring, color_edges_from_hash,
                           solve_colored_s_time_pd, solve_colored_time_pd,
                           solve_s_time_pd_by_target, solve_time_pd_by_target,
                           trial_count)
from .cover import boolean_cover_combine
from .feasibility import (Schedule, VerificationReport,
                          build_collaborative_schedule, collaborative_feasible,
                          schedule_team_parts, strict_feasible,
                          verify_schedule)
from .generators import gen_random_instance, reduce_subset_sum
from .model import (COLLABORATIVE, STRICT, DerivedIndex, Instance, PhyloTree,
                    TaxonInfo, TeamWindow, build_derived_index, canon,
                    pd_of_subset, savable_alone)
from .newick import parse_newick, to_newick
from .outcome import SolveOutcome
from .structured import solve_star, solve_time_pd_xp

__version__ = "0.1.0"
