"""Spans and counters around the public functions of each rescuepd module.

The tracer replaces a function in every module namespace that holds it, not
only where it is defined: ``build_derived_index``, for one, is looked up
through ``driver``, ``brute``, ``budget_dp``, ``color_target``,
``color_loss`` and ``structured``.  A span records (name, start, end, parent
span, request id); spans stay in memory and are written out when the run
ends.  ``collaborative_feasible``, which brute force calls once per subset,
gets a count only.  Solver spans also read the returned ``SolveOutcome``, whose trial
counts, table sizes and state counts are exact.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import Counter, defaultdict

ALGORITHMS = ("star", "fpt-d", "fpt-dbar", "hours-teams", "hours-budget",
              "hours-subsets", "xp-counts", "brute", "none")

# span name -> functions, as (defining module, function name)
SPANS = {
    "driver.select": [("driver", "applicable_algorithms")],
    "driver.dispatch": [("driver", "run_algorithm")],
    "files.parse": [("files", "instance_from_dict")],
    "files.newick": [("newick", "parse_newick")],
    "files.dump": [("files", "schedule_to_dict"), ("files", "dumps")],
    "model.index": [("model", "build_derived_index")],
    "model.pd": [("model", "pd_of_subset")],
    "feasibility.verify": [("feasibility", "verify_schedule")],
    "feasibility.schedule": [("feasibility", "build_collaborative_schedule"),
                             ("feasibility", "schedule_team_parts")],
    "feasibility.strict_search": [("feasibility", "strict_feasible")],
    "color_target.solve": [("color_target", "solve_time_pd_by_target"),
                           ("color_target", "solve_s_time_pd_by_target")],
    "color_target.kernel": [("color_target", "solve_colored_time_pd"),
                            ("color_target", "solve_colored_s_time_pd")],
    "color_target.coloring": [("color_target", "color_edges_from_hash")],
    "cover.combine": [("cover", "boolean_cover_combine")],
    "color_loss.solve": [("color_loss", "solve_time_pd_by_loss")],
    "color_loss.dp": [("color_loss", "loss_dp_solve")],
    "budget_dp.hours-teams": [("budget_dp", "solve_time_pd_team_vectors")],
    "budget_dp.hours-budget": [("budget_dp", "solve_time_pd_hour_vectors")],
    "budget_dp.hours-subsets": [("budget_dp", "solve_s_time_pd_team_subsets")],
    "structured.star": [("structured", "solve_star")],
    "structured.xp": [("structured", "solve_time_pd_xp")],
    "brute.brute": [("brute", "brute_force")],
}

# count name -> functions called too often for a span each
COUNTS = {
    "feasibility.prefix_checks": [("feasibility", "collaborative_feasible")],
}

SOLVER_SPANS = ("color_target.solve", "color_loss.solve", "budget_dp.hours-teams",
                "budget_dp.hours-budget", "budget_dp.hours-subsets",
                "structured.star", "structured.xp", "brute.brute")


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "rescuepd" or name.startswith("rescuepd."))]


class Tracer:
    """Installs the wrappers, records spans and counts, and undoes it all."""

    def __init__(self):
        self.spans = []                 # (name, start, end, parent, request)
        self.request = -1
        self.paused = False             # calls pass through unrecorded
        self.calls = Counter()          # span or count name -> calls
        self.total = defaultdict(float)  # span name -> seconds
        self.own = defaultdict(float)    # span name -> seconds minus child spans
        self.outcomes = []              # (request, span name, SolveOutcome)
        self.routes = {}                # request -> first algorithm picked
        self.brute_subsets = 0
        self.ranked_combines = 0
        self._stack = []
        self._patches = []

    # --- installation ----------------------------------------------------
    def install(self):
        modules = _package_modules()
        for name, targets in SPANS.items():
            for module, func in targets:
                self._patch(modules, module, func, self._span(name, func))
        for name, targets in COUNTS.items():
            for module, func in targets:
                self._patch(modules, module, func, self._count(name))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, modules, module, func, wrap):
        """Replace the function in every package module that holds it."""
        original = getattr(importlib.import_module(f"rescuepd.{module}"), func)
        wrapper = wrap(original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    self._patches.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def _count(self, name):
        calls = self.calls

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.paused:
                    return fn(*args, **kwargs)
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return wrap

    def _span(self, name, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls, total, own = self.calls, self.total, self.own
        hook = getattr(self, f"_after_{func}", None)
        if name in SOLVER_SPANS:
            hook = self._after_solver

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.paused:
                    return fn(*args, **kwargs)
                sid = len(spans)
                spans.append(None)
                frame = [sid, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    parent = stack[-1] if stack else None
                    if parent is not None:
                        parent[1] += t1 - t0
                    spans[sid] = (name, t0, t1, parent[0] if parent else -1,
                                  self.request)
                    calls[name] += 1
                    total[name] += t1 - t0
                    own[name] += t1 - t0 - frame[1]
                if hook is not None:
                    hook(name, args, kwargs, result)
                return result
            return wrapper
        return wrap

    # --- hooks reading arguments and results ----------------------------------
    def _after_applicable_algorithms(self, name, args, kwargs, result):
        self.routes.setdefault(self.request, result[0] if result else "none")

    def _after_run_algorithm(self, name, args, kwargs, result):
        algorithm = args[1] if len(args) > 1 else kwargs["algorithm"]
        self.routes.setdefault(self.request, algorithm)

    def _after_boolean_cover_combine(self, name, args, kwargs, result):
        if len(args[0]) > 256:
            self.ranked_combines += 1

    def _after_solver(self, name, args, kwargs, result):
        self.outcomes.append((self.request, name, result))
        if name == "brute.brute":
            self.brute_subsets += 2 ** len(args[0].taxa)

    # --- output ------------------------------------------------------------------
    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for name, t0, t1, parent, request in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{request}\n")

    def metrics(self, requests: int) -> dict:
        """Per-layer metrics, each time and count taken per request."""
        def ms(*names):
            return sum(self.total[n] for n in names) * 1e3 / requests

        def per(count):
            return count / requests

        def share(part, whole):
            return part / whole if whole else 0.0

        target = [o for _, n, o in self.outcomes if n == "color_target.solve"]
        loss = [o for _, n, o in self.outcomes if n == "color_loss.solve"]
        budget = [o for _, n, o in self.outcomes if n.startswith("budget_dp.")]
        xp = [o for _, n, o in self.outcomes if n == "structured.xp"]
        full_runs = [o for o in target if _ran_all_trials(o)]
        route_counts = Counter(self.routes.get(i, "none") for i in range(requests))

        out = {"driver.select_ms": (ms("driver.select"), "ms/req")}
        for algorithm in ALGORITHMS:
            out[f"driver.route_share.{algorithm}"] = (
                share(route_counts[algorithm], requests), "share")
        out.update({
            "files.parse_ms": (ms("files.parse"), "ms/req"),
            "files.dump_ms": (ms("files.dump"), "ms/req"),
            "model.index_calls": (per(self.calls["model.index"]), "1/req"),
            "model.index_ms": (ms("model.index"), "ms/req"),
            "model.pd_calls": (per(self.calls["model.pd"]), "1/req"),
            "model.pd_ms": (ms("model.pd"), "ms/req"),
            "feasibility.verify_calls": (per(self.calls["feasibility.verify"]), "1/req"),
            "feasibility.verify_ms": (ms("feasibility.verify"), "ms/req"),
            "feasibility.schedule_ms": (ms("feasibility.schedule"), "ms/req"),
            "feasibility.strict_search_ms": (ms("feasibility.strict_search"), "ms/req"),
            "feasibility.prefix_checks": (per(self.calls["feasibility.prefix_checks"]), "1/req"),
            "color_target.trials": (per(sum(o.trials or 0 for o in target)), "1/req"),
            "color_target.planned_trials": (
                per(sum(o.diagnostics.get("planned_trials", 0) for o in target)), "1/req"),
            "color_target.full_run_share": (share(len(full_runs), len(target)), "share"),
            "color_target.shortcut_share": (
                share(sum("shortcut" in o.diagnostics for o in target), len(target)), "share"),
            "color_target.kernel_calls": (per(self.calls["color_target.kernel"]), "1/req"),
            "color_target.kernel_ms": (ms("color_target.kernel"), "ms/req"),
            "color_target.coloring_ms": (ms("color_target.coloring"), "ms/req"),
            "color_target.self_ms": (self.own["color_target.solve"] * 1e3 / requests, "ms/req"),
            "cover.combine_calls": (per(self.calls["cover.combine"]), "1/req"),
            "cover.combine_ms": (ms("cover.combine"), "ms/req"),
            "cover.ranked_share": (share(self.ranked_combines, self.calls["cover.combine"]), "share"),
            "color_loss.trials": (per(sum(o.trials or 0 for o in loss)), "1/req"),
            "color_loss.dp_calls": (per(self.calls["color_loss.dp"]), "1/req"),
            "color_loss.dp_ms": (ms("color_loss.dp"), "ms/req"),
            "color_loss.table_entries": (
                per(sum(o.diagnostics.get("table_entries") or 0 for o in loss)), "1/req"),
            "color_loss.self_ms": (self.own["color_loss.solve"] * 1e3 / requests, "ms/req"),
            "budget_dp.states": (per(sum(o.diagnostics.get("states", 0) for o in budget)), "1/req"),
        })
        for algorithm in ("hours-teams", "hours-budget", "hours-subsets"):
            out[f"budget_dp.ms.{algorithm}"] = (ms(f"budget_dp.{algorithm}"), "ms/req")
        out.update({
            "structured.star_ms": (ms("structured.star"), "ms/req"),
            "structured.xp_ms": (ms("structured.xp"), "ms/req"),
            "structured.xp_states": (per(sum(o.diagnostics.get("states", 0) for o in xp)), "1/req"),
            "brute.calls": (per(self.calls["brute.brute"]), "1/req"),
            "brute.ms": (ms("brute.brute"), "ms/req"),
            "brute.subsets": (per(self.brute_subsets), "1/req"),
            "workload.full_run_share": (
                share(len({i for i, n, o in self.outcomes
                           if n in ("color_target.solve", "color_loss.solve")
                           and _ran_all_trials(o)}), requests), "share"),
        })
        return out


def _ran_all_trials(outcome) -> bool:
    planned = outcome.diagnostics.get("planned_trials")
    return planned is not None and outcome.trials == planned
