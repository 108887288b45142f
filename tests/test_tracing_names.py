"""The benchmark tracer wraps functions by module attribute name; a renamed
or removed function would silently read zero there, so every name it
lists must resolve in the package, every solver the driver dispatches
must run through its wrapped name, and each color-coding yes and each
strict brute yes must run its witness step through the wrapped per-layer
names."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from rescuepd import Instance, PhyloTree, TaxonInfo, TeamWindow, driver
from rescuepd.brute import brute_force
from rescuepd.driver import ADMISSION
from rescuepd.model import COLLABORATIVE, STRICT

from conftest import split_rescue

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

SOLVER_SPAN = {
    "star": "structured.star", "fpt-dbar": "color_loss.solve",
    "fpt-d": "color_target.solve", "hours-teams": "budget_dp.hours-teams",
    "hours-budget": "budget_dp.hours-budget",
    "hours-subsets": "budget_dp.hours-subsets", "xp-counts": "structured.xp",
    "brute": "brute.brute",
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_function_resolves():
    tracing = load_tracing()
    pairs = [pair for table in (tracing.SPANS, tracing.COUNTS)
             for targets in table.values() for pair in targets]
    assert pairs
    for module, func in pairs:
        target = getattr(importlib.import_module(f"rescuepd.{module}"), func, None)
        assert callable(target), f"rescuepd.{module}.{func}"


def test_the_tracer_sees_every_dispatched_solver():
    tracing = load_tracing()
    assert set(SOLVER_SPAN.values()) == set(tracing.SOLVER_SPANS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        def solver_spans(call):
            before = Counter({n: tracer.calls[n] for n in tracing.SOLVER_SPANS})
            call()
            after = Counter({n: tracer.calls[n] for n in tracing.SOLVER_SPANS})
            return after - before

        for mode, rows in ADMISSION.items():
            instance = split_rescue(mode, b_deadline=2)
            assert driver.applicable_algorithms(instance) == [row[0] for row in rows]
            for algorithm, *_ in rows:
                tracer.request += 1
                fired = solver_spans(lambda: driver.run_algorithm(instance, algorithm))
                assert fired == Counter({SOLVER_SPAN[algorithm]: 1}), (mode, algorithm)
                assert tracer.routes[tracer.request] == algorithm
            tracer.request += 1
            auto = []
            fired = solver_spans(lambda: auto.append(driver.solve_auto(instance)))
            picked = auto[0].diagnostics["auto"]
            assert fired == Counter({SOLVER_SPAN[picked]: 1})
            assert tracer.routes[tracer.request] == picked == auto[0].algorithm
            assert auto[0].decision == brute_force(instance).decision
            fired = solver_spans(lambda: driver.run_bench_instance((0, "tiny", instance)))
            assert fired == Counter(SOLVER_SPAN[row[0]] for row in rows)
    finally:
        tracer.uninstall()


def test_each_color_coding_yes_fires_its_layers_once():
    """Two leaves of weight 1 and target 2: fpt-d succeeds at trial 1 with
    seed 1 and at trial 4 with seed 5.  Either way the witness step makes
    one coloring and runs the kernel once; a strict yes also merges its two
    teams' tables by the cover product.  An fpt-dbar yes (loss 1, room for
    one leaf) fills its loss table once for the witness."""
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        def fired(instance, algorithm, seed):
            before = Counter(tracer.calls)
            out = driver.run_algorithm(instance, algorithm, 1e-3, seed)
            assert out.decision, (instance.mode, algorithm, seed)
            return out.trials, Counter(tracer.calls) - before

        for mode in (COLLABORATIVE, STRICT):
            inst = Instance(tree, {"a": TaxonInfo(1, 2), "b": TaxonInfo(1, 2)},
                            (TeamWindow(0, 1), TeamWindow(0, 1)), 2, mode)
            for seed, trial in ((1, 1), (5, 4)):
                trials, calls = fired(inst, "fpt-d", seed)
                assert trials == trial
                assert calls["color_target.kernel"] == calls["color_target.coloring"] == 1
                assert (calls["cover.combine"] > 0) == (mode == STRICT), mode
        inst = Instance(tree, {"a": TaxonInfo(1, 1), "b": TaxonInfo(1, 1)},
                        (TeamWindow(0, 1),), 1)
        trials, calls = fired(inst, "fpt-dbar", 5)
        assert trials == 4 and calls["color_loss.dp"] == 1
    finally:
        tracer.uninstall()


def test_strict_brute_searches_for_its_witness_only():
    """Strict brute decides its subsets by table lookup, so
    ``feasibility.strict_search`` fires once on a yes, for the witness, and
    never on a no.  Two unit taxa, target 2: two one-hour teams save both,
    one does not."""
    tree = PhyloTree.from_edges([("r", "a", 1), ("r", "b", 1)])
    taxa = {"a": TaxonInfo(1, 2), "b": TaxonInfo(1, 2)}
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for teams, decision in (((TeamWindow(0, 1),) * 2, True),
                                ((TeamWindow(0, 1),), False)):
            before = tracer.calls["feasibility.strict_search"]
            out = driver.run_algorithm(Instance(tree, taxa, teams, 2, STRICT), "brute")
            assert out.decision == decision
            assert tracer.calls["feasibility.strict_search"] - before == int(decision)
    finally:
        tracer.uninstall()
