"""The benchmark tracer wraps functions by module attribute name; a renamed
or removed function would silently read zero there, so every name it
lists must resolve in the package, and every solver the driver dispatches
must run through its wrapped name."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from rescuepd import driver
from rescuepd.driver import ADMISSION

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
            fired = solver_spans(lambda: driver.solve_auto(instance))
            assert fired == Counter({SOLVER_SPAN[rows[0][0]]: 1})
            assert tracer.routes[tracer.request] == rows[0][0]
            fired = solver_spans(lambda: driver.run_bench_instance((0, "tiny", instance)))
            assert fired == Counter(SOLVER_SPAN[row[0]] for row in rows)
    finally:
        tracer.uninstall()
