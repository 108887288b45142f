"""Uniform result type returned by every solver, and the trivial screen."""

from __future__ import annotations

from dataclasses import dataclass, field

from .feasibility import Schedule


@dataclass
class SolveOutcome:
    """Decision plus witness and diagnostics.

    A "yes" always carries a saved set whose diversity meets the target and
    a schedule that passes verification; solvers assert this before
    returning.  ``value`` is the diversity of the witness (or the best value
    found, for exhaustive solvers).
    """

    decision: bool
    algorithm: str
    saved: tuple = None
    schedule: object = None
    value: int = None
    trials: int = None
    seed: int = None
    diagnostics: dict = field(default_factory=dict)


def trivial_outcome(idx, algorithm: str, **fields):
    """The screen every solver runs first; None when the instance is nontrivial.

    A target above the whole tree's diversity is a no; a zero target is a yes
    with the empty set.  ``fields`` fill the solver's other outcome fields.
    """
    target = idx.instance.target
    if target > idx.pd_total:
        return SolveOutcome(False, algorithm, value=idx.pd_total, **fields,
                            diagnostics={"trivial": "target exceeds total diversity"})
    if target == 0:
        return SolveOutcome(True, algorithm, saved=(),
                            schedule=Schedule(idx.instance.mode, {}, ()), value=0,
                            **fields, diagnostics={"trivial": "target is zero"})
    return None
