"""Uniform result type returned by every solver, and the per-request
contract every solver shares: its mode, the trivial screen, and the re-check
of a yes."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import RescuePDError
from .feasibility import Schedule, verify_schedule
from .model import canon, pd_of_subset


@dataclass
class SolveOutcome:
    """Decision plus witness and diagnostics.

    A "yes" always carries a saved set whose diversity meets the target and
    a schedule that passes verification; every solver but brute force
    returns its yes through ``checked_yes``, and the driver's brute-force
    row passes brute force's yes through ``checked_witness``.  ``value`` is the diversity of
    the witness (or the best value found, for exhaustive solvers).
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


def check_mode(instance, mode: str, algorithm: str) -> None:
    """A solver answers the problem of one mode and refuses the other."""
    if instance.mode != mode:
        raise RescuePDError(f"{algorithm} solves {mode} instances, "
                            f"not {instance.mode} ones")


def checked_yes(idx, algorithm: str, saved, schedule, **fields) -> SolveOutcome:
    """``checked_witness`` on the instance of a solver's derived index."""
    return checked_witness(idx.instance, algorithm, saved, schedule, **fields)


def checked_witness(instance, algorithm: str, saved, schedule,
                    **fields) -> SolveOutcome:
    """A solver's yes, re-checked: the schedule saves exactly the saved set,
    it verifies in the instance's mode, and the set's diversity, which
    becomes ``value``, meets the target.  ``fields`` fill the solver's other
    outcome fields."""
    value = pd_of_subset(instance.tree, saved)
    if value < instance.target:
        raise RescuePDError(f"{algorithm} witness failed the diversity re-check")
    if canon(schedule.saved) != canon(saved) or \
            not verify_schedule(instance, schedule).ok:
        raise RescuePDError(f"{algorithm} witness failed verification")
    return SolveOutcome(True, algorithm, saved=saved, schedule=schedule,
                        value=value, **fields)
