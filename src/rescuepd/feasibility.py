"""Feasibility tests, schedule construction, and bit-exact verification.

A set of taxa has a collaborative schedule iff, for every distinct deadline,
the total rescue length of the chosen taxa due by that deadline fits within
the person-hours available by it (a Hall-type prefix condition).  The
constructive direction fills (team, slot) pairs sorted by slot with taxa
sorted by deadline.

Strict schedules assign each taxon to exactly one team as one consecutive
run.  A set is strictly feasible iff it splits into one part per team that
the team can run earliest deadline first (Jackson 1955).  One DP over the
subsets of a set (Held and Karp 1962) decides them all at once.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass, field

from .errors import DomainMismatch, InfeasibleSet, SetTooLarge, UnknownTaxon
from .model import COLLABORATIVE, STRICT, DerivedIndex, Instance, canon, check_size


@dataclass(frozen=True)
class Schedule:
    """Assignment of (team index, timeslot) pairs to taxa.

    Pairs not present in ``assignment`` are idle.  ``saved`` is the set the
    schedule claims to save; verify_schedule checks the claim.
    """

    mode: str
    assignment: dict  # (team, slot) -> label
    saved: tuple = ()


@dataclass
class VerificationReport:
    """Per-taxon accounting of a schedule against its instance."""

    ok: bool
    mode: str
    hours: dict = field(default_factory=dict)       # label -> assigned hours
    required: dict = field(default_factory=dict)    # label -> rescue length
    post_deadline: list = field(default_factory=list)   # (label, team, slot)
    strictness: list = field(default_factory=list)      # offending labels
    underfilled: list = field(default_factory=list)     # labels short of hours


def _distinct(taxa_set) -> tuple[str, ...]:
    """The labels of a taxa set, each once, in canonical order; UnknownTaxon
    for a set that is not iterable or holds a label that is not hashable."""
    try:
        return canon(set(taxa_set))
    except TypeError:
        raise UnknownTaxon(f"{taxa_set!r} is not a set of taxon labels") from None


def collaborative_feasible(idx: DerivedIndex, taxa_set) -> bool:
    """Prefix condition: class-wise cumulative length within capacity."""
    members = _distinct(taxa_set)
    need = [0] * idx.n_classes
    for x in members:
        ell = idx.instance.length(x)  # UnknownTaxon before the class lookup
        need[idx.class_of[x]] += ell
    running = 0
    for k in range(idx.n_classes):
        running += need[k]
        if running > idx.hours[k]:
            return False
    return True


def build_collaborative_schedule(idx: DerivedIndex, taxa_set) -> Schedule:
    """Greedy witness for the prefix condition.

    (team, slot) pairs are taken in (slot, team) order and taxa in
    (class, label) order; each taxon gets the next rescue-length pairs.
    Deterministic, and always passes verify_schedule on feasible input.
    """
    members = _distinct(taxa_set)
    if not collaborative_feasible(idx, members):
        raise InfeasibleSet(f"no collaborative schedule saves {members}")
    inst = idx.instance
    pairs = inst.pairs_by_slot()
    queue = sorted(members, key=lambda x: (idx.class_of[x], x))
    assignment = {}
    for x in queue:
        for _ in range(inst.length(x)):
            assignment[next(pairs)] = x
    return Schedule(COLLABORATIVE, assignment, members)


def _pack(instance: Instance, i: int, taxa, assignment: dict) -> int:
    """Place the longest prefix of taxa on team i, back-to-back from the
    window start, each run ending by its taxon's deadline and the window
    end; returns how many taxa it placed."""
    team = instance.teams[i]
    cursor = team.start
    for placed, x in enumerate(taxa):
        end = cursor + instance.length(x)
        if end > min(team.end, instance.deadline(x)):
            return placed
        for j in range(cursor + 1, end + 1):
            assignment[(i, j)] = x
        cursor = end
    return len(taxa)


def strict_table(instance: Instance, members) -> list:
    """f[S] per bitmask S over members: the least (team, end of its last
    run, index of the last taxon) after placing S, else None.  Teams are
    used in index order, each running its taxa back to back from its window
    start; x goes to the first team, from the current one on, where its run
    ends by min(window end, x's deadline).  Exact, as a smaller state can
    follow every continuation of a larger one and every taxon is tried last.
    Each state visits only the taxa of its set; where x overruns the current
    team, it takes x's first later team that fits x from that team's start.
    """
    teams = instance.teams
    runs = []  # per taxon: length, per-team room, per-team fresh placement
    for x in members:
        need, due = instance.length(x), instance.deadline(x)
        room = [min(t.end, due) for t in teams]
        fresh, nxt = [None] * len(teams), None
        for j in range(len(teams) - 1, -1, -1):
            fresh[j] = nxt  # the first team after j that fits x alone
            if teams[j].start + need <= room[j]:
                nxt = (j, teams[j].start + need)
        runs.append((need, room, fresh))
    f = [None] * (1 << len(runs))
    f[0] = (0, teams[0].start, None)
    for s in range(1, len(f)):
        t, best = s, None
        while t:
            low = t & -t
            t ^= low
            prev = f[s ^ low]
            if prev is None:
                continue
            k = low.bit_length() - 1
            need, room, fresh = runs[k]
            i, cursor, _ = prev
            if cursor + need <= room[i]:
                cand = (i, cursor + need, k)
            elif fresh[i] is not None:
                cand = (*fresh[i], k)
            else:
                continue
            if best is None or cand < best:
                best = cand
        f[s] = best
    return f


def strict_feasible(instance: Instance, taxa_set, guard: int = 10):
    """A strict schedule that saves taxa_set, or None (a normal outcome):
    the subset table's backtrack gives one part per team, packed earliest
    deadline first, which fits wherever the table's order fits.  The guard,
    an integer >= 0 or None for none, bounds the 2^|set| states."""
    members = _distinct(taxa_set)
    if guard is not None:
        check_size(guard, "the guard")
        if len(members) > guard:
            raise SetTooLarge(f"{len(members)} taxa exceed the subset guard {guard}")
    f = strict_table(instance, members)
    s = len(f) - 1
    if f[s] is None:
        return None
    parts = [[] for _ in instance.teams]
    while s:
        team, _, k = f[s]
        parts[team].append(members[k])
        s ^= 1 << k
    return schedule_team_parts(instance, parts)


def schedule_team_parts(instance: Instance, parts) -> Schedule:
    """Strict schedule from per-team taxa sets, earliest deadline first.

    Each team's part must satisfy the single-team prefix condition; runs are
    packed back-to-back from the window start.  A taxon in two parts is
    InfeasibleSet, as no strict schedule runs a taxon on two teams.
    """
    try:
        parts = list(parts)
    except TypeError:
        raise UnknownTaxon(f"{parts!r} is not a sequence of taxa sets") from None
    assignment = {}
    saved = []
    for i, part in enumerate(parts):
        if i >= len(instance.teams):
            raise DomainMismatch(f"part {i} has no team among {len(instance.teams)}")
        taxa = sorted(_distinct(part), key=lambda x: (instance.deadline(x), x))
        twice = set(saved).intersection(taxa)
        if twice:
            raise InfeasibleSet(f"{min(twice)!r} is in two parts, but a strict "
                                "schedule runs it on one team")
        placed = _pack(instance, i, taxa, assignment)
        if placed < len(taxa):
            raise InfeasibleSet(f"team {i} cannot fit {taxa[placed]!r} by its deadline")
        saved.extend(taxa)
    return Schedule(STRICT, assignment, canon(saved))


def _available(instance: Instance, key) -> bool:
    """Is key a (team index, timeslot) pair inside that team's window?"""
    if not (isinstance(key, tuple) and len(key) == 2):
        return False
    try:
        i, j = map(operator.index, key)
    except TypeError:
        return False
    teams = instance.teams
    return 0 <= i < len(teams) and teams[i].start < j <= teams[i].end


def verify_schedule(instance: Instance, schedule: Schedule) -> VerificationReport:
    """Check validity, saving, and (strict mode) one-team consecutive runs,
    all in the instance's mode; a schedule of the other mode is not ok.
    DomainMismatch for an assignment that is not a mapping, UnknownTaxon for
    a label that is not the instance's."""
    if not isinstance(schedule.assignment, Mapping):
        raise DomainMismatch(f"the assignment {schedule.assignment!r} is not a mapping")
    for key in schedule.assignment:
        if not _available(instance, key):
            raise DomainMismatch(f"pair {key} is outside the availability set")
    hours: dict[str, int] = {}
    slots: dict[str, list] = {}
    report = VerificationReport(ok=True, mode=instance.mode)
    for (i, j), x in sorted(schedule.assignment.items()):
        if j > instance.deadline(x):  # UnknownTaxon before the label is hashed
            report.post_deadline.append((x, i, j))
        hours[x] = hours.get(x, 0) + 1
        slots.setdefault(x, []).append((i, j))
    touched = set(hours).union(_distinct(schedule.saved))
    for x in sorted(touched, key=str):  # instance.length raises UnknownTaxon
        report.hours[x] = hours.get(x, 0)
        report.required[x] = instance.length(x)
        if report.hours[x] < report.required[x]:
            report.underfilled.append(x)
    if instance.mode == STRICT:
        for x, used in sorted(slots.items()):
            teams = {i for i, _ in used}
            times = sorted(j for _, j in used)
            consecutive = all(b == a + 1 for a, b in zip(times, times[1:]))
            if len(teams) > 1 or not consecutive:
                report.strictness.append(x)
    report.ok = schedule.mode == instance.mode and not (
        report.post_deadline or report.strictness or report.underfilled)
    return report
