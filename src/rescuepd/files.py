"""Instance and schedule files: JSON with an embedded Newick tree.

Timeslots are 1-based in files, matching the in-memory convention: a team
{"start": s, "end": e} works slots s+1 through e.  Serialization is
canonical (sorted keys, fixed indentation), so round-trips are bit-exact.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .feasibility import Schedule
from .model import MODES, Instance, TaxonInfo, TeamWindow
from .newick import parse_newick, to_newick

SCHEMA_VERSION = 1


def instance_to_dict(instance: Instance) -> dict:
    return {
        "v": SCHEMA_VERSION,
        "tree": to_newick(instance.tree),
        "taxa": {x: {"ell": info.rescue_length, "ex": info.extinction_time}
                 for x, info in sorted(instance.taxa.items())},
        "teams": [{"start": t.start, "end": t.end} for t in instance.teams],
        "D": instance.target,
        "mode": instance.mode,
    }


def _fields(data, what: str, kinds) -> tuple:
    """The values of the JSON object data at each (field, type) of kinds."""
    if not isinstance(data, dict):
        raise ParseError(f"{what} must be a JSON object")
    for field, kind in kinds:
        value = data.get(field)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ParseError(f"{what} needs a JSON {kind.__name__} {field!r}, "
                             f"got {value!r}")
    return tuple(data[field] for field, _ in kinds)


def instance_from_dict(data: dict) -> Instance:
    """Inverse of instance_to_dict; malformed input raises ParseError."""
    if not isinstance(data, dict):
        raise ParseError("an instance file must hold a JSON object")
    if data.get("v") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema version {data.get('v')!r}")
    text, entries, windows, target, mode = _fields(
        data, "an instance file", (("tree", str), ("taxa", dict), ("teams", list),
                                   ("D", int), ("mode", str)))
    tree = parse_newick(text)
    taxa = {x: TaxonInfo(*_fields(entry, f"taxon {x!r}", (("ell", int), ("ex", int))))
            for x, entry in entries.items()}
    if set(taxa) != set(tree.taxa):
        diff = sorted(set(taxa) ^ set(tree.taxa), key=str)
        raise ParseError(f"taxa keys and Newick leaves differ on {diff}")
    teams = tuple(TeamWindow(*_fields(t, f"team {i}", (("start", int), ("end", int))))
                  for i, t in enumerate(windows))
    return Instance(tree, taxa, teams, target, mode)


def schedule_to_dict(schedule: Schedule, pd_value: int) -> dict:
    return {
        "mode": schedule.mode,
        "assignments": [{"team": i, "slot": j, "taxon": x}
                        for (i, j), x in sorted(schedule.assignment.items())],
        "saved": list(schedule.saved),
        "pd": pd_value,
    }


def schedule_from_dict(data: dict) -> tuple[Schedule, int]:
    """Inverse of schedule_to_dict; malformed input raises ParseError."""
    mode, entries, saved, pd_value = _fields(
        data, "a schedule file", (("mode", str), ("assignments", list),
                                  ("saved", list), ("pd", int)))
    if mode not in MODES:
        raise ParseError(f"mode must be one of {MODES}, got {mode!r}")
    assignment = {}
    for n, entry in enumerate(entries):
        i, j, x = _fields(entry, f"assignment {n}",
                          (("team", int), ("slot", int), ("taxon", str)))
        if (i, j) in assignment:
            raise ParseError(f"assignment {n} books team {i}'s slot {j} twice")
        assignment[i, j] = x
    if not all(isinstance(x, str) for x in saved):
        raise ParseError(f"'saved' must list taxon labels, got {saved!r}")
    return Schedule(mode, assignment, tuple(saved)), pd_value


def dumps(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def save_instance(instance: Instance, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(instance_to_dict(instance)))


def load_instance(path) -> Instance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def save_schedule(schedule: Schedule, pd_value: int, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(schedule_to_dict(schedule, pd_value)))


def load_schedule(path) -> tuple[Schedule, int]:
    with open(path) as fh:
        return schedule_from_dict(json.load(fh))
