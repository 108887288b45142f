"""Instance and schedule files: JSON with an embedded Newick tree.

Timeslots are 1-based in files, matching the in-memory convention: a team
{"start": s, "end": e} works slots s+1 through e.  Serialization is
canonical (sorted keys, fixed indentation), so round-trips are bit-exact.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .feasibility import Schedule
from .model import Instance, TaxonInfo, TeamWindow
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


def _integer(entry, key: str, where: str) -> int:
    value = entry.get(key) if isinstance(entry, dict) else None
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{where} needs an integer {key!r}, got {value!r}")
    return value


def instance_from_dict(data: dict) -> Instance:
    """Inverse of instance_to_dict; malformed input raises ParseError."""
    if not isinstance(data, dict):
        raise ParseError("an instance file must hold a JSON object")
    if data.get("v") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema version {data.get('v')!r}")
    for field, kind in (("tree", str), ("taxa", dict), ("teams", list),
                        ("D", int), ("mode", str)):
        if field not in data:
            raise ParseError(f"instance file is missing {field!r}")
        if not isinstance(data[field], kind) or isinstance(data[field], bool):
            raise ParseError(f"{field!r} must be a JSON {kind.__name__}, "
                             f"got {data[field]!r}")
    tree = parse_newick(data["tree"])
    taxa = {x: TaxonInfo(_integer(entry, "ell", f"taxon {x!r}"),
                         _integer(entry, "ex", f"taxon {x!r}"))
            for x, entry in data["taxa"].items()}
    if set(taxa) != set(tree.taxa):
        diff = sorted(set(taxa) ^ set(tree.taxa), key=str)
        raise ParseError(f"taxa keys and Newick leaves differ on {diff}")
    teams = tuple(TeamWindow(_integer(t, "start", f"team {i}"),
                             _integer(t, "end", f"team {i}"))
                  for i, t in enumerate(data["teams"]))
    return Instance(tree, taxa, teams, data["D"], data["mode"])


def schedule_to_dict(schedule: Schedule, pd_value: int) -> dict:
    return {
        "mode": schedule.mode,
        "assignments": [{"team": i, "slot": j, "taxon": x}
                        for (i, j), x in sorted(schedule.assignment.items())],
        "saved": list(schedule.saved),
        "pd": pd_value,
    }


def schedule_from_dict(data: dict) -> tuple[Schedule, int]:
    assignment = {(entry["team"], entry["slot"]): entry["taxon"]
                  for entry in data["assignments"]}
    return (Schedule(data["mode"], assignment, tuple(data["saved"])),
            int(data["pd"]))


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
