"""Digests of the outcomes that a benchmark workload's requests get.

    python3 tools/outcome_digest.py color-coding 1 --requests 150
    python3 tools/outcome_digest.py all 1 2027 --summary
    python3 tools/outcome_digest.py all 1 2027 --streams

Builds the seeded request stream of one workload in
``perfbench/workloads.py``, solves each request as the workload does, and
prints one line per request: its index, its class and two digests of the
solver outcomes it got (one outcome on auto-serve and color-coding, one
per solver call on crossval-sweep):

- contract: decision, algorithm, trials, seed and diagnostics;
- witness: saved set, value and schedule.

With ``all`` in place of a workload, and with several seeds, the streams
follow one another, workloads in name order and each at every seed in
turn.  ``--summary`` prints one line per (workload, seed) instead: the
workload, the seed, the request count, a digest of all its contract
digests and a digest of all its witness digests.  ``--streams`` prints one
line per (workload, seed) without solving anything: the workload, the
seed, the request count and a digest of every request's index, class,
reference decision, seed and instance JSON.

Run it in two checkouts and compare the output.  Equal contract digests
mean the same decisions, routes and trial indices; a witness digest may
differ where a solver returns another valid witness.  The package is
imported from the ``src`` directory of the checkout the script is in.

``tools/outcome_digests.txt`` holds the ``all 1 2027 --summary`` lines
and ``tools/stream_digests.txt`` the ``all 1 2027 --streams`` lines, and CI
diffs the script's output against both.  Equal stream digests mean the
benchmark serves the same requests, whatever the router picks for them.  A
change that alters witnesses or request streams on purpose regenerates the
file with that command and says why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from rescuepd import driver, files  # noqa: E402


def outcomes(workload: str, request) -> list:
    """The solver outcomes of one request, as its workload gets them."""
    if workload == "auto-serve":
        return [driver.solve_auto(request.instance, workloads.DELTA, request.seed)]
    if workload == "color-coding":
        return [workloads.solve_pinned(request)]
    return [outcome for _, outcome in workloads.sweep(request)[1]]


def _digest(fields) -> str:
    text = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stream(workload: str, seed: int, requests: int = None):
    """The first ``requests`` requests of the stream, or all of them."""
    blocks = workloads.build_blocks(workloads.WORKLOADS[workload], seed)
    return itertools.islice(itertools.chain.from_iterable(blocks), requests)


def digests(workload: str, seed: int, requests: int = None):
    """(index, class, contract digest, witness digest) of the first
    ``requests`` requests of the stream, or of all of them."""
    for request in stream(workload, seed, requests):
        outs = [o for o in outcomes(workload, request) if o is not None]
        contract = [(o.decision, o.algorithm, o.trials, o.seed, o.diagnostics)
                    for o in outs]
        witness = [(o.saved, o.value, o.schedule and
                    files.schedule_to_dict(o.schedule, o.value)) for o in outs]
        yield request.index, request.klass, _digest(contract), _digest(witness)


def summary(workload: str, seed: int, requests: int = None):
    """(workload, seed, request count, digest of the contract digests,
    digest of the witness digests) of one stream."""
    rows = list(digests(workload, seed, requests))
    return (workload, seed, len(rows), _digest([row[2] for row in rows]),
            _digest([row[3] for row in rows]))


def stream_summary(workload: str, seed: int, requests: int = None):
    """(workload, seed, request count, digest of every request's index,
    class, reference decision, seed and instance JSON) of one stream."""
    rows = [(r.index, r.klass, r.reference, r.seed,
             files.dumps(files.instance_to_dict(r.instance)))
            for r in stream(workload, seed, requests)]
    return workload, seed, len(rows), _digest(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("seeds", type=int, nargs="+", metavar="seed")
    parser.add_argument("--requests", type=int, default=None,
                        help="digest only the first N requests of each stream")
    lines = parser.add_mutually_exclusive_group()
    lines.add_argument("--summary", action="store_true",
                       help="print one line per (workload, seed)")
    lines.add_argument("--streams", action="store_true",
                       help="print one digest of the requests per (workload, seed)")
    args = parser.parse_args(argv)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        for seed in args.seeds:
            if args.streams:
                print(*stream_summary(name, seed, args.requests))
            elif args.summary:
                print(*summary(name, seed, args.requests))
            else:
                for row in digests(name, seed, args.requests):
                    print(*row)


if __name__ == "__main__":
    main()
