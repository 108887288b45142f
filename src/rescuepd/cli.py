"""Command-line interface.

Subcommands: solve, verify, pd, gen, bench.  Exit codes for solve:
0 = yes, 3 = no, 1 = error, 2 = every algorithm's guard was exceeded.
All randomness flows from --seed (default: the TPD_SEED environment
variable, else 0).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import files
from .driver import (ADMISSION, disagreement_report, run_algorithm, run_bench,
                     smallest_disagreement, solve_auto, write_bench_csv)
from .errors import BadParams, RescuePDError
from .feasibility import verify_schedule
from .generators import gen_random_instance, reduce_subset_sum
from .model import pd_of_subset

EXIT_YES = 0
EXIT_ERROR = 1
EXIT_ALL_GUARDED = 2
EXIT_NO = 3

ALGORITHMS = tuple(dict.fromkeys(
    ["auto"] + [row[0] for rows in ADMISSION.values() for row in rows]))


def _seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"the seed (--seed or TPD_SEED) must be an integer, got {text!r}") from None


def _default_seed() -> str:
    # argparse runs a string default through the argument's type, so a bad
    # TPD_SEED is reported like a bad --seed when the command is parsed
    return os.environ.get("TPD_SEED", "0")


def cmd_solve(args) -> int:
    instance = files.load_instance(args.instance)
    if args.mode:
        instance = type(instance)(instance.tree, instance.taxa, instance.teams,
                                  instance.target, args.mode)
    t0 = time.perf_counter()
    if args.algorithm == "auto":
        outcome = solve_auto(instance, args.delta, args.seed)
        if outcome is None:
            print("all algorithm guards exceeded for this instance")
            return EXIT_ALL_GUARDED
    else:
        outcome = run_algorithm(instance, args.algorithm, args.delta, args.seed)
    wall = time.perf_counter() - t0
    print(f"decision: {'yes' if outcome.decision else 'no'}")
    print(f"algorithm: {outcome.algorithm}")
    if outcome.value is not None:
        print(f"pd: {outcome.value}")
    if outcome.trials is not None:
        print(f"trials: {outcome.trials}")
    if not outcome.decision and outcome.algorithm in ("fpt-d", "fpt-dbar"):
        print(f"delta: {args.delta}")
    print(f"wall_s: {wall:.3f}")
    if outcome.decision and args.output:
        files.save_schedule(outcome.schedule, outcome.value, args.output)
        print(f"schedule written to {args.output}")
    return EXIT_YES if outcome.decision else EXIT_NO


def cmd_verify(args) -> int:
    instance = files.load_instance(args.instance)
    schedule, pd_claimed = files.load_schedule(args.schedule)
    report = verify_schedule(instance, schedule)
    actual = pd_of_subset(instance.tree, schedule.saved)
    print(f"valid+saving: {report.ok}")
    print(f"pd claimed: {pd_claimed}  pd recomputed: {actual}")
    if schedule.mode != instance.mode:
        print(f"  mode mismatch: a {schedule.mode} schedule for a {instance.mode} instance")
    for x, i, j in report.post_deadline:
        print(f"  post-deadline: {x} by team {i} at slot {j}")
    for x in report.strictness:
        print(f"  strictness violation: {x}")
    for x in report.underfilled:
        print(f"  underfilled: {x} ({report.hours[x]}/{report.required[x]} hours)")
    return EXIT_YES if report.ok and actual == pd_claimed else EXIT_NO


def cmd_pd(args) -> int:
    instance = files.load_instance(args.instance)
    taxa = [x for x in args.taxa.split(",") if x] if args.taxa else []
    print(pd_of_subset(instance.tree, taxa))
    return EXIT_YES


def cmd_gen(args) -> int:
    if args.kind == "random":
        instance = gen_random_instance(
            n=args.n, n_teams=args.teams, max_ex=args.max_ex,
            max_len=args.max_len, max_weight=args.max_weight,
            tree_shape=args.shape, mode=args.mode, seed=args.seed,
            target=args.target)
    else:
        if None in (args.values, args.k, args.goal):
            raise BadParams("--kind subset-sum needs --values, --k and --goal")
        try:
            values = [int(z) for z in args.values.split(",")]
        except ValueError:
            raise BadParams("--values must be comma-separated integers, "
                            f"got {args.values!r}") from None
        instance = reduce_subset_sum(values, args.k, args.goal, args.pad)
    files.save_instance(instance, args.out)
    print(f"wrote {args.out} (n={len(instance.taxa)}, "
          f"pd={instance.tree.total_weight()}, D={instance.target})")
    return EXIT_YES


# the JSON types of a sweep spec's keys, and of a family's keys other than
# its name; all family keys but count and seed0 go to gen_random_instance
_SPEC_KEYS = {"families": list, "delta": (int, float), "seed": int}
_FAMILY_KEYS = {"count": int, "seed0": int, "n": int, "n_teams": int,
                "max_ex": int, "max_len": int, "max_weight": int,
                "min_weight": int, "target": int, "savable_frac": (int, float),
                "tree_shape": str, "mode": str}


def _check_keys(what: str, params: dict, types: dict) -> None:
    for key, value in params.items():
        if key not in types:
            raise BadParams(f"{what} has an unknown key {key!r}")
        if not isinstance(value, types[key]) or isinstance(value, bool):
            raise BadParams(f"{what} has {key!r} = {value!r} of the wrong type")


def _sweep_items(spec) -> list:
    """The (index, family name, instance) items of a sweep spec; a malformed
    spec raises BadParams."""
    families = spec.get("families") if isinstance(spec, dict) else None
    if not isinstance(families, list):
        raise BadParams("a sweep spec must be a JSON object with a list 'families'")
    _check_keys("the sweep spec", spec, _SPEC_KEYS)
    items = []
    for n, family in enumerate(families):
        if not isinstance(family, dict) or "count" not in family:
            raise BadParams(f"family {n} must be a JSON object with a 'count'")
        params = {k: v for k, v in family.items() if k != "name"}
        _check_keys(f"family {n}", params, _FAMILY_KEYS)
        count, seed0 = params.pop("count"), params.pop("seed0", 0)
        for i in range(count):
            instance = gen_random_instance(seed=seed0 + i, **params)
            items.append((len(items), family.get("name", "family"), instance))
    return items


def cmd_bench(args) -> int:
    with open(args.sweep) as fh:
        spec = json.load(fh)
    items = _sweep_items(spec)
    rows, disagreements, false_neg, randomized = run_bench(
        items, spec.get("delta", 1e-3), spec.get("seed", 0), jobs=args.jobs)
    write_bench_csv(rows, args.out)
    print(f"instances: {len(items)}  rows: {len(rows)}")
    print(f"randomized runs: {randomized}  false negatives: {false_neg}")
    print(f"disagreements: {len(disagreements)}")
    if disagreements:
        entry = smallest_disagreement(disagreements)
        triage = args.triage or (args.out + ".disagreement.json")
        with open(triage, "w") as fh:
            json.dump(disagreement_report(entry), fh, indent=2, sort_keys=True)
        print(f"smallest disagreeing instance written to {triage}")
        return EXIT_ERROR
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rescuepd",
        description="Exact solvers for time-critical diversity rescue planning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    p.add_argument("--delta", type=float, default=1e-3)
    p.add_argument("--seed", type=_seed, default=_default_seed())
    p.add_argument("--output", help="write the witness schedule here")
    p.add_argument("--mode", choices=("collaborative", "strict"))
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a schedule file")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pd", help="diversity of a comma-separated taxa set")
    p.add_argument("--instance", required=True)
    p.add_argument("--taxa", default="")
    p.set_defaults(func=cmd_pd)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--kind", choices=("random", "subset-sum"), default="random")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--teams", type=int, default=2)
    p.add_argument("--max-ex", type=int, default=8)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--max-weight", type=int, default=5)
    p.add_argument("--shape", default="random-binary")
    p.add_argument("--mode", choices=("collaborative", "strict"),
                   default="collaborative")
    p.add_argument("--seed", type=_seed, default=_default_seed())
    p.add_argument("--target", type=int)
    p.add_argument("--values", help="subset-sum values, comma-separated")
    p.add_argument("--k", type=int, help="subset-sum cardinality")
    p.add_argument("--goal", type=int, help="subset-sum goal")
    p.add_argument("--pad", type=int, help="padding constant (default sum+1)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="cross-validation sweep to CSV")
    p.add_argument("--sweep", required=True, help="sweep spec JSON")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--triage", help="where to write a disagreeing instance")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (RescuePDError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
