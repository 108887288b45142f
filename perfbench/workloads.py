"""Seeded request streams, the request executors, and the answer checks.

A workload is a list of request classes.  Each class has a quota per block
and draws its instances from its own seeded random stream; a block holds
every class's quota, interleaved, and the stream is a run of blocks.  So
every stretch of the stream has the class mix of the workload, and a
different seed changes the instances but not the mix.

Every class draws instances whose cost stays within a band: the exact
solvers are exponential in some parameter, and a single request that runs
for seconds would make a timed run depend on where that request falls.
The band limits are instance properties the router itself reads (target,
loss budget, and the budget-vector counts of the DPs), never solver timings.
auto-serve classes also keep only instances that `auto` routes to a given
solver, so the route mix is fixed too.

A stream is long enough that a run at the measured speed does not reach its
end; no request is served twice in a run.

Each instance gets its reference decision from the brute-force oracle while
the stream is built, so every class keeps to the oracle's size guards.
Classes that pin a decision (yes or no) draw until the oracle agrees, which
fixes the share of no-instances, whose randomized solves run every planned
trial.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from rescuepd import brute, driver, files
from rescuepd.feasibility import verify_schedule
from rescuepd.generators import gen_random_instance
from rescuepd.model import STRICT, Instance, pd_of_subset

DELTA = 1e-3
DRAW_LIMIT = 5000  # candidate instances a class may reject before giving up

NON_STAR = ("caterpillar", "random-binary", "random-multifurcating")
ALL_SHAPES = ("star",) + NON_STAR


@dataclass(frozen=True)
class Request:
    index: int
    klass: str
    instance: Instance
    reference: bool     # decision of the brute-force oracle
    payload: object     # what the executor hands to the program
    seed: int           # solver seed of this request


@dataclass(frozen=True)
class RequestClass:
    name: str
    quota: int                                   # requests per block
    draw: Callable[[random.Random], Instance]    # None rejects the candidate
    want: bool = None                            # required oracle decision
    algorithm: str = None                        # pinned solver, if any


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple
    blocks: int
    payload: Callable   # (index, class, instance) -> what the program gets
    execute: Callable   # request -> result; the only part that is timed
    check: Callable     # (request, result) -> Verdict


# --- instance properties the class filters read ---------------------------

def team_vectors(instance: Instance) -> int:
    """Budget vectors of the team-count DP (the quantity `auto` caps)."""
    horizon = max(info.extinction_time for info in instance.taxa.values())
    counts = [0] * horizon
    for t in instance.teams:
        for j in range(t.start + 1, min(t.end, horizon) + 1):
            counts[j - 1] += 1
    return math.prod(c + 1 for c in counts)


def subset_vectors(instance: Instance) -> int:
    """Budget vectors of the strict team-subset DP: 2^(availability pairs)."""
    horizon = max(info.extinction_time for info in instance.taxa.values())
    return 2 ** sum(max(0, min(t.end, horizon) - t.start) for t in instance.teams)


def hour_vectors(instance: Instance) -> int:
    """Budget vectors of the hour-budget DP: prefix hours per deadline."""
    deadlines = sorted({info.extinction_time for info in instance.taxa.values()})
    return math.prod(sum(t.hours_until(d) for t in instance.teams) + 1
                     for d in deadlines)


def max_path_weight(instance: Instance) -> int:
    """Heaviest root-to-leaf path; at or above the target, the singleton
    shortcut of the target solver answers without any trial."""
    tree = instance.tree
    return max(sum(tree.weight[e] for e in tree.root_path(x)) for x in tree.taxa)


def with_target(instance: Instance, target: int) -> Instance:
    return Instance(instance.tree, instance.taxa, instance.teams, target,
                    instance.mode)


def _gen(rng, **params):
    return gen_random_instance(seed=rng.randrange(2**31), **params)


# --- auto-serve ------------------------------------------------------------

def routed(algorithm, draw):
    """Keep only the instances that `auto` sends to `algorithm`, so the
    class quotas fix the route mix exactly."""
    def keep(rng):
        inst = draw(rng)
        if inst is None:
            return None
        routes = driver.applicable_algorithms(inst, DELTA)
        return inst if routes and routes[0] == algorithm else None
    return keep


def draw_star(rng):
    return _gen(rng, n=rng.randint(4, 6), n_teams=rng.randint(1, 3), max_ex=8,
                max_len=5, max_weight=5, tree_shape="star")


def draw_small_target(targets, savable_frac):
    """Non-star collaborative instances with a small target; the target
    color coding serves them."""
    def draw(rng):
        return _gen(rng, n=rng.randint(5, 7), n_teams=rng.randint(1, 3),
                    max_ex=6, max_len=4, max_weight=3,
                    tree_shape=rng.choice(NON_STAR), target=rng.choice(targets),
                    savable_frac=savable_frac)
    return draw


def draw_tree(low, high, savable_frac):
    """Non-star collaborative instances at the default half-diversity target
    whose team-count vectors, which set the cost of the hours-teams DP they
    route to, lie in [low, high].  The share of taxa savable on their own
    steers how many are yes."""
    def draw(rng):
        inst = _gen(rng, n=rng.randint(6, 7), n_teams=rng.randint(2, 4),
                    max_ex=7, max_len=4, max_weight=3,
                    tree_shape=rng.choice(NON_STAR), savable_frac=savable_frac)
        return inst if low <= team_vectors(inst) <= high else None
    return draw


def draw_strict_small(targets, savable_frac=0.8):
    def draw(rng):
        return _gen(rng, n=rng.randint(5, 6), n_teams=2, max_ex=5, max_len=3,
                    max_weight=2, tree_shape=rng.choice(ALL_SHAPES),
                    mode=STRICT, target=rng.choice(targets),
                    savable_frac=savable_frac)
    return draw


def draw_strict_wide(teams):
    def draw(rng):
        inst = _gen(rng, n=rng.randint(5, 6), n_teams=teams, max_ex=6,
                    max_len=3, max_weight=3, tree_shape=rng.choice(ALL_SHAPES),
                    mode=STRICT)
        return inst if subset_vectors(inst) <= 64 else None
    return draw


def instance_json(i, klass, inst):
    return files.dumps(files.instance_to_dict(inst))


def serve(request: Request):
    """The serving path: JSON text in, `auto`, JSON text out on a yes."""
    instance = files.instance_from_dict(json.loads(request.payload))
    outcome = driver.solve_auto(instance, DELTA, request.seed)
    if outcome is None:
        return None
    response = None
    if outcome.decision:
        response = files.dumps(files.schedule_to_dict(outcome.schedule,
                                                      outcome.value))
    return outcome.decision, outcome.diagnostics["auto"], response


def check_served(request: Request, result):
    if result is None:
        return Verdict("guarded")
    decision, algorithm, response = result
    if decision:
        schedule, claimed = files.schedule_from_dict(json.loads(response))
        return judge(request, algorithm, True, schedule, schedule.saved, claimed)
    return judge(request, algorithm, False)


# --- color-coding ----------------------------------------------------------

def _no_shortcut(inst):
    return inst if max_path_weight(inst) < inst.target else None


def draw_target_collab(targets):
    def draw(rng):
        return _no_shortcut(_gen(rng, n=7, n_teams=2, max_ex=6,
                                 max_len=3, max_weight=2,
                                 tree_shape=rng.choice(ALL_SHAPES),
                                 target=rng.choice(targets)))
    return draw


def draw_target_strict(teams, targets, sizes):
    def draw(rng):
        return _no_shortcut(_gen(rng, n=rng.choice(sizes),
                                 n_teams=rng.choice(teams), max_ex=5, max_len=3,
                                 max_weight=2, tree_shape=rng.choice(ALL_SHAPES),
                                 mode=STRICT, target=rng.choice(targets)))
    return draw


def draw_loss(losses, max_len):
    def draw(rng):
        inst = _gen(rng, n=rng.randint(6, 7), n_teams=2, max_ex=6,
                    max_len=max_len, max_weight=3,
                    tree_shape=rng.choice(("caterpillar", "random-binary")),
                    savable_frac=1.0)
        return with_target(inst, inst.tree.total_weight() - rng.choice(losses))
    return draw


def pinned_algorithm(i, klass, inst):
    return klass.algorithm


def solve_pinned(request: Request):
    """`solve --algorithm <name>`: one named randomized solver."""
    return driver.run_algorithm(request.instance, request.payload, DELTA,
                                request.seed)


def check_pinned(request: Request, outcome):
    return judge_outcome(request, outcome.algorithm, outcome)


# --- crossval-sweep --------------------------------------------------------

def draw_sweep_target(targets, sizes):
    # targets 3-4: the target color coding runs, at most 377 planned trials;
    # a binary tree with loss 3-6 would also run the loss color coding, up to
    # seconds per no-instance
    def draw(rng):
        inst = _gen(rng, n=rng.choice(sizes), n_teams=rng.randint(1, 2),
                    max_ex=5, max_len=4, max_weight=2,
                    tree_shape=rng.choice(ALL_SHAPES), target=rng.choice(targets))
        if inst.tree.is_binary() and inst.tree.total_weight() - inst.target >= 3:
            return None
        return _no_shortcut(inst) if hour_vectors(inst) <= 150 else None
    return draw


def draw_sweep_dp(rng):
    # targets 6-7 would run the target color coding for seconds per no; the
    # hour-budget DP's cost grows with its budget vectors, and the band keeps
    # the class's costs, where p50 falls, within one order of magnitude
    inst = _gen(rng, n=rng.randint(5, 7), n_teams=rng.randint(1, 2), max_ex=5,
                max_len=4, max_weight=3, tree_shape=rng.choice(ALL_SHAPES))
    return inst if inst.target > 7 and 20 <= hour_vectors(inst) <= 150 else None


def draw_sweep_strict(rng):
    inst = _gen(rng, n=rng.randint(4, 6), n_teams=rng.randint(1, 2), max_ex=5,
                max_len=4, max_weight=3, tree_shape=rng.choice(ALL_SHAPES),
                mode=STRICT)
    return inst if inst.target > 5 and subset_vectors(inst) <= 64 else None


def bench_item(i, klass, inst):
    return (i, klass.name, inst)


def sweep(request: Request):
    """Every applicable solver plus the oracle on one instance.

    `run_bench` returns rows without witnesses, so the solver calls it makes
    through `driver` are recorded on the way, to re-verify each yes here.
    """
    calls = []
    run_algorithm, brute_force = driver.run_algorithm, driver.brute_force

    def run_recorded(instance, algorithm, *args):
        outcome = run_algorithm(instance, algorithm, *args)
        calls.append((algorithm, outcome))
        return outcome

    def brute_recorded(instance):
        outcome = brute_force(instance)
        calls.append(("brute", outcome))
        return outcome

    driver.run_algorithm, driver.brute_force = run_recorded, brute_recorded
    try:
        rows = driver.run_bench([request.payload], DELTA, request.seed, jobs=1)[0]
    finally:
        driver.run_algorithm, driver.brute_force = run_algorithm, brute_force
    return rows, calls


def check_sweep(request: Request, result):
    """Each row against the reference and the solver call it reports."""
    rows, calls = result
    if len(rows) != len(calls) or any(
            row.algorithm != algorithm or row.decision != outcome.decision
            or row.value != outcome.value
            for row, (algorithm, outcome) in zip(rows, calls)):
        return Verdict("mismatch")
    verdict = Verdict()
    for algorithm, outcome in calls:
        verdict = verdict.add(judge_outcome(request, algorithm, outcome))
    return verdict


# --- shared checks ---------------------------------------------------------

RANDOMIZED = ("fpt-d", "fpt-dbar")


@dataclass(frozen=True)
class Verdict:
    """The check of one request.  A randomized solver may answer no on a
    yes-instance with probability at most DELTA, so those answers are
    counted against the randomized solves they came from, not failed here."""
    kind: str = None     # first failure other than a randomized false no
    chances: int = 0     # randomized solves of a yes-instance
    false_nos: int = 0   # of those, the ones that answered no

    def add(self, other):
        return Verdict(self.kind or other.kind, self.chances + other.chances,
                       self.false_nos + other.false_nos)


def judge_outcome(request: Request, algorithm, outcome):
    if outcome.decision:
        return judge(request, algorithm, True, outcome.schedule, outcome.saved,
                     outcome.value)
    return judge(request, algorithm, False)


def judge(request: Request, algorithm, decision, schedule=None, saved=None,
          claimed=None):
    """One solver's answer against the reference decision; a yes is
    re-verified from outside the solver that produced it."""
    randomized = algorithm in RANDOMIZED
    chances = int(randomized and request.reference)
    if decision:
        if not request.reference:
            return Verdict("false_yes")
        return Verdict(check_witness(request, schedule, saved, claimed), chances)
    if not request.reference:
        return Verdict()
    return Verdict(None, 1, 1) if randomized else Verdict("mismatch")


def check_witness(request: Request, schedule, saved, claimed):
    inst = request.instance
    if saved is None or schedule is None or not set(saved) <= set(inst.tree.taxa):
        return "bad_witness"
    value = pd_of_subset(inst.tree, saved)
    if value < inst.target or value != claimed:
        return "bad_witness"
    if set(schedule.saved) != set(saved) or not verify_schedule(inst, schedule).ok:
        return "bad_witness"
    return None


def false_no_limit(chances: int, delta: float = DELTA, p: float = 1e-6) -> int:
    """Fewest false nos that `chances` randomized solves of yes-instances,
    each wrong with probability at most delta, reach with probability below
    p.  Reaching it is taken as a fault, not bad luck."""
    pmf = (1.0 - delta) ** chances
    below = 0.0      # P(X < k)
    k = 0
    while 1.0 - below >= p and k <= chances:
        below += pmf
        pmf *= (chances - k) / (k + 1) * delta / (1.0 - delta)
        k += 1
    return k


# --- the workloads -----------------------------------------------------------
#
# Fixed quotas per class (stratified sampling) keep the mix of costs the
# same for every seed: a yes costs the budget DPs about twice to five times
# a no, and their cost grows with the budget vectors, so those are quotas
# too, where they carry enough of the time to matter.
#
# auto-serve follows the route mix of a probe of 150 seeded requests
# (collaborative instances of all shapes at the default half-diversity
# target, strict instances at small targets): hours-teams 39%, fpt-d 36%,
# star 17%, brute 5%, hours-subsets 2%.  Per block of 24 the quotas give
# 37.5%, 37.5%, 16.7%, 4.2% and 4.2%.  Two departures keep a 20-second run
# steady: the target color coding gets collaborative targets 3-5 only, and
# its collaborative no-instances are at target 3 (a no-instance at target
# 5, 6 or 7 runs 1k, 2.8k or 7.6k trials, up to seconds each; the
# color-coding workload covers them), and hours-teams gets team-count
# vectors up to 199 only, not up to the cap of 5000 (at 500-2000 one
# request took 0.06-6 s).  p50 falls among the cheap strict and low-vector
# requests; p90 among the target-3 no-instances and the 25-99-vector yes
# ones, below the one 100-199-vector request per block.
#
# color-coding: 40% yes-instances (few trials); p50 falls inside the strict
# no-instances and p90 inside the collaborative target-5 ones.
# crossval-sweep: p50 inside the budget-DP yes-instances, p90 inside the
# target-4 no-instances.

WORKLOADS = {
    "auto-serve": Workload(
        "auto-serve",
        (RequestClass("star", 4, draw_star),
         RequestClass("target-yes", 4, routed("fpt-d", draw_small_target((3, 4, 5), 0.8)), True),
         RequestClass("target-no", 2, routed("fpt-d", draw_small_target((3,), 0.3)), False),
         RequestClass("strict-target-yes", 2, routed("fpt-d", draw_strict_small((2, 3))), True),
         RequestClass("strict-target-no", 1, routed("fpt-d", draw_strict_small((2,))), False),
         RequestClass("teams-low", 4, routed("hours-teams", draw_tree(1, 24, 0.8))),
         RequestClass("teams-mid-yes", 3, routed("hours-teams", draw_tree(25, 99, 1.0)), True),
         RequestClass("teams-mid-no", 1, routed("hours-teams", draw_tree(25, 99, 0.2)), False),
         RequestClass("teams-high-yes", 1, routed("hours-teams", draw_tree(100, 199, 1.0)), True),
         RequestClass("strict-subsets", 1, routed("hours-subsets", draw_strict_wide(2))),
         RequestClass("strict-brute", 1, routed("brute", draw_strict_wide(3)))),
        blocks=190, payload=instance_json, execute=serve, check=check_served),
    "color-coding": Workload(
        "color-coding",
        (RequestClass("target-yes", 2, draw_target_collab((5, 6, 7)), True, "fpt-d"),
         RequestClass("target-no", 3, draw_target_collab((5,)), False, "fpt-d"),
         RequestClass("strict-yes", 1, draw_target_strict((2, 3), (4, 5), (5, 6)), True, "fpt-d"),
         RequestClass("strict-no", 2, draw_target_strict((2,), (4,), (6,)), False, "fpt-d"),
         RequestClass("loss-yes", 1, draw_loss((1, 2, 3), 2), True, "fpt-dbar"),
         RequestClass("loss-no", 1, draw_loss((2,), 3), False, "fpt-dbar")),
        blocks=45, payload=pinned_algorithm, execute=solve_pinned,
        check=check_pinned),
    "crossval-sweep": Workload(
        "crossval-sweep",
        (RequestClass("target-yes", 1, draw_sweep_target((3, 4), (4, 5, 6)), True),
         RequestClass("target-no", 2, draw_sweep_target((4,), (5,)), False),
         RequestClass("dp-yes", 4, draw_sweep_dp, True),
         RequestClass("dp-no", 2, draw_sweep_dp, False),
         RequestClass("strict", 1, draw_sweep_strict)),
        blocks=230, payload=bench_item, execute=sweep, check=check_sweep),
}


def _block_pattern(classes):
    """One block's class order, each class spread evenly through it."""
    slots = []
    for k in classes:
        for j in range(k.quota):
            slots.append(((j + 0.5) / k.quota, k.name, k))
    slots.sort(key=lambda s: (s[0], s[1]))
    return [k for _, _, k in slots]


def _draw(klass: RequestClass, rng: random.Random):
    for _ in range(DRAW_LIMIT):
        inst = klass.draw(rng)
        if inst is None:
            continue
        reference = brute.brute_force(inst).decision
        if klass.want is None or reference == klass.want:
            return inst, reference
    raise RuntimeError(f"class {klass.name} found no instance in "
                       f"{DRAW_LIMIT} draws")


def build_blocks(workload: Workload, seed: int):
    """The workload's request stream for one seed, block by block.

    Deterministic: the same seed gives the same requests.
    """
    rngs = {k.name: random.Random(f"{workload.name}/{k.name}/{seed}")
            for k in workload.classes}
    pattern = _block_pattern(workload.classes)
    i = 0
    for _ in range(workload.blocks):
        block = []
        for klass in pattern:
            inst, reference = _draw(klass, rngs[klass.name])
            block.append(Request(i, klass.name, inst, reference,
                                 workload.payload(i, klass, inst),
                                 seed * 1_000_003 + i))
            i += 1
        yield block
