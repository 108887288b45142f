"""The rescuepd benchmark: one closed-loop client against the library API.

    python3 perfbench/run.py --workload auto-serve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, so nothing needs installing.  One process serves one
workload: it builds the seeded request stream (the set-up), then sends
requests one at a time, each only after the previous one returned, until
``--seconds`` have passed.  The stream is long enough for that at the
measured speed; a program fast enough to reach its end ends the run there,
so no request is served twice.  Every answer is checked against the
brute-force reference decision as it returns, outside its timing, and only
the counts of failures are kept.  Times are scaled to a reference machine speed (see
``speed.py``); the raw times are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
loop for half of ``--seconds`` with every public function of the package
wrapped in spans, prints the per-layer metrics, replays the requests it
completed untraced to measure the tracing overhead, and writes the spans to
``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
every wrong or missing answer; ``correct`` is false, and the exit code 1,
when any of them is more than a randomized solver's false no (a false yes,
a witness that does not re-verify, an exact solver's wrong no, a raised
error, or every guard exceeded), or when the randomized false nos are more
than the solvers' error bound delta makes plausible (a chance below 1e-6
over the randomized solves of yes-instances in the run).  The exit code is 2 when the package
source is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("auto-serve", "color-coding", "crossval-sweep")
SETUP_REPEATS = 3
MIN_REQUESTS = 10
# share of --seconds the traced loop runs; the untraced replay of the same
# requests takes most of the rest
TRACED_SHARE = 0.5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package(probe):
    """Import rescuepd from this checkout's source tree; scaled seconds."""
    if not (SRC / "rescuepd" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'rescuepd'}; run from "
              "the root of a rescuepd checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    probe.burst()
    t0 = time.perf_counter()
    import rescuepd
    import workloads  # noqa: F401  (imports the package modules it drives)
    elapsed = time.perf_counter() - t0
    if not Path(rescuepd.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported rescuepd from {rescuepd.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return t0, elapsed


def set_up(workload, seed, probe):
    """Build the stream SETUP_REPEATS times, timing it block by block.

    Only one build is held at a time.  The builds must agree, since the seed
    alone fixes the inputs; a digest of each build, taken outside the timed
    blocks, checks it.  Returns the last stream and, per build, the
    (start, seconds) of each block.
    """
    from rescuepd import files
    from workloads import build_blocks
    builds, digests = [], set()
    for _ in range(SETUP_REPEATS):
        blocks, stream, digest = [], [], hashlib.sha256()
        it = build_blocks(workload, seed)
        while True:
            probe.tick()
            t0 = time.perf_counter()
            block = next(it, None)
            if block is None:
                break
            blocks.append((t0, time.perf_counter() - t0))
            stream.extend(block)
            for r in block:
                digest.update(repr((r.klass, r.reference, r.seed, files.dumps(
                    files.instance_to_dict(r.instance)))).encode())
        builds.append(blocks)
        digests.add(digest.hexdigest())
    probe.burst()
    if len(digests) != 1:
        raise RuntimeError("the same seed built two different streams")
    return stream, builds


class Tally:
    """The checks of a run's answers, kept as counts only, so the memory
    the benchmark holds does not grow with the requests it serves."""

    def __init__(self, workload):
        from workloads import Verdict, false_no_limit
        self.verdict, self.false_no_limit = Verdict, false_no_limit
        self.check = workload.check
        self.attempted = self.failed = self.strict = 0
        self.chances = self.false_nos = 0
        self.kinds = Counter()

    def add(self, request, result):
        Verdict = self.verdict
        self.attempted += 1
        self.strict += request.instance.mode == "strict"
        if isinstance(result, Exception):
            verdict = Verdict("error")
        else:
            try:
                verdict = self.check(request, result)
            except Exception as exc:  # an answer the check cannot read
                verdict, result = Verdict("unreadable"), exc
        if verdict.kind is not None and self.kinds[verdict.kind] < 3:
            print(f"request {request.index} ({request.klass}) failed as "
                  f"{verdict.kind}" + (": " + "".join(
                      traceback.format_exception_only(result)).strip()
                      if isinstance(result, Exception) else ""),
                  file=sys.stderr)
        if verdict.kind is not None:
            self.kinds[verdict.kind] += 1
        if verdict.false_nos:
            self.kinds["false_no"] += 1
        self.failed += verdict.kind is not None or verdict.false_nos > 0
        self.chances += verdict.chances
        self.false_nos += verdict.false_nos

    def correct(self):
        """No failure but randomized false nos, and fewer of those than
        DELTA makes plausible."""
        hard = sum(n for kind, n in self.kinds.items() if kind != "false_no")
        return hard == 0 and self.false_nos < self.false_no_limit(self.chances)


def drive(workload, stream, probe, seconds=None, count=None, tally=None,
          tracer=None):
    """Closed loop over the stream; stops after `seconds` (and at least
    MIN_REQUESTS requests, for the percentiles), after `count` requests, or
    at the end of the stream, which is never served twice.

    Each answer goes to `tally` as soon as it returns, outside its timing.
    A request that raises is recorded as its exception and the loop goes on.
    Returns the start and the seconds of each request.
    """
    execute = workload.execute
    starts, durations = array("d"), array("d")
    probe.burst()
    deadline = time.perf_counter() + seconds if seconds is not None else None
    for i in range(len(stream) if count is None else count):
        request = stream[i]
        probe.tick()
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            result = execute(request)
        except Exception as exc:  # a failed request; the client keeps going
            result = exc
        t1 = time.perf_counter()
        starts.append(t0)
        durations.append(t1 - t0)
        if tally is not None:
            if tracer is not None:
                tracer.paused = True
            tally.add(request, result)
            if tracer is not None:
                tracer.paused = False
        if deadline is not None and t1 >= deadline and i + 1 >= MIN_REQUESTS:
            break
    else:
        if count is None:
            print(f"the stream of {len(stream)} requests ended before "
                  f"{seconds} s", file=sys.stderr)
    probe.burst()
    return starts, durations


def latency_metrics(lat):
    """Throughput and latency percentiles from per-request seconds."""
    lat_ms = [t * 1e3 for t in lat]
    return {
        "solves_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
    }


def show(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:16.6f} {unit}")


def main(argv=None):
    args = parse_args(argv)
    probe = SpeedProbe()
    import_t0, import_s = import_package(probe)
    from workloads import WORKLOADS as SPECS
    workload = SPECS[args.workload]
    stream, builds = set_up(workload, args.seed, probe)
    # the stream is the benchmark's, not the program's: keep the collector's
    # full passes during the run from scanning it
    gc.collect()
    gc.freeze()
    setup_raw = import_s + statistics.median(
        sum(s for _, s in blocks) for blocks in builds)
    setup_s = import_s * probe.scale(import_t0) + statistics.median(
        sum(s * probe.scale(t0) for t0, s in blocks) for blocks in builds)

    tally = Tally(workload)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            starts, durations = drive(workload, stream, probe,
                                      args.seconds * TRACED_SHARE,
                                      tally=tally, tracer=tracer)
        finally:
            tracer.uninstall()
        plain = drive(workload, stream, probe, count=len(durations))
    else:
        starts, durations = drive(workload, stream, probe, args.seconds,
                                  tally=tally)

    attempted, failed, correct = tally.attempted, tally.failed, tally.correct()
    strict = tally.strict / attempted
    raw = list(durations)
    scaled = [s * probe.scale(t0) for t0, s in zip(starts, durations)]
    speed = statistics.median(probe.scale(t0) for t0 in probe.starts)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"{attempted} requests of a stream of {len(stream)} in {sum(raw):.3f} s;"
          f" strict share {strict:.3f}; median speed factor {speed:.3f}")
    for kind, n in sorted(tally.kinds.items()):
        print(f"  failed as {kind}: {n}")
    print(f"randomized false nos {tally.false_nos} in {tally.chances} "
          f"randomized solves of yes-instances; a fault from "
          f"{tally.false_no_limit(tally.chances)}")
    print(f"failed_share {failed / attempted:.6f} share")

    if args.trace:
        metrics = tracer.metrics(attempted)
        plain_scaled = sum(s * probe.scale(t0) for t0, s in zip(*plain))
        metrics["trace.overhead"] = (plain_scaled / sum(scaled), "ratio")
        metrics["trace.request_ms"] = (statistics.fmean(raw) * 1e3, "ms/req")
        metrics["workload.strict_share"] = (strict, "share")
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write_spans(span_file)
        print(f"{len(tracer.spans)} spans written to {span_file}")
        show("per-layer metrics (raw times, per completed request):", metrics)
    else:
        metrics = latency_metrics(scaled)
        beyond = sum(t * 1e3 > metrics["latency_p90_ms"][0] for t in scaled)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        print(f"latency samples {attempted}, {beyond} beyond p90")
        show("raw times:", {**latency_metrics(raw), "setup_s": (setup_raw, "s")})
        show("end-to-end metrics (times scaled to the reference speed):",
             metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
