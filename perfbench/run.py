"""Closed-loop benchmark of bittables' samplers: one process, one call in flight.

    python3 perfbench/run.py --workload latin --seed 1 --seconds 25 --trace 0

With --trace 0 it times whole rounds of ops for --seconds and reports the
end-to-end metrics.  With --trace 1 it times rounds untraced for half of
--seconds, replays the same rounds with spans around the calls between
bittables' modules, and reports per-layer metrics.  The last line of stdout
is one JSON object; the full result and the spans go to perfbench/out/.
--workload all runs every workload in turn, each in a process of its own.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before bittables loads

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _load_package():
    """bittables from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import bittables
    except ImportError as e:
        raise SystemExit(f"cannot import bittables from {ROOT / 'src'}: {e}")
    if not Path(bittables.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"bittables loaded from {bittables.__file__}, not this checkout")
    return bittables


class Pass:
    """Outcome of one pass over whole rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = defaultdict(int)  # "label: ExceptionType" -> count
        self.bad_outputs = []
        self.times = defaultdict(list)  # label -> seconds per completed op
        self.completed = 0
        self.round_completed = 0  # completed ops of the last round
        self.round_walls = []
        self.tallies = defaultdict(list)
        self.rounds = 0
        self.wall = 0.0
        self.first_op = None
        self.diag = defaultdict(int)
        self.rng_calls = 0


MIN_COMPLETED = 100  # so that at least ten completed ops lie beyond the p90
MAX_EXTENSION = 3  # a short run goes on to at most this many times --seconds


def _more(res, seconds, rounds, min_completed):
    """Whether to start another round.  Past `seconds`, a run short of
    `min_completed` ops goes on only while its rounds complete ops and its
    wall time stays under MAX_EXTENSION * `seconds`."""
    if rounds is not None:
        return res.rounds < rounds
    if res.wall < seconds:
        return True
    return (res.completed < min_completed and res.round_completed > 0
            and res.wall < MAX_EXTENSION * seconds)


def run_pass(bt, wl, seconds=None, rounds=None, tracer=None, min_completed=0):
    """Warm up, then run rounds until `seconds` pass and `min_completed` ops
    completed (see `_more`), or until `rounds` are done."""
    from spans import CountingRNG
    from workloads import stream_rng, table_key

    failures = (AssertionError, bt.BitTablesError)
    ctx = wl.context()
    for op in wl.warmups():
        try:
            op.call(stream_rng(*op.stream) if op.stream else None, ctx)
        except failures:  # a failing op is counted when the timed rounds reach it
            pass
    res = Pass()
    res.first_op = time.perf_counter()
    while _more(res, seconds, rounds, min_completed):
        round_start = time.perf_counter()
        completed_before = res.completed
        for op in wl.round(res.rounds):
            rng = stream_rng(*op.stream) if op.stream else None
            if tracer is not None and rng is not None:
                rng = CountingRNG(rng)
            span = tracer.begin_op(res.attempted) if tracer is not None else None
            res.attempted += 1
            t = time.perf_counter()
            try:
                out = op.call(rng, ctx)
            except failures as e:
                res.failed += 1
                res.failures[f"{op.label}: {type(e).__name__}"] += 1
                continue
            finally:
                dt = time.perf_counter() - t
                if span is not None:
                    tracer.end_op(span)
            res.times[op.label].append(dt)
            res.completed += 1
            if not op.check(out):
                res.bad_outputs.append(op.label)
            if op.tally is not None:
                res.tallies[op.tally].append(table_key(out))
            if tracer is not None:
                if isinstance(out, tuple) and isinstance(out[1], bt.SamplerDiagnostics):
                    d = out[1]
                    res.diag["bits"] += d.bits_consumed
                    res.diag["restarts"] += d.restarts
                    res.diag["dead_states"] += d.dead_states
                if isinstance(rng, CountingRNG):
                    res.rng_calls += rng.calls
        res.rounds += 1
        res.round_completed = res.completed - completed_before
        res.round_walls.append(time.perf_counter() - round_start)
        res.wall += res.round_walls[-1]
    return res


def end_to_end(res):
    """The five end-to-end metrics; the percentiles are null on a run short
    of MIN_COMPLETED ops, which also counts as incorrect."""
    ms = sorted(1000.0 * t for ts in res.times.values() for t in ts)
    enough = len(ms) >= MIN_COMPLETED
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": {"value": len(ms) / res.wall, "unit": "ops/s"},
        "op_ms_p50": {"value": statistics.median(ms) if enough else None, "unit": "ms"},
        "op_ms_p90": {"value": statistics.quantiles(ms, n=10)[8] if enough else None,
                      "unit": "ms"},
        "setup_s": {"value": res.first_op - T0, "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


LAYER_CALLS = ["pmf.poisson_binomial", "pmf.cell_law", "pmf.column_law",
               "integer_sampler.bit_weight", "binary_sampler.tables", "table.fill",
               "table.feasible", "partitions.count_table"]
LAYER_SELF = LAYER_CALLS + ["counting", "latin", "partitions.levels"]
SELF_NAMES = {"counting": "counting.s", "latin": "latin.self.s",
              "partitions.levels": "partitions.levels.s"}


def per_layer(bt, tracer, plain, traced):
    """Counts and self times per attempted op of the traced pass."""
    ops = traced.attempted
    totals = tracer.layer_totals()
    metrics = {}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = {"value": totals.get(name, (0, 0.0))[0] / ops,
                                    "unit": "calls/op"}
    for name in LAYER_SELF:
        metrics[SELF_NAMES.get(name, f"{name}.s")] = {"value": totals.get(name, (0, 0.0))[1] / ops,
                                                      "unit": "s/op"}
    metrics["table.copy.calls"] = {"value": tracer.counts["table.copy"] / ops, "unit": "calls/op"}
    for name in ("counting.queries", "counting.distinct_queries"):
        metrics[name] = {"value": tracer.counts[name] / ops, "unit": "queries/op"}
    for name in ("bits", "restarts", "dead_states"):
        metrics[f"diag.{name}_per_op"] = {"value": traced.diag[name] / ops, "unit": f"{name}/op"}
    metrics["rng.calls_per_op"] = {"value": traced.rng_calls / ops, "unit": "calls/op"}
    src = ROOT / "src" / "bittables"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
    metrics["package.src_lines"] = {"value": lines, "unit": "lines"}
    metrics["package.public_names"] = {"value": len(bt.__all__), "unit": "names"}
    metrics["trace.overhead_ratio"] = {"value": traced.wall / plain.wall, "unit": "ratio"}
    return metrics


def run_all(args, names):
    """Each workload in a child process, one after the other; the last line
    maps each workload to its result."""
    results = {}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, check=True)
        *lines, last = child.stdout.strip().splitlines()
        print("\n".join(lines), flush=True)
        results[name] = json.loads(last)
    print(json.dumps(results))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bt = _load_package()
    sys.path.insert(0, str(HERE))
    import selfcheck
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](bt, args.seed)
    if args.trace:
        plain = run_pass(bt, wl, seconds=args.seconds / 2)
        tracer = Tracer()
        tracer.install(bt)
        try:
            traced = run_pass(bt, wl, rounds=plain.rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        passes = [plain, traced]
        metrics = per_layer(bt, tracer, plain, traced)
    else:
        plain = run_pass(bt, wl, seconds=args.seconds, min_completed=MIN_COMPLETED)
        passes = [plain]
        metrics = end_to_end(plain)

    try:
        final = wl.final_checks(plain.tallies)
    except (AssertionError, bt.BitTablesError) as e:
        final = [(f"final checks raised {type(e).__name__}: {e}", False)]
    if not args.trace:
        final.append((f"at least {MIN_COMPLETED} completed ops", plain.completed >= MIN_COMPLETED))
    final += selfcheck.run(bt)
    bad = [label for p in passes for label in p.bad_outputs]
    correct = not bad and all(ok for _, ok in final)
    failures = defaultdict(int)
    for p in passes:
        for key, count in p.failures.items():
            failures[key] += count
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"spans-{args.workload}.npz")
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": plain.rounds,
              "completed": plain.completed,
              "failures": dict(failures), "bad_outputs": bad,
              "round_walls": plain.round_walls,
              "median_ms_by_op": {label: 1000.0 * statistics.median(ts)
                                  for label, ts in sorted(plain.times.items())},
              "final_checks": [[name, ok] for name, ok in final], "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")

    for name, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{args.workload} {name} {value} {m['unit']}")
    for key, count in sorted(failures.items()):
        print(f"{args.workload} failed {count}x {key}")
    for name, ok in final:
        if not ok or not name.startswith("selfcheck"):
            print(f"{args.workload} check {'pass' if ok else 'FAIL'} {name}")
    print(f"{args.workload} attempted {attempted} failed {failed} correct {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
