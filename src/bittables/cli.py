"""Command-line interface: sampling, counting, and uniformity testing.

Output is JSON lines (one object per sample, schema-versioned, key-sorted)
so identical invocations are byte-identical; tables and squares can also be
emitted as CSV.  Exit codes: 0 success, 2 dead-state abort, 1 usage or
instance error or a sample that fails --validate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .binary_sampler import BinaryStrategy, sample_binary_table
from .counting import (
    DEFAULT_MAX_BINARY_DIM,
    DEFAULT_MAX_INTEGER_DIM,
    DEFAULT_MAX_INTEGER_MARGIN,
    DEFAULT_MAX_LATIN_ORDER,
    CountOracle,
)
from .errors import DeadStateError, InfeasibleError, OracleLimitError
from .integer_sampler import BitSamplerStrategy, sample_contingency_table
from .latin import LatinSquare, RestartPolicy, sample_latin_square
from .partitions import enumerate_partitions, sample_distinct_partition, sample_partition
from .seeding import batch_rng
from .stats import chi_square_threshold, chi_square_uniformity
from .table import entries_to_csv, validate_table

SCHEMA = 1

BINARY_STRATEGY_HELP = (
    "exact is uniform but small-instance only; full-line is biased; "
    "tail-line is an alias of full-line"
)
LATIN_STRATEGY_HELP = (
    "rule for each class table: exact (uniform per table, the square is still "
    "biased) or full-line (biased); tail-line is an alias of full-line"
)

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on usage errors (2 is reserved)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as e:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from e


def _mask_array(text: str, m: int, n: int):
    """Parse 'i,j;i,j' 0-based cell pairs into a forced-zero matrix."""
    if not text:
        return None
    mask = np.zeros((m, n), dtype=bool)
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"mask cell {chunk!r} is not an i,j pair")
        i, j = int(parts[0]), int(parts[1])
        if not (0 <= i < m and 0 <= j < n):
            raise ValueError(f"mask cell ({i}, {j}) outside a {m}x{n} table")
        mask[i, j] = True
    return mask


def _mask_cells(mask) -> list:
    return [[int(i), int(j)] for i, j in np.argwhere(mask)] if mask is not None else []


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    return default if raw is None else int(raw)


def _oracle() -> CountOracle:
    return CountOracle(
        max_integer_dim=_env_int("BITTABLES_MAX_INTEGER_DIM", DEFAULT_MAX_INTEGER_DIM),
        max_integer_margin=_env_int("BITTABLES_MAX_INTEGER_MARGIN", DEFAULT_MAX_INTEGER_MARGIN),
        max_binary_dim=_env_int("BITTABLES_MAX_BINARY_DIM", DEFAULT_MAX_BINARY_DIM),
        max_latin_order=_env_int("BITTABLES_MAX_LATIN_ORDER", DEFAULT_MAX_LATIN_ORDER),
    )


def _binary_kind(name: str) -> str:
    """Binary strategy kind for a --strategy value; "tail-line" is an alias of
    "full-line" (the two gave the same draws).  Payloads echo the value given."""
    return "full-line" if name == "tail-line" else name


def _budget(flag_value) -> int:
    if flag_value is not None:
        return flag_value
    return _env_int("BITTABLES_RESTART_BUDGET", 1000)


def _emit(obj, stream) -> None:
    stream.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _table_instance(args, missing="table commands need --rows and --cols"):
    """Margins and forced-zero mask from --rows/--cols/--mask, and their payload fields."""
    if args.rows is None or args.cols is None:
        raise ValueError(missing)
    r = _int_list(args.rows)
    c = _int_list(args.cols)
    mask = _mask_array(args.mask, len(r), len(c))
    return r, c, mask, {"rows": r, "cols": c, "mask": _mask_cells(mask)}


def _run_samples(args, out, fields, draw, valid) -> int:
    """Write sample t = 0..args.samples-1, drawn from batch_rng(args.seed, t).

    `draw(rng)` returns the sample (an entry grid for the CSV format) and its
    payload fields; `fields` are the payload fields shared by every sample.
    Under --validate, `valid(sample)` is checked in either format and any
    invalid sample makes the exit code 1.
    """
    as_csv = getattr(args, "format", "json") == "csv"
    all_valid = True
    for t in range(args.samples):
        sample, drawn = draw(batch_rng(args.seed, t))
        ok = valid(sample) if args.validate else True
        all_valid = all_valid and ok
        if as_csv:  # blank-line separated blocks
            out.write(("\n" if t else "") + entries_to_csv(sample))
            continue
        payload = {"schema": SCHEMA, "command": args.command, "index": t, "seed": args.seed}
        payload.update(fields)
        payload.update(drawn)
        if args.validate:
            payload["valid"] = ok
        _emit(payload, out)
    return 0 if all_valid else 1


def cmd_sample_ct(args, out) -> int:
    r, c, mask, fields = _table_instance(args)
    fields["strategy"] = args.strategy
    strategy = BitSamplerStrategy(kind=args.strategy, oracle=_oracle())
    budget = _budget(args.max_restarts)

    def draw(rng):
        entries, diag = sample_contingency_table(
            r, c, mask, strategy, rng=rng, max_restarts=budget,
            retain_bit_levels=args.retain_levels, scan=args.scan,
        )
        return entries, {"entries": entries.tolist(), "diagnostics": diag.as_dict()}

    return _run_samples(
        args, out, fields, draw, lambda e: validate_table(e, r, c, mask, mode="integer")
    )


def cmd_sample_binary(args, out) -> int:
    r, c, mask, fields = _table_instance(args)
    fields["strategy"] = args.strategy
    strategy = BinaryStrategy(
        kind=_binary_kind(args.strategy), oracle=_oracle(), refresh=not args.static_params
    )
    budget = _budget(args.max_restarts)

    def draw(rng):
        entries, diag = sample_binary_table(r, c, mask, strategy, rng=rng, max_restarts=budget)
        return entries, {"entries": entries.tolist(), "diagnostics": diag.as_dict()}

    return _run_samples(
        args, out, fields, draw, lambda e: validate_table(e, r, c, mask, mode="binary")
    )


def cmd_sample_latin(args, out) -> int:
    strategy = BinaryStrategy(kind=_binary_kind(args.strategy), oracle=_oracle())
    policy = RestartPolicy(scope=args.policy, budget=_budget(args.budget))

    def draw(rng):
        square, diag = sample_latin_square(args.n, strategy, policy, rng=rng)
        grid = [list(row) for row in square.values]
        return grid, {"square": grid, "diagnostics": diag.as_dict()}

    fields = {"n": args.n, "strategy": args.strategy, "policy": args.policy}
    return _run_samples(args, out, fields, draw, lambda grid: LatinSquare(grid).is_valid())


def cmd_sample_partition(args, out) -> int:
    sampler = sample_distinct_partition if args.distinct else sample_partition

    def draw(rng):
        part = sampler(args.n, rng=rng, tilt=args.tilt)
        return part, {"parts": part.parts()}

    def valid(part):
        return sum(part.parts()) == args.n and (not args.distinct or part.is_distinct())

    fields = {"n": args.n, "distinct": bool(args.distinct)}
    return _run_samples(args, out, fields, draw, valid)


def cmd_count(args, out) -> int:
    oracle = _oracle()
    payload = {"schema": SCHEMA, "command": "count"}
    if args.latin:
        if args.n is None:
            raise ValueError("--latin needs --n")
        count = sum(1 for _ in oracle.iter_latin_squares(args.n))
        payload.update(kind="latin", n=args.n, count=count)
    else:
        r, c, mask, fields = _table_instance(args, "table counts need --rows and --cols")
        counter = oracle.count_binary_tables if args.binary else oracle.count_integer_tables
        payload.update(fields, kind="binary" if args.binary else "integer")
        payload["count"] = counter(r, c, mask)
    _emit(payload, out)
    return 0


def _uniformity_outcomes(args, oracle):
    """Outcome keys, a per-sample drawer, and instance fields naming the strategy."""
    if args.kind in ("ct", "binary"):
        r, c, mask, fields = _table_instance(args, f"kind {args.kind} needs --rows and --cols")
        fields["strategy"] = args.strategy or "exact"
        if args.kind == "ct":
            keys = list(oracle.enumerate_integer_tables(r, c, mask))
            sampler = sample_contingency_table
            strategy = BitSamplerStrategy(kind=fields["strategy"], oracle=oracle)
        else:
            keys = list(oracle.enumerate_binary_tables(r, c, mask))
            sampler = sample_binary_table
            strategy = BinaryStrategy(kind=_binary_kind(fields["strategy"]), oracle=oracle)

        def draw(rng):
            entries, _ = sampler(r, c, mask, strategy, rng=rng)
            return tuple(map(tuple, entries.tolist()))

        return keys, draw, fields
    if args.kind in ("latin", "partition") and args.n is None:
        raise ValueError(f"kind {args.kind} needs --n")
    if args.kind == "latin":
        keys = list(oracle.iter_latin_squares(args.n))
        fields = {"n": args.n, "strategy": args.strategy or "full-line"}
        strategy = BinaryStrategy(kind=_binary_kind(fields["strategy"]), oracle=oracle)

        def draw(rng):
            square, _ = sample_latin_square(args.n, strategy, rng=rng)
            return square.values

        return keys, draw, fields
    if args.strategy is not None:
        raise ValueError("kind partition takes no --strategy")
    keys = list(enumerate_partitions(args.n, distinct=args.distinct))
    sampler = sample_distinct_partition if args.distinct else sample_partition

    def draw(rng):
        return tuple(sampler(args.n, rng=rng).parts())

    return keys, draw, {"n": args.n, "distinct": bool(args.distinct)}


def cmd_test_uniformity(args, out) -> int:
    chi_square_threshold(1, args.significance)  # rejects a bad level before any draw
    oracle = _oracle()
    keys, draw, instance = _uniformity_outcomes(args, oracle)
    if not keys:
        raise InfeasibleError("instance has no outcomes to test against")
    index = {k: i for i, k in enumerate(keys)}
    counts = [0] * len(keys)
    unmatched = 0
    for t in range(args.samples):
        k = draw(batch_rng(args.seed, t))
        i = index.get(k)
        if i is None:
            unmatched += 1
        else:
            counts[i] += 1
    report = chi_square_uniformity(counts, len(keys), significance=args.significance)
    payload = {
        "schema": SCHEMA,
        "command": "test-uniformity",
        "kind": args.kind,
        "seed": args.seed,
        "samples": args.samples,
        "unmatched": unmatched,
        "report": report.as_dict(),
    }
    payload.update(instance)
    _emit(payload, out)
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="bittables", description="Margin-constrained table samplers.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fmt=False, restarts=False):
        if restarts:
            sp.add_argument("--max-restarts", type=int, default=None)
        sp.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        sp.add_argument("--samples", type=int, default=1, help="number of samples")
        sp.add_argument("--validate", action="store_true", help="revalidate each sample")
        if fmt:
            sp.add_argument("--format", choices=["json", "csv"], default="json")

    def table(sp, required=False):
        sp.add_argument("--rows", required=required, help="comma-separated row sums")
        sp.add_argument("--cols", required=required, help="comma-separated column sums")
        sp.add_argument("--mask", default="", help="forced-zero cells 'i,j;i,j' (0-based)")

    sp = sub.add_parser("sample-ct", help="integer tables with fixed margins")
    table(sp, required=True)
    sp.add_argument("--strategy", choices=["exact", "approx"], default="approx",
                    help="exact is uniform but small-instance only; approx is biased")
    sp.add_argument("--scan", choices=["column", "row"], default="column")
    sp.add_argument("--retain-levels", action="store_true", help="keep bit planes")
    common(sp, fmt=True, restarts=True)
    sp.set_defaults(func=cmd_sample_ct)

    sp = sub.add_parser("sample-binary", help="0/1 tables with fixed margins")
    table(sp, required=True)
    sp.add_argument("--strategy", choices=["exact", "full-line", "tail-line"], default="full-line",
                    help=BINARY_STRATEGY_HELP)
    sp.add_argument("--static-params", action="store_true", help="freeze column parameters")
    common(sp, fmt=True, restarts=True)
    sp.set_defaults(func=cmd_sample_binary)

    sp = sub.add_parser("sample-latin", help="Latin squares")
    sp.add_argument("--n", type=int, required=True, help="order")
    sp.add_argument("--strategy", choices=["exact", "full-line", "tail-line"], default="full-line",
                    help=LATIN_STRATEGY_HELP)
    sp.add_argument("--policy", choices=["retry_level", "restart_all", "abort"], default="retry_level")
    sp.add_argument("--budget", type=int, default=None)
    common(sp, fmt=True)
    sp.set_defaults(func=cmd_sample_latin)

    sp = sub.add_parser("sample-partition", help="integer partitions")
    sp.add_argument("--n", type=int, required=True, help="target total")
    sp.add_argument("--distinct", action="store_true", help="distinct parts only")
    sp.add_argument("--tilt", type=float, default=None, help="fixed tilt in (0, 1)")
    common(sp)
    sp.set_defaults(func=cmd_sample_partition)

    sp = sub.add_parser("count", help="exact solution counts")
    kind = sp.add_mutually_exclusive_group(required=True)
    kind.add_argument("--integer", action="store_true")
    kind.add_argument("--binary", action="store_true")
    kind.add_argument("--latin", action="store_true")
    table(sp)
    sp.add_argument("--n", type=int, help="Latin order")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("test-uniformity", help="chi-square check against the solution set")
    sp.add_argument("--kind", choices=["ct", "binary", "latin", "partition"], required=True)
    table(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--distinct", action="store_true")
    sp.add_argument("--strategy", default=None, help="sampler strategy (kind-dependent)")
    sp.add_argument("--significance", type=float, default=0.01)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=1000)
    sp.set_defaults(func=cmd_test_uniformity)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "samples", 0) < 0:
            raise ValueError(f"samples must be nonnegative, got {args.samples}")
        return args.func(args, sys.stdout)
    except DeadStateError as e:
        print(f"dead state: {e}", file=sys.stderr)
        return 2
    except (InfeasibleError, OracleLimitError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
