"""Rewrite the outputs of one round of every workload at a fixed seed.

    python3 perfbench/corpus.py [--out perfbench/corpus.jsonl]

One line per op: workload, label, stream and either the output (table
entries, square, partition pairs or count) or the error it raised.  The file
is a record made anew from the code at hand, not a check: after a change,
`git diff` on it lists the draws that changed.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import _load_package  # noqa: E402

SEED = 0  # the committed corpus.jsonl is made at this seed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=HERE / "corpus.jsonl")
    args = ap.parse_args(argv)
    bt = _load_package()
    from workloads import WORKLOADS, stream_rng

    lines = []
    for name, cls in WORKLOADS.items():
        wl = cls(bt, SEED)
        ctx = wl.context()
        for op in wl.round(0):
            row = {"workload": name, "label": op.label, "stream": op.stream}
            try:
                out = op.call(stream_rng(*op.stream) if op.stream else None, ctx)
            except (AssertionError, bt.BitTablesError) as e:
                row["error"] = f"{type(e).__name__}: {e}"
            else:
                row["output"] = op.record(out)
            lines.append(json.dumps(row, separators=(",", ":")))
    args.out.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} ops to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
