"""Summarise a spans file written by a traced benchmark run.

    python3 perfbench/spans.py perfbench/out/spans-fit-75-seed7.csv [--op hand-chin]

Prints, per traced function, the calls, the mean duration of one call
(children included) and the total self time, over every span or over the
spans of one operation (a scenario name, `setup`, `sweep`, ...).
"""

import argparse
import csv

import numpy as np

from tracer import self_time


def summarise(path, op=None):
    """{function: (calls, mean duration s, self time s)}."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    parents = np.array([int(r["parent"]) for r in rows], dtype=np.int64)
    duration = np.array([int(r["end_ns"]) - int(r["start_ns"]) for r in rows]) / 1e9
    own = self_time(parents, duration)
    out = {}
    for name in sorted({r["name"] for r in rows}):
        keep = np.array([r["name"] == name and op in (None, r["op"]) for r in rows])
        if keep.any():
            out[name] = (int(keep.sum()), float(duration[keep].mean()),
                         float(own[keep].sum()))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans")
    parser.add_argument("--op", help="only the spans of this operation")
    args = parser.parse_args()
    rows = sorted(summarise(args.spans, args.op).items(), key=lambda kv: -kv[1][2])
    print(f"{'function':45s} {'calls':>8s} {'ms/call':>9s} {'self s':>9s}")
    for fn, (calls, mean, own) in rows:
        print(f"{fn:45s} {calls:8d} {1e3 * mean:9.3f} {own:9.3f}")


if __name__ == "__main__":
    main()
