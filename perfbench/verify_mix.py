"""Count the MSC solves that `qsteer verify` makes, by check and input kind.

The workloads' input mixes are weighted to these counts. Run from the root
of a checkout (it takes about as long as `qsteer verify`, ~70 s):

    PYTHONPATH=src python3 perfbench/verify_mix.py

Every solver call made by a verify check is classified by the solver, by
the channel that produced its input (if the input is an `apply_on_b`
output) and by whether the degenerate (b = 0) branch was taken, and timed.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from qsteer import verify


def main() -> int:
    tally = defaultdict(lambda: [0, 0.0])  # (check, solver, input, path) -> [calls, seconds]
    made_by = {}  # id of an apply_on_b output -> channel label
    check = [""]

    def on_channel(state, channel):
        out = original["apply_on_b"](state, channel)
        made_by[id(out)] = channel.label.split("(")[0]
        return out

    def timed(solver):
        def call(state, *args, **kwargs):
            t0 = time.perf_counter()
            res = original[solver](state, *args, **kwargs)
            dt = time.perf_counter() - t0
            path = "b=0" if getattr(res, "degenerate_path", False) else "-"
            source = made_by.get(id(state), "direct")
            entry = tally[(check[0], solver, source, path)]
            entry[0] += 1
            entry[1] += dt
            return res

        return call

    original = {name: getattr(verify, name) for name in ("apply_on_b", "msc_two_qubit", "msc_general", "msc_oracle")}
    verify.apply_on_b = on_channel
    for solver in ("msc_two_qubit", "msc_general", "msc_oracle"):
        setattr(verify, solver, timed(solver))
    try:
        for name, fn in verify.CHECKS.items():
            check[0] = name
            made_by.clear()
            fn()
    finally:
        for name, fn in original.items():
            setattr(verify, name, fn)

    total = sum(n for n, _ in tally.values())
    seconds = sum(s for _, s in tally.values())
    print(f"{'check':14s} {'solver':14s} {'input':18s} {'path':5s} {'calls':>6s} {'share':>7s} {'seconds':>8s}")
    for (name, solver, source, path), (n, s) in sorted(tally.items()):
        print(f"{name:14s} {solver:14s} {source:18s} {path:5s} {n:6d} {n / total:7.2%} {s:8.2f}")
    print(f"total {total} solves, {seconds:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
