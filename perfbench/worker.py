"""One workload in one fresh process: set-up, then a timed, checked loop.

Started by run.py, which times the set-up from outside: the worker prints
`ready` once qsteer is imported, the inputs are built and the warm-up ops
have run. With --setup-only it exits there. Otherwise it runs a closed loop
of ops (one client, no concurrency) for the given seconds and prints one
JSON line of results.

Each op is timed on its own. Its answer is checked against its reference
right after, outside the op's time, and then dropped, so the benchmark's
memory does not grow with the number of ops and `peak_rss_mb` stays a
property of qsteer. Throughput is ops per second of op time.

With --trace 1 the loop runs untraced for half the time, then traced over
the same ops, which gives the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time

import layers
from qsteer import QsteerError
from tracer import Tracer
from workloads import KNOWN_DEFECTS, WORKLOADS, OracleLog


class Tally:
    """Latency and check outcome of every op of one workload."""

    def __init__(self, workload, cases):
        self.workload = workload
        self.cases = cases
        self.oracle = OracleLog()
        self.latencies: list[float] = []  # seconds, in op order
        self.failed = 0  # every failed op, known defects included
        # Failures that are not excused as a known defect: ops that failed
        # in another way, plus a known defect's failures beyond its rate.
        self.unexpected_failed = 0
        self.unexpected: list[str] = []
        self.by_kind: dict[str, list[int]] = {}  # kind -> [ops, failed]
        # Worst |value - exact| over ops with a closed form: of the kinds
        # without a known defect (ref_digits), and of those with one.
        self.worst_error: float | None = None
        self.worst_known_error: float | None = None

    def add(self, k: int, seconds: float, answer, exc) -> None:
        """Record op k; an op that raised is a failure, never dropped."""
        case = self.cases[k]
        self.latencies.append(seconds)
        if exc is not None:
            code, why, error = f"raised {type(exc).__name__}", f"raised {type(exc).__name__}: {exc}", None
        else:
            try:
                v = self.workload.check(case, answer, k, self.oracle)
                code, why, error = v.code, v.why, v.error
            except Exception as e:  # a malformed answer fails its op
                code, why, error = "check", f"check raised {type(e).__name__}: {e}", None
        tally = self.by_kind.setdefault(case.kind, [0, 0])
        tally[0] += 1
        defect = KNOWN_DEFECTS.get(case.kind)
        if error is not None:
            if defect is None:
                self.worst_error = max(error, self.worst_error or 0.0)
            else:
                self.worst_known_error = max(error, self.worst_known_error or 0.0)
        if code:
            self.failed += 1
            tally[1] += 1
            if defect is None or code not in defect.codes:
                self.unexpected_failed += 1
                self.unexpected.append(f"op {k} ({case.kind}): {why}")

    def check_rates(self) -> None:
        """A known defect that fails more often than measured is a regression."""
        for kind, (ops, failed) in self.by_kind.items():
            defect = KNOWN_DEFECTS.get(kind)
            if defect is not None and failed > defect.allowed(ops):
                self.unexpected_failed += failed - math.floor(defect.allowed(ops))
                self.unexpected.append(
                    f"{kind}: {failed} of {ops} ops failed, above the known rate {defect.rate:g}"
                )


def run_ops(tally: Tally, seconds=None, count=None, tracer=None) -> tuple[int, float]:
    """Closed loop over the inputs in order, for `seconds` of wall time or
    `count` ops; returns (ops, seconds spent inside ops)."""
    workload, cases = tally.workload, tally.cases
    clock = time.perf_counter
    start = clock()
    op_seconds = 0.0
    i = 0
    while (count is None and clock() - start < seconds) or (count is not None and i < count):
        k = i % len(cases)
        exc = answer = None
        t0 = clock()
        try:
            answer = workload.run(cases[k]) if tracer is None else tracer.span("op", workload.run, cases[k])
        except Exception as e:  # an op failure is a result, not a crash
            exc = e
        dt = clock() - t0
        op_seconds += dt
        if tracer is None:
            tally.add(k, dt, answer, exc)
        else:
            tracer.fold()
            with tracer.paused():
                tally.add(k, dt, answer, exc)
        i += 1
    return i, op_seconds


def tail(latencies_ms, percentile):
    """(value, ops beyond it) at the nearest-rank percentile."""
    xs = sorted(latencies_ms)
    idx = max(math.ceil(percentile / 100.0 * len(xs)) - 1, 0)
    return xs[idx], len(xs) - idx - 1


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    cases, warm = wl.build(args.seed, args.workdir)
    for case in warm:
        try:
            wl.run(case)
        except QsteerError:  # a known defect; the path is warm all the same
            pass
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tally = Tally(wl, cases)
    out: dict = {}
    if not args.trace:
        ops, op_seconds = run_ops(tally, seconds=args.seconds)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lat = [1e3 * t for t in tally.latencies]
        t_val, t_beyond = tail(lat, wl.tail_percentile)
        worst = tally.worst_error
        out["metrics"] = {
            "ops_per_s": ops / op_seconds,
            "op_ms_p50": median(lat),
            "op_ms_tail": t_val,
            "verified_frac": 1.0 - tally.failed / ops,
            "ref_digits": -math.log10(max(worst, 1e-16)) if worst is not None else None,
        }
        # The highest percentile with ten ops beyond it, for the report only:
        # on generic-2q it moves too much between runs to be the metric.
        top = sorted(lat)[-11] if len(lat) > 10 else None
        out["tail"] = {"percentile": wl.tail_percentile, "beyond": t_beyond,
                       "top_percentile": 100.0 * (len(lat) - 10) / len(lat), "top_ms": top}
    else:
        ops, plain_seconds = run_ops(tally, seconds=args.seconds / 2)
        tracer = Tracer(layers.PACKAGE)
        tracer.install(layers.TRACED)
        try:
            _, traced_seconds = run_ops(tally, count=ops, tracer=tracer)
        finally:
            tracer.uninstall()
        ctx = layers.Context(
            tracer=tracer,
            ops=ops,
            overhead_frac=traced_seconds / plain_seconds - 1.0,
            oracle_calls=tally.oracle.calls,
            oracle_seconds=tally.oracle.seconds,
            oracle_points=tally.oracle.points,
        )
        out["metrics"] = layers.compute(ctx)
        out["missing"] = tracer.missing
        out["self_s_total"] = sum(t.self_s for t in tracer.all_totals().values())
        out["traced_s"] = traced_seconds
        out["plain_s"] = plain_seconds

    tally.check_rates()
    out["attempted"] = len(tally.latencies)
    out["failed"] = tally.failed
    out["unexpected_failed"] = tally.unexpected_failed
    out["unexpected"] = tally.unexpected
    out["by_kind"] = tally.by_kind
    out["known_defect_error"] = tally.worst_known_error
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
