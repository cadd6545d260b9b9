"""qsteer benchmark: one workload, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload generic-2q --seed 1 --seconds 20 --trace 0

Each workload runs in fresh worker processes with BLAS limited to one
thread and qsteer imported from ./src. The set-up (interpreter start,
`import qsteer`, input generation, warm-up) is timed from here, several
times, and reported as its median. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. "failed" counts
the failed ops that are not excused as a known defect of qsteer (see
workloads.KNOWN_DEFECTS); every failure, known or not, lowers
verified_frac. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3  # set-ups per run, the last one being the measured worker's
DEADLINE_S = 170.0  # the whole run, set-ups and checks included

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "verified_frac": "frac",
    "ref_digits": "digits",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def _worker_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _setup(cmd, env, cwd, deadline):
    """Start a worker and wait for its `ready` line; returns (proc, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
    except BaseException:
        _stop(proc)
        raise
    seconds = time.perf_counter() - t0
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"worker failed during set-up (exit code {proc.returncode})")
    if time.perf_counter() > deadline:
        _stop(proc)
        raise BenchError("set-up overran the deadline")
    return proc, seconds


def _finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker overran the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def _environment() -> str:
    try:
        np_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        np_version = "unknown"
    blas = ",".join(f"{k}={v}" for k, v in BLAS_ENV.items())
    return f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np_version} blas_threads: {blas}"


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qsteer", "__init__.py")):
        raise BenchError("no qsteer sources under ./src: run from the root of a qsteer checkout")
    deadline = time.perf_counter() + DEADLINE_S
    workdir = os.path.join(root, ".perfbench-tmp", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    env = _worker_env(root)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir,
    ]
    try:
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            proc, seconds = _setup(cmd + ["--setup-only"], env, root, deadline)
            _finish(proc, deadline)
            setups.append(seconds)
        proc, seconds = _setup(cmd, env, root, deadline)
        setups.append(seconds)
        out = _finish(proc, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = sorted(setups)[len(setups) // 2]
    result["setups"] = setups
    return result


def report(args, result) -> dict:
    """Print the human-readable report; return the contract's JSON object."""
    print(f"qsteer benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"environment: {_environment()}")
    attempted, failed, unexpected = result["attempted"], result["failed"], result["unexpected_failed"]
    if args.trace:
        import layers

        metrics = result["metrics"]
        for m in layers.PER_LAYER:
            v = metrics[m.name]
            print(f"  {m.name:44s} {v['value']:14.6g} {v['unit']:9s} moves: {m.moves}")
        if result.get("missing"):
            print(f"  not found (reported as zero calls): {', '.join(result['missing'])}")
        print(f"  self time of all spans {result['self_s_total']:.4f} s; op time traced {result['traced_s']:.4f} s,"
              f" untraced {result['plain_s']:.4f} s over the same ops")
    else:
        raw = dict(result["metrics"], setup_s=result["setup_s"], peak_rss_mb=result["peak_rss_mb"])
        metrics = {}
        for name, unit in END_TO_END.items():
            value = raw.get(name)
            if value is None or not math.isfinite(value):
                raise BenchError(f"metric {name} was not measured")
            metrics[name] = {"value": value, "unit": unit}
            note = ""
            if name == "op_ms_tail":
                t = result["tail"]
                note = f"  (p{t['percentile']:.2f} of {attempted} ops, {t['beyond']} beyond)"
                if t["top_ms"] is not None:
                    note += f"; p{t['top_percentile']:.2f}, ten beyond: {t['top_ms']:.4g} ms"
            elif name == "verified_frac":
                note = f"  (failed_frac {failed / attempted:.4g} = {failed}/{attempted}, known defects included)"
            elif name == "setup_s":
                note = "  (median of " + ", ".join(f"{s:.3f}" for s in result["setups"]) + ")"
            print(f"  {name:14s} {value:14.6g} {unit:7s}{note}")
    kinds = ", ".join(f"{k} {f}/{n}" for k, (n, f) in sorted(result["by_kind"].items()))
    print(f"  failed by kind: {kinds}")
    if result.get("known_defect_error") is not None:
        print(f"  worst |value - exact| on known-defect kinds (not in ref_digits): {result['known_defect_error']:.3e}")
    for line in result["unexpected"][:10]:
        print(f"  UNEXPECTED FAILURE: {line}")
    print(f"  failed ops not excused as a known defect: {unexpected} (the result's \"failed\")")
    return {
        "correct": not result["unexpected"],
        "attempted": attempted,
        "failed": unexpected,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        result = run(args)
        line = report(args, result)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
