"""Paired benchmark runs of two qsteer checkouts, summarised as a BENCH_<n>.json file.

Usage:

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload generic-2q \
        --seeds 1-10 --out BENCH_21.json [--group held-out] [--seconds 20] [--trace 0]

For each seed it runs `perfbench/run.py` once in each checkout, from that
checkout's root, one run after the other: odd seeds run the parent first,
even seeds the change. The benchmark code of the two checkouts must be
byte-identical. Per side it records every run, and per metric each side's
median and quartiles (inclusive method) and the pairs the change wins: the
side that reads better by the metric's direction in BENCHMARK.json, ties
counting for neither.

The summary goes into --out under the key "<workload> seeds <seeds>
trace <t>" (plus " <group>" when given). An existing file keeps its other
keys, so one file can gather several workloads and seed sets.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys


def seed_list(text: str) -> list[int]:
    """'1-10' or '11,12' (or a mix, '1-3,7') as a list of ints."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def bench_digest(root: str) -> str:
    """sha256 over the benchmark's files: perfbench/*.py and BENCHMARK.json."""
    h = hashlib.sha256()
    bench = os.path.join(root, "perfbench")
    for path in sorted(os.path.join(bench, f) for f in os.listdir(bench) if f.endswith(".py")):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    with open(os.path.join(root, "BENCHMARK.json"), "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def directions(root: str) -> dict[str, str]:
    """Metric name -> "higher" or "lower", from the checkout's BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_once(root: str, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """One perfbench run from the checkout's root; returns (its JSON result, its environment line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {root} failed (exit {proc.returncode}):\n{proc.stderr}")
    env = next((ln.removeprefix("environment: ") for ln in lines if ln.startswith("environment: ")), "")
    return json.loads(lines[-1]), env


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    by_seed: dict[int, dict[str, dict]] = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r
    pairs = [(p["parent"], p["change"]) for p in by_seed.values()]
    metrics = {}
    for name in runs[0]["metrics"]:
        parent = [p["metrics"][name] for p, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        sign = 1.0 if better.get(name, "lower") == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        metrics[name] = {"parent": quartiles(parent), "change": quartiles(change), "change_wins": f"{wins}/{len(pairs)}"}
    return {
        "pairs": len(pairs),
        "seeds": sorted(by_seed),
        "all_correct": all(r["correct"] for r in runs),
        "metrics": metrics,
        "runs": runs,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 11,12")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--group", default="", help="suffix of the summary key, such as held-out")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    if bench_digest(roots["parent"]) != bench_digest(roots["change"]):
        raise SystemExit("the two checkouts' benchmark code differs; pairs need identical benchmark code")

    runs, environment = [], ""
    for seed in args.seeds:
        for side in ("parent", "change") if seed % 2 else ("change", "parent"):
            result, environment = run_once(roots[side], args.workload, seed, args.seconds, args.trace)
            runs.append({
                "seed": seed, "side": side, "attempted": result["attempted"], "failed": result["failed"],
                "correct": result["correct"], "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
            print(f"{args.workload} seed {seed} {side}: " + ", ".join(
                f"{k} {v:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("command", "python3 perfbench/run.py --workload W --seed S --seconds N --trace T, "
                   "run from the root of each checkout by tools/bench_pairs.py")
    doc["environment"] = environment
    key = f"{args.workload} seeds {','.join(map(str, args.seeds))} trace {args.trace}" + (
        f" {args.group}" if args.group else "")
    doc.setdefault("workloads", {})[key] = summarise(runs, directions(roots["change"]))
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
