"""Run the benchmark over several seeds and record each metric's spread.

    python3 perfbench/baseline.py [--runs 10] [--traced-runs 2] [--workload NAME ...]

For every workload this makes `--runs` untraced runs, seeds 1, 2, ..., and
`--traced-runs` traced ones, each of BENCHMARK.json's `run_seconds`, then
writes to `BASELINE.json`, per metric, the median, the first and third
quartiles (`statistics.quantiles(values, n=4)`) and the spread (quartile
distance over the median).  Runs that fail the gate are recorded and make
the script exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "BASELINE.json")


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result\n{proc.stderr[-2000:]}")
    context = next(json.loads(ln[8:]) for ln in lines if ln.startswith("context "))
    return json.loads(lines[-1]), context


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    summary = {"median": median, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced-runs", type=int, default=2)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    out: dict = {}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            out = json.load(fh)
    all_correct = True
    for workload in args.workload or ["grid-orders", "solve-wide", "verify-corpus"]:
        entry = {"runs": [], "end_to_end": {}, "per_layer": {}}
        for trace, count, key in ((0, args.runs, "end_to_end"),
                                  (1, args.traced_runs, "per_layer")):
            values: dict[str, list[float]] = {}
            for seed in range(1, count + 1):
                result, context = one_run(workload, seed, seconds, trace)
                all_correct &= result["correct"]
                entry["runs"].append({
                    "seed": seed, "trace": trace, "correct": result["correct"],
                    "attempted": result["attempted"], "failed": result["failed"],
                    "loadavg": [context["loadavg_start"], context["loadavg_end"]],
                })
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                print(workload, seed, trace, result["correct"],
                      {k: round(v[-1], 4) for k, v in values.items()} if not trace else "",
                      flush=True)
            entry[key] = {name: summarize(v) for name, v in values.items()}
        entry["commit"] = context["commit"]
        entry["seconds"] = seconds
        out[workload] = entry
        with open(OUT, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
