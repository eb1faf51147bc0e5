"""The nbrelim benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload grid-orders|solve-wide|verify-corpus|all
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in its own child
process (`worker.py`), which imports `nbrelim` from `src/`, builds the
workload's inputs from the seed, warms up, and repeats the workload's op
list until the seconds are up, checking every op's output outside its timed
interval.  `setup_s` is the median of three set-ups, each in a fresh process.
Times are in reference seconds, corrected for this machine's speed swings
(`calibrate.py`); the raw ones are printed in the context line.

With `--trace 0` the result carries the end-to-end metrics of
`BENCHMARK.json`; with `--trace 1` its per-layer metrics, measured on traced
passes that alternate with untraced ones.  The last line of standard output
is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it name each metric with its unit and give the run's
context: commit, Python version, CPUs, load average, seed, op counts and the
sample count behind each percentile.  The exit code is 0 only when every op
passed the gate.  `--record-expected` rewrites `expected.json`, the frozen
output digests of every op at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid-orders", "solve-wide", "verify-corpus")
DEFAULT_SEED = 0
SETUP_SAMPLES = 3
# A workload's run must end within 180 s; its children share this budget.
DEADLINE_S = 170


def _load_average() -> list[float]:
    with open("/proc/loadavg") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def _commit() -> str:
    """The checked-out commit, read from `.git` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _child(args: list[str], deadline: float) -> dict:
    """Run worker.py with `args`; its last stdout line is a JSON object."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {' '.join(args)} exited with code {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 expected: str | None, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_child(common + ["--setup-only"], deadline)["setup_s"])
    load_start = _load_average()
    extra = ["--trace", str(trace)]
    if expected is not None:
        extra += ["--expected", expected]
    result = _child(common + extra, deadline)
    setups.append(result["metrics"]["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["samples"]["setup_s"] = len(setups)
    result["context"] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": _load_average(),
    }
    return result


def _select(values: dict, wanted: list[dict], where: str) -> dict:
    """The wanted metrics; a count nothing incremented is 0, a missing time
    is an error."""
    missing = [m["name"] for m in wanted
               if m["name"] not in values and m["unit"] in ("s", "ms")]
    if missing:
        raise RuntimeError(f"{where} lacks metrics {missing}")
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in wanted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                        help="frozen digests to gate the default seed against")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite --expected from this run (default seed only)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nbrelim", "__init__.py")):
        print("error: no nbrelim sources under src/; run from a checkout",
              file=sys.stderr)
        return 2
    if args.record_expected and args.seed != DEFAULT_SEED:
        print("error: digests are frozen at the default seed only", file=sys.stderr)
        return 2
    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)

    metrics, attempted, failed, recorded = {}, 0, 0, {}
    for name in names:
        expected = None if args.record_expected else args.expected
        result = run_workload(name, args.seed, args.seconds, args.trace,
                              expected, time.monotonic() + DEADLINE_S)
        values = result["layers"] if args.trace else result["metrics"]
        selected = _select(values, wanted, name)
        context = dict(result["context"], passes=result["passes"],
                       ops_per_pass=result["ops_per_pass"],
                       attempted=result["attempted"], failed=result["failed"],
                       fail_ratio=result["fail_ratio"],
                       undecided_ratio=result["undecided_ratio"],
                       samples=result["samples"], latency=result["latency"],
                       raw=result["raw"])
        print("context " + json.dumps(context, sort_keys=True))
        for failure in result["failures"]:
            print(f"FAIL {name}: {failure}")
        for metric, entry in selected.items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        for metric, value in context["latency"].items():
            print(f"{name} {metric} {value:.6g} ms "
                  f"({context['samples'][metric]} samples)")
        print(f"{name} fail_ratio {result['fail_ratio']:.6g}")
        print(f"{name} undecided_ratio {result['undecided_ratio']:.6g}")
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + k: v for k, v in selected.items()})
        attempted += result["attempted"]
        failed += result["failed"]
        recorded[name] = result["digests"]

    if args.record_expected:
        if os.path.exists(args.expected):
            with open(args.expected) as fh:
                recorded = dict(json.load(fh), **recorded)
        with open(args.expected, "w") as fh:
            json.dump(recorded, fh, indent=0, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
