"""One workload in one process: set-up, timed passes, the gate, metrics.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace 0|1] [--setup-only] [--expected FILE]

`run.py` starts this with `src/` on PYTHONPATH and reads the single JSON
line it prints.  Set-up time runs from before `import nbrelim` to the end of
the warm-up.  Passes repeat the workload's op list until `--seconds` have
passed; with `--trace 1` even passes run untraced and odd passes traced, so
the two can be compared and the tracing overhead measured; the spans go to
`out/spans-NAME-N.jsonl.gz`.  Every time is
in reference seconds (see `calibrate.py`), and an op's time is the median
of its untraced repeats.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
# Seconds between calibration probes during a pass.
PROBE_EVERY_S = 0.5


def _is_time(key: str) -> bool:
    return key.endswith((".s", ".self_s")) or ".s." in key


def _run_pass(ops, tracer, phase) -> dict:
    """Run one pass; time each op, then check it outside the timed interval.

    Calibration probes run between ops at least every PROBE_EVERY_S; each
    op's time is corrected by the probes just before and just after it.
    """
    raw, digests, failed, undecided = {}, {}, {}, 0
    probes, probe_before = [calibrate.probe()], {}
    clock = time.perf_counter
    last_probe = clock()
    for op in ops:
        if clock() - last_probe >= PROBE_EVERY_S:
            probes.append(calibrate.probe())
            last_probe = clock()
        probe_before[op.op_id] = len(probes) - 1
        run = op.run
        if tracer is not None:
            tracer.phase, tracer.op = phase, op.op_id
            run = tracer.wrap("bench.op", run)
        start = clock()
        try:
            result = run()
        except Exception as exc:  # an op that raises is a failed op
            raw[op.op_id] = clock() - start
            failed[op.op_id] = [f"raised {type(exc).__name__}: {exc}"]
            continue
        raw[op.op_id] = clock() - start
        try:
            verdict = op.check(result)
        except Exception as exc:  # so is one whose output cannot be read
            failed[op.op_id] = [f"check raised {type(exc).__name__}: {exc}"]
            continue
        digests[op.op_id] = verdict.digest
        undecided += verdict.undecided
        if verdict.problems:
            failed[op.op_id] = verdict.problems
        if tracer is not None and op.counts is not None:
            tracer.counts[phase].update(op.counts(result))
    if tracer is not None:
        tracer.op = None
    probes.append(calibrate.probe())
    times = {
        op_id: seconds * calibrate.factor(*probes[probe_before[op_id]:][:2])
        for op_id, seconds in raw.items()
    }
    return {"traced": tracer is not None, "times": times, "raw": raw,
            "factor": calibrate.factor(*probes), "digests": digests,
            "failed": failed, "undecided": undecided}


def _gate(passes, expected, problems) -> None:
    """Cross-pass checks: every pass, traced or not, gives each op the same
    output, and at the default seed that output matches the frozen digest."""
    first = passes[0]["digests"]
    for record in passes[1:]:
        for op_id, digest in record["digests"].items():
            if first.get(op_id, digest) != digest:
                record["failed"].setdefault(op_id, []).append(
                    "output differs from the first pass"
                )
    if expected is None:
        return
    for op_id in sorted(set(expected) - set(first)):
        problems.append(f"{op_id}: expected op missing from the run")
    for record in passes:
        for op_id, digest in record["digests"].items():
            if expected.get(op_id) != digest:
                record["failed"].setdefault(op_id, []).append(
                    "output digest differs from the frozen expected digest"
                )


def _combine(setup: dict, per_pass: list[dict], problems: list[str]) -> dict:
    """Set-up value plus one pass: the median pass for times, and for counts
    the single value every traced pass must agree on.  Each dict carries its
    calibration factor under "factor"."""
    out = {}
    keys = set(setup).union(*per_pass) - {"factor"}
    for key in sorted(keys):
        values = [m.get(key, 0) for m in per_pass]
        if _is_time(key):
            value = statistics.median(v * m["factor"] for v, m in zip(values, per_pass))
        else:
            value = values[0]
            if len(set(values)) > 1:
                problems.append(f"count {key} differs between traced passes: {values}")
        base = setup.get(key, 0) * (setup["factor"] if _is_time(key) else 1)
        out[key] = max(base, value) if key.endswith(".max") else base + value
    return out


def _derive(layer: dict) -> None:
    lp_calls = layer.get("simplex.lp.calls", 0)
    queries = layer.get("oracle.queries", 0)
    layer["oracle.useful_ratio"] = layer.get("oracle.removable", 0) / queries if queries else 0.0
    layer["simplex.lp.rows.mean"] = layer.get("simplex.lp.rows", 0) / lp_calls if lp_calls else 0.0
    layer["simplex.lp.cols.mean"] = layer.get("simplex.lp.cols", 0) / lp_calls if lp_calls else 0.0


def _op_times(passes, key="times") -> list[float]:
    """Each op's median time over the passes, in ascending order."""
    repeats: dict[str, list[float]] = {}
    for record in passes:
        for op_id, seconds in record[key].items():
            repeats.setdefault(op_id, []).append(seconds)
    return sorted(statistics.median(v) for v in repeats.values())


def _tail_percentile(count: int) -> int | None:
    """The highest of p90/p99/p999 with at least ten samples beyond it."""
    best = None
    for tenths in (900, 990, 999):
        if count * (1000 - tenths) / 1000 >= 10:
            best = tenths
    return best


def main(argv=None) -> int:
    probe_start = calibrate.probe()
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--expected", help="JSON file of frozen digests per workload")
    args = parser.parse_args(argv)

    import workloads  # imports nbrelim: part of the set-up time

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(HERE, "out"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workloads.warm_up(workdir)
        if tracer is not None:
            tracer.uninstall()
        setup_raw = time.perf_counter() - t0
        setup_factor = calibrate.factor(probe_start, calibrate.probe())
        setup_s = setup_raw * setup_factor
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        passes = []
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            ops = workload.pass_ops()
            if traced:
                tracer.install()
            try:
                passes.append(_run_pass(ops, tracer if traced else None, len(passes)))
            finally:
                if traced:
                    tracer.uninstall()
            # A traced run needs an untraced and a traced pass to compare.
            enough = tracer is None or len(passes) >= 2
            if enough and time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems: list[str] = []
    expected = None
    if args.expected and args.seed == DEFAULT_SEED:
        with open(args.expected) as fh:
            expected = json.load(fh).get(args.workload, {})
    _gate(passes, expected, problems)

    plain = [p for p in passes if not p["traced"]]
    times = _op_times(plain)
    raw = _op_times(plain, "raw")
    result = {
        "metrics": {
            "setup_s": setup_s,
            "ops_per_s": len(times) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "latency": {"op_ms.p50": statistics.median(times) * 1000},
        "samples": {"op_ms.p50": len(times)},
        "raw": {"setup_s": setup_raw, "ops_per_s": len(raw) / sum(raw),
                "op_ms.p50": statistics.median(raw) * 1000},
    }
    tail = _tail_percentile(len(times))
    if tail is not None:
        name = f"op_ms.p{tail // 10 if tail % 10 == 0 else tail}"
        result["latency"][name] = times[len(times) * tail // 1000] * 1000
        result["samples"][name] = len(times)
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        layers = _combine(
            dict(tracer.phase_metrics("setup"), factor=setup_factor),
            [dict(tracer.phase_metrics(k), factor=p["factor"])
             for k, p in enumerate(passes) if p["traced"]],
            problems,
        )
        _derive(layers)
        layers["trace.overhead_ratio"] = sum(_op_times(traced)) / sum(times)
        result["layers"] = layers
        tracer.dump(os.path.join(
            HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl.gz"))

    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes) + len(problems)
    result.update(
        attempted=attempted,
        failed=failed,
        fail_ratio=failed / attempted,
        undecided_ratio=sum(p["undecided"] for p in passes) / attempted,
        passes=len(passes),
        ops_per_pass=len(passes[0]["times"]),
        digests=passes[0]["digests"],
        failures=(problems + sorted(
            f"pass {k} {op_id}: {'; '.join(why)}"
            for k, p in enumerate(passes) for op_id, why in p["failed"].items()
        ))[:20],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
