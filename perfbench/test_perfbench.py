"""Self-tests of the benchmark: the gate catches a wrong output, counters
repeat exactly, and a directory without the program gives no result.

    python3 -m pytest -q perfbench/test_perfbench.py

Each test runs the real benchmark with the shortest run (one pass, or one
untraced and one traced pass), so the file takes a minute or two.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def test_gate_fails_a_tampered_digest(tmp_path):
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    op_id = sorted(expected["verify-corpus"])[0]
    expected["verify-corpus"][op_id] = "0" * 64
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))

    proc, result = _run("--workload", "verify-corpus", "--seed", "0",
                        "--seconds", "0", "--expected", str(tampered))
    assert proc.returncode != 0
    assert result is not None and result["correct"] is False
    assert result["failed"] / result["attempted"] > 0
    assert f"FAIL verify-corpus: pass 0 {op_id}:" in proc.stdout


def test_untampered_digests_pass():
    proc, result = _run("--workload", "verify-corpus", "--seed", "0", "--seconds", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True and result["failed"] == 0


def test_traced_counts_repeat_exactly():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        counts = [m["name"] for m in json.load(fh)["per_layer"]
                  if m["unit"] not in ("s", "ratio")]
    runs = []
    for _ in range(2):
        proc, result = _run("--workload", "verify-corpus", "--seed", "7",
                            "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        runs.append({name: result["metrics"][name]["value"] for name in counts})
    assert runs[0] == runs[1]
    assert runs[0]["simplex.lp.calls"] > 0 and runs[0]["oracle.queries"] > 0


def test_no_result_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, result = _run("--workload", "verify-corpus", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
