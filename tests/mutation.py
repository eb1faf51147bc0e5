"""Mutation check: the tests must catch a broken engine and a weakened checker.

    python tests/mutation.py

Each row of `MUTANTS` is (name, file, old text, new text, test selection).
The runner copies `src/`, `tests/`, `perfbench/` (whose tracer a test
loads) and `pyproject.toml` to a temporary directory.  For each row it
replaces the old text, which must occur exactly once, and runs the
selection with `pytest -x` in a subprocess under a wall-clock limit of
`TIMEOUT` seconds.  A mutant is killed when a test fails, survives when every test
passes, and times out past the limit.  Each selection first runs once on
an unmutated copy, where it must pass, so that a kill means a failing test
and not a broken selection.  Exits 0 only when every mutant is killed.
pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GAMES = "src/nbrelim/games.py"
SIMPLEX = "src/nbrelim/simplex.py"
ORACLE = "src/nbrelim/oracle.py"
REDUCTIONS = "src/nbrelim/reductions.py"
VERIFICATION = "src/nbrelim/verification.py"
SIMPLEX_TESTS = ["tests/test_simplex.py"]
TIMEOUT = 120.0

MUTANTS = [
    (
        "bland-entering-from-the-top", SIMPLEX,
        "for j in range(width) if obj[j] > 0",
        "for j in reversed(range(width)) if obj[j] > 0",
        SIMPLEX_TESTS,
    ),
    (
        "ratio-tie-break-reversed", SIMPLEX,
        "leave = min(rising,",
        "leave = max(rising,",
        SIMPLEX_TESTS,
    ),
    (
        "ratio-test-takes-zero-entries", SIMPLEX,
        "if tableau[r][enter] > 0]",
        "if tableau[r][enter] >= 0]",
        SIMPLEX_TESTS,
    ),
    (
        "no-entering-column-returns-a-point", SIMPLEX,
        "if enter < 0:\n            return None",
        "if enter < 0:\n            break",
        SIMPLEX_TESTS,
    ),
    (
        "prefilter-accepts-weak-domination", ORACLE,
        "if all(map(gt, _gather(ip, bases, off), own)):",
        "if all(map(ge, _gather(ip, bases, off), own)):",
        ["tests/test_oracle.py::TestWholeRowScans::test_prefilter_returns_the_first_dominator"],
    ),
    (
        "colmax-off-a-run-from-the-full-game", REDUCTIONS,
        "within = full_comparison(game, player) if frontier.whole else cmp",
        "within = full_comparison(game, player)",
        ["tests/test_reductions.py::TestCandidates"],
    ),
    (
        "broken-induction-always-passes", VERIFICATION,
        "    current = full_restriction(game)\n    for k, step in enumerate(fast.steps",
        "    return None\n    current = full_restriction(game)\n    for k, step in enumerate(fast.steps",
        ["tests/test_verification.py::TestFailPaths::test_largest_closed_lattice_escape"],
    ),
    (
        "step-rejections-sample-one-step", VERIFICATION,
        "    for _ in range(10):\n        source = random_restriction(",
        "    for _ in range(1):\n        source = random_restriction(",
        ["tests/test_verification.py::TestFailPaths::test_equivalence_step_rejected"],
    ),
    (
        "random-orders-share-one-seed", VERIFICATION,
        "seed=child_seed(seed, k),",
        "seed=child_seed(seed, 0),",
        ["tests/test_verification.py::TestCheckers::test_random_orders_are_pairwise_distinct"],
    ),
    (
        "equivalence-reads-the-fast-traces-only", VERIFICATION,
        "for t in traces\n            if t.outcome.kept != fast_tilde.outcome.kept",
        "for t in traces[:2]\n            if t.outcome.kept != fast_tilde.outcome.kept",
        ["tests/test_verification.py::TestFailPaths::test_equivalence_reads_every_random_order"],
    ),
    (
        "vertex-best-reply-strict", ORACLE,
        "if peak <= own_val:",
        "if peak < own_val:",
        ["tests/test_oracle.py::TestCorrelatedRowGeneration"],
    ),
    (
        "witness-answers-a-larger-comparison-set", ORACLE,
        "if not support & ~bits and not cmp_bits & ~proved:",
        "if not support & ~bits:",
        ["tests/test_oracle.py::TestSoundnessAndDeterminism"
         "::test_a_witness_never_answers_a_larger_comparison_set"],
    ),
    (
        "never-best-answers-a-larger-restriction", ORACLE,
        "if not known_cmp & ~cmp_bits and not bits & ~known_bits:",
        "if not known_cmp & ~cmp_bits:",
        ["tests/test_reductions.py::TestDarrowReuse"
         "::test_queries_with_or_without_the_strategy_share_one_cache",
         "tests/test_reductions.py::TestResidualSupports"
         "::test_incremental_sweep_matches_a_fresh_one"],
    ),
    (
        "symmetry-check-skips-the-last-row", ORACLE,
        "for s in range(n)",
        "for s in range(n - 1)",
        ["tests/test_oracle.py::TestSymmetricSwap::test_width_reads_the_integer_tables_only"],
    ),
    (
        "swapped-witness-keeps-its-support", ORACLE,
        "self.support = support if key[0] == player else _swap(support, n)",
        "self.support = support",
        ["tests/test_oracle.py::TestSymmetricSwap"
         "::test_a_swapped_witness_watches_the_transposed_support"],
    ),
    (
        "swapped-never-best-skips-the-transpose", ORACLE,
        "if not known_cmp & ~cmp_bits and not bits & ~known_bits:",
        "if not known_cmp & ~cmp_bits and not restriction_bits & ~known_bits:",
        ["tests/test_oracle.py::TestSymmetricSwap"
         "::test_a_swapped_fact_needs_the_transposed_restriction"],
    ),
    (
        "stale-wakes-no-watcher", REDUCTIONS,
        "dirty |= self.watchers[bit]",
        "dirty |= 0",
        ["tests/test_reductions.py::TestFrontier::test_iterate_matches_the_stateless_reference"],
    ),
    (
        "span-reader-skips-label-order", GAMES,
        "and all(toks[1 + i :: width] == expected(i, done, records) for i in range(n))",
        "and True",
        ["tests/test_games.py::TestParserParity::test_accepted_mutations_read_the_same_game"],
    ),
    (
        "span-reader-fails-an-empty-final-span", GAMES,
        "if not span:  # after the `\\n` that ends the text\n            continue",
        "if not span:\n            return None",
        ["tests/test_games.py::TestTokenRoutes::test_written_text_never_reaches_the_walk"],
    ),
    (
        "walk-skips-the-duplicate-check", GAMES,
        "if offset in seen:",
        "if False:",
        ["tests/test_games.py::TestParserParity::test_mutation_corpus"],
    ),
    (
        "walk-returns-rows-in-line-order", GAMES,
        "return [list(map(col.__getitem__, order)) for col in columns], tables",
        "return columns, tables",
        ["tests/test_games.py::TestParserParity::test_accepted_mutations_read_the_same_game"],
    ),
]


def _copy(tmp: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, tmp / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", tmp)


def _pytest(tmp: Path, selection: list[str]) -> str:
    """'passed', 'failed', 'timed out' or 'error' (pytest's other exit codes:
    a collection or usage error is no kill)."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    # No bytecode: a mutant and its restored original can share a size and
    # an mtime second, and a cached .pyc would then run the wrong one.
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            argv, cwd=tmp, env=env, timeout=TIMEOUT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return "timed out"
    return {0: "passed", 1: "failed"}.get(proc.returncode, "error")


def _mutated(file: str, old: str, new: str) -> str:
    text = (ROOT / file).read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"{file}: the old text {old!r} occurs {text.count(old)} times, not once")
    return text.replace(old, new)


def main() -> int:
    # Every replacement is checked before anything runs.
    texts = [_mutated(file, old, new) for _, file, old, new, _ in MUTANTS]

    start = time.perf_counter()
    outcomes = {}
    with tempfile.TemporaryDirectory(prefix="mutation-") as name:
        tmp = Path(name)
        _copy(tmp)
        for selection in dict.fromkeys(tuple(row[4]) for row in MUTANTS):
            outcome = _pytest(tmp, list(selection))
            if outcome != "passed":
                print(f"unmutated {' '.join(selection)}: {outcome}")
                return 1
        for (mutant, file, _, _, selection), text in zip(MUTANTS, texts):
            original = (tmp / file).read_text(encoding="utf-8")
            (tmp / file).write_text(text, encoding="utf-8")
            began = time.perf_counter()
            outcome = _pytest(tmp, selection)
            (tmp / file).write_text(original, encoding="utf-8")
            outcome = {"failed": "killed", "passed": "survived"}.get(outcome, outcome)
            outcomes[mutant] = outcome
            print(f"{mutant:40} {outcome:10} {time.perf_counter() - began:6.1f} s", flush=True)
    missed = [m for m, outcome in outcomes.items() if outcome != "killed"]
    print(
        f"{len(outcomes) - len(missed)} of {len(outcomes)} mutants killed "
        f"in {time.perf_counter() - start:.1f} s"
    )
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
