"""The engine still has every name the benchmark's tracer rebinds, and
calls them as the tracer's counters read them.

`perfbench/spans.py` wraps each `(module, attribute)` of its `TARGETS` by
name, so removing or renaming one of them in `src/` makes `Tracer.install()`
raise `AttributeError` and every traced benchmark run fail.  Its counters
read the wrapped call's arguments by position and name, so a call that
passes them another way skews the counts without an error.
"""

import importlib.util
import random
from collections import Counter
from pathlib import Path

from nbrelim import oracle
from nbrelim.beliefs import BeliefKind
from nbrelim.catalog import bertrand_grid
from nbrelim.games import restrict
from nbrelim.oracle import find_witness, full_comparison

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    missing = [
        f"{path}.{attr}"
        for path, attr, *_ in spans.TARGETS
        if not hasattr(spans._resolve(path), attr)
    ]
    assert missing == []


def test_lp_counters_read_the_oracle_call(monkeypatch):
    # `_count_lp` reads the rows as the first argument (or `inequalities`)
    # and `num_vars` as a keyword, which the signature makes the only way to
    # pass it.  Within one correlated query, the k-th LP call holds the k
    # rows generated so far (the closed form of two rows either ends the
    # query or is followed by the LP), over the kept opponent strategies.
    spans = _load_spans()
    game = bertrand_grid(8)
    real, calls = oracle.lp_feasible, []

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        counts = Counter()
        spans._count_lp(counts, args, kwargs, result)
        calls.append(counts)
        return result

    monkeypatch.setattr(oracle, "lp_feasible", counted)
    rng = random.Random(8)
    longest = 0
    for _ in range(6):
        kept = [sorted(rng.sample(range(k), rng.randint(4, k))) for k in game.sizes]
        r = restrict(game, kept)
        for player in range(2):
            cmp = full_comparison(game, player)
            for s in kept[player]:
                calls.clear()
                find_witness(game, r, player, s, BeliefKind.CORRELATED, cmp)
                assert [c["simplex.lp.rows"] for c in calls] == list(range(1, len(calls) + 1))
                assert [c["simplex.lp.cols"] for c in calls] == [len(kept[1 - player])] * len(calls)
                longest = max(longest, len(calls))
    assert longest >= 3
