"""Layer spans and counters taken from outside the engine.

`Tracer.install()` rebinds, on the module that imports it, each name the
traced run watches (for example `nbrelim.oracle.lp_feasible`, which the
oracle calls) to a wrapper that records a span: name, start, end, parent
span, op and phase.  Counters come only from a wrapped call's arguments and
return value, so they repeat exactly from run to run.  `uninstall()` puts
the original bindings back; `src/` is never edited.

A span's self time is its duration minus the time its direct child spans
cover.  `phase_metrics()` turns the spans and counters of one phase (the
set-up, or one pass) into the per-layer metrics.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import Counter, defaultdict

from nbrelim.oracle import BestResponse, EmptyBeliefSet, Inconclusive, NeverBest

CAMPAIGNS = {
    "check_order_independence": "order_independence",
    "check_fast_dominance": "fast_dominance",
    "check_equivalence": "equivalence",
    "check_nash_preservation": "nash",
    "check_oracle_agreement": "oracle_agreement",
    "check_kind_monotonicity": "kind_monotonicity",
}
VERDICTS = {
    BestResponse: "br",
    NeverBest: "nbr",
    EmptyBeliefSet: "empty",
    Inconclusive: "inconclusive",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_sweep(counts, args, kwargs, result):
    restriction = _arg(args, kwargs, 1, "restriction")
    removable, certs, _ = result
    counts["oracle.queries"] += sum(len(k) for k in restriction.kept)
    counts["oracle.removable"] += sum(len(g) for g in removable)
    for cert in certs.values():
        counts["oracle.verdict." + VERDICTS[type(cert)]] += 1


def _count_witness(counts, args, kwargs, result):
    counts["oracle.verdict." + VERDICTS[type(result)]] += 1


def _count_lp(counts, args, kwargs, result):
    rows = len(_arg(args, kwargs, 0, "inequalities"))
    cols = kwargs.get("num_vars", args[2] if len(args) > 2 else 0)
    counts["simplex.lp.rows"] += rows
    counts["simplex.lp.cols"] += cols
    counts["simplex.lp.rows.max"] = max(counts["simplex.lp.rows.max"], rows)
    if result is None:
        counts["simplex.lp.infeasible"] += 1
        return
    bits = max(
        (max(q.numerator.bit_length(), q.denominator.bit_length()) for q in result),
        default=0,
    )
    counts["simplex.lp.point_bits.max"] = max(counts["simplex.lp.point_bits.max"], bits)


def _count_iterate(counts, args, kwargs, result):
    counts["reductions.steps"] += len(result.steps)
    # One candidate sweep per step plus the final one that finds nothing.
    counts["reductions.rounds"] += len(result.steps) + 1


def _sweep_tag(args, kwargs):
    return _arg(args, kwargs, 2, "kind").value


# (module, attribute, span name, counter hook, tag from the arguments)
TARGETS = [
    ("nbrelim.reductions", "candidate_certificates", "oracle.sweep", _count_sweep, _sweep_tag),
    ("nbrelim.reductions", "find_witness", "oracle.find_witness", _count_witness, None),
    ("nbrelim.verification", "find_witness", "oracle.find_witness", _count_witness, None),
    ("nbrelim.oracle", "lp_feasible", "simplex.lp", _count_lp, None),
    ("nbrelim.oracle", "expected_payoff", "beliefs.expected_payoff", None, None),
    ("nbrelim.reductions", "iterate", "reductions.iterate", _count_iterate, None),
    ("nbrelim.verification", "iterate", "reductions.iterate", _count_iterate, None),
    ("nbrelim.cli", "iterate", "reductions.iterate", _count_iterate, None),
    ("nbrelim.reductions", "validate_step", "reductions.validate_step", None, None),
    ("nbrelim.verification", "validate_step", "reductions.validate_step", None, None),
    ("nbrelim.verification", "legal_removal_candidates", "reductions.candidates", None, None),
    ("nbrelim.cli", "parse_game", "games.parse", None, None),
    ("nbrelim.games", "render_game", "games.render", None, None),
    ("nbrelim.games.FiniteGame", "__init__", "games.construct", None, None),
    ("nbrelim.cli", "main", "cli.main", None, None),
] + [
    ("nbrelim.catalog", builder, "catalog.build", None, None)
    for builder in ("bertrand_grid", "hotelling_grid", "random_game", "gap_3x2")
] + [
    ("nbrelim.verification", fn, f"verification.{campaign}", None, None)
    for fn, campaign in CAMPAIGNS.items()
]


def _resolve(path: str):
    module, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self) -> None:
        # [name, start, end, parent index, op id, phase, tag, outermost]
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.phase = "setup"
        self.op: str | None = None
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, hook=None, tag=None):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    self.phase, tag(args, kwargs) if tag else None,
                    depth[name] == 0]
            spans.append(span)
            stack.append(index)
            depth[name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[name] -= 1
                stack.pop()
            if hook is not None:
                hook(self.counts[self.phase], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for path, attr, name, hook, tag in TARGETS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook, tag))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def phase_metrics(self, phase) -> dict[str, float]:
        """Per-layer metrics over the spans and counters of one phase."""
        child_time: Counter = Counter()
        for span in self.spans:
            if span[5] == phase and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        calls, total, own, tagged = Counter(), Counter(), Counter(), Counter()
        for index, (name, start, end, _, _, ph, tag, outermost) in enumerate(self.spans):
            if ph != phase:
                continue
            duration = end - start
            calls[name] += 1
            own[name] += duration - child_time[index]
            if outermost:
                total[name] += duration
                if tag:
                    tagged[f"{name}.s.{tag}"] += duration
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        out.update(tagged)
        layer_self: Counter = Counter()
        for name, value in own.items():
            layer_self[name.split(".", 1)[0]] += value
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        out.update(self.counts[phase])
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        keys = ("name", "start", "end", "parent", "op", "phase", "tag")
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
