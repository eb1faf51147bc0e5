"""The three benchmark workloads: seeded inputs, one pass of ops, and checks.

A workload is built once per process (its set-up) and then yields passes.
Every pass is the same fixed list of ops for a given seed, and each pass
starts from fresh oracle caches, so all passes do identical work.  An op is
a zero-argument callable timed by the worker; its check runs afterwards,
outside the timed interval, and returns a `Verdict`.

The program only ever sees the generated games and arguments: the op
callables go through the public API of `nbrelim` (`reductions.iterate`,
`cli.main`, `verification.check_*`), looked up on the module at call time so
that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from nbrelim import catalog, cli, games, reductions, verification
from nbrelim.beliefs import BeliefKind
from nbrelim.oracle import OracleCache
from nbrelim.reductions import Policy, ReductionKind


@dataclass
class Verdict:
    digest: str
    problems: list[str] = field(default_factory=list)
    undecided: bool = False


@dataclass
class Op:
    op_id: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    # Counters read from the op's own return value, only in traced passes.
    counts: Callable[[object], dict] | None = None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Closed-form grid outcomes: the price or spot both players end on, and the
# number of fast (whole never-best set) steps on the catalog grids.
BERTRAND_OUTCOME = "1"
HOTELLING_OUTCOME = "50"
GRID_GAMES = {
    "bertrand100": (BERTRAND_OUTCOME, 50),
    "hotelling99": (HOTELLING_OUTCOME, 49),
}


class GridOrders:
    """Tilde traces on the two catalog grids, one shared cache per group.

    A group is one (game, belief kind) pair: a fast trace, then random orders
    alternating random-partial and single-random, all sharing one
    `OracleCache` as the acceptance build does.  The first orders are the
    acceptance build's own (seed 1); the rest are seeded by the workload
    seed.  Orders of one group differ up to threefold in cost, so with every
    order seeded the time of a pass moved by 15% between seeds; the fixed
    half anchors it to the gated build.
    """

    name = "grid-orders"
    ACCEPTANCE_ORDERS = 8
    SEEDED_ORDERS = 8
    ACCEPTANCE_SEED = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.games = {
            name: catalog.catalog_entry(name).game() for name in GRID_GAMES
        }

    def pass_ops(self) -> list[Op]:
        ops: list[Op] = []
        group = 0
        for name, game in self.games.items():
            label, fast_steps = GRID_GAMES[name]
            for kind in (BeliefKind.PURE, BeliefKind.CORRELATED):
                group += 1
                ops.extend(
                    self._group(name, game, kind, label, fast_steps, group)
                )
        return ops

    def _group(self, name, game, kind, label, fast_steps, group) -> list[Op]:
        cache = OracleCache(kind)
        group_seed = verification.child_seed(self.seed, group)
        expected = f"{{{label}}}x{{{label}}}"

        def trace_op(policy: Policy, seed: int) -> Callable[[], object]:
            return lambda: reductions.iterate(
                game, ReductionKind.TILDE, kind, policy, seed=seed, cache=cache
            )

        def check(trace, fast: bool) -> Verdict:
            verdict = Verdict(sha256(trace.render()), undecided=not trace.maximal)
            if trace.outcome.render() != expected:
                verdict.problems.append(
                    f"outcome {trace.outcome.render()}, expected {expected}"
                )
            if fast and len(trace.steps) != fast_steps:
                verdict.problems.append(
                    f"{len(trace.steps)} fast steps, expected {fast_steps}"
                )
            return verdict

        prefix = f"{name}/{kind.value}"
        ops = [
            Op(f"{prefix}/fast", trace_op(Policy.FAST, group_seed),
               lambda t: check(t, True))
        ]
        for k in range(self.ACCEPTANCE_ORDERS + self.SEEDED_ORDERS):
            policy = Policy.RANDOM_PARTIAL if k % 2 == 0 else Policy.SINGLE_RANDOM
            base = self.ACCEPTANCE_SEED if k < self.ACCEPTANCE_ORDERS else group_seed
            seed = verification.child_seed(base, k)
            ops.append(
                Op(f"{prefix}/{policy.value}{k}", trace_op(policy, seed),
                   lambda t: check(t, False))
            )
        return ops


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`nbrelim.cli.main(argv)` with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def check_solve(result, fmt: str, label: str) -> Verdict:
    code, text = result
    verdict = Verdict(sha256(text))
    if code != 0:
        verdict.problems.append(f"exit code {code}")
        return verdict
    lines = text.splitlines()
    if fmt == "records":
        outcome = json.loads(lines[-1])
        kept = outcome.get("kept")
        verdict.undecided = not outcome.get("maximal")
        if outcome.get("record") != "outcome" or kept != [[label], [label]]:
            verdict.problems.append(f"records outcome {lines[-1]}")
    else:
        line = next((ln for ln in lines if ln.startswith("outcome ")), "")
        verdict.undecided = not line.endswith("maximal=yes")
        if not line.startswith(f"outcome kept={{p1:[{label}],p2:[{label}]}} "):
            verdict.problems.append(f"text outcome {line!r}")
    return verdict


class SolveWide:
    """In-process `nbrelim solve` calls on game files emitted at set-up.

    Grid sizes sit on a fixed ladder across each family's range, and the
    seed moves every rung up by 0-9: the seed changes every game while the
    mix of sizes, and so the work of a pass, stays the same.  Both belief
    kinds run on the top rung, and each family's four ops cover every
    (relation, format) pair once.
    """

    name = "solve-wide"
    FAMILIES = (
        ("bertrand", BERTRAND_OUTCOME, (
            (100, "pure", "arrow", "records"),
            (200, "correlated", "tilde", "text"),
            (290, "pure", "tilde", "records"),
            (290, "correlated", "arrow", "text"),
        )),
        ("hotelling", HOTELLING_OUTCOME, (
            (60, "correlated", "arrow", "records"),
            (75, "pure", "tilde", "text"),
            (90, "pure", "arrow", "text"),
            (90, "correlated", "tilde", "records"),
        )),
    )

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(seed)
        self.specs: list[tuple[str, list[str], str, str]] = []
        for family, label, ladder in self.FAMILIES:
            # Looked up per call, so a traced set-up sees the builder.
            build = getattr(catalog, f"{family}_grid")
            paths = {}
            for rung, *_ in ladder:
                if rung not in paths:
                    n = rung + rng.randrange(10)
                    paths[rung] = path = os.path.join(workdir, f"{family}{n}.game")
                    with open(path, "w") as fh:
                        fh.write(games.render_game(build(n)))
            for rung, beliefs, rel, fmt in ladder:
                argv = ["solve", "--game", paths[rung], "--beliefs", beliefs,
                        "--relation", rel, "--format", fmt]
                op_id = f"{os.path.basename(paths[rung])}/{beliefs}/{rel}/{fmt}"
                self.specs.append((op_id, argv, fmt, label))

    def pass_ops(self) -> list[Op]:
        return [
            Op(
                op_id,
                lambda argv=argv: run_cli(argv),
                lambda result, fmt=fmt, label=label: check_solve(result, fmt, label),
                lambda result: {"cli.output_bytes": len(result[1].encode())},
            )
            for op_id, argv, fmt, label in self.specs
        ]


def _campaigns(game, seed: int) -> list[tuple[str, Callable[[], list]]]:
    """The six checker campaigns over every belief kind or relation the CLI
    offers for each, with `nbrelim verify`'s default of 20 orders.

    The grid resolution is 4 (`--resolution 4`), not the default 8: the
    3-player mixed search that ends inconclusive is repeated in every round
    of every order, and at resolution 8 one such op takes up to 16 s, more
    than a whole pass of the other 1,200 ops.  At 4 it still forms the tail
    (0.1-0.5 s per op).
    """
    res = 4
    out = []
    for kind in BeliefKind:
        out += [
            (f"order-independence/{kind.value}",
             lambda kind=kind: verification.check_order_independence(
                 game, kind, num_orders=20, seed=seed, resolution=res)),
            (f"fast-dominance/{kind.value}",
             lambda kind=kind: verification.check_fast_dominance(
                 game, kind, seed=seed, num_orders=20, resolution=res)),
            (f"equivalence/{kind.value}",
             lambda kind=kind: verification.check_equivalence(
                 game, kind, seed=seed, resolution=res)),
        ]
    for relation in ReductionKind:
        out.append(
            (f"nash/{relation.value}",
             lambda relation=relation: verification.check_nash_preservation(
                 game, relation, seed=seed, num_orders=20, resolution=res))
        )
    out += [
        ("oracle-agreement",
         lambda: verification.check_oracle_agreement(game, seed=seed, resolution=res)),
        ("kind-monotonicity",
         lambda: verification.check_kind_monotonicity(game, seed=seed, resolution=res)),
    ]
    return out


def check_reports(reports) -> Verdict:
    lines = []
    for r in reports:
        lines.append(r.render())
        lines += [f"  | {sub}" for line in r.counterexample for sub in line.splitlines()]
    verdict = Verdict(
        sha256("\n".join(lines) + "\n"),
        [r.render() for r in reports if r.verdict == "fail"],
        any(r.verdict == "unknown" for r in reports),
    )
    if not reports:
        verdict.problems.append("campaign returned no reports")
    return verdict


class VerifyCorpus:
    """All six checker campaigns on a corpus of random games, payoffs in [-5, 5].

    The corpus holds one 2-player game for every shape with 1-5 strategies
    per player and one 3-player game for every shape with 1-4 strategies per
    player.  The workload seed draws the 2-player payoffs and every
    campaign's own seed (its orders and sampled restrictions).  The 3-player
    payoffs are a fixed corpus: whether a 3-player game's mixed campaigns end
    undecided, and so form the tail, depends on its payoffs, and seeding them
    moved the time of a pass by up to 40% between seeds.
    """

    name = "verify-corpus"
    CORPUS_SEED = 0

    def __init__(self, seed: int, workdir: str) -> None:
        shapes = [(a, b) for a in range(1, 6) for b in range(1, 6)]
        shapes += [(a, b, c) for a in range(1, 5) for b in range(1, 5) for c in range(1, 5)]
        self.games = []
        for k, shape in enumerate(shapes):
            payoff_seed = verification.child_seed(
                seed if len(shape) == 2 else self.CORPUS_SEED, k
            )
            game = catalog.random_game(len(shape), shape, 5, payoff_seed)
            name = f"g{k}-{'x'.join(map(str, shape))}"
            self.games.append((name, game, verification.child_seed(seed, k)))

    def pass_ops(self) -> list[Op]:
        return [
            Op(f"{name}/{campaign}", run, check_reports)
            for name, game, campaign_seed in self.games
            for campaign, run in _campaigns(game, campaign_seed)
        ]


WORKLOADS = {w.name: w for w in (GridOrders, SolveWide, VerifyCorpus)}


def warm_up(workdir: str) -> None:
    """One small call into every layer, so lazy imports, argument parsers and
    compiled patterns are ready before the first timed op, whatever the
    workload."""
    game = catalog.random_game(2, (3, 3), 5, 1)
    for _, run in _campaigns(game, 1):
        run()
    reductions.iterate(
        catalog.catalog_entry("gap3x2").game(), ReductionKind.TILDE,
        BeliefKind.CORRELATED, Policy.FAST,
    )
    path = os.path.join(workdir, "warm-up.game")
    with open(path, "w") as fh:
        fh.write(games.render_game(catalog.bertrand_grid(6)))
    for fmt in ("text", "records"):
        code, _ = run_cli(["solve", "--game", path, "--beliefs", "correlated",
                           "--format", fmt])
        if code != 0:
            raise RuntimeError(f"warm-up solve exited with code {code}")
