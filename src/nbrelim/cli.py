"""Command-line front end.

Subcommands: `solve` runs a maximal elimination and prints the trace,
`check-step` certifies or rejects one proposed reduction, `verify` runs a
checker campaign over catalog and random games, and `catalog` lists or emits
the built-in games.  Identical arguments and seeds produce byte-identical
output.

Exit codes: 0 success/legal/all-pass, 1 illegal step or failed check,
2 malformed input, 3 unsupported combination, 4 undecided check.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import Sequence

from .beliefs import BeliefKind, render_belief
from .catalog import catalog_entry, catalog_names, random_game
from .games import (
    FiniteGame, FormatError, InputError, Restriction, parse_game, restrict_by_labels,
)
from .oracle import BestResponse, DEFAULT_GRID_RESOLUTION, render_certificate
from .reductions import (
    Policy,
    ReductionKind,
    Rejection,
    UnsupportedOperationError,
    iterate,
    validate_step,
)
from . import verification

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_UNKNOWN = 4

_BELIEFS = {k.value: k for k in BeliefKind}
_RELATIONS = {k.value: k for k in ReductionKind}
_POLICIES = {
    "fast": Policy.FAST,
    "random": Policy.RANDOM_PARTIAL,
    "single": Policy.SINGLE_RANDOM,
}

# Smallest accepted value of each numeric flag (where the subcommand has it).
_MINIMUMS = {"resolution": 1, "random": 0, "max_size": 1, "payoff_bound": 0, "orders": 1}

_CAMPAIGNS = {
    "order-independence": lambda game, args: verification.check_order_independence(
        game, _BELIEFS[args.beliefs], num_orders=args.orders, seed=args.seed,
        resolution=args.resolution,
    ),
    "fast-dominance": lambda game, args: verification.check_fast_dominance(
        game, _BELIEFS[args.beliefs], seed=args.seed, num_orders=args.orders,
        resolution=args.resolution,
    ),
    "equivalence": lambda game, args: verification.check_equivalence(
        game, _BELIEFS[args.beliefs], seed=args.seed, resolution=args.resolution,
    ),
    "nash": lambda game, args: verification.check_nash_preservation(
        game, _RELATIONS[args.relation], seed=args.seed, num_orders=args.orders,
        resolution=args.resolution,
    ),
    "oracle-agreement": lambda game, args: verification.check_oracle_agreement(
        game, seed=args.seed, resolution=args.resolution,
    ),
    "kind-monotonicity": lambda game, args: verification.check_kind_monotonicity(
        game, seed=args.seed, resolution=args.resolution,
    ),
}


def load_game(source: str) -> FiniteGame:
    """A game from `catalog:<name>` or from a text-format file."""
    if source.startswith("catalog:"):
        return catalog_entry(source.split(":", 1)[1]).game()
    try:
        text = Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{source}: not a text file") from None
    return parse_game(text)


def parse_restriction(game: FiniteGame, literal: str) -> Restriction:
    """Per-player label lists: `T;L,R` keeps {T} for player 1, {L,R} for 2."""
    parts = literal.split(";")
    if len(parts) != game.players:
        raise InputError(
            f"restriction literal needs {game.players} ';'-separated parts"
        )
    kept_labels = [
        [lab for lab in part.split(",") if lab] for part in parts
    ]
    return restrict_by_labels(game, kept_labels)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beliefs", choices=sorted(_BELIEFS), default="pure")
    parser.add_argument("--relation", choices=sorted(_RELATIONS), default="tilde")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--resolution", type=int, default=DEFAULT_GRID_RESOLUTION,
        help="denominator bound for the mixed-belief grid search",
    )
    parser.add_argument("--format", choices=["text", "records"], default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbrelim",
        description="iterated elimination of never-best-response strategies "
        "with exact rational arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a maximal elimination")
    p_solve.add_argument("--game", required=True, help="catalog:<name> or a file path")
    p_solve.add_argument("--policy", choices=sorted(_POLICIES), default="fast")
    _add_common(p_solve)

    p_step = sub.add_parser("check-step", help="validate one proposed reduction")
    p_step.add_argument("--game", required=True)
    p_step.add_argument("--from", dest="source_literal", required=True,
                        metavar="KEPT", help="restriction literal, e.g. 'M,B;L,R'")
    p_step.add_argument("--to", dest="target_literal", required=True, metavar="KEPT")
    _add_common(p_step)

    p_verify = sub.add_parser("verify", help="run a checker campaign")
    p_verify.add_argument("campaign", choices=sorted(_CAMPAIGNS))
    p_verify.add_argument("--game", action="append", default=[],
                          help="may be repeated; catalog:<name> or a file path")
    p_verify.add_argument("--random", type=int, default=0, metavar="N",
                          help="also check N seeded random games")
    p_verify.add_argument("--players", type=int, default=2)
    p_verify.add_argument("--max-size", type=int, default=4)
    p_verify.add_argument("--payoff-bound", type=int, default=5)
    p_verify.add_argument("--orders", type=int, default=20)
    _add_common(p_verify)

    p_cat = sub.add_parser("catalog", help="list or emit built-in games")
    cat_sub = p_cat.add_subparsers(dest="catalog_command", required=True)
    cat_sub.add_parser("list")
    p_emit = cat_sub.add_parser("emit")
    p_emit.add_argument("name")
    return parser


def cmd_solve(args: argparse.Namespace) -> int:
    game = load_game(args.game)
    kind = _RELATIONS[args.relation]
    trace = iterate(
        game,
        kind,
        _BELIEFS[args.beliefs],
        _POLICIES[args.policy],
        seed=args.seed,
        resolution=args.resolution,
    )
    if args.format == "text":
        sys.stdout.write(trace.render())
    else:
        for k, step in enumerate(trace.steps, start=1):
            rec = {
                "record": "step",
                "index": k,
                "kind": step.kind.value,
                "removed": _label_sets(game, step.removed),
                "kept": _label_sets(game, step.target.kept),
            }
            print(json.dumps(rec, separators=(",", ":")))
        rec = {
            "record": "outcome",
            "game": game.digest(),
            "kind": trace.kind.value,
            "beliefs": trace.belief_kind.value,
            "policy": trace.policy.value,
            "seed": trace.seed,
            "steps": len(trace.steps),
            "kept": _label_sets(game, trace.outcome.kept),
            "maximal": trace.maximal,
        }
        print(json.dumps(rec, separators=(",", ":")))
    return EXIT_OK


def _label_sets(game: FiniteGame, sets) -> list[list[str]]:
    return [[game.label_of(i, s) for s in ks] for i, ks in enumerate(sets)]


def cmd_check_step(args: argparse.Namespace) -> int:
    game = load_game(args.game)
    source = parse_restriction(game, args.source_literal)
    target = parse_restriction(game, args.target_literal)
    result = validate_step(
        game, source, target, _RELATIONS[args.relation], _BELIEFS[args.beliefs],
        resolution=args.resolution,
    )
    if isinstance(result, Rejection):
        label = game.label_of(result.player, result.strategy)
        line = (
            f"illegal: player {result.player + 1} strategy {label} ({result.reason})"
        )
        if isinstance(result.certificate, BestResponse):
            line += " witness=" + render_belief(
                game, result.player, result.certificate.witness
            )
        print(line)
        return EXIT_FAIL
    print(
        f"legal: removed={_label_sets(game, result.removed)} "
        f"kind={result.kind.symbol} beliefs={result.belief_kind.value}"
    )
    for (player, strategy), cert in result.certificates:
        label = game.label_of(player, strategy)
        print(f"cert p{player + 1} {label} {render_certificate(cert, game, player)}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    games: list[FiniteGame] = [load_game(src) for src in args.game]
    for k in range(args.random):
        seed = verification.child_seed(args.seed, k)
        rng = random.Random(seed)
        sizes = [rng.randint(1, args.max_size) for _ in range(args.players)]
        games.append(random_game(args.players, sizes, args.payoff_bound, seed))
    if not games:
        raise InputError("verify needs --game and/or --random")
    check = _CAMPAIGNS[args.campaign]
    reports = []
    for game in games:
        reports.extend(check(game, args))
    any_fail = any(r.verdict == "fail" for r in reports)
    any_unknown = any(r.verdict == "unknown" for r in reports)
    for r in reports:
        if args.format == "records":
            print(json.dumps(r.to_record(), separators=(",", ":")))
        else:
            print(r.render())
            for line in r.counterexample:
                for sub in line.splitlines():
                    print(f"  | {sub}")
    if any_fail:
        return EXIT_FAIL
    if any_unknown:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.catalog_command == "list":
        for name in catalog_names():
            entry = catalog_entry(name)
            print(f"{name}: {entry.description}")
        return EXIT_OK
    sys.stdout.write(catalog_entry(args.name).emit())
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, low in _MINIMUMS.items():
            value = getattr(args, name, low)
            if value < low:
                flag = "--" + name.replace("_", "-")
                raise InputError(f"{flag} must be at least {low}, got {value}")
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "check-step":
            return cmd_check_step(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_catalog(args)
    except UnsupportedOperationError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
