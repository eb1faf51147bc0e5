"""Executable checkers for the engine's structural guarantees.

Six campaigns check the guarantees on a concrete game instance:
- `check_order_independence`: maximal tilde reductions reach one
  non-degenerate outcome in every order, the largest closed restriction;
- `check_fast_dominance`: the fast trace stays inside every order, step by
  step, and is never longer;
- `check_equivalence`: the arrow and darrow relations coincide step by step,
  and all three relations reach one outcome;
- `check_nash_preservation`: maximal reductions keep the pure equilibria;
- `check_oracle_agreement`: the correlated LP agrees with a grid scan;
- `check_kind_monotonicity`: never-best verdicts are monotone across the
  belief kinds.

Checkers report pass/fail/unknown; a fail ships a re-checkable counterexample,
and unknown is reported whenever an inconclusive oracle answer would otherwise
have to be taken on faith.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from operator import add
from typing import Iterator, Sequence

from .beliefs import BeliefKind
from .games import (
    FiniteGame,
    InputError,
    JointProfile,
    Restriction,
    full_restriction,
)
from .oracle import (
    DEFAULT_GRID_RESOLUTION,
    BestResponse,
    ComparisonSet,
    NeverBest,
    OracleCache,
    _column_best,
    find_witness,
    full_comparison,
    is_best_response,
)
from .reductions import (
    Policy,
    ReductionKind,
    Rejection,
    Trace,
    candidate_certificates,
    iterate,
    legal_removal_candidates,
    validate_step,
)


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    instance: str
    seed: int
    verdict: str  # "pass" | "fail" | "unknown"
    details: str = ""
    counterexample: tuple[str, ...] = ()

    def to_record(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "instance": self.instance,
            "seed": self.seed,
            "verdict": self.verdict,
            "details": self.details,
            "counterexample": list(self.counterexample),
        }

    def render(self) -> str:
        line = f"{self.theorem_id} {self.instance} seed={self.seed}: {self.verdict}"
        if self.details:
            line += f" ({self.details})"
        return line


def _report(
    theorem_id: str,
    instance: str,
    seed: int,
    ok: bool | None,
    passed: str = "",
    failed: str = "",
    counterexample: tuple[str, ...] | None = (),
    unknown: str = "inconclusive certificates block a maximality proof",
) -> TheoremReport:
    """A pass or fail report by `ok`; the counterexample ships with a fail
    only.  `ok=None` reports unknown with the `unknown` text: by default,
    inconclusive oracle answers left a trace non-maximal."""
    if ok is None:
        return TheoremReport(theorem_id, instance, seed, "unknown", unknown)
    if ok:
        return TheoremReport(theorem_id, instance, seed, "pass", passed)
    return TheoremReport(theorem_id, instance, seed, "fail", failed, counterexample)


def child_seed(seed: int, k: int) -> int:
    return seed * 1_000_003 + k


def is_closed(
    game: FiniteGame,
    restriction: Restriction,
    belief_kind: BeliefKind,
    resolution: int = DEFAULT_GRID_RESOLUTION,
    cache: OracleCache | None = None,
) -> bool | None:
    """Is `restriction` a fixed point of the tilde relation, i.e. is every
    kept strategy a best response in the full game to some narrowed belief?
    None means undecided (inconclusive oracle answers on an otherwise closed
    restriction)."""
    removable, _, inconclusive = candidate_certificates(
        game, restriction, belief_kind, ReductionKind.TILDE, resolution, cache
    )
    if any(removable):
        return False
    return None if inconclusive else True


def pure_nash(target: FiniteGame | Restriction) -> tuple[JointProfile, ...]:
    """All pure equilibria of a game or non-degenerate restriction, by scan."""
    if isinstance(target, FiniteGame):
        restriction = full_restriction(target)
    else:
        restriction = target
    game = restriction.parent
    if not restriction.is_nondegenerate():
        raise InputError("pure equilibria are undefined for degenerate restrictions")
    kept = restriction.kept
    colmax = []  # per player: opponent profile offset -> best kept payoff
    for i in range(game.players):
        bases, own = game.opponent_bases(i, kept), ComparisonSet(i, kept[i])
        colmax.append(dict(zip(bases, _column_best(game, i, bases, own))))
    out = []
    strides = game.strides
    for profile in itertools.product(*kept):
        flat = sum(s * strides[i] for i, s in enumerate(profile))
        if all(
            game.ipay[i][flat] == colmax[i][flat - profile[i] * strides[i]]
            for i in range(game.players)
        ):
            out.append(profile)
    return tuple(out)


def random_restriction(
    game: FiniteGame, rng: random.Random, nondegenerate: bool = True
) -> Restriction:
    kept = []
    for size in game.sizes:
        count = rng.randint(1 if nondegenerate else 0, size)
        kept.append(tuple(sorted(rng.sample(range(size), count))))
    return Restriction(game, tuple(kept))


def random_order_traces(
    game: FiniteGame,
    kind: ReductionKind,
    belief_kind: BeliefKind,
    num_orders: int,
    seed: int,
    resolution: int = DEFAULT_GRID_RESOLUTION,
    cache: OracleCache | None = None,
) -> list[Trace]:
    """Maximal traces under alternating random-partial / single-random policies."""
    if num_orders < 1:  # a checker that samples nothing would pass unchecked
        raise InputError(f"num_orders must be at least 1, got {num_orders}")
    return [
        iterate(
            game, kind, belief_kind,
            Policy.RANDOM_PARTIAL if k % 2 == 0 else Policy.SINGLE_RANDOM,
            seed=child_seed(seed, k), resolution=resolution, cache=cache,
        )
        for k in range(num_orders)
    ]


def _instance_name(game: FiniteGame) -> str:
    shape = "x".join(str(s) for s in game.sizes)
    return f"{shape}:{game.digest()}"


def _fast_and_orders(
    game: FiniteGame,
    kind: ReductionKind,
    belief_kind: BeliefKind,
    num_orders: int,
    seed: int,
    resolution: int,
    cache: OracleCache,
) -> list[Trace]:
    """The fast trace (none under darrow, which has no fast variant), then
    `num_orders` random-order traces, all sharing `cache`."""
    fast = [] if kind is ReductionKind.DARROW else [
        iterate(game, kind, belief_kind, Policy.FAST, resolution=resolution, cache=cache)
    ]
    return fast + random_order_traces(
        game, kind, belief_kind, num_orders, seed, resolution, cache
    )


def _broken_induction(
    game: FiniteGame, fast: Trace, belief_kind: BeliefKind, resolution: int
) -> str | None:
    """Why the fast trace fails to chain legal tilde steps from the full game
    to its outcome, or None when it does."""
    current = full_restriction(game)
    for k, step in enumerate(fast.steps, start=1):
        if step.source.bits != current.bits:
            return f"step {k} does not start at {current.render()}"
        verdict = validate_step(
            game, current, step.target, ReductionKind.TILDE, belief_kind, resolution
        )
        if isinstance(verdict, Rejection):
            label = game.label_of(verdict.player, verdict.strategy)
            return (
                f"step {k} removes player {verdict.player + 1} strategy {label}"
                f" ({verdict.reason})"
            )
        current = step.target
    if current.bits != fast.outcome.bits:
        return f"the fast trace ends at {current.render()}, not at the outcome"
    return None


def check_order_independence(
    game: FiniteGame,
    belief_kind: BeliefKind,
    num_orders: int = 20,
    seed: int = 0,
    resolution: int = DEFAULT_GRID_RESOLUTION,
) -> list[TheoremReport]:
    """All maximal tilde reductions reach one outcome: the largest closed
    restriction.  Exact for pure and correlated beliefs and two-player mixed;
    otherwise reported unknown rather than sampled into a verdict.

    The outcome is the largest closed restriction once it is closed and the
    fast trace chains legal steps to it from the full game: a tilde step
    from R removes only strategies never-best against every belief over R,
    judged against the full strategy set, so it keeps every closed C inside
    R (a strategy of C is best against a belief over C, also one over R).
    Each step is re-validated with no cache, so each decision is fresh.
    `NeverBest("lp")` carries no multipliers yet, so the oracle re-decides
    those steps; a solver-free certificate check could replace that without
    changing the walk."""
    instance = _instance_name(game)
    cache = OracleCache(belief_kind)
    traces = _fast_and_orders(
        game, ReductionKind.TILDE, belief_kind, num_orders, seed, resolution, cache
    )
    fast, *orders = traces
    exact = belief_kind is not BeliefKind.INDEPENDENT_MIXED or game.players == 2
    if not exact and not all(t.maximal for t in traces):
        return [_report("order_independence", instance, seed, None)]

    outcome = fast.outcome
    counter = next(
        ((fast.render(), t.render()) for t in orders if t.outcome.kept != outcome.kept),
        None,
    )
    reports = [
        _report(
            "order_independence", instance, seed, counter is None,
            f"{len(orders)} random orders match the fast outcome {outcome.render()}",
            "a random order reached a different outcome",
            counter,
        )
    ]

    closed = is_closed(game, outcome, belief_kind, resolution, cache)
    broken = _broken_induction(game, fast, belief_kind, resolution) if closed else None
    reports.append(
        _report(
            "largest_closed", instance, seed, closed and broken is None,
            "outcome is closed and no larger closed restriction was found",
            broken or "outcome is not closed",
            (fast.render(),) if broken else (outcome.render(),),
            unknown="closedness of the outcome is undecided",
        )
    )
    reports.append(_nondegenerate_report(instance, seed, traces))
    return reports


def _nondegenerate_report(
    instance: str, seed: int, traces: Sequence[Trace]
) -> TheoremReport:
    counter = next(
        ((t.render(),) for t in traces if not t.outcome.is_nondegenerate()), None
    )
    return _report(
        "nondegenerate_outcome", instance, seed, counter is None,
        "all outcomes keep every player non-empty",
        "an outcome lost a player's whole strategy set",
        counter,
    )


def check_fast_dominance(
    game: FiniteGame,
    belief_kind: BeliefKind,
    seed: int = 0,
    num_orders: int = 5,
    resolution: int = DEFAULT_GRID_RESOLUTION,
) -> list[TheoremReport]:
    """The fast trace is contained in every trace index-by-index and is never
    longer than a trace reaching the same outcome."""
    instance = _instance_name(game)
    traces = _fast_and_orders(
        game, ReductionKind.TILDE, belief_kind, num_orders, seed, resolution,
        OracleCache(belief_kind),
    )
    fast, *orders = traces
    if not all(t.maximal for t in traces):
        return [
            _report(theorem_id, instance, seed, None)
            for theorem_id in ("fast_dominance_i", "fast_dominance_ii")
        ]
    broken = next(
        (
            (f"index {alpha}", fast.render(), t.render())
            for t in orders
            for alpha in range(max(len(fast.steps), len(t.steps)) + 1)
            if not t.restriction_at(alpha).contains(fast.restriction_at(alpha))
        ),
        None,
    )
    shorter = next(
        (
            (fast.render(), t.render())
            for t in orders
            if t.outcome.kept == fast.outcome.kept and len(fast.steps) > len(t.steps)
        ),
        None,
    )
    return [
        _report(
            "fast_dominance_i", instance, seed, broken is None,
            "fast trace contained stepwise in every sampled order",
            "containment broke",
            broken,
        ),
        _report(
            "fast_dominance_ii", instance, seed, shorter is None,
            "fast step count is minimal among sampled orders",
            "a shorter order reached the fast outcome",
            shorter,
        ),
    ]


def _step_rejections(
    game: FiniteGame,
    belief_kind: BeliefKind,
    seed: int,
    resolution: int,
    cache: OracleCache,
) -> Iterator[tuple[str, ...]]:
    """Ten sampled legal arrow steps, each validated as arrow and as darrow;
    yields a counterexample for each step either rejects."""
    rng = random.Random(seed)
    for _ in range(10):
        source = random_restriction(game, rng, nondegenerate=True)
        candidates = legal_removal_candidates(
            game, source, ReductionKind.ARROW, belief_kind, resolution, cache
        )
        flat = [(i, s) for i, gone in enumerate(candidates) for s in gone]
        if not flat:
            continue
        chosen = [pair for pair in flat if rng.getrandbits(1)] or [flat[0]]
        target = source.remove(
            {i: [s for j, s in chosen if j == i] for i in range(game.players)}
        )
        results = [
            validate_step(game, source, target, kind, belief_kind, resolution, cache)
            for kind in (ReductionKind.ARROW, ReductionKind.DARROW)
        ]
        bad = next((r for r in results if isinstance(r, Rejection)), None)
        if bad is not None:
            yield (
                f"source {source.render()} target {target.render()}",
                f"player {bad.player + 1} strategy {bad.strategy} ({bad.reason})",
            )


def check_equivalence(
    game: FiniteGame,
    belief_kind: BeliefKind,
    seed: int = 0,
    num_orders: int = 3,
    resolution: int = DEFAULT_GRID_RESOLUTION,
) -> list[TheoremReport]:
    """On finite games the arrow and darrow relations coincide step-by-step,
    and all three relations' maximal sequences share one non-degenerate
    outcome."""
    instance = _instance_name(game)
    cache = OracleCache(belief_kind)
    counter = next(_step_rejections(game, belief_kind, seed, resolution, cache), None)
    reports = [
        _report(
            "equivalence_i", instance, seed, counter is None,
            "every sampled legal arrow step is a legal darrow step",
            "an arrow step failed to validate as darrow",
            counter,
        )
    ]

    traces = [
        iterate(game, kind, belief_kind, Policy.FAST, resolution=resolution, cache=cache)
        for kind in (ReductionKind.TILDE, ReductionKind.ARROW)
    ]
    for k, kind in enumerate(ReductionKind):
        traces += random_order_traces(
            game, kind, belief_kind, num_orders, child_seed(seed, k + 1), resolution,
            cache,
        )
    if not all(t.maximal for t in traces):
        return reports + [_report("equivalence_ii", instance, seed, None)]
    fast_tilde = traces[0]
    counter = next(
        (
            (fast_tilde.render(), t.render())
            for t in traces
            if t.outcome.kept != fast_tilde.outcome.kept
        ),
        None,
    )
    return reports + [
        _report(
            "equivalence_ii", instance, seed, counter is None,
            f"all relations reach {fast_tilde.outcome.render()}",
            "a relation reached a different outcome",
            counter,
        ),
        _nondegenerate_report(instance, seed, traces),
    ]


def check_nash_preservation(
    game: FiniteGame,
    kind: ReductionKind = ReductionKind.TILDE,
    seed: int = 0,
    num_orders: int = 5,
    resolution: int = DEFAULT_GRID_RESOLUTION,
) -> list[TheoremReport]:
    """With pure beliefs, maximal reductions preserve the pure equilibrium set
    exactly (both directions hold on finite games); each direction is checked
    on every trace."""
    instance = _instance_name(game)
    traces = _fast_and_orders(
        game, kind, BeliefKind.PURE, num_orders, seed, resolution,
        OracleCache(BeliefKind.PURE),
    )
    before = set(pure_nash(game))
    found = {t.outcome.bits: t.outcome for t in traces}
    for bits, outcome in found.items():  # one scan per distinct outcome
        found[bits] = set(pure_nash(outcome)) if outcome.is_nondegenerate() else set()
    after = [(t, found[t.outcome.bits]) for t in traces]
    lost = next(
        (
            (t.render(), f"lost equilibria {sorted(before - nash)}")
            for t, nash in after
            if not before <= nash
        ),
        None,
    )
    gained = next(
        (
            (t.render(), f"new equilibria {sorted(nash - before)}")
            for t, nash in after
            if not nash <= before
        ),
        None,
    )
    return [
        _report(
            "nash_preservation_i", instance, seed, lost is None,
            "every equilibrium of the game survives into every outcome",
            "an equilibrium was eliminated",
            lost,
        ),
        _report(
            "nash_preservation_ii", instance, seed, gained is None,
            "outcomes introduce no new equilibria",
            "an outcome gained an equilibrium",
            gained,
        ),
    ]


# The most work `check_oracle_agreement` spends on one player's grid, counted
# as grid points times the player's strategies (one multiply-add each): about
# 7 s of integer sums for a 3-strategy player (Python 3.11).  A 4x4x4 game's
# grid at denominator 6 has 73,644 points, 294,576 units of work; a
# 100-strategy opponent's has about 1.7 * 10**9 points.
MAX_GRID_WORK = 3_000_000


def _grid_best_responses(game: FiniteGame, player: int, max_denominator: int) -> int:
    """Bit mask of the strategies that are a weak best response to some
    correlated belief with denominator <= max_denominator: the integer
    compositions of each d in (max_denominator // 2, max_denominator] over
    the opponent profiles, which hold every such belief scaled."""
    ip, stride, own = game.ipay[player], game.strides[player], range(game.sizes[player])
    *head, last = [[ip[b + s * stride] for s in own] for b in game.opponent_bases(player)]
    mask = 0

    def walk(k: int, left: int, totals: list[int]) -> None:
        nonlocal mask
        if k == len(head):  # the last profile takes what is left
            totals = [x + left * y for x, y in zip(totals, last)]
            top = max(totals)
            mask |= sum(1 << s for s, x in enumerate(totals) if x == top)
            return
        for _ in range(left + 1):
            walk(k + 1, left, totals)
            left -= 1
            totals = list(map(add, totals, head[k]))

    for den in range(max_denominator // 2 + 1, max_denominator + 1):
        walk(0, den, [0] * len(last))
    return mask


def check_oracle_agreement(
    game: FiniteGame,
    seed: int = 0,
    max_denominator: int = 6,
    resolution: int = DEFAULT_GRID_RESOLUTION,
) -> list[TheoremReport]:
    """Cross-check the correlated LP verdicts against grid enumeration.

    Every witness the oracle returns must be confirmed as a best response,
    and whenever the LP says never-best no grid point may be a witness: one
    integer scan per player, at its first never-best verdict, finds them all.
    A grid that would take more than `MAX_GRID_WORK` (points times the
    player's strategies) is not scanned: the report is unknown and names
    the points and the work.
    """
    if max_denominator < 1:
        raise InputError(f"max_denominator must be at least 1, got {max_denominator}")
    cache = OracleCache(BeliefKind.CORRELATED)
    full = full_restriction(game)
    dens = range(max_denominator // 2 + 1, max_denominator + 1)

    def disagreements() -> Iterator[tuple[str, ...] | str]:
        """Counterexamples, or the reason the scan stopped undecided."""
        for player in range(game.players):
            cmp = full_comparison(game, player)
            grid_best = None  # scanned at the player's first never-best verdict
            for s in range(game.sizes[player]):
                cert = find_witness(
                    game, full, player, s, BeliefKind.CORRELATED, cmp, resolution, cache
                )
                if isinstance(cert, NeverBest):
                    if grid_best is None:  # compositions of each d into n parts
                        n = math.prod(game.sizes) // game.sizes[player]
                        points = sum(math.comb(d + n - 1, n - 1) for d in dens)
                        work = points * game.sizes[player]
                        if work > MAX_GRID_WORK:
                            yield (
                                f"player {player + 1}'s denominator-{max_denominator} "
                                f"grid has {points} points, {work} for its "
                                f"{game.sizes[player]} strategies, over the limit "
                                f"of {MAX_GRID_WORK}"
                            )
                            return
                        grid_best = _grid_best_responses(game, player, max_denominator)
                    if grid_best >> s & 1:
                        yield (
                            f"player {player + 1} strategy {s}: LP says never-best "
                            f"but a grid witness exists",
                        )
                elif isinstance(cert, BestResponse) and not is_best_response(
                    game, player, s, cert.witness, cmp
                ):
                    yield (
                        f"player {player + 1} strategy {s}: returned witness "
                        f"fails re-verification",
                    )

    counter = next(disagreements(), None)
    if isinstance(counter, str):
        return [_report("oracle_agreement", _instance_name(game), seed, None, unknown=counter)]
    return [
        _report(
            "oracle_agreement", _instance_name(game), seed, counter is None,
            f"LP verdicts consistent with denominator-{max_denominator} grid",
            "LP and grid enumeration disagree",
            counter,
        )
    ]


def check_kind_monotonicity(
    game: FiniteGame,
    seed: int = 0,
    resolution: int = DEFAULT_GRID_RESOLUTION,
) -> list[TheoremReport]:
    """Never-best under correlated beliefs implies never-best under independent
    mixed beliefs implies never-best under pure beliefs; with two players the
    correlated and mixed verdicts coincide."""
    full = full_restriction(game)
    caches = {k: OracleCache(k) for k in BeliefKind}

    def breaks() -> Iterator[tuple[str, ...]]:
        for player in range(game.players):
            cmp = full_comparison(game, player)
            for s in range(game.sizes[player]):
                certs = {
                    k: find_witness(game, full, player, s, k, cmp, resolution, caches[k])
                    for k in BeliefKind
                }
                pure, mixed, corr = certs.values()
                if (
                    isinstance(corr, NeverBest) and isinstance(mixed, BestResponse)
                    or isinstance(mixed, NeverBest) and isinstance(pure, BestResponse)
                    or game.players == 2
                    and isinstance(corr, NeverBest) != isinstance(mixed, NeverBest)
                ):
                    yield (
                        f"player {player + 1} strategy {s}: "
                        + ", ".join(f"{k.value}={type(c).__name__}" for k, c in certs.items()),
                    )

    counter = next(breaks(), None)
    return [
        _report(
            "kind_monotonicity", _instance_name(game), seed, counter is None,
            "never-best verdicts are monotone across belief kinds",
            "the belief-kind chain broke",
            counter,
        )
    ]
