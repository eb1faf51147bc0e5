"""Executable checkers for the engine's structural guarantees.

Each checker exercises one guarantee on a concrete game instance: order
independence of maximal tilde reductions, the dominance and step-count
properties of the fast variant, the coincidence of the three relations on
finite games, closure of outcomes, and preservation of pure equilibria.
Checkers report pass/fail/unknown; a fail ships a re-checkable counterexample,
and unknown is reported whenever an inconclusive oracle answer would otherwise
have to be taken on faith.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .beliefs import BeliefKind, DistributionBelief
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
    NeverBest,
    OracleCache,
    find_witness,
    full_comparison,
    is_best_response,
    simplex_grid,
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

THEOREM_IDS = (
    "order_independence",
    "fast_dominance_i",
    "fast_dominance_ii",
    "equivalence_i",
    "equivalence_ii",
    "nash_preservation_i",
    "nash_preservation_ii",
    "largest_closed",
    "nondegenerate_outcome",
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
    counterexample: tuple[str, ...] = (),
) -> TheoremReport:
    """A pass or fail report by `ok`; the counterexample ships with a fail
    only.  `ok=None` reports unknown: inconclusive oracle answers leave a
    trace non-maximal, so the theorem cannot be checked."""
    if ok is None:
        return TheoremReport(
            theorem_id, instance, seed, "unknown",
            "inconclusive certificates block a maximality proof",
        )
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
    colmax = []
    for i in range(game.players):
        ip = game.ipay[i]
        stride = game.strides[i]
        table: dict[int, int] = {}
        for base in game.opponent_bases(i, kept):
            table[base] = max(ip[base + s * stride] for s in kept[i])
        colmax.append(table)
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
        if nondegenerate:
            count = rng.randint(1, size)
        else:
            count = rng.randint(0, size)
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
    traces = []
    for k in range(num_orders):
        policy = Policy.RANDOM_PARTIAL if k % 2 == 0 else Policy.SINGLE_RANDOM
        traces.append(
            iterate(
                game,
                kind,
                belief_kind,
                policy,
                seed=child_seed(seed, k),
                resolution=resolution,
                cache=cache,
            )
        )
    return traces


def _instance_name(game: FiniteGame) -> str:
    shape = "x".join(str(s) for s in game.sizes)
    return f"{shape}:{game.digest()}"


def _all_restrictions(game: FiniteGame) -> Iterable[Restriction]:
    per_player = []
    for size in game.sizes:
        subsets = []
        for mask in range(1 << size):
            subsets.append(tuple(s for s in range(size) if mask >> s & 1))
        per_player.append(subsets)
    for combo in itertools.product(*per_player):
        yield Restriction(game, tuple(combo))


def check_order_independence(
    game: FiniteGame,
    belief_kind: BeliefKind,
    num_orders: int = 20,
    seed: int = 0,
    resolution: int = DEFAULT_GRID_RESOLUTION,
    lattice_limit: int = 12,
    superset_samples: int = 20,
) -> list[TheoremReport]:
    """All maximal tilde reductions reach one outcome: the largest closed
    restriction.  Exact for pure and correlated beliefs and two-player mixed;
    otherwise reported unknown rather than sampled into a verdict."""
    instance = _instance_name(game)
    cache = OracleCache(belief_kind)
    fast = iterate(
        game, ReductionKind.TILDE, belief_kind, Policy.FAST,
        resolution=resolution, cache=cache,
    )
    traces = random_order_traces(
        game, ReductionKind.TILDE, belief_kind, num_orders, seed, resolution, cache
    )
    exact = belief_kind is not BeliefKind.INDEPENDENT_MIXED or game.players == 2
    if not exact and (not fast.maximal or any(not t.maximal for t in traces)):
        return [_report("order_independence", instance, seed, None)]

    mismatch = next(
        (t for t in traces if t.outcome.kept != fast.outcome.kept), None
    )
    reports = [
        _report(
            "order_independence", instance, seed, mismatch is None,
            f"{len(traces)} random orders match the fast outcome "
            f"{fast.outcome.render()}",
            "a random order reached a different outcome",
            (fast.render(), mismatch.render()) if mismatch is not None else (),
        )
    ]

    closed = is_closed(game, fast.outcome, belief_kind, resolution, cache)
    largest_ok: bool | None = closed
    bad: Restriction | None = None
    if closed:
        total = sum(game.sizes)
        if total <= lattice_limit:
            for candidate in _all_restrictions(game):
                if fast.outcome.contains(candidate):
                    continue
                if is_closed(game, candidate, belief_kind, resolution, cache):
                    largest_ok = False
                    bad = candidate
                    break
        else:
            rng = random.Random(child_seed(seed, 999))
            full = full_restriction(game)
            for _ in range(superset_samples):
                extra = random_restriction(game, rng, nondegenerate=False)
                candidate = Restriction(
                    game,
                    tuple(
                        tuple(sorted(set(a) | set(b)))
                        for a, b in zip(fast.outcome.kept, extra.kept)
                    ),
                )
                if candidate.kept == fast.outcome.kept or not full.contains(candidate):
                    continue
                if is_closed(game, candidate, belief_kind, resolution, cache):
                    largest_ok = False
                    bad = candidate
                    break
            if largest_ok:
                for profile in pure_nash(game):
                    singleton = Restriction(
                        game, tuple((s,) for s in profile)
                    )
                    if not fast.outcome.contains(singleton):
                        largest_ok = False
                        bad = singleton
                        break
    if largest_ok is None:
        reports.append(
            TheoremReport(
                "largest_closed", instance, seed, "unknown",
                "closedness of the outcome is undecided",
            )
        )
    else:
        reports.append(
            _report(
                "largest_closed", instance, seed, largest_ok,
                "outcome is closed and no larger closed restriction was found",
                "outcome is not closed"
                if bad is None
                else f"closed restriction {bad.render()} escapes the outcome",
                (fast.outcome.render(),) if bad is None else (bad.render(),),
            )
        )

    reports.append(_nondegenerate_report(instance, seed, [fast] + traces))
    return reports


def _nondegenerate_report(
    instance: str, seed: int, traces: Sequence[Trace]
) -> TheoremReport:
    bad = next((t for t in traces if not t.outcome.is_nondegenerate()), None)
    return _report(
        "nondegenerate_outcome", instance, seed, bad is None,
        "all outcomes keep every player non-empty",
        "an outcome lost a player's whole strategy set",
        (bad.render(),) if bad is not None else (),
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
    cache = OracleCache(belief_kind)
    fast = iterate(
        game, ReductionKind.TILDE, belief_kind, Policy.FAST,
        resolution=resolution, cache=cache,
    )
    traces = random_order_traces(
        game, ReductionKind.TILDE, belief_kind, num_orders, seed, resolution, cache
    )
    if any(not t.maximal for t in [fast] + traces):
        return [
            _report(theorem_id, instance, seed, None)
            for theorem_id in ("fast_dominance_i", "fast_dominance_ii")
        ]
    containment_ok = True
    counter: tuple[str, ...] = ()
    for t in traces:
        horizon = max(len(fast.steps), len(t.steps))
        for alpha in range(horizon + 1):
            if not t.restriction_at(alpha).contains(fast.restriction_at(alpha)):
                containment_ok = False
                counter = (f"index {alpha}", fast.render(), t.render())
                break
        if not containment_ok:
            break
    reports = [
        _report(
            "fast_dominance_i", instance, seed, containment_ok,
            "fast trace contained stepwise in every sampled order",
            "containment broke",
            counter,
        )
    ]
    length_ok = True
    counter = ()
    for t in traces:
        if t.outcome.kept == fast.outcome.kept and len(fast.steps) > len(t.steps):
            length_ok = False
            counter = (fast.render(), t.render())
            break
    reports.append(
        _report(
            "fast_dominance_ii", instance, seed, length_ok,
            "fast step count is minimal among sampled orders",
            "a shorter order reached the fast outcome",
            counter,
        )
    )
    return reports


def check_equivalence(
    game: FiniteGame,
    belief_kind: BeliefKind,
    seed: int = 0,
    num_step_samples: int = 10,
    num_orders: int = 3,
    resolution: int = DEFAULT_GRID_RESOLUTION,
) -> list[TheoremReport]:
    """On finite games the arrow and darrow relations coincide step-by-step,
    and all three relations' maximal sequences share one non-degenerate
    outcome."""
    instance = _instance_name(game)
    cache = OracleCache(belief_kind)
    rng = random.Random(seed)
    step_ok = True
    counter: tuple[str, ...] = ()
    for _ in range(num_step_samples):
        source = random_restriction(game, rng, nondegenerate=True)
        candidates = legal_removal_candidates(
            game, source, ReductionKind.ARROW, belief_kind, resolution, cache
        )
        flat = [(i, s) for i, gone in enumerate(candidates) for s in gone]
        if not flat:
            continue
        chosen = [pair for pair in flat if rng.getrandbits(1)] or [flat[0]]
        removal: dict[int, list[int]] = {}
        for i, s in chosen:
            removal.setdefault(i, []).append(s)
        target = source.remove(removal)
        arrow = validate_step(
            game, source, target, ReductionKind.ARROW, belief_kind, resolution, cache
        )
        darrow = validate_step(
            game, source, target, ReductionKind.DARROW, belief_kind, resolution, cache
        )
        if isinstance(arrow, Rejection) or isinstance(darrow, Rejection):
            step_ok = False
            bad = arrow if isinstance(arrow, Rejection) else darrow
            counter = (
                f"source {source.render()} target {target.render()}",
                f"player {bad.player + 1} strategy {bad.strategy} ({bad.reason})",
            )
            break
    reports = [
        _report(
            "equivalence_i", instance, seed, step_ok,
            "every sampled legal arrow step is a legal darrow step",
            "an arrow step failed to validate as darrow",
            counter,
        )
    ]

    fast_tilde = iterate(
        game, ReductionKind.TILDE, belief_kind, Policy.FAST,
        resolution=resolution, cache=cache,
    )
    fast_arrow = iterate(
        game, ReductionKind.ARROW, belief_kind, Policy.FAST,
        resolution=resolution, cache=cache,
    )
    traces = [fast_tilde, fast_arrow]
    for k, kind in enumerate(
        (ReductionKind.TILDE, ReductionKind.ARROW, ReductionKind.DARROW)
    ):
        traces.extend(
            random_order_traces(
                game, kind, belief_kind, num_orders,
                child_seed(seed, k + 1), resolution, cache,
            )
        )
    outcome = fast_tilde.outcome
    if any(not t.maximal for t in traces):
        reports.append(_report("equivalence_ii", instance, seed, None))
        return reports
    mismatch = next((t for t in traces if t.outcome.kept != outcome.kept), None)
    reports.append(
        _report(
            "equivalence_ii", instance, seed, mismatch is None,
            f"all relations reach {outcome.render()}",
            "a relation reached a different outcome",
            (fast_tilde.render(), mismatch.render()) if mismatch is not None else (),
        )
    )
    reports.append(_nondegenerate_report(instance, seed, traces))
    return reports


def check_nash_preservation(
    game: FiniteGame,
    kind: ReductionKind = ReductionKind.TILDE,
    seed: int = 0,
    num_orders: int = 5,
    resolution: int = DEFAULT_GRID_RESOLUTION,
) -> list[TheoremReport]:
    """With pure beliefs, maximal reductions preserve the pure equilibrium set
    exactly (both directions hold on finite games)."""
    instance = _instance_name(game)
    belief_kind = BeliefKind.PURE
    cache = OracleCache(belief_kind)
    nash_before = set(pure_nash(game))
    traces: list[Trace] = []
    if kind is not ReductionKind.DARROW:
        traces.append(
            iterate(game, kind, belief_kind, Policy.FAST, resolution=resolution,
                    cache=cache)
        )
    traces.extend(
        random_order_traces(
            game, kind, belief_kind, num_orders, seed, resolution, cache
        )
    )
    forward_ok = True
    backward_ok = True
    counter: tuple[str, ...] = ()
    for t in traces:
        if t.outcome.is_nondegenerate():
            nash_after = set(pure_nash(t.outcome))
        else:
            nash_after = set()
        if not nash_before <= nash_after:
            forward_ok = False
            counter = (t.render(), f"lost equilibria {sorted(nash_before - nash_after)}")
            break
        if not nash_after <= nash_before:
            backward_ok = False
            counter = (t.render(), f"new equilibria {sorted(nash_after - nash_before)}")
            break
    return [
        _report(
            "nash_preservation_i", instance, seed, forward_ok,
            "every equilibrium of the game survives into every outcome",
            "an equilibrium was eliminated",
            counter,
        ),
        _report(
            "nash_preservation_ii", instance, seed, backward_ok,
            "outcomes introduce no new equilibria",
            "an outcome gained an equilibrium",
            counter,
        ),
    ]


def grid_distributions(
    profiles: Sequence[JointProfile], max_denominator: int
) -> Iterable[DistributionBelief]:
    """All correlated beliefs over `profiles` with denominator <= max_denominator."""
    for vec in simplex_grid(len(profiles), max_denominator):
        yield DistributionBelief(
            tuple((pr, p) for pr, p in zip(profiles, vec) if p > 0)
        )


def check_oracle_agreement(
    game: FiniteGame,
    seed: int = 0,
    max_denominator: int = 6,
    resolution: int = DEFAULT_GRID_RESOLUTION,
) -> list[TheoremReport]:
    """Cross-check the correlated LP verdicts against grid enumeration.

    Every grid witness must be confirmed as a best response, and whenever the
    LP says never-best no grid point may be a witness.
    """
    instance = _instance_name(game)
    cache = OracleCache(BeliefKind.CORRELATED)
    full = full_restriction(game)
    ok = True
    counter: tuple[str, ...] = ()
    for player in range(game.players):
        cmp = full_comparison(game, player)
        profiles = list(game.opponent_profiles(player))
        for s in range(game.sizes[player]):
            cert = find_witness(
                game, full, player, s, BeliefKind.CORRELATED, cmp, resolution, cache
            )
            grid_witness = next(
                (
                    mu
                    for mu in grid_distributions(profiles, max_denominator)
                    if is_best_response(game, player, s, mu, cmp)
                ),
                None,
            )
            if isinstance(cert, NeverBest) and grid_witness is not None:
                ok = False
                counter = (
                    f"player {player + 1} strategy {s}: LP says never-best "
                    f"but a grid witness exists",
                )
            elif isinstance(cert, BestResponse):
                if not is_best_response(game, player, s, cert.witness, cmp):
                    ok = False
                    counter = (
                        f"player {player + 1} strategy {s}: returned witness "
                        f"fails re-verification",
                    )
            if not ok:
                break
        if not ok:
            break
    return [
        _report(
            "oracle_agreement", instance, seed, ok,
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
    instance = _instance_name(game)
    full = full_restriction(game)
    caches = {k: OracleCache(k) for k in BeliefKind}
    ok = True
    counter: tuple[str, ...] = ()
    for player in range(game.players):
        cmp = full_comparison(game, player)
        for s in range(game.sizes[player]):
            certs = {
                k: find_witness(game, full, player, s, k, cmp, resolution, caches[k])
                for k in BeliefKind
            }
            nbr = {k: isinstance(c, NeverBest) for k, c in certs.items()}
            br = {k: isinstance(c, BestResponse) for k, c in certs.items()}
            chain_ok = (
                (not nbr[BeliefKind.CORRELATED] or not br[BeliefKind.INDEPENDENT_MIXED])
                and (not nbr[BeliefKind.INDEPENDENT_MIXED] or not br[BeliefKind.PURE])
            )
            if game.players == 2:
                chain_ok = chain_ok and (
                    nbr[BeliefKind.CORRELATED] == nbr[BeliefKind.INDEPENDENT_MIXED]
                )
            if not chain_ok:
                ok = False
                counter = (
                    f"player {player + 1} strategy {s}: "
                    + ", ".join(f"{k.value}={type(c).__name__}" for k, c in certs.items()),
                )
                break
        if not ok:
            break
    return [
        _report(
            "kind_monotonicity", instance, seed, ok,
            "never-best verdicts are monotone across belief kinds",
            "the belief-kind chain broke",
            counter,
        )
    ]
