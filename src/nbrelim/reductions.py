"""Reduction relations over restrictions and the iteration engine.

Three relations remove never-best-response strategies; they differ only in
where better responses are drawn from:

* tilde  — the initial game's full strategy sets,
* arrow  — the kept sets of the restriction being reduced,
* darrow — the kept sets of the proposed target restriction.

`candidate_certificates` is the one per-round sweep: it decides every kept
strategy against the comparison set its relation picks.  `validate_step`
certifies a single proposed reduction, and `iterate` drives maximal
sequences under several elimination policies.  Traces record every removal
with its certificate.

One lemma on finite games serves all three relations: a best reply, within
the player's kept set, to a belief over the opponents' kept sets is
never-best to no belief, so no legal step removes it.  So every non-empty
subset of a sweep's removable set is a legal darrow step (the best reply
stays in every target and strictly beats each removed strategy at that
belief), and no legal run from the full game empties a component.  So too
a never-best fact holds for the rest of a run: let s be never-best at R
against R_i, and R' follow R by legal steps (darrow steps are arrow steps).
A belief over R'_{-i} is one over each restriction between; its best reply
t within R_i is never removed and stays best within each smaller kept set,
so t lies in R'_i, and t strictly beats s at that belief, as some strategy
of R_i does.  Under tilde the comparison set is fixed.  Every removal
carries an exact proof, a mixed one correlated (so for mixed beliefs the
argument runs over correlated ones), and scripted steps come before a
run's `Frontier`.  So a `Frontier` fact watches nothing, and `iterate`
validates each new arrow or darrow transition once, proving its
certificates against the step's own comparison sets; a rejection is an
unsound sweep, raised as `IllegalStepError`.

The one memo is the `OracleCache` a caller passes (`iterate` makes one when
none is given); its docstring states why a remembered answer, a swept
restriction and a shared step are sound.  An `iterate` run keeps a
`Frontier`, so a sweep re-decides only what a removal touched; it skips a
sweep, or a step's build, that the cache's tables already hold.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Iterator, Mapping, Sequence, Union

from .beliefs import BeliefKind
from .games import FiniteGame, InputError, Restriction, _unchecked, full_restriction
from .oracle import (
    DEFAULT_GRID_RESOLUTION,
    BestResponse,
    Certificate,
    ComparisonSet,
    EmptyBeliefSet,
    Inconclusive,
    NeverBest,
    OracleCache,
    _column_best,
    _find_witness_fast,
    find_witness,
    full_comparison,
    render_certificate,
)


class ReductionKind(Enum):
    TILDE = "tilde"  # better responses in the initial game
    ARROW = "arrow"  # better responses in the current restriction
    DARROW = "darrow"  # better responses in the reduced restriction

    @property
    def symbol(self) -> str:
        return {"tilde": "~", "arrow": "->", "darrow": "=>"}[self.value]


class Policy(Enum):
    FAST = "fast"
    RANDOM_PARTIAL = "random"
    SINGLE_RANDOM = "single"
    USER_SCRIPT = "script"


class UnsupportedOperationError(ValueError):
    """Requested a reduction variant that does not exist (fast darrow)."""


@dataclass(frozen=True)
class Step:
    source: Restriction
    target: Restriction
    removed: tuple[tuple[int, ...], ...]
    kind: ReductionKind
    belief_kind: BeliefKind
    certificates: tuple[tuple[tuple[int, int], Certificate], ...]

    _trusted = classmethod(_unchecked)  # the fields in order, no checks


@dataclass(frozen=True)
class Rejection:
    """A proposed step is illegal: `strategy` holds the given certificate."""

    player: int
    strategy: int
    certificate: Certificate
    reason: str  # "witness" | "inconclusive"


class IllegalStepError(ValueError):
    def __init__(self, rejection: Rejection) -> None:
        super().__init__(
            f"illegal step: player {rejection.player + 1} strategy "
            f"{rejection.strategy} ({rejection.reason})"
        )
        self.rejection = rejection


@dataclass(frozen=True)
class Trace:
    initial: FiniteGame
    kind: ReductionKind
    belief_kind: BeliefKind
    policy: Policy
    seed: int
    steps: tuple[Step, ...]
    outcome: Restriction
    maximal: bool = True
    notes: tuple[str, ...] = ()

    def restriction_at(self, index: int) -> Restriction:
        """The restriction after `index` steps, clamped at the outcome."""
        if index <= 0:
            return full_restriction(self.initial)
        if index >= len(self.steps):
            return self.outcome
        return self.steps[index - 1].target

    def render(self) -> str:
        game = self.initial
        out = [
            f"game {game.digest()} kind={self.kind.symbol} "
            f"beliefs={self.belief_kind.value} policy={self.policy.value} "
            f"seed={self.seed}"
        ]
        for k, step in enumerate(self.steps, start=1):
            removed = _render_sets(game, step.removed)
            kept = _render_sets(game, step.target.kept)
            out.append(
                f"step {k} kind={step.kind.symbol} removed={removed} -> kept={kept}"
            )
        out.append(
            f"outcome kept={_render_sets(game, self.outcome.kept)} "
            f"steps={len(self.steps)} maximal={'yes' if self.maximal else 'no'}"
        )
        for note in self.notes:
            out.append(f"note {note}")
        for k, step in enumerate(self.steps, start=1):
            for (player, strategy), cert in step.certificates:
                label = game.label_of(player, strategy)
                out.append(
                    f"cert step={k} p{player + 1} {label} "
                    f"{render_certificate(cert, game, player)}"
                )
        return "\n".join(out) + "\n"


def _render_sets(game: FiniteGame, sets: Sequence[Sequence[int]]) -> str:
    parts = []
    for i, ks in enumerate(sets):
        labs = ",".join(game.label_of(i, s) for s in ks)
        parts.append(f"p{i + 1}:[{labs}]")
    return "{" + ",".join(parts) + "}"


def comparison_for(
    kind: ReductionKind,
    game: FiniteGame,
    source: Restriction,
    target: Restriction,
    player: int,
) -> ComparisonSet:
    if kind is ReductionKind.TILDE:
        return full_comparison(game, player)
    kept = source if kind is ReductionKind.ARROW else target
    bits = kept.bits >> game.offsets[player] & (1 << game.sizes[player]) - 1
    return ComparisonSet._trusted(player, kept.kept[player], bits)


def validate_step(
    game: FiniteGame,
    source: Restriction,
    target: Restriction,
    kind: ReductionKind,
    belief_kind: BeliefKind,
    resolution: int = DEFAULT_GRID_RESOLUTION,
    cache: OracleCache | None = None,
) -> Union[Step, Rejection]:
    """Certify `source -> target` as one reduction step, or reject it.

    Legal iff every removed strategy is certified never-best against the
    beliefs narrowed to `source`, with competitors drawn per `kind`.  An
    inconclusive oracle answer rejects (a step is never certified on faith).
    """
    if source.parent != game or target.parent != game:
        raise InputError("restrictions do not belong to the game")
    if not source.contains(target):
        raise InputError("target is not a restriction of source")
    if target.kept == source.kept:
        raise InputError("a reduction step must remove something")
    chosen = [game.bit_pairs[b] for b in _bits(source.bits & ~target.bits)]
    certs: list[tuple[tuple[int, int], Certificate]] = []
    for player, s in chosen:
        cmp = comparison_for(kind, game, source, target, player)
        cert = find_witness(game, source, player, s, belief_kind, cmp, resolution, cache)
        if isinstance(cert, BestResponse):
            return Rejection(player, s, cert, "witness")
        if isinstance(cert, Inconclusive):
            return Rejection(player, s, cert, "inconclusive")
        certs.append(((player, s), cert))
    removed = tuple(tuple(s for i, s in chosen if i == p) for p in range(game.players))
    return Step(source, target, removed, kind, belief_kind, tuple(certs))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _kth_bit(mask: int, k: int) -> int:
    """The position of set bit `k` (from 0, ascending) of `mask`."""
    at = 0
    while mask & mask - 1:  # halve the mask until one bit is left
        half = mask.bit_length() >> 1
        low = mask & (1 << half) - 1
        if k < (ones := low.bit_count()):
            mask = low
        else:
            k, mask, at = k - ones, mask >> half, at + half
    return at + mask.bit_length() - 1


class Frontier:
    """The standing answers of one `iterate` run.  A witness holds while its
    opponent support (`OracleCache.support`) is kept, so it watches those
    bits; a never-best fact holds for the rest of the run under every
    relation (see the module docstring), so it watches nothing and stays
    until its strategy goes.  A sweep re-decides what a removal touched, and
    every `Inconclusive` answer.

    The removable strategies are held in the forms a sweep returns and a
    draw reads, updated only where facts change: `removable` as a bit mask
    laid out as `Restriction.bits`, `sets` as per-player ascending tuples and
    `certs` as one (player, strategy) -> certificate dict."""

    def __init__(self, game: FiniteGame) -> None:
        self.bits, self.inconclusive, self.removable = None, 0, 0
        self.watchers = [0] * len(game.bit_pairs)  # bit -> mask of witnesses on it
        self.sets: list[tuple[int, ...]] = [()] * game.players
        self.certs: dict[tuple[int, int], Certificate] = {}
        self.pairs = game.bit_pairs

    def stale(self, restriction: Restriction) -> Sequence[Sequence[int]]:
        """Per player, the kept strategies a sweep of `restriction` decides."""
        previous, self.bits = self.bits, restriction.bits
        if previous is None:
            return restriction.kept
        dirty, self.inconclusive = self.inconclusive, 0
        for bit in _bits(previous & ~self.bits):
            dirty |= self.watchers[bit]
            self.watchers[bit] = 0
            if self.removable >> bit & 1:  # a fact whose strategy is gone
                self.removable ^= 1 << bit
                player, s = self.pairs[bit]
                own = self.sets[player]
                k = own.index(s)
                self.sets[player] = own[:k] + own[k + 1 :]
                del self.certs[player, s]
        todo: list[list[int]] = [[] for _ in self.sets]
        for bit in _bits(dirty & self.bits & ~self.removable):
            player, s = self.pairs[bit]
            todo[player].append(s)
        return todo

    def record(self, bit: int, cert: Certificate, support: int) -> None:
        """`cert` is a witness, which watches `support`, or `Inconclusive`."""
        if isinstance(cert, Inconclusive):
            self.inconclusive |= 1 << bit
            return
        while support:  # `_bits` inlined: every witness answer passes here
            low = support & -support
            support ^= low
            self.watchers[low.bit_length() - 1] |= 1 << bit


def candidate_certificates(
    game: FiniteGame,
    restriction: Restriction,
    belief_kind: BeliefKind,
    kind: ReductionKind,
    resolution: int = DEFAULT_GRID_RESOLUTION,
    cache: OracleCache | None = None,
    frontier: Frontier | None = None,
) -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, int], Certificate], bool]:
    """Per-player certified never-best strategies, their certificates, and
    whether any answer was inconclusive.

    Inconclusive strategies are never included, so the sets are a sound
    under-approximation; strategies facing an empty opponent component are
    vacuously never-best.  `cache` answers what it can and remembers the
    rest; the result is the same as without it.  `frontier` (with `cache`)
    carries one run's answers from sweep to sweep, along that run's legal
    steps, and the certificates returned are its own dict, valid until its
    next sweep; without it, every kept strategy is decided and nothing is
    kept.

    Each player's strategies face one comparison set; for arrow and darrow
    alike it is the restriction's kept set.  Removing `s` alone, darrow
    compares `s` against that set minus `s`, and `s` ties with itself, so
    the verdicts and certificates are the same.
    """
    if restriction.parent != game:
        raise InputError("restriction does not belong to the game")
    run = frontier is not None
    if run and cache is None:  # the frontier reads each witness's support there
        raise InputError("a frontier needs a cache")
    if cache is not None:
        cache.bind(game, belief_kind)
    kept = restriction.kept
    bits = restriction.bits
    if not run:
        frontier = Frontier(game)
    todo = frontier.stale(restriction)
    # With a component empty, every player faces an empty opponent component
    # or keeps nothing itself.
    degenerate = not all(kept)
    saw_inconclusive = False
    for player in range(game.players):
        if degenerate:  # every kept strategy's fact (if any) becomes vacuous
            frontier.certs.update(((player, s), EmptyBeliefSet()) for s in kept[player])
            frontier.sets[player] = kept[player]
            frontier.removable |= bits & game.bit_masks[player]
            continue
        if not todo[player]:
            continue
        offset = game.offsets[player]
        cmp = comparison_for(kind, game, restriction, restriction, player)
        bases = colmax = None
        fresh = []  # strategies found removable in this sweep
        for s in todo[player]:
            cert = cache.lookup(player, s, bits, cmp) if cache is not None else None
            if cert is None:
                if bases is None:
                    bases = game.opponent_bases(player, kept)
                    colmax = _column_best(game, player, bases, cmp)
                cert = _find_witness_fast(
                    game, kept, player, s, belief_kind, cmp, resolution, bases, colmax
                )
                if cache is not None:
                    cache.remember(player, s, bits, cmp, cert)
            if isinstance(cert, NeverBest):  # `stale` lists no removable one
                frontier.removable |= 1 << offset + s
                frontier.certs[player, s] = cert
                fresh.append(s)
                continue
            saw_inconclusive |= isinstance(cert, Inconclusive)
            if run:
                frontier.record(offset + s, cert, cache.support)
        if fresh:  # one merge keeps the tuple ascending
            frontier.sets[player] = tuple(sorted(frontier.sets[player] + tuple(fresh)))
    return tuple(frontier.sets), frontier.certs, saw_inconclusive


def _removal(chosen: Sequence[tuple[int, int]]) -> dict[int, list[int]]:
    removal: dict[int, list[int]] = {}
    for i, s in chosen:
        removal.setdefault(i, []).append(s)
    return removal


def _certified_step(
    source: Restriction,
    chosen: Sequence[tuple[int, int]],
    kind: ReductionKind,
    belief_kind: BeliefKind,
    certs: Mapping[tuple[int, int], Certificate],
) -> Step:
    """The step removing `chosen`, which lists (player, strategy) pairs in
    ascending order, each certified in `certs`."""
    removal = _removal(chosen)
    removed = tuple(map(tuple, map(removal.get, range(len(source.kept)), repeat(()))))
    step_certs = tuple(zip(chosen, map(certs.__getitem__, chosen)))
    return Step._trusted(
        source, source.remove(removal), removed, kind, belief_kind, step_certs
    )


def legal_removal_candidates(
    game: FiniteGame,
    source: Restriction,
    kind: ReductionKind,
    belief_kind: BeliefKind,
    resolution: int = DEFAULT_GRID_RESOLUTION,
    cache: OracleCache | None = None,
) -> tuple[tuple[int, ...], ...]:
    """Strategies whose individual removal is a legal step from `source`.

    Any non-empty subset of the result is jointly removable, for darrow too:
    a best reply to any belief stays in the target (see the module docstring).
    """
    return candidate_certificates(game, source, belief_kind, kind, resolution, cache)[0]


def iterate(
    game: FiniteGame,
    kind: ReductionKind,
    belief_kind: BeliefKind,
    policy: Policy = Policy.FAST,
    seed: int = 0,
    script: Sequence[Mapping[int, Sequence[int]]] | None = None,
    resolution: int = DEFAULT_GRID_RESOLUTION,
    cache: OracleCache | None = None,
) -> Trace:
    """Drive a maximal sequence of reductions from the full game.

    Policies: FAST removes the whole never-best set each round (tilde/arrow
    only); RANDOM_PARTIAL removes a uniformly random non-empty certified
    subset; SINGLE_RANDOM removes one random candidate; USER_SCRIPT applies
    `script`, which no other policy takes.  Identical seeds reproduce
    identical traces.
    """
    if policy is Policy.FAST and kind is ReductionKind.DARROW:
        raise UnsupportedOperationError(
            "the paper defines no fast darrow policy; on a finite game it would "
            "remove what arrow's fast policy removes, a legal darrow step"
        )
    if (policy is Policy.USER_SCRIPT) != (script is not None):
        raise InputError("a schedule goes with the user-script policy, which needs one")
    if cache is None:
        cache = OracleCache(belief_kind)
    cache.bind(game, belief_kind)  # before the tables answer for `game`
    table = cache.sweeps.setdefault((kind, resolution), {})
    shared = cache.steps.setdefault((kind, resolution), {})
    rng = None  # seeded at the first draw
    current = cache.full
    steps: list[Step] = []
    built: dict[tuple, Step] = {}  # the transitions this run took first
    for removal in script if policy is Policy.USER_SCRIPT else ():
        result = validate_step(
            game, current, current.remove(removal), kind, belief_kind, resolution, cache
        )
        if isinstance(result, Rejection):
            raise IllegalStepError(result)
        steps.append(result)
        current = result.target

    frontier = Frontier(game)
    pairs = game.bit_pairs
    while True:
        swept = table.get(current.bits)
        if swept is None:
            _, certs, saw_inconclusive = candidate_certificates(
                game, current, belief_kind, kind, resolution, cache, frontier
            )
            mask = frontier.removable
            table[current.bits] = mask << 1 | saw_inconclusive  # bit 0: inconclusive
        else:  # swept before: the same mask
            certs, mask, saw_inconclusive = None, swept >> 1, bool(swept & 1)
        if not mask or policy is Policy.USER_SCRIPT:
            break
        # The draws of a walk over the pairs in ascending bit order, as the
        # sets of a sweep list them.
        if policy is Policy.FAST:
            chosen = [pairs[b] for b in _bits(mask)]
        elif policy is Policy.SINGLE_RANDOM:
            rng = rng or random.Random(seed)
            chosen = [pairs[_kth_bit(mask, rng.randrange(mask.bit_count()))]]
        else:
            rng, chosen = rng or random.Random(seed), []
            flat = [pairs[b] for b in _bits(mask)]
            while not chosen:
                chosen = [pair for pair in flat if rng.getrandbits(1)]
        key = (current.bits, tuple(chosen))
        step = shared.get(key)
        # An arrow or darrow fact may rest on an earlier, larger kept set, so
        # each new transition is validated once.  A tilde fact rests on the
        # full sets and certifies the step as it stands; validating it again
        # (a cache read per removed strategy) costs tilde grid orders about a
        # tenth of their throughput (perfbench grid-orders).
        if step is None and kind is not ReductionKind.TILDE:
            result = validate_step(
                game, current, current.remove(_removal(chosen)), kind, belief_kind,
                resolution, cache,
            )
            if isinstance(result, Rejection):  # the sweep was unsound
                raise IllegalStepError(result)
            step = built[key] = result
        elif step is None:
            if certs is None:  # a hit keeps none: the cache has them unless evicted
                certs = {}
                for i, s in chosen:
                    cmp = comparison_for(kind, game, current, current, i)
                    certs[i, s] = cache.lookup(i, s, current.bits, cmp) or find_witness(
                        game, current, i, s, belief_kind, cmp, resolution, cache
                    )
            step = built[key] = _certified_step(current, chosen, kind, belief_kind, certs)
        steps.append(step)
        current = step.target

    notes = ["script ended before a fixed point"] if mask else []
    if saw_inconclusive:
        notes.append("inconclusive strategies kept; sound, possibly non-maximal")
    maximal = not mask and not saw_inconclusive
    trace = Trace(
        game, kind, belief_kind, policy, seed, tuple(steps), current, maximal,
        tuple(notes),
    )
    if built:  # shared while `trace` lives; a run that raised shares nothing
        shared.update(built)
        weakref.finalize(trace, _unshare, shared, tuple(built)).atexit = False
    return trace


def _unshare(shared: dict[tuple, Step], keys: tuple[tuple, ...]) -> None:
    for key in keys:
        del shared[key]
