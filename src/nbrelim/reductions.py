"""Reduction relations over restrictions and the iteration engine.

Three relations remove never-best-response strategies; they differ only in
where better responses are drawn from:

* tilde  — the initial game's full strategy sets,
* arrow  — the kept sets of the restriction being reduced,
* darrow — the kept sets of the proposed target restriction.

`candidate_certificates` is the one per-round sweep: it decides each kept
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
argument runs over correlated ones).  So a `Frontier` fact watches
nothing, and `iterate` validates each new arrow or darrow transition once,
proving its certificates against the step's own comparison sets; a
rejection is an unsound sweep, raised as `IllegalStepError`.  Along a run
from the full game, a kept column's best kept payoff is `game.colmax`'s: the
column's maximizers, ties included, are best replies to that pure belief.

The one memo is the `OracleCache` a caller passes (`iterate` makes one when
none is given); its docstring states why a remembered answer, a swept
restriction, a shared step and a starting frontier are sound.  An `iterate`
run keeps a `Frontier`, copied from the one the cache kept at the full
restriction; a sweep is one walk over the bits, deciding only what a
removal woke; it skips a sweep or step build the tables hold.  A run moves on
masks: a target is its source's bits with the drawn ones cleared, a shared
step is keyed by the two, and `Restriction.kept`, `Step.removed` and a
trace's labels are read off them.
"""

from __future__ import annotations

import random
import weakref
from bisect import bisect
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence, Union

from .beliefs import BeliefKind
from .games import FiniteGame, InputError, Restriction, _index_sets, full_restriction
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


class UnsupportedOperationError(ValueError):
    """Requested a reduction variant that does not exist (fast darrow)."""


@dataclass(slots=True, unsafe_hash=True)
class Step:
    """One certified reduction `source -> target`.  `certificates` pairs each
    removed (player, strategy), in ascending bit order, with its proof.
    `removed`, the per-player ascending index sets, may be given as None: it
    is then read off `source.bits & ~target.bits` on first use."""

    source: Restriction
    target: Restriction
    _removed: tuple[tuple[int, ...], ...] | None = field(compare=False, repr=False)
    kind: ReductionKind
    belief_kind: BeliefKind
    certificates: tuple[tuple[tuple[int, int], Certificate], ...]

    @property
    def removed(self) -> tuple[tuple[int, ...], ...]:
        if self._removed is None:
            self._removed = _index_sets(self.source.parent, self.source.bits & ~self.target.bits)
        return self._removed


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
    """A run from the full game.  `records()` gives a record per step, then
    the outcome record: `solve --format records` prints them as JSON lines,
    and they are `render()`'s `step` and `outcome` lines."""

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

    def records(self) -> Iterator[dict]:
        """Labels are read off the masks; the kept ones are cut from a running
        list, built afresh where a step does not chain on (or grows its source)."""
        game, at = self.initial, None
        labels, pairs = game.labels, game.bit_pairs
        for k, step in enumerate(self.steps, start=1):
            source, target = step.source.bits, step.target.bits
            removed: list[list[str]] = [[] for _ in labels]
            for i, s in map(pairs.__getitem__, _bits(source & ~target)):
                removed[i].append(labels[i][s])
            if source != at or target & ~source:
                kept = label_sets(game, _index_sets(game, target))
            else:
                for own, gone in zip(kept, removed):
                    for label in gone:
                        own.remove(label)
            at = target
            yield {"record": "step", "index": k, "kind": step.kind.value,
                   "removed": removed, "kept": [own.copy() for own in kept]}
        yield {"record": "outcome", "game": game.digest(), "kind": self.kind.value,
               "beliefs": self.belief_kind.value, "policy": self.policy.value,
               "seed": self.seed, "steps": len(self.steps),
               "kept": label_sets(game, self.outcome.kept), "maximal": self.maximal}

    def render(self) -> str:
        game = self.initial
        out = [
            f"game {game.digest()} kind={self.kind.symbol} "
            f"beliefs={self.belief_kind.value} policy={self.policy.value} "
            f"seed={self.seed}"
        ]
        for rec in self.records():
            kept = _braced(rec["kept"])
            if rec["record"] == "step":
                out.append(
                    f"step {rec['index']} kind={ReductionKind(rec['kind']).symbol} "
                    f"removed={_braced(rec['removed'])} -> kept={kept}"
                )
            else:
                out.append(
                    f"outcome kept={kept} steps={rec['steps']} "
                    f"maximal={'yes' if rec['maximal'] else 'no'}"
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


def label_sets(game: FiniteGame, sets: Sequence[Sequence[int]]) -> list[list[str]]:
    """Per player, the labels of the strategies in `sets`."""
    return [[game.label_of(i, s) for s in ks] for i, ks in enumerate(sets)]


def _braced(labels: Sequence[Sequence[str]]) -> str:
    """`label_sets` as a trace line writes them: {p1:[T,M],p2:[L]}."""
    return "{" + ",".join(f"p{i + 1}:[{','.join(ls)}]" for i, ls in enumerate(labels)) + "}"


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
    if target.bits == source.bits:
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
    return Step(source, target, None, kind, belief_kind, tuple(certs))


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
        self.bits, self.inconclusive, self.removable, self.whole = None, 0, 0, False
        self.watchers = [0] * len(game.bit_pairs)  # bit -> mask of witnesses on it
        self.sets: list[tuple[int, ...]] = [()] * game.players
        self.certs: dict[tuple[int, int], Certificate] = {}

    def copy(self) -> Frontier:
        """A frontier that goes on from this one's state and shares none of it."""
        twin = object.__new__(type(self))
        twin.__dict__.update(vars(self), watchers=self.watchers.copy(), sets=self.sets.copy(),
                             certs=self.certs.copy())
        return twin

    def sweep(
        self, game: FiniteGame, restriction: Restriction, belief_kind: BeliefKind,
        kind: ReductionKind, resolution: int, cache: OracleCache | None,
    ) -> bool:
        """`candidate_certificates`'s sweep, one walk over the round's bits;
        whether an answer was inconclusive.  Removed bits wake their watchers
        and drop their facts; the woken bits and the last sweep's
        `Inconclusive` ones (all kept bits at first) are then decided in
        ascending order, player after player: remembered, else fresh."""
        previous, self.bits = self.bits, restriction.bits
        bits, pairs, watchers, sets = self.bits, game.bit_pairs, self.watchers, self.sets
        if previous is None:  # the first sweep: was it at the full restriction?
            self.whole, woken = bits.bit_count() == len(pairs), bits
        else:
            woken, self.inconclusive, gone = self.inconclusive, 0, previous & ~bits
            facts, self.removable = gone & self.removable, self.removable & bits
            while gone:  # `_bits` inlined here and below: every sweep passes
                low = gone & -gone
                gone ^= low
                bit = low.bit_length() - 1
                woken |= watchers[bit]
                watchers[bit] = 0
                if facts & low:  # a fact whose strategy is gone
                    player, s = pairs[bit]
                    k = (own := sets[player]).index(s)
                    sets[player] = own[:k] + own[k + 1 :]
                    del self.certs[player, s]
        # With a component empty, every player faces an empty opponent component
        # or keeps nothing itself: every kept strategy's fact becomes vacuous.
        if not restriction.is_nondegenerate():
            sets[:] = kept = restriction.kept
            self.certs.update(((i, s), EmptyBeliefSet()) for i, ks in enumerate(kept) for s in ks)
            self.removable = bits
            return False
        todo, end = woken & bits & ~self.removable, 0  # `end`: past the player's bits
        while todo:
            low = todo & -todo
            todo ^= low
            bit = low.bit_length() - 1
            if bit >= end:  # the walk reaches a player's bits: its set-up
                player = pairs[bit][0]
                offset, bases = game.offsets[player], None
                end = offset + game.sizes[player]
                cmp = comparison_for(kind, game, restriction, restriction, player)
            s = bit - offset
            cert = cache.lookup(player, s, bits, cmp) if cache is not None else None
            if cert is None:
                if bases is None:  # a fresh decision: the index sets are read
                    bases = game.opponent_bases(player, kept := restriction.kept)
                    within = full_comparison(game, player) if self.whole else cmp
                    colmax = _column_best(game, player, bases, within)
                cert = _find_witness_fast(
                    game, kept, player, s, belief_kind, cmp, resolution, bases, colmax
                )
                if cache is not None:
                    cache.remember(player, s, bits, cmp, cert)
            if isinstance(cert, NeverBest):  # a fact: into the mask, tuple and dict
                self.removable |= low
                k = bisect(own := sets[player], s)
                sets[player] = own[:k] + (s,) + own[k:]
                self.certs[player, s] = cert
            elif isinstance(cert, Inconclusive):
                self.inconclusive |= low
            elif cache is not None:  # a witness watches its support
                support = cache.support
                while support:
                    at = support & -support
                    support ^= at
                    watchers[at.bit_length() - 1] |= low
        return self.inconclusive != 0


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
    next sweep; without it, a fresh frontier decides every kept strategy and
    is dropped.  A run's sweep, with its cache bound, checks identities only.

    Each player's strategies face one comparison set; for arrow and darrow
    alike it is the restriction's kept set.  Removing `s` alone, darrow
    compares `s` against that set minus `s`, and `s` ties with itself, so
    the verdicts and certificates are the same.  A `frontier` begun at the
    full restriction reads column bests from `game.colmax` (module docstring).
    """
    if (frontier is None or restriction.parent is not game or cache is None
            or cache.game is not game or cache.kind is not belief_kind):
        if restriction.parent != game:
            raise InputError("restriction does not belong to the game")
        if frontier is not None and cache is None:  # it reads witness supports there
            raise InputError("a frontier needs a cache")
        if cache is not None:
            cache.bind(game, belief_kind)
        frontier = frontier or Frontier(game)
    saw_inconclusive = frontier.sweep(game, restriction, belief_kind, kind, resolution, cache)
    return tuple(frontier.sets), frontier.certs, saw_inconclusive


def _certified_step(
    source: Restriction, target: Restriction, chosen: Sequence[tuple[int, int]],
    kind: ReductionKind, belief_kind: BeliefKind, certs: dict[tuple[int, int], Certificate],
) -> Step:
    """The step from `source` to `target` removing `chosen`, which lists
    (player, strategy) pairs in ascending bit order, each certified in
    `certs`; its `removed` sets are read off the masks if asked for."""
    step_certs = tuple(zip(chosen, map(certs.__getitem__, chosen)))
    return Step(source, target, None, kind, belief_kind, step_certs)


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
    resolution: int = DEFAULT_GRID_RESOLUTION,
    cache: OracleCache | None = None,
) -> Trace:
    """Drive a maximal sequence of reductions from the full game.

    Policies: FAST removes the whole never-best set each round (tilde/arrow
    only); RANDOM_PARTIAL removes a uniformly random non-empty certified
    subset; SINGLE_RANDOM removes one random candidate.  Identical seeds
    reproduce identical traces.  A trace is maximal unless an inconclusive
    oracle answer kept a strategy, which its note says.
    """
    if policy is Policy.FAST and kind is ReductionKind.DARROW:
        raise UnsupportedOperationError(
            "the paper defines no fast darrow policy; on a finite game it would "
            "remove what arrow's fast policy removes, a legal darrow step"
        )
    if cache is None:
        cache = OracleCache(belief_kind)
    cache.bind(game, belief_kind)  # before the tables answer for `game`
    table = cache.sweeps.setdefault((kind, resolution), {})
    shared = cache.steps.setdefault((kind, resolution), {})
    rng = None  # seeded at the first draw
    current = cache.full
    steps: list[Step] = []
    built: dict[tuple[int, int], Step] = {}  # the transitions this run took first
    frontier = None  # made at the first sweep-table miss
    pairs = game.bit_pairs
    while True:
        swept = table.get(current.bits)
        if swept is None:
            if frontier is None:  # go on from the full restriction's sweep
                start = cache.starts.get((kind, resolution))
                frontier = start.copy() if start is not None else Frontier(game)
            _, certs, saw_inconclusive = candidate_certificates(
                game, current, belief_kind, kind, resolution, cache, frontier
            )
            if current is cache.full:  # later runs on this cache go on from here
                cache.starts[kind, resolution] = frontier.copy()
            mask = frontier.removable
            table[current.bits] = mask << 1 | saw_inconclusive  # bit 0: inconclusive
        else:  # swept before: the same mask
            certs, mask, saw_inconclusive = None, swept >> 1, bool(swept & 1)
        if not mask:
            break
        # The draws of a walk over the pairs in ascending bit order, as the
        # sets of a sweep list them.
        if policy is Policy.FAST:
            drop = mask
        elif policy is Policy.SINGLE_RANDOM:
            rng = rng or random.Random(seed)
            drop = 1 << _kth_bit(mask, rng.randrange(mask.bit_count()))
        else:
            rng, drop, flat = rng or random.Random(seed), 0, list(_bits(mask))
            while not drop:
                drop = sum(1 << b for b in flat if rng.getrandbits(1))
        key = (current.bits, drop)
        step = shared.get(key)
        if step is None:  # the target's index sets are read only if asked for
            target = Restriction._trusted(game, None, current.bits & ~drop)
        # An arrow or darrow fact may rest on an earlier, larger kept set, so each
        # new transition is validated once.  A tilde fact rests on the full sets
        # and certifies the step; validating it again cost grid orders a tenth.
        if step is None and kind is not ReductionKind.TILDE:
            result = validate_step(
                game, current, target, kind, belief_kind, resolution, cache
            )
            if isinstance(result, Rejection):  # the sweep was unsound
                raise IllegalStepError(result)
            step = built[key] = result
        elif step is None:
            chosen = [pairs[b] for b in _bits(drop)]
            if certs is None:  # a hit keeps none: the cache has them unless evicted
                certs = {}
                for i, s in chosen:
                    cmp = comparison_for(kind, game, current, current, i)
                    certs[i, s] = cache.lookup(i, s, current.bits, cmp) or find_witness(
                        game, current, i, s, belief_kind, cmp, resolution, cache
                    )
            step = built[key] = _certified_step(
                current, target, chosen, kind, belief_kind, certs
            )
        steps.append(step)
        current = step.target

    note = "inconclusive strategies kept; sound, possibly non-maximal"
    notes = (note,) if saw_inconclusive else ()
    trace = Trace(
        game, kind, belief_kind, policy, seed, tuple(steps), current,
        not saw_inconclusive, notes,
    )
    if built:  # shared while `trace` lives; a run that raised shares nothing
        shared.update(built)
        weakref.finalize(trace, _unshare, shared, tuple(built)).atexit = False
    return trace


def _unshare(shared: dict[tuple, Step], keys: tuple[tuple[int, int], ...]) -> None:
    for key in keys:
        del shared[key]
