"""Reduction relations over restrictions and the iteration engine.

Three relations remove never-best-response strategies; they differ only in
where better responses are drawn from:

* tilde  — the initial game's full strategy sets,
* arrow  — the kept sets of the restriction being reduced,
* darrow — the kept sets of the proposed target restriction.

`candidate_certificates` is the one per-round sweep: it decides every kept
strategy against the comparison set its relation picks.  `validate_step`
certifies a single proposed reduction, `fast_step` removes the entire
never-best set at once (tilde and arrow only; no fast variant of darrow
exists), and `iterate` drives maximal sequences under several elimination
policies.  Traces record every removal with its certificate.

The one memo is the `OracleCache` a caller passes (`iterate` makes one when
none is given); its docstring states why a remembered answer is sound.  An
`iterate` run keeps a `Frontier` of answers and what each watches, so a sweep
re-decides only what a removal touched.  A restriction already swept under
the same relation and resolution is read from the cache's sweep table, and
the `Frontier` is left as it was: restrictions only shrink along a run, so
its next sweep re-decides what every removal since its last one touched.  A
one-off sweep has no next sweep to serve, so it decides every kept strategy
and keeps no state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .beliefs import BeliefKind
from .games import FiniteGame, InputError, Restriction, full_restriction
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

    def certificate_for(self, player: int, strategy: int) -> Certificate:
        for key, cert in self.certificates:
            if key == (player, strategy):
                return cert
        raise KeyError((player, strategy))


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
    if kind is ReductionKind.ARROW:
        return ComparisonSet(player, source.kept[player])
    return ComparisonSet(player, target.kept[player])


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
    removed = target.removed_from(source)
    certs: list[tuple[tuple[int, int], Certificate]] = []
    for player in range(game.players):
        if not removed[player]:
            continue
        cmp = comparison_for(kind, game, source, target, player)
        for s in removed[player]:
            cert = find_witness(
                game, source, player, s, belief_kind, cmp, resolution, cache
            )
            if isinstance(cert, BestResponse):
                return Rejection(player, s, cert, "witness")
            if isinstance(cert, Inconclusive):
                return Rejection(player, s, cert, "inconclusive")
            certs.append(((player, s), cert))
    return Step(source, target, removed, kind, belief_kind, tuple(certs))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


class Frontier:
    """The standing answers of one `iterate` run.  An answer holds while
    what it watches is kept: a witness its opponent support
    (`OracleCache.support`); a tilde never-best fact nothing, its
    comparison set being fixed and a smaller restriction keeping it a fact;
    an arrow or darrow one its player's kept set, the comparison set it was
    proved against.  A sweep re-decides what a removal touched, and every
    `Inconclusive` answer."""

    def __init__(self, game: FiniteGame, kind: ReductionKind) -> None:
        self.kind, self.bits, self.inconclusive = kind, None, 0
        self.watchers: dict[int, int] = {}  # bit -> mask of witnesses on it
        self.never_best: list[dict[int, Certificate]] = [{} for _ in game.sizes]

    def stale(self, restriction: Restriction) -> Sequence[Iterable[int]]:
        """Per player, the kept strategies a sweep of `restriction` decides."""
        previous, self.bits = self.bits, restriction.bits
        if previous is None:
            return restriction.kept
        gone = previous & ~self.bits
        dirty, self.inconclusive = self.inconclusive, 0
        for bit in _bits(gone):
            dirty |= self.watchers.pop(bit, 0)
        dirty &= self.bits
        game, todo = restriction.parent, []
        for never_best, offset, size in zip(self.never_best, game.offsets, game.sizes):
            full = (1 << size) - 1
            if lost := gone >> offset & full:
                for s in _bits(lost):
                    never_best.pop(s, None)
                if self.kind is not ReductionKind.TILDE:
                    dirty |= sum(1 << s for s in never_best) << offset
            todo.append(_bits(dirty >> offset & full))
        return todo

    def record(self, bit: int, cert: Certificate, support: int) -> None:
        """`cert` is a witness, which watches `support`, or `Inconclusive`."""
        if isinstance(cert, Inconclusive):
            self.inconclusive |= 1 << bit
            return
        while support:  # `_bits` inlined: every witness answer passes here
            low = support & -support
            support ^= low
            watched = low.bit_length() - 1
            self.watchers[watched] = self.watchers.get(watched, 0) | 1 << bit


def candidate_certificates(
    game: FiniteGame,
    restriction: Restriction,
    belief_kind: BeliefKind,
    kind: ReductionKind,
    resolution: int = DEFAULT_GRID_RESOLUTION,
    cache: OracleCache | None = None,
    frontier: Frontier | None = None,
    first: bool = False,
) -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, int], Certificate], bool]:
    """Per-player certified never-best strategies, their certificates, and
    whether any answer was inconclusive.

    Inconclusive strategies are never included, so the sets are a sound
    under-approximation; strategies facing an empty opponent component are
    vacuously never-best.  `cache` answers what it can and remembers the
    rest; the result is the same as without it.  `frontier` (with `cache`)
    carries one run's answers from sweep to sweep; without it, every kept
    strategy is decided and nothing is kept.  With `first`, the sweep stops
    at the first removable strategy: the sets then hold only what was found
    before the stop.
    """
    if restriction.parent != game:
        raise InputError("restriction does not belong to the game")
    if cache is not None:
        cache.bind(game, belief_kind)
    kept = restriction.kept
    bits = restriction.bits
    todo = kept if frontier is None else frontier.stale(restriction)
    removable: list[tuple[int, ...]] = []
    certs: dict[tuple[int, int], Certificate] = {}
    saw_inconclusive = False
    for player in range(game.players):
        if first and certs:  # a removable strategy is already found
            removable.append(())
            continue
        if not all(kept[j] for j in game.opponents(player)):
            removable.append(kept[player])
            certs.update(((player, s), EmptyBeliefSet()) for s in kept[player])
            continue
        cmp = bases = colmax = None
        gone = {} if frontier is None else frontier.never_best[player]
        for s in todo[player]:
            if kind is ReductionKind.DARROW:
                cmp = ComparisonSet(player, tuple(t for t in kept[player] if t != s))
            elif cmp is None:
                cmp = comparison_for(kind, game, restriction, restriction, player)
            cert = cache.lookup(player, s, bits, cmp) if cache is not None else None
            if cert is None:
                if bases is None:
                    bases = game.opponent_bases(player, kept)
                    if kind is not ReductionKind.DARROW:
                        colmax = _column_best(game, player, bases, cmp)
                cert = _find_witness_fast(
                    game, kept, player, s, belief_kind, cmp, resolution, bases, colmax
                )
                if cache is not None:
                    cache.remember(player, s, bits, cmp, cert)
            if isinstance(cert, NeverBest):
                gone[s] = cert
                if first:
                    break
                continue
            saw_inconclusive |= isinstance(cert, Inconclusive)
            if frontier is not None:
                gone.pop(s, None)
                frontier.record(game.offsets[player] + s, cert, cache.support)
        removable.append(tuple(sorted(gone)))
        certs.update({(player, s): cert for s, cert in gone.items()})
    return tuple(removable), certs, saw_inconclusive


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
    removal = _removal(chosen)
    removed = tuple(tuple(sorted(removal.get(i, ()))) for i in range(len(source.kept)))
    step_certs = tuple(sorted((pair, certs[pair]) for pair in chosen))
    return Step(
        source, source.remove(removal), removed, kind, belief_kind, step_certs
    )


def fast_step(
    game: FiniteGame,
    source: Restriction,
    kind: ReductionKind,
    belief_kind: BeliefKind,
    resolution: int = DEFAULT_GRID_RESOLUTION,
    cache: OracleCache | None = None,
) -> Step | None:
    """Remove every certified never-best strategy at once; None at a fixed point."""
    if kind is ReductionKind.DARROW:
        raise UnsupportedOperationError(
            "the darrow relation has no fast variant: removing all candidates "
            "at once is not a legal darrow step in general"
        )
    removable, certs, _ = candidate_certificates(
        game, source, belief_kind, kind, resolution, cache
    )
    flat = [(i, s) for i, gone in enumerate(removable) for s in gone]
    return _certified_step(source, flat, kind, belief_kind, certs) if flat else None


def legal_removal_candidates(
    game: FiniteGame,
    source: Restriction,
    kind: ReductionKind,
    belief_kind: BeliefKind,
    resolution: int = DEFAULT_GRID_RESOLUTION,
    cache: OracleCache | None = None,
) -> tuple[tuple[int, ...], ...]:
    """Strategies whose individual removal is a legal step from `source`.

    For tilde and arrow any subset of the result is jointly removable; for
    darrow only singletons are guaranteed and joint removals must be
    re-validated (the comparison set shrinks with the removal).
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
    subset; SINGLE_RANDOM removes one random candidate; USER_SCRIPT applies an
    explicit removal schedule.  Identical seeds reproduce identical traces.
    """
    if policy is Policy.FAST and kind is ReductionKind.DARROW:
        raise UnsupportedOperationError("fast policy is undefined for darrow")
    if policy is Policy.USER_SCRIPT and script is None:
        raise InputError("user-script policy needs a schedule")
    if cache is None:
        cache = OracleCache(belief_kind)
    cache.bind(game, belief_kind)  # before the sweep table answers for `game`
    table = cache.sweeps.setdefault((kind, resolution), {})
    rng = random.Random(seed)
    current = full_restriction(game)
    steps: list[Step] = []
    for removal in script if policy is Policy.USER_SCRIPT else ():
        result = validate_step(
            game, current, current.remove(removal), kind, belief_kind, resolution, cache
        )
        if isinstance(result, Rejection):
            raise IllegalStepError(result)
        steps.append(result)
        current = result.target

    frontier, offsets = Frontier(game, kind), game.offsets
    while True:
        swept = table.get(current.bits)
        if swept is None:
            sets, certs, saw_inconclusive = candidate_certificates(
                game, current, belief_kind, kind, resolution, cache, frontier
            )
            flat = [(i, s) for i, gone in enumerate(sets) for s in gone]
            mask = sum(2 << offsets[i] + s for i, s in flat)  # bit 0: inconclusive
            table[current.bits] = mask | saw_inconclusive
        else:  # swept before: the same sets, each ascending as a sweep gives them
            certs, saw_inconclusive = None, bool(swept & 1)
            flat = [
                (i, s) for i, (offset, size) in enumerate(zip(offsets, game.sizes))
                for s in _bits(swept >> offset + 1 & (1 << size) - 1)
            ]
        if not flat or policy is Policy.USER_SCRIPT:
            break
        if policy is Policy.FAST:
            chosen = flat
        elif policy is Policy.SINGLE_RANDOM:
            chosen = [flat[rng.randrange(len(flat))]]
        else:
            chosen = []
            while not chosen:
                chosen = [pair for pair in flat if rng.getrandbits(1)]
        if kind is ReductionKind.DARROW:
            step = _joint_darrow_step(game, current, chosen, belief_kind, resolution, cache)
        else:
            if certs is None:  # a table hit keeps no certificates: ask again
                certs = {
                    (i, s): find_witness(
                        game, current, i, s, belief_kind,
                        comparison_for(kind, game, current, current, i),
                        resolution, cache,
                    )
                    for i, s in chosen
                }
            step = _certified_step(current, chosen, kind, belief_kind, certs)
        steps.append(step)
        current = step.target

    notes = ["script ended before a fixed point"] if flat else []
    if saw_inconclusive:
        notes.append("inconclusive strategies kept; sound, possibly non-maximal")
    maximal = not flat and (policy is Policy.USER_SCRIPT or not saw_inconclusive)
    return Trace(
        game, kind, belief_kind, policy, seed, tuple(steps), current, maximal,
        tuple(notes),
    )


def _joint_darrow_step(
    game: FiniteGame,
    current: Restriction,
    chosen: list[tuple[int, int]],
    belief_kind: BeliefKind,
    resolution: int,
    cache: OracleCache | None,
) -> Step:
    """Shrink a candidate set until it validates as one joint darrow step.

    Dropping a rejected strategy only grows the target's comparison sets, so
    previously certified removals stay certified; singletons from the
    candidate sweep are always legal, so the loop terminates non-empty.
    """
    picked = list(chosen)
    while True:
        result = validate_step(
            game,
            current,
            current.remove(_removal(picked)),
            ReductionKind.DARROW,
            belief_kind,
            resolution,
            cache,
        )
        if isinstance(result, Step):
            return result
        picked = [p for p in picked if p != (result.player, result.strategy)]
        if not picked:
            raise InputError("darrow candidate set collapsed; sweep was unsound")
