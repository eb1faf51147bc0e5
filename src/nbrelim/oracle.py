"""Certified best-response and never-best-response decisions.

One oracle serves all three reduction relations: the comparison set picks the
reference point (full strategy set, current kept set, or proposed kept set),
and the belief kind picks the search space.  One pure scan comes first for
every kind (a pure witness is a witness for all three); past it, correlated
beliefs are decided by exact rational LP feasibility with constraint-row
generation, and independent mixed beliefs by delegation (two players) or by
a correlated never-best proof, else a verified simplex-grid search (three or
more).

Every `BestResponse` certificate carries a witness belief that re-verifies by
direct expected-payoff comparison.  `NeverBest` is only ever returned with an
exact proof; grid searches that find nothing surface `Inconclusive` instead.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import ge, gt, sub
from typing import Iterator, Sequence, Union

from .beliefs import (
    Belief,
    BeliefKind,
    DistributionBelief,
    ProductBelief,
    PurePoint,
    as_product,
    expected_payoff,
    integer_form,
    point_distribution,
    render_belief,
)
from .games import FiniteGame, InputError, Restriction
from .simplex import lp_feasible

DEFAULT_GRID_RESOLUTION = 8


@dataclass(frozen=True)
class ComparisonSet:
    """The own strategies a candidate best response must weakly beat.

    `bits` holds the candidates as one integer: candidate c is bit c.
    """

    player: int
    candidates: tuple[int, ...]
    bits: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        candidates = tuple(sorted(set(self.candidates)))
        if candidates and candidates[0] < 0:
            raise InputError(f"comparison candidate {candidates[0]} out of range")
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "bits", sum(1 << c for c in candidates))


def full_comparison(game: FiniteGame, player: int) -> ComparisonSet:
    return _full_comparison(player, game.sizes[player])


@functools.lru_cache(maxsize=64)
def _full_comparison(player: int, size: int) -> ComparisonSet:
    # Every tilde sweep asks for it; building it anew costs a sort and a mask.
    return ComparisonSet(player, tuple(range(size)))


@dataclass(frozen=True)
class BestResponse:
    witness: Belief


@dataclass(frozen=True)
class NeverBest:
    proof: str  # "exhaustive" | "lp" | "dominated"
    dominating: tuple[tuple[int, Fraction], ...] | None = None


@dataclass(frozen=True)
class Inconclusive:
    resolution: int


@dataclass(frozen=True)
class EmptyBeliefSet:
    """The narrowed belief set is empty: elimination is vacuously permitted."""


Certificate = Union[BestResponse, NeverBest, Inconclusive, EmptyBeliefSet]


def render_certificate(cert: Certificate, game: FiniteGame, player: int) -> str:
    if isinstance(cert, BestResponse):
        return f"BR(witness={render_belief(game, player, cert.witness)})"
    if isinstance(cert, NeverBest):
        tag = "exhaustive" if cert.proof == "exhaustive" else "lp"
        return f"NBR({tag})"
    if isinstance(cert, Inconclusive):
        return f"INCONCLUSIVE(res={cert.resolution})"
    return "NBR(vacuous)"


def is_best_response(
    game: FiniteGame,
    player: int,
    strategy: int,
    mu: Belief,
    cmp: ComparisonSet,
) -> bool:
    """True iff `strategy` weakly beats every comparison candidate against `mu`."""
    if cmp.player != player:
        raise InputError("comparison set belongs to a different player")
    own = expected_payoff(game, player, strategy, mu)
    return all(
        own >= expected_payoff(game, player, other, mu) for other in cmp.candidates
    )


def _int_witness_check(
    game: FiniteGame,
    player: int,
    strategy: int,
    bases: Sequence[int],
    numerators: Sequence[int],
    cmp: ComparisonSet,
) -> bool:
    """Integer-scaled version of is_best_response for a sparse distribution."""
    ip = game.ipay[player]
    stride = game.strides[player]
    own = sum(n * ip[b + strategy * stride] for b, n in zip(bases, numerators))
    if len(cmp.candidates) == game.sizes[player]:
        # Against the full comparison set the column-best table gives an upper
        # bound on every competitor; exact for single-atom beliefs.
        col = game.colmax[player]
        bound = sum(n * col[b] for b, n in zip(bases, numerators))
        if own >= bound:
            return True
        if len(bases) == 1:
            return False
    for other in cmp.candidates:
        off = other * stride
        if sum(n * ip[b + off] for b, n in zip(bases, numerators)) > own:
            return False
    return True


def _column_best(
    game: FiniteGame, player: int, bases: Sequence[int], cmp: ComparisonSet
) -> list[int]:
    """Best integer payoff over the comparison candidates, per opponent column."""
    if len(cmp.candidates) == game.sizes[player]:
        col = game.colmax[player]
        return [col[b] for b in bases]
    ip = game.ipay[player]
    offs = [c * game.strides[player] for c in cmp.candidates]
    rows = [[ip[b + off] for b in bases] for off in offs]
    return rows[0] if len(rows) == 1 else list(map(max, *rows))


def _nth_opponent_profile(
    game: FiniteGame, player: int, kept: Sequence[Sequence[int]], pos: int
) -> tuple[int, ...]:
    axes = [kept[j] for j in range(game.players) if j != player]
    profile = []
    for axis in reversed(axes):
        pos, r = divmod(pos, len(axis))
        profile.append(axis[r])
    return tuple(reversed(profile))


def _pure_witness(
    game: FiniteGame, player: int, kept: Sequence[Sequence[int]], pos: int,
    kind: BeliefKind,
) -> BestResponse:
    """The pure belief at scan position `pos`, in the belief form of `kind`."""
    profile = _nth_opponent_profile(game, player, kept, pos)
    if kind is BeliefKind.PURE:
        return BestResponse(PurePoint(profile))
    if kind is BeliefKind.CORRELATED:
        return BestResponse(point_distribution(profile))
    return BestResponse(as_product(PurePoint(profile)))


def _correlated_certificate(
    game: FiniteGame,
    player: int,
    kept: Sequence[Sequence[int]],
    cmp: ComparisonSet,
    bases: Sequence[int],
    own: Sequence[int],
) -> Certificate:
    """Exact decision over all correlated beliefs supported on `kept`, once
    no pure belief is a witness (`own` holds the strategy's payoff per base).

    Strategy: a pure-domination scan first, then LP feasibility over the
    belief simplex, generating comparison-constraint rows lazily (the binding
    competitors are found by scanning violations at the current vertex, over
    its support only).  A sub-LP infeasibility already proves infeasibility
    of the full system.  Every scan takes the first candidate on ties.
    """
    ip = game.ipay[player]
    stride = game.strides[player]
    offs = [c * stride for c in cmp.candidates]
    # The LP starts from the first column where the strategy does best.  A
    # pure dominator must beat it there and in the first column, which few
    # candidates do; only those get the whole-row test.
    top = max(own)
    start = own.index(top)
    head, first = bases[start], bases[0]
    for c, off in zip(cmp.candidates, offs):
        if ip[head + off] > top and ip[first + off] > own[0]:
            if all(map(gt, [ip[b + off] for b in bases], own)):
                return NeverBest("dominated", ((c, Fraction(1)),))

    n = len(bases)
    ineqs: list[tuple[list[int], int]] = []
    # A vertex has at most len(ineqs) + 1 nonzeros: `support` lists them as
    # (position, mass).
    support = [(start, Fraction(1))]
    while True:
        den = lcm(*(p.denominator for _, p in support))
        atoms = [(pos, p.numerator * (den // p.denominator)) for pos, p in support]
        own_val = sum(nm * own[pos] for pos, nm in atoms)
        # Candidate totals at the vertex: one scaled row per atom, summed.
        totals = list(
            map(sum, zip(*([nm * ip[bases[pos] + o] for o in offs] for pos, nm in atoms)))
        )
        peak = max(totals)
        if peak <= own_val:
            return BestResponse(
                DistributionBelief(
                    tuple(
                        (_nth_opponent_profile(game, player, kept, pos), p)
                        for pos, p in support
                    )
                )
            )
        off = offs[totals.index(peak)]
        ineqs.append((list(map(sub, own, [ip[b + off] for b in bases])), 0))
        solution = lp_feasible(ineqs, ([1] * n, 1), num_vars=n)
        if solution is None:
            return NeverBest("lp")
        support = [(pos, p) for pos, p in enumerate(solution) if p]


def simplex_grid(size: int, resolution: int) -> Iterator[tuple[Fraction, ...]]:
    """Probability vectors of `size` entries with denominator <= resolution.

    Denominator first, each vector once (at its smallest denominator).
    """

    def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, parts - 1):
                yield (head,) + tail

    seen: set[tuple[Fraction, ...]] = set()
    for den in range(1, resolution + 1):
        for combo in compositions(den, size):
            vec = tuple(Fraction(a, den) for a in combo)
            if vec not in seen:
                seen.add(vec)
                yield vec


def _grid_product_witness(
    game: FiniteGame,
    player: int,
    strategy: int,
    kept: Sequence[Sequence[int]],
    cmp: ComparisonSet,
    resolution: int,
) -> ProductBelief | None:
    opps = game.opponents(player)
    grids = []
    for j in opps:
        axis = kept[j]
        grids.append(
            [
                tuple((s, p) for s, p in zip(axis, vec) if p > 0)
                for vec in sorted(simplex_grid(len(axis), resolution))
            ]
        )
    for combo in itertools.product(*grids):
        mu = ProductBelief(tuple(combo))
        bases, nums, _ = integer_form(game, player, mu)
        if _int_witness_check(game, player, strategy, bases, nums, cmp):
            return mu
    return None


class OracleCache:
    """Memo of oracle answers for one game and one belief kind.

    Soundness: both answers are monotone in the query.  A witness belief
    answers any query whose belief set still contains it (its support is
    kept) and whose comparison set it beats, in particular any comparison set
    inside one it beat.  A never-best fact answers any query with a larger
    comparison set and a smaller restriction.  A lookup tests exactly these
    inclusions, so a hit is the query's own answer and no entry goes stale.

    Sets are bit masks: restrictions and supports as `Restriction.bits`,
    comparison sets as `ComparisonSet.bits`.  A witness entry is
    `[certificate, support, beaten comparison set, tensor bases,
    numerators]`; a comparison set outside the beaten one is re-checked in
    integers and, if it passes, joins it.  A never-best entry is
    `(comparison set, restriction with the player's own strategies added,
    certificate)`.  Each (player, strategy) keeps its `DEPTH` newest entries
    of each type, and the newest match answers.

    Along one `iterate` run restrictions shrink and comparison sets never
    grow (tilde: the full sets; arrow: the kept set; darrow: the kept set
    minus the strategy), so an answer holds until a strategy it rests on is
    removed: the residual supports of arc consistency (Lecoutre & Hemery,
    IJCAI 2007) that `reductions.Frontier` watches; `support` is the last
    witness's opponent mask.  A second game or belief kind is an `InputError`.

    `sweeps` is `iterate`'s sweep table: per (relation, resolution), a swept
    restriction's bits map to its removable mask shifted left once, bit 0 set
    if an answer was inconclusive.  Never-best answers are exact, so no memo
    history changes a removable set; `Inconclusive` depends on the resolution.
    """

    __slots__ = ("kind", "game", "witnesses", "never_best", "support", "sweeps")

    DEPTH = 8

    def __init__(self, kind: BeliefKind) -> None:
        self.kind = kind
        self.game: FiniteGame | None = None
        self.witnesses: dict[tuple[int, int], list[list]] = {}
        self.never_best: dict[tuple[int, int], list[tuple]] = {}
        self.support = 0
        self.sweeps: dict[tuple, dict[int, int]] = {}

    def bind(self, game: FiniteGame, kind: BeliefKind) -> None:
        if kind is not self.kind:
            raise InputError("oracle cache bound to a different belief kind")
        if self.game is None:
            self.game = game
        elif self.game is not game and self.game != game:
            raise InputError("oracle cache bound to a different game")

    def lookup(
        self, player: int, strategy: int, restriction_bits: int, cmp: ComparisonSet
    ) -> Certificate | None:
        """A remembered answer to the query, or None.  The query's opponent
        components must all be non-empty (an empty one is `EmptyBeliefSet`)."""
        key = (player, strategy)
        for entry in self.witnesses.get(key, ()):
            if entry[1] & ~restriction_bits:
                continue
            if cmp.bits & ~entry[2]:
                if not _int_witness_check(
                    self.game, player, strategy, entry[3], entry[4], cmp
                ):
                    continue
                entry[2] |= cmp.bits
            self.support = entry[1]
            return entry[0]
        for known_cmp, known_bits, cert in self.never_best.get(key, ()):
            if not known_cmp & ~cmp.bits and not restriction_bits & ~known_bits:
                return cert
        return None

    def remember(
        self,
        player: int,
        strategy: int,
        restriction_bits: int,
        cmp: ComparisonSet,
        cert: Certificate,
    ) -> None:
        game = self.game
        offsets = game.offsets
        if isinstance(cert, BestResponse):
            support = 0
            opps = game.opponents(player)
            for profile in cert.witness.support():
                for j, t in zip(opps, profile):
                    support |= 1 << (offsets[j] + t)
            self.support = support
            bases, nums, _ = integer_form(game, player, cert.witness)
            entries = self.witnesses.setdefault((player, strategy), [])
            entries.insert(0, [cert, support, cmp.bits, bases, nums])
        elif isinstance(cert, NeverBest):
            own = ((1 << game.sizes[player]) - 1) << offsets[player]
            entries = self.never_best.setdefault((player, strategy), [])
            entries.insert(0, (cmp.bits, restriction_bits | own, cert))
        else:
            return
        del entries[self.DEPTH :]


def find_witness(
    game: FiniteGame,
    restriction: Restriction,
    player: int,
    strategy: int,
    kind: BeliefKind,
    cmp: ComparisonSet,
    resolution: int = DEFAULT_GRID_RESOLUTION,
    cache: OracleCache | None = None,
) -> Certificate:
    """Decide whether some narrowed belief makes `strategy` a weak best response.

    The belief set is `kind` narrowed to `restriction`; the comparison set
    fixes the competitors.  Exact for pure and correlated beliefs and for
    independent mixed beliefs with two players; with three or more players the
    independent mixed search is grid-bounded and may return Inconclusive.
    """
    if restriction.parent != game:
        raise InputError("restriction does not belong to the game")
    if not 0 <= player < game.players:
        raise InputError(f"player index {player} out of range")
    if not 0 <= strategy < game.sizes[player]:
        raise InputError(f"strategy index {strategy} out of range")
    if cmp.player != player:
        raise InputError("comparison set belongs to a different player")
    if cmp.candidates and cmp.candidates[-1] >= game.sizes[player]:
        raise InputError(f"comparison candidate {cmp.candidates[-1]} out of range")
    kept = restriction.kept
    if cache is not None:
        cache.bind(game, kind)
    if not all(kept[j] for j in game.opponents(player)):
        return EmptyBeliefSet()
    if cache is not None:
        cert = cache.lookup(player, strategy, restriction.bits, cmp)
        if cert is not None:
            return cert
    bases = game.opponent_bases(player, kept)
    cert = _find_witness_fast(game, kept, player, strategy, kind, cmp, resolution, bases)
    if cache is not None:
        cache.remember(player, strategy, restriction.bits, cmp, cert)
    return cert


def _find_witness_fast(
    game: FiniteGame,
    kept: Sequence[Sequence[int]],
    player: int,
    strategy: int,
    kind: BeliefKind,
    cmp: ComparisonSet,
    resolution: int,
    bases: Sequence[int],
    colmax: Sequence[int] | None = None,
) -> Certificate:
    """The decision itself, computed afresh: `find_witness` without checks,
    memo or the empty-belief rule, so every opponent must keep a strategy.
    `bases` is `game.opponent_bases(player, kept)`; `colmax` optionally
    supplies `_column_best` for them.

    One ladder serves the nested belief sets (pure inside independent mixed
    inside correlated).  A pure witness answers every kind, so the pure scan
    runs first and its hit comes back in the kind's form.  Past it, pure
    beliefs are exhausted; the others take the correlated decision
    (domination, then the LP).  With one opponent, mixed and correlated
    beliefs are the same set; with more, a correlated never-best proof
    covers the mixed beliefs and anything else falls to the grid search.
    """
    if not cmp.candidates:
        return _pure_witness(game, player, kept, 0, kind)
    ip = game.ipay[player]
    own_off = strategy * game.strides[player]
    own = [ip[b + own_off] for b in bases]
    best = colmax if colmax is not None else _column_best(game, player, bases, cmp)
    hits = list(map(ge, own, best))
    if True in hits:
        return _pure_witness(game, player, kept, hits.index(True), kind)
    if kind is BeliefKind.PURE:
        return NeverBest("exhaustive")

    cert = _correlated_certificate(game, player, kept, cmp, bases, own)
    if kind is BeliefKind.CORRELATED or isinstance(cert, NeverBest):
        return cert
    if game.players == 2:
        atoms = tuple((profile[0], p) for profile, p in cert.witness.mass)
        return BestResponse(ProductBelief((atoms,)))
    witness = _grid_product_witness(game, player, strategy, kept, cmp, resolution)
    return BestResponse(witness) if witness is not None else Inconclusive(resolution)
