"""Certified best-response and never-best-response decisions.

One oracle serves all three reduction relations: the comparison set picks the
reference point (full strategy set, current kept set, or proposed kept set),
and the belief kind picks the search space.  One pure scan comes first for
every kind (a pure witness is a witness for all three); past it, correlated
beliefs are decided by exact rational LP feasibility with constraint-row
generation, and independent mixed beliefs by delegation (two players) or by
a correlated never-best proof, else a product-grid search on the integer
tensor (three or more).

Every `BestResponse` certificate carries a witness belief that re-verifies by
direct expected-payoff comparison.  A scan's or an LP's witness is built when
it is first read: a sweep reads only its support, which the cache takes from
the scan positions.  `NeverBest` is only ever returned with an exact proof;
grid searches that find nothing surface `Inconclusive` instead.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, inf, lcm
from operator import ge, gt, mul, sub
from typing import Sequence, Union

from .beliefs import (
    Belief,
    BeliefKind,
    DistributionBelief,
    ProductBelief,
    PurePoint,
    as_product,
    expected_payoff,
    render_belief,
)
from .games import FiniteGame, InputError, Restriction, _unchecked, full_restriction
from .simplex import lp_feasible

DEFAULT_GRID_RESOLUTION = 8
_ONE = Fraction(1)


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

    # (player, candidates, bits), no checks: `candidates` sorted,
    # duplicate-free, non-negative.
    _trusted = classmethod(_unchecked)


def full_comparison(game: FiniteGame, player: int) -> ComparisonSet:
    return _full_comparison(player, game.sizes[player])


@functools.lru_cache(maxsize=64)
def _full_comparison(player: int, size: int) -> ComparisonSet:
    # Every tilde sweep asks for it; building it anew costs a sort and a mask.
    return ComparisonSet(player, tuple(range(size)))


class BestResponse:
    """A belief against which the strategy is a weak best response.

    The oracle's answers keep where the scan found it: the kept sets, the
    player, the belief kind and `(position, probability)` atoms over the
    opponents' kept profiles.  `witness` builds the belief on first read.
    Certificates compare and hash by their belief.
    """

    __slots__ = ("_witness", "_scan")

    def __init__(self, witness: Belief) -> None:
        self._witness, self._scan = witness, None

    @classmethod
    def _at(cls, kept, player: int, kind: BeliefKind, atoms) -> BestResponse:
        cert = cls.__new__(cls)
        cert._witness, cert._scan = None, (kept, player, kind, atoms)
        return cert

    @property
    def witness(self) -> Belief:
        if self._witness is None:
            kept, player, kind, atoms = self._scan
            mass = tuple((_nth_opponent_profile(kept, player, pos), p) for pos, p in atoms)
            if kind is BeliefKind.CORRELATED:
                self._witness = DistributionBelief(mass)
            elif kind is BeliefKind.PURE:
                self._witness = PurePoint(mass[0][0])
            elif len(mass) == 1:
                self._witness = as_product(PurePoint(mass[0][0]))
            else:  # an LP vertex lifted to a two-player mixed belief
                self._witness = ProductBelief((tuple((pr[0], p) for pr, p in mass),))
        return self._witness

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BestResponse):
            return NotImplemented
        return self.witness == other.witness

    def __hash__(self) -> int:
        return hash(self.witness)

    def __repr__(self) -> str:
        return f"BestResponse(witness={self.witness!r})"


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


def _column_best(
    game: FiniteGame, player: int, bases: Sequence[int], cmp: ComparisonSet
) -> list[int]:
    """Best integer payoff over the comparison candidates, per opponent column;
    `game.colmax`'s for the full set and in a run's sweeps (see `reductions`)."""
    if len(cmp.candidates) == game.sizes[player]:
        col = game.colmax[player]
        return [col[b] for b in bases]
    ip, stride = game.ipay[player], game.strides[player]
    rows = [_gather(ip, bases, c * stride) for c in cmp.candidates]
    return list(rows[0]) if len(rows) == 1 else list(map(max, *rows))


def _gather(ip: Sequence[int], offsets: Sequence[int], at: int) -> Sequence[int]:
    """`ip[at + o]` per offset: one strided slice when `offsets` is a range."""
    if type(offsets) is range:
        return ip[at + offsets.start : at + offsets.stop : offsets.step]
    return [ip[at + o] for o in offsets]


def _pair_mixture(r1: Sequence[int], r2: Sequence[int]) -> Fraction | None:
    """The simplest λ in (0, 1) with λ·r1 + (1-λ)·r2 < 0 at every entry, or
    None: by Farkas' lemma, None iff some x in the simplex has r1.x >= 0 and
    r2.x >= 0.  The bounds ln/ld < λ < un/ud stay integer pairs."""
    ln, ld, un, ud = 0, 1, 1, 1
    for a, c in zip(r1, r2):
        if a > c:  # λ < -c / (a - c)
            if -c * ud < un * (a - c):
                un, ud = -c, a - c
        elif a < c:  # λ > c / (c - a)
            if c * ld > ln * (c - a):
                ln, ld = c, c - a
        elif c >= 0:
            return None
    return _simplest(Fraction(ln, ld), Fraction(un, ud)) if ln * ud < un * ld else None


def _simplest(lo: Fraction, hi: Fraction | float) -> Fraction:
    """The rational of least denominator in the open interval (lo, hi), lo >= 0:
    the next integer, else `n + 1/y` for y the simplest in the mirrored interval."""
    n = floor(lo)
    if n + 1 < hi:
        return Fraction(n + 1)
    return n + 1 / _simplest(1 / (hi - n), 1 / (lo - n) if lo > n else inf)


def _nth_opponent_profile(
    kept: Sequence[Sequence[int]], player: int, pos: int
) -> tuple[int, ...]:
    profile = []
    for j in range(len(kept) - 1, -1, -1):
        if j != player:
            pos, r = divmod(pos, len(kept[j]))
            profile.append(kept[j][r])
    return tuple(reversed(profile))


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
    of the full system; two rows are settled in closed form, with their
    mixture as the proof.  Every scan takes the first candidate on ties.
    """
    ip, stride, candidates = game.ipay[player], game.strides[player], cmp.candidates
    # The candidates' offsets, a range when consecutive (as a full set is):
    # `_gather(ip, offs, b)` reads their payoffs at base b.
    offs = range(candidates[0] * stride, (candidates[-1] + 1) * stride, stride)
    if len(offs) != len(candidates):
        offs = [c * stride for c in candidates]
    # The LP starts from the first column where the strategy does best.  A
    # pure dominator must beat it there and in the first column, which few
    # candidates do; only those get the whole-row test.
    top = max(own)
    start = own.index(top)
    for off, h, f in zip(offs, _gather(ip, offs, bases[start]), _gather(ip, offs, bases[0])):
        if h > top and f > own[0]:
            if all(map(gt, _gather(ip, bases, off), own)):
                return NeverBest("dominated", ((off // stride, Fraction(1)),))

    n = len(bases)
    ineqs, rivals = [], []  # the LP's rows, each row's competitor
    # A vertex has at most len(ineqs) + 1 nonzeros: `support` lists them as
    # (position, mass).
    support = [(start, Fraction(1))]
    while True:
        if len(support) == 1:  # a pure vertex: its column is the totals
            own_val, totals = own[support[0][0]], _gather(ip, offs, bases[support[0][0]])
        else:  # one scaled row per atom, summed
            den = lcm(*(p.denominator for _, p in support))
            atoms = [(pos, p.numerator * (den // p.denominator)) for pos, p in support]
            own_val = sum(nm * own[pos] for pos, nm in atoms)
            rows = (map(nm.__mul__, _gather(ip, offs, bases[pos])) for pos, nm in atoms)
            totals = list(map(sum, zip(*rows)))
        peak = max(totals)
        if peak <= own_val:
            return BestResponse._at(kept, player, BeliefKind.CORRELATED, tuple(support))
        # The competitor beats the vertex, where every generated row holds: it
        # is new, so a query makes at most one row per candidate.
        if len(ineqs) == len(cmp.candidates):
            raise RuntimeError(f"row generation passed its bound of {len(ineqs)} rows")
        off = offs[totals.index(peak)]
        ineqs.append(list(map(sub, own, _gather(ip, bases, off))))
        rivals.append(off // stride)
        if len(ineqs) == 2 and (lam := _pair_mixture(ineqs[0], ineqs[1])):
            return NeverBest("lp", ((rivals[0], lam), (rivals[1], 1 - lam)))
        solution = lp_feasible(ineqs, num_vars=n)
        if solution is None:
            return NeverBest("lp")
        support = [(pos, p) for pos, p in enumerate(solution) if p]


@functools.lru_cache(maxsize=64)
def simplex_grid(size: int, resolution: int) -> tuple[tuple[int, ...], ...]:
    """Probability vectors of `size` entries with denominator <= resolution,
    as numerators over lcm(1..resolution): sorted, each vector once."""
    den = lcm(*range(1, resolution + 1))
    return tuple(sorted({  # compositions of d by stars and bars
        tuple((b - a - 1) * (den // d) for a, b in zip((-1,) + bars, bars + (d + size - 1,)))
        for d in range(1, resolution + 1)
        for bars in itertools.combinations(range(d + size - 1), size - 1)
    }))


def _grid_product_witness(
    game: FiniteGame,
    player: int,
    strategy: int,
    kept: Sequence[Sequence[int]],
    cmp: ComparisonSet,
    resolution: int,
) -> ProductBelief | None:
    """The first point of the product of the opponents' grids (the last
    varying fastest) where `strategy` weakly beats every candidate, or None.
    Each candidate's integer payoff row minus the strategy's is contracted
    with each prefix once, so a last-grid point costs one dot per candidate."""
    ip, stride = game.ipay[player], game.strides[player]
    bases, own = game.opponent_bases(player, kept), strategy * stride
    rows = [
        [ip[b + c * stride] - ip[b + own] for b in bases]
        for c in cmp.candidates if c != strategy
    ]
    axes = [kept[j] for j in game.opponents(player)]

    def scan(k: int, rows: list[list[int]], width: int) -> tuple | None:
        grid = simplex_grid(len(axes[k]), resolution)
        if k == len(axes) - 1:
            hits = (nums for nums in grid if all(sum(map(mul, r, nums)) <= 0 for r in rows))
            return next(((nums,) for nums in hits), None)
        width //= len(axes[k])
        for nums in grid:
            cut = [[sum(n * row[i * width + r] for i, n in enumerate(nums) if n)
                    for r in range(width)] for row in rows]
            if (found := scan(k + 1, cut, width)) is not None:
                return (nums,) + found
        return None

    if (found := scan(0, rows, len(bases))) is None:
        return None
    return ProductBelief(tuple(
        tuple((s, Fraction(n, sum(nums))) for s, n in zip(axis, nums) if n)
        for axis, nums in zip(axes, found)
    ))


class OracleCache:
    """Memo of oracle answers for one game and one belief kind.

    Soundness: both answers are monotone in the query.  A witness belief
    answers any query whose belief set still contains it (its support is
    kept) and whose comparison set lies inside the one it was proved
    against, never a larger one, even where it would still win.  A
    never-best fact answers any query with a larger comparison set and a
    smaller restriction.  A lookup is two mask tests per entry, exactly these
    inclusions, so a hit is the query's own answer and no entry goes stale.

    Sets are bit masks: restrictions and supports as `Restriction.bits`,
    comparison sets as `ComparisonSet.bits` with the strategy's own bit set.
    A strategy ties with itself, so adding it changes no answer; and a
    darrow query, whose comparison set (the target's kept set) lacks the
    strategy, meets the facts a sweep proved against the kept set.  A
    witness entry is `(certificate, support, proved comparison set)`, its
    support taken from the certificate's scan positions without building
    its belief (from the belief of a `BestResponse(belief)`), a never-best
    entry `(comparison set, restriction with the player's own
    strategies added, certificate)`; neither changes once stored.  Each
    (player, strategy) keeps its `DEPTH` newest entries of each type, and the
    newest match answers.  So a never-best proof depends on the cache's
    history: a step of a campaign sharing one cache can carry another
    dominating strategy than a fresh `solve` gives, with the same `render()`,
    which shows the proof's kind only.  A `NeverBest("lp")` settled at two
    rows carries its two-competitor mixture in `dominating`; only proofs of
    three or more rows carry none and rest on the simplex.

    Along one `iterate` run restrictions shrink, and under arrow and darrow
    comparison sets too, so a witness holds until a strategy of its support
    is removed: the residual supports of arc consistency (Lecoutre &
    Hemery, IJCAI 2007) that `reductions.Frontier` watches; `support` is the
    last witness's opponent mask.  A never-best fact holds for the rest of
    the run under every relation (see the `reductions` module docstring).  A
    second game or belief kind is an `InputError`.

    In a symmetric game, two players with `ipay[1]` the transpose of
    `ipay[0]` (decisions read no labels, and no positive scale changes one),
    swapping the players is an automorphism: (player, s) at R has the answer
    of (other player, s) at R transposed.  The first `bind` stores the
    players' common size as `width` (0 if not symmetric), and a lookup that
    misses the own entries tries the other player's against the restriction
    with its two blocks swapped.  A hit returns the stored certificate
    itself: a witness is a belief over 1-tuples of opponent strategies,
    built alike for either player, and a never-best mixture names own
    strategies.  Only `support` is swapped back; nothing swapped is stored.

    `sweeps` is `iterate`'s sweep table: per (relation, resolution), a swept
    restriction's bits map to its removable mask shifted left once, bit 0 set
    if an answer was inconclusive.  Never-best answers are exact, so no memo
    history changes a removable set; `Inconclusive` depends on the resolution.

    `steps` is `iterate`'s transition table: per (relation, resolution),
    `(restriction bits, chosen pairs)` maps to the `Step` a run took there.
    Verdicts are exact, so the step a key names is a function of the key.
    Only its never-best proofs are those of its first build, which
    `render()` does not show.  An entry lives while the trace
    that first took it does: `iterate` adds a run's new steps once its
    `Trace` exists, and a finalizer on that trace drops them.  `full` is the
    bound game's full restriction, built at the first `bind`.
    """

    __slots__ = (
        "kind", "game", "full", "width", "witnesses", "never_best", "support", "sweeps",
        "steps",
    )

    DEPTH = 8

    def __init__(self, kind: BeliefKind) -> None:
        self.kind = kind
        self.game: FiniteGame | None = None
        self.full: Restriction | None = None
        self.width = 0
        self.witnesses: dict[tuple[int, int], list[tuple]] = {}
        self.never_best: dict[tuple[int, int], list[tuple]] = {}
        self.support = 0
        self.sweeps: dict[tuple, dict[int, int]] = {}
        self.steps: dict[tuple, dict[tuple, object]] = {}

    def bind(self, game: FiniteGame, kind: BeliefKind) -> None:
        if kind is not self.kind:
            raise InputError("oracle cache bound to a different belief kind")
        if self.game is None:
            self.game, self.full = game, full_restriction(game)
            n, ip = game.sizes[0], game.ipay
            if game.sizes == (n, n) and all(
                ip[0][s * n : (s + 1) * n] == ip[1][s::n] for s in range(n)
            ):
                self.width = n
        elif self.game is not game and self.game != game:
            raise InputError("oracle cache bound to a different game")

    def lookup(
        self, player: int, strategy: int, restriction_bits: int, cmp: ComparisonSet
    ) -> Certificate | None:
        """A remembered answer to the query, or None.  The query's opponent
        components must all be non-empty (an empty one is `EmptyBeliefSet`)."""
        key, bits, n = (player, strategy), restriction_bits, self.width
        cmp_bits = cmp.bits | 1 << strategy
        while True:
            for cert, support, proved in self.witnesses.get(key, ()):
                if not support & ~bits and not cmp_bits & ~proved:
                    self.support = support if key[0] == player else _swap(support, n)
                    return cert
            for known_cmp, known_bits, cert in self.never_best.get(key, ()):
                if not known_cmp & ~cmp_bits and not bits & ~known_bits:
                    return cert
            if not n or key[0] != player:
                return None
            # the other player's entries, asked the query with the players swapped
            key, bits = (1 - player, strategy), _swap(restriction_bits, n)

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
        cmp_bits = cmp.bits | 1 << strategy
        if isinstance(cert, BestResponse):
            support = 0
            if cert._scan is None:
                for profile in cert.witness.support():
                    for j, t in zip(game.opponents(player), profile):
                        support |= 1 << (offsets[j] + t)
            else:  # `_nth_opponent_profile`'s walk, inline: no belief, no tuples
                kept, atoms = cert._scan[0], cert._scan[3]
                for pos, _ in atoms:
                    for j in range(len(kept) - 1, -1, -1):
                        if j != player:
                            pos, r = divmod(pos, len(kept[j]))
                            support |= 1 << (offsets[j] + kept[j][r])
            self.support = support
            entries = self.witnesses.setdefault((player, strategy), [])
            entries.insert(0, (cert, support, cmp_bits))
        elif isinstance(cert, NeverBest):
            entries = self.never_best.setdefault((player, strategy), [])
            entries.insert(0, (cmp_bits, restriction_bits | game.bit_masks[player], cert))
        else:
            return
        del entries[self.DEPTH :]


def _swap(bits: int, n: int) -> int:
    """Two-player restriction bits with the players' n-bit blocks swapped."""
    return bits >> n | (bits & (1 << n) - 1) << n


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
        return BestResponse._at(kept, player, kind, ((0, _ONE),))
    ip = game.ipay[player]
    own_off = strategy * game.strides[player]
    own = _gather(ip, bases, own_off)
    best = colmax if colmax is not None else _column_best(game, player, bases, cmp)
    hits = list(map(ge, own, best))
    if True in hits:
        return BestResponse._at(kept, player, kind, ((hits.index(True), _ONE),))
    if kind is BeliefKind.PURE:
        return NeverBest("exhaustive")

    cert = _correlated_certificate(game, player, kept, cmp, bases, own)
    if kind is BeliefKind.CORRELATED or isinstance(cert, NeverBest):
        return cert
    if game.players == 2:
        return BestResponse._at(kept, player, kind, cert._scan[3])
    witness = _grid_product_witness(game, player, strategy, kept, cmp, resolution)
    return BestResponse(witness) if witness is not None else Inconclusive(resolution)
