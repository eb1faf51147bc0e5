"""Certified best-response and never-best-response decisions.

One oracle serves all three reduction relations: the comparison set picks the
reference point (full strategy set, current kept set, or proposed kept set),
and the belief kind picks the search space.  Pure beliefs are decided by
exhaustive scan, correlated beliefs by exact rational LP feasibility with
constraint-row generation, independent mixed beliefs by delegation (two
players) or a verified simplex-grid search (three or more).

Every `BestResponse` certificate carries a witness belief that re-verifies by
direct expected-payoff comparison.  `NeverBest` is only ever returned with an
exact proof; grid searches that find nothing surface `Inconclusive` instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence, Union

from .beliefs import (
    Belief,
    BeliefKind,
    DistributionBelief,
    ProductBelief,
    PurePoint,
    as_product,
    expected_payoff,
    point_distribution,
)
from .games import FiniteGame, InputError, Restriction
from .simplex import lp_feasible

DEFAULT_GRID_RESOLUTION = 8


@dataclass(frozen=True)
class ComparisonSet:
    """The own strategies a candidate best response must weakly beat."""

    player: int
    candidates: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(sorted(set(self.candidates))))


def full_comparison(game: FiniteGame, player: int) -> ComparisonSet:
    return ComparisonSet(player, tuple(range(game.sizes[player])))


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
    from .beliefs import render_belief

    if isinstance(cert, BestResponse):
        return f"BR(witness={render_belief(game, player, cert.witness)})"
    if isinstance(cert, NeverBest):
        tag = "exhaustive" if cert.proof == "exhaustive" else "lp"
        return f"NBR({tag})"
    if isinstance(cert, Inconclusive):
        return f"INCONCLUSIVE(res={cert.resolution})"
    return "NBR(vacuous)"


class OracleCache:
    """Optional cross-call memo for one (game, belief kind) pair.

    Witnesses are re-verified against the query before reuse, so a stale entry
    can cost time but never soundness.  Never-best facts are reused only for
    queries with a larger comparison set and a smaller belief support, which
    the monotonicity of the definitions makes sound.  A cache is bound to one
    belief kind: never-best facts do not transfer between kinds.
    """

    __slots__ = ("kind", "witnesses", "nbr_facts")

    def __init__(self, kind: BeliefKind) -> None:
        self.kind = kind
        self.witnesses: dict[tuple[int, int], list] = {}
        self.nbr_facts: dict[tuple[int, int], list] = {}

    def remember_witness(self, player: int, strategy: int, payload) -> None:
        entries = self.witnesses.setdefault((player, strategy), [])
        if payload not in entries:
            entries.insert(0, payload)
            del entries[8:]

    def remember_nbr(self, player: int, strategy: int, cmp_set, support_sets) -> None:
        entries = self.nbr_facts.setdefault((player, strategy), [])
        entries.insert(0, (cmp_set, support_sets))
        del entries[8:]

    def nbr_covered(self, player: int, strategy: int, cmp_set, support_sets) -> bool:
        for known_cmp, known_supp in self.nbr_facts.get((player, strategy), ()):
            if known_cmp <= cmp_set and all(
                s <= k for s, k in zip(support_sets, known_supp)
            ):
                return True
        return False


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
    ip = game._ipay[player]
    stride = game.strides[player]
    own = sum(n * ip[b + strategy * stride] for b, n in zip(bases, numerators))
    if len(cmp.candidates) == game.sizes[player]:
        # Against the full comparison set the column-best table gives an upper
        # bound on every competitor; exact for single-atom beliefs.
        col = game._colmax[player]
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


def _distribution_int_form(
    game: FiniteGame, player: int, mu: Belief
) -> tuple[list[int], list[int]]:
    """(tensor bases, common-denominator numerators) for any belief."""
    if isinstance(mu, PurePoint):
        return [game.profile_base(player, mu.profile)], [1]
    if isinstance(mu, ProductBelief):
        atoms = list(mu.atoms())
    else:
        atoms = list(mu.mass)
    den = lcm(*(p.denominator for _, p in atoms))
    bases = [game.profile_base(player, pr) for pr, _ in atoms]
    nums = [p.numerator * (den // p.denominator) for _, p in atoms]
    return bases, nums


def _cached_witness(
    game: FiniteGame,
    player: int,
    strategy: int,
    kept_sets: Sequence[frozenset],
    cmp: ComparisonSet,
    cache: OracleCache | None,
):
    """Return a still-valid cached witness payload, or None."""
    if cache is None:
        return None
    for payload in cache.witnesses.get((player, strategy), ()):
        _, bases, nums, per_opp_support = payload
        if not all(s <= k for s, k in zip(per_opp_support, kept_sets)):
            continue
        if _int_witness_check(game, player, strategy, bases, nums, cmp):
            return payload
    return None


def _witness_payload(game: FiniteGame, player: int, mu: Belief):
    bases, nums = _distribution_int_form(game, player, mu)
    support = mu.support()
    per_opp = tuple(
        frozenset(profile[k] for profile in support)
        for k in range(game.players - 1)
    )
    return (mu, bases, nums, per_opp)


def _column_best(
    game: FiniteGame, player: int, bases: Sequence[int], cmp: ComparisonSet
) -> list[int]:
    """Best integer payoff over the comparison candidates, per opponent column."""
    stride = game.strides[player]
    ip = game._ipay[player]
    full = len(cmp.candidates) == game.sizes[player]
    if full:
        col = game._colmax[player]
        return [col[b] for b in bases]
    offs = [c * stride for c in cmp.candidates]
    return [max(ip[b + o] for o in offs) for b in bases]


def _pure_certificate(
    game: FiniteGame,
    player: int,
    strategy: int,
    kept: Sequence[Sequence[int]],
    cmp: ComparisonSet,
    colmax: Sequence[int] | None = None,
) -> Certificate:
    """Exhaustive scan over the pure beliefs drawn from `kept`."""
    bases = game.opponent_bases(player, kept)
    if not bases or any(
        not kept[j] for j in range(game.players) if j != player
    ):
        return EmptyBeliefSet()
    ip = game._ipay[player]
    stride = game.strides[player]
    own_off = strategy * stride
    if not cmp.candidates:
        profile = next(iter(game.opponent_profiles(player, kept)))
        return BestResponse(PurePoint(profile))
    best = colmax if colmax is not None else _column_best(game, player, bases, cmp)
    for pos, b in enumerate(bases):
        if ip[b + own_off] >= best[pos]:
            profile = _nth_opponent_profile(game, player, kept, pos)
            return BestResponse(PurePoint(profile))
    return NeverBest("exhaustive")


def _nth_opponent_profile(
    game: FiniteGame, player: int, kept: Sequence[Sequence[int]], pos: int
) -> tuple[int, ...]:
    axes = [kept[j] for j in range(game.players) if j != player]
    profile = []
    for axis in reversed(axes):
        pos, r = divmod(pos, len(axis))
        profile.append(axis[r])
    return tuple(reversed(profile))


def _correlated_certificate(
    game: FiniteGame,
    player: int,
    strategy: int,
    kept: Sequence[Sequence[int]],
    cmp: ComparisonSet,
    colmax: Sequence[int] | None = None,
) -> Certificate:
    """Exact decision over all correlated beliefs supported on `kept`.

    Strategy: cheap pure-witness and pure-domination scans first, then LP
    feasibility over the belief simplex, generating comparison-constraint rows
    lazily (the binding competitors are found by scanning violations at the
    current vertex, over its support only).  A sub-LP infeasibility already
    proves infeasibility of the full system.
    """
    opps = game.opponents(player)
    if any(not kept[j] for j in opps):
        return EmptyBeliefSet()
    bases = game.opponent_bases(player, kept)
    ip = game._ipay[player]
    stride = game.strides[player]
    own_off = strategy * stride
    own = [ip[b + own_off] for b in bases]

    if not cmp.candidates:
        profile = next(iter(game.opponent_profiles(player, kept)))
        return BestResponse(point_distribution(profile))

    best = colmax if colmax is not None else _column_best(game, player, bases, cmp)
    for pos in range(len(bases)):
        if own[pos] >= best[pos]:
            profile = _nth_opponent_profile(game, player, kept, pos)
            return BestResponse(point_distribution(profile))

    # Pure strict domination on the whole support settles the question early.
    for other in cmp.candidates:
        if other == strategy:
            continue
        off = other * stride
        if all(ip[b + off] > o for b, o in zip(bases, own)):
            return NeverBest("dominated", ((other, Fraction(1)),))

    n = len(bases)
    ineqs: list[tuple[list[int], int]] = []
    # Start from the column where the strategy does best.  A vertex has at
    # most len(ineqs) + 1 nonzeros: `support` lists them as (position, mass).
    support = [(max(range(n), key=lambda pos: (own[pos], -pos)), Fraction(1))]
    while True:
        den = lcm(*(p.denominator for _, p in support))
        atoms = [
            (bases[pos], p.numerator * (den // p.denominator)) for pos, p in support
        ]
        own_val = sum(nm * ip[b + own_off] for b, nm in atoms)
        worst = None
        worst_gap = 0
        for other in cmp.candidates:
            off = other * stride
            gap = sum(nm * ip[b + off] for b, nm in atoms) - own_val
            if gap > worst_gap:
                worst_gap = gap
                worst = other
        if worst is None:
            return BestResponse(
                DistributionBelief(
                    tuple(
                        (_nth_opponent_profile(game, player, kept, pos), p)
                        for pos, p in support
                    )
                )
            )
        off = worst * stride
        ineqs.append(([o - ip[b + off] for o, b in zip(own, bases)], 0))
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
        bases, nums = _distribution_int_form(game, player, mu)
        if _int_witness_check(game, player, strategy, bases, nums, cmp):
            return mu
    return None


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
    return _find_witness_fast(
        game, restriction.kept, player, strategy, kind, cmp, resolution, cache
    )


def _find_witness_fast(
    game: FiniteGame,
    kept: Sequence[Sequence[int]],
    player: int,
    strategy: int,
    kind: BeliefKind,
    cmp: ComparisonSet,
    resolution: int,
    cache: OracleCache | None,
    colmax: Sequence[int] | None = None,
) -> Certificate:
    opps = game.opponents(player)
    if any(not kept[j] for j in opps):
        return EmptyBeliefSet()

    if cache is not None and cache.kind is not kind:
        raise InputError("oracle cache bound to a different belief kind")
    kept_sets = tuple(frozenset(kept[j]) for j in opps)
    payload = _cached_witness(game, player, strategy, kept_sets, cmp, cache)
    if payload is not None:
        return BestResponse(payload[0])
    cmp_set = frozenset(cmp.candidates)
    exact = kind is not BeliefKind.INDEPENDENT_MIXED or game.players == 2
    if (
        cache is not None
        and exact
        and cache.nbr_covered(player, strategy, cmp_set, kept_sets)
    ):
        return NeverBest("lp" if kind is not BeliefKind.PURE else "exhaustive")

    if kind is BeliefKind.PURE:
        cert = _pure_certificate(game, player, strategy, kept, cmp, colmax)
    elif kind is BeliefKind.CORRELATED:
        cert = _correlated_certificate(game, player, strategy, kept, cmp, colmax)
    elif game.players == 2:
        # One opponent: products of mixed strategies and correlated
        # distributions are the same belief set.
        cert = _correlated_certificate(game, player, strategy, kept, cmp, colmax)
        if isinstance(cert, BestResponse):
            atoms = tuple((profile[0], p) for profile, p in cert.witness.mass)
            cert = BestResponse(ProductBelief((atoms,)))
    else:
        cert = _pure_certificate(game, player, strategy, kept, cmp, colmax)
        if isinstance(cert, BestResponse):
            cert = BestResponse(as_product(cert.witness))
        elif isinstance(cert, NeverBest):
            # Independent mixed beliefs sit inside the correlated set, so a
            # correlated never-best proof covers them exactly.
            corr = _correlated_certificate(
                game, player, strategy, kept, cmp, colmax
            )
            if isinstance(corr, NeverBest):
                cert = corr
            else:
                witness = _grid_product_witness(
                    game, player, strategy, kept, cmp, resolution
                )
                cert = (
                    BestResponse(witness)
                    if witness is not None
                    else Inconclusive(resolution)
                )

    if cache is not None:
        if isinstance(cert, BestResponse):
            cache.remember_witness(
                player, strategy, _witness_payload(game, player, cert.witness)
            )
        elif isinstance(cert, NeverBest) and exact:
            cache.remember_nbr(player, strategy, cmp_set, kept_sets)
    return cert
