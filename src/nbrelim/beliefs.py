"""Belief systems over opponents and exact expected payoff.

Three belief kinds are supported for a player in a finite game: a pure joint
opponent profile, an independent product of opponent mixed strategies, and a
correlated distribution over joint opponent profiles.  A belief set narrowed
to a restriction is never materialized: the oracle reads the kept opponent
strategies directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

from .games import (
    FiniteGame,
    InputError,
    JointProfile,
    Rational,
    render_rational,
)


class BeliefKind(Enum):
    PURE = "pure"
    INDEPENDENT_MIXED = "mixed"
    CORRELATED = "correlated"


@dataclass(frozen=True)
class PurePoint:
    """A single joint opponent profile, in ascending opponent-player order."""

    profile: JointProfile

    def support(self) -> tuple[JointProfile, ...]:
        return (self.profile,)


@dataclass(frozen=True)
class ProductBelief:
    """One mixed strategy per opponent; the joint measure is their product.

    factors[k] lists (strategy, probability) pairs for the k-th opponent in
    ascending player order, sorted by strategy, positive probabilities only.
    """

    factors: tuple[tuple[tuple[int, Fraction], ...], ...]

    def __post_init__(self) -> None:
        for factor in self.factors:
            if not factor:
                raise InputError("empty mixed-strategy factor")
            strategies = [s for s, _ in factor]
            if strategies != sorted(set(strategies)):
                raise InputError("factor entries must be sorted and distinct")
            if any(p <= 0 for _, p in factor):
                raise InputError("factor probabilities must be positive")
            if sum(p for _, p in factor) != 1:
                raise InputError("factor probabilities must sum to 1")

    def support(self) -> tuple[JointProfile, ...]:
        axes = [[s for s, _ in factor] for factor in self.factors]
        return tuple(itertools.product(*axes))

    def atoms(self) -> Iterable[tuple[JointProfile, Fraction]]:
        """Lazy expansion of the product measure."""
        for combo in itertools.product(*self.factors):
            profile = tuple(s for s, _ in combo)
            prob = Fraction(1)
            for _, p in combo:
                prob *= p
            yield profile, prob


@dataclass(frozen=True)
class DistributionBelief:
    """A correlated distribution over joint opponent profiles.

    `mass` lists (profile, probability) pairs sorted by profile, positive
    probabilities only, summing to 1.
    """

    mass: tuple[tuple[JointProfile, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.mass:
            raise InputError("empty distribution")
        profiles = [pr for pr, _ in self.mass]
        if profiles != sorted(set(profiles)):
            raise InputError("distribution atoms must be sorted and distinct")
        if any(p <= 0 for _, p in self.mass):
            raise InputError("distribution probabilities must be positive")
        if sum(p for _, p in self.mass) != 1:
            raise InputError("distribution probabilities must sum to 1")

    def support(self) -> tuple[JointProfile, ...]:
        return tuple(pr for pr, _ in self.mass)


Belief = Union[PurePoint, ProductBelief, DistributionBelief]


def point_distribution(profile: JointProfile) -> DistributionBelief:
    return DistributionBelief(((tuple(profile), Fraction(1)),))


def as_product(mu: Belief) -> ProductBelief:
    """Lift a pure point to the equivalent product belief."""
    if isinstance(mu, ProductBelief):
        return mu
    if isinstance(mu, PurePoint):
        return ProductBelief(tuple(((s, Fraction(1)),) for s in mu.profile))
    raise InputError("a correlated belief has no product form in general")


def _check_shape(game: FiniteGame, player: int, mu: Belief) -> None:
    opps = game.opponents(player)
    if isinstance(mu, ProductBelief):
        if len(mu.factors) != len(opps):
            raise InputError("belief has wrong number of opponent factors")
        for j, factor in zip(opps, mu.factors):
            for s, _ in factor:
                if not 0 <= s < game.sizes[j]:
                    raise InputError(f"belief strategy {s} out of range for player {j + 1}")
        return
    for profile in mu.support():
        if len(profile) != len(opps):
            raise InputError("belief profile has wrong arity")
        for j, s in zip(opps, profile):
            if not 0 <= s < game.sizes[j]:
                raise InputError(f"belief strategy {s} out of range for player {j + 1}")


def expected_payoff(
    game: FiniteGame, player: int, strategy: int, mu: Belief
) -> Rational:
    """Exact expected payoff of `strategy` against belief `mu`.

    Pure points reduce to one tensor lookup; product beliefs expand the
    product measure lazily.  The sum runs over the integer tensor with the
    probabilities on a common denominator, and divides once at the end.
    """
    if not 0 <= player < game.players:
        raise InputError(f"player index {player} out of range")
    if not 0 <= strategy < game.sizes[player]:
        raise InputError(f"strategy index {strategy} out of range")
    _check_shape(game, player, mu)
    ip = game.ipay[player]
    scale = game.scales[player]
    off = strategy * game.strides[player]
    if isinstance(mu, PurePoint):
        return Fraction(ip[game.profile_base(player, mu.profile) + off], scale)
    atoms = list(mu.atoms()) if isinstance(mu, ProductBelief) else mu.mass
    den = lcm(*(prob.denominator for _, prob in atoms))
    total = 0
    for profile, prob in atoms:
        weight = prob.numerator * (den // prob.denominator)
        total += weight * ip[game.profile_base(player, profile) + off]
    return Fraction(total, den * scale)


def render_belief(game: FiniteGame, player: int, mu: Belief) -> str:
    """Deterministic text form: pure(...), prod([...];[...]), dist[...]."""
    opps = game.opponents(player)
    if isinstance(mu, PurePoint):
        labs = ",".join(game.label_of(j, s) for j, s in zip(opps, mu.profile))
        return f"pure({labs})"
    if isinstance(mu, ProductBelief):
        factors = []
        for j, factor in zip(opps, mu.factors):
            entries = ",".join(
                f"{game.label_of(j, s)}:{render_rational(p)}" for s, p in factor
            )
            factors.append(f"[{entries}]")
        return "prod(" + ";".join(factors) + ")"
    entries = []
    for profile, prob in mu.mass:
        labs = ",".join(game.label_of(j, s) for j, s in zip(opps, profile))
        entries.append(f"({labs}):{render_rational(prob)}")
    return "dist[" + ",".join(entries) + "]"
