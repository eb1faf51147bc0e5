"""belief layer: expected payoff, narrowing membership, pure enumeration."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nbrelim.beliefs import (
    BeliefKind,
    DistributionBelief,
    ProductBelief,
    PurePoint,
    as_product,
    expected_payoff,
    render_belief,
)
from nbrelim.catalog import chase_3p, gap_3x2
from nbrelim.games import (
    FiniteGame,
    InputError,
    full_restriction,
    restrict,
    restrict_by_labels,
)

from oracles import as_distribution, enumerate_pure_beliefs, narrowed_membership


@pytest.fixture(scope="module")
def g():
    return gap_3x2()


class TestExpectedPayoff:
    def test_pure_point_is_lookup(self, g):
        assert expected_payoff(g, 0, 0, PurePoint((0,))) == 2

    def test_point_mass_distribution_equals_payoff(self, g):
        mu = DistributionBelief((((1,), Fraction(1)),))
        assert expected_payoff(g, 0, 2, mu) == g.payoff((2, 1), 0)

    def test_half_half_mix(self, g):
        mu = DistributionBelief(
            (((0,), Fraction(1, 2)), ((1,), Fraction(1, 2)))
        )
        assert expected_payoff(g, 0, 1, mu) == Fraction(1, 2)

    def test_product_expands_lazily(self):
        g3 = chase_3p(3)
        mu = ProductBelief(
            (
                ((1, Fraction(1, 2)), (2, Fraction(1, 2))),
                ((0, Fraction(1)),),
            )
        )
        # player 1 plays 2: pays 2 when player 2 picked 1, else 0
        assert expected_payoff(g3, 0, 2, mu) == Fraction(1)

    def test_fractional_payoffs_divide_by_the_scale(self):
        # payoffs with mixed denominators are stored scaled to integers; the
        # expected payoff must equal the plain Fraction sum over the atoms
        rng = random.Random(3)
        game = FiniteGame.from_function(
            [["a", "b"], ["c", "d", "e"], ["f", "g"]],
            lambda p: tuple(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5])) for _ in p),
        )
        half, third = Fraction(1, 2), Fraction(1, 3)
        beliefs = [
            PurePoint((2, 1)),
            ProductBelief((((0, third), (1, 1 - third)), ((0, half), (1, half)))),
            DistributionBelief((((0, 0), third), ((2, 1), 1 - third))),
        ]
        for mu in beliefs:
            atoms = as_distribution(mu).mass
            for s in range(2):
                want = sum(p * game.payoff((s,) + pr, 0) for pr, p in atoms)
                assert expected_payoff(game, 0, s, mu) == want

    def test_support_outside_game_is_error(self, g):
        with pytest.raises(InputError):
            expected_payoff(g, 0, 0, PurePoint((5,)))
        with pytest.raises(InputError):
            expected_payoff(g, 0, 0, PurePoint((0, 0)))

    def test_probabilities_validated(self):
        with pytest.raises(InputError):
            DistributionBelief((((0,), Fraction(1, 2)),))
        with pytest.raises(InputError):
            DistributionBelief((((0,), Fraction(-1)), ((1,), Fraction(2))))
        with pytest.raises(InputError):
            ProductBelief((((0, Fraction(1, 3)),),))

    @given(alpha=st.fractions(min_value=0, max_value=1))
    @settings(max_examples=40)
    def test_linearity_in_the_belief(self, alpha):
        g = gap_3x2()
        mu = DistributionBelief((((0,), Fraction(1)),))
        nu = DistributionBelief((((1,), Fraction(1)),))
        atoms = []
        if alpha > 0:
            atoms.append(((0,), alpha))
        if alpha < 1:
            atoms.append(((1,), 1 - alpha))
        blend = DistributionBelief(tuple(atoms))
        for s in range(3):
            assert expected_payoff(g, 0, s, blend) == alpha * expected_payoff(
                g, 0, s, mu
            ) + (1 - alpha) * expected_payoff(g, 0, s, nu)

    def test_kind_containment_preserves_value(self, g):
        pure = PurePoint((1,))
        prod = as_product(pure)
        dist = as_distribution(prod)
        for s in range(3):
            assert (
                expected_payoff(g, 0, s, pure)
                == expected_payoff(g, 0, s, prod)
                == expected_payoff(g, 0, s, dist)
            )


class TestNarrowing:
    def test_pure_membership(self, g):
        sub = restrict_by_labels(g, [["M", "B"], ["L", "R"]])
        assert narrowed_membership(BeliefKind.PURE, PurePoint((0,)), sub, 0)
        only_l = restrict_by_labels(g, [["M", "B"], ["L"]])
        assert not narrowed_membership(BeliefKind.PURE, PurePoint((1,)), only_l, 0)

    def test_distribution_membership(self, g):
        only_l = restrict_by_labels(g, [["T"], ["L"]])
        mu = DistributionBelief(
            (((0,), Fraction(1, 3)), ((1,), Fraction(2, 3)))
        )
        assert not narrowed_membership(BeliefKind.CORRELATED, mu, only_l, 0)
        inside = DistributionBelief((((0,), Fraction(1)),))
        assert narrowed_membership(BeliefKind.CORRELATED, inside, only_l, 0)

    def test_product_membership_per_factor(self):
        g3 = chase_3p(2)
        sub = restrict(g3, [(0, 1, 2), (0, 1), (0,)])
        ok = ProductBelief((((0, Fraction(1)),), ((0, Fraction(1)),)))
        bad = ProductBelief((((2, Fraction(1)),), ((0, Fraction(1)),)))
        assert narrowed_membership(BeliefKind.INDEPENDENT_MIXED, ok, sub, 0)
        assert not narrowed_membership(BeliefKind.INDEPENDENT_MIXED, bad, sub, 0)

    def test_kind_mismatch_is_error_not_false(self, g):
        sub = full_restriction(g)
        with pytest.raises(InputError):
            narrowed_membership(BeliefKind.CORRELATED, PurePoint((0,)), sub, 0)
        with pytest.raises(InputError):
            narrowed_membership(
                BeliefKind.PURE,
                DistributionBelief((((0,), Fraction(1)),)),
                sub,
                0,
            )

    @given(
        rows=st.sets(st.integers(0, 2), min_size=1, max_size=3),
        cols_small=st.sets(st.integers(0, 1), min_size=1, max_size=2),
        extra=st.sets(st.integers(0, 1), max_size=2),
        point=st.integers(0, 1),
        weight=st.fractions(min_value=0, max_value=1),
    )
    @settings(max_examples=60)
    def test_monotone_in_the_restriction(self, rows, cols_small, extra, point, weight):
        # membership in a smaller restriction implies membership in a larger one
        g = gap_3x2()
        small = restrict(g, [tuple(rows), tuple(cols_small)])
        big = restrict(g, [tuple(rows), tuple(cols_small | extra)])
        mu = PurePoint((point,))
        if narrowed_membership(BeliefKind.PURE, mu, small, 0):
            assert narrowed_membership(BeliefKind.PURE, mu, big, 0)
        atoms = []
        if weight > 0:
            atoms.append(((0,), weight))
        if weight < 1:
            atoms.append(((1,), 1 - weight))
        dist = DistributionBelief(tuple(atoms))
        if narrowed_membership(BeliefKind.CORRELATED, dist, small, 0):
            assert narrowed_membership(BeliefKind.CORRELATED, dist, big, 0)


class TestEnumeration:
    def test_columns_in_order(self, g):
        sub = restrict_by_labels(g, [["M", "B"], ["L", "R"]])
        assert enumerate_pure_beliefs(sub, 0) == [PurePoint((0,)), PurePoint((1,))]

    def test_single_opponent_strategy(self, g):
        sub = restrict_by_labels(g, [["T"], ["R"]])
        assert enumerate_pure_beliefs(sub, 0) == [PurePoint((1,))]

    def test_empty_opponent_component(self, g):
        sub = restrict(g, [(0, 1), ()])
        assert enumerate_pure_beliefs(sub, 0) == []

    def test_three_player_lexicographic(self):
        g3 = chase_3p(2)
        sub = restrict(g3, [(0,), (0, 1), (1, 2)])
        got = enumerate_pure_beliefs(sub, 0)
        assert [mu.profile for mu in got] == [(0, 1), (0, 2), (1, 1), (1, 2)]


class TestRendering:
    def test_pure(self, g):
        assert render_belief(g, 0, PurePoint((0,))) == "pure(L)"
        assert render_belief(g, 1, PurePoint((2,))) == "pure(B)"

    def test_product(self, g):
        mu = ProductBelief((((0, Fraction(1, 2)), (1, Fraction(1, 2))),))
        assert render_belief(g, 0, mu) == "prod([L:1/2,R:1/2])"

    def test_distribution(self, g):
        mu = DistributionBelief(
            (((0,), Fraction(1, 4)), ((1,), Fraction(3, 4)))
        )
        assert render_belief(g, 0, mu) == "dist[(L):1/4,(R):3/4]"

    def test_three_player_distribution(self):
        g3 = chase_3p(2)
        mu = DistributionBelief((((1, 2), Fraction(1)),))
        assert render_belief(g3, 0, mu) == "dist[(1,2):1]"
