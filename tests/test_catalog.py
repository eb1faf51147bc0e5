"""Catalog games: closed-form payoffs, deviation notes, round-trips."""

import itertools
from fractions import Fraction

import pytest

from nbrelim.catalog import (
    CATALOG,
    bertrand_grid,
    catalog_entry,
    catalog_names,
    chase_3p,
    gap_3x2,
    hotelling_grid,
    naturals_truncated,
    random_game,
)
from nbrelim.games import InputError, parse_game, render_game

from oracles import brute_pure_nash, replay_fast_pure


class TestGap3x2:
    def test_payoff_matrix(self):
        g = gap_3x2()
        assert g.labels == (("T", "M", "B"), ("L", "R"))
        want = {
            ("T", "L"): (2, 0), ("T", "R"): (2, 0),
            ("M", "L"): (0, 0), ("M", "R"): (1, 0),
            ("B", "L"): (1, 0), ("B", "R"): (0, 0),
        }
        for (r, c), (p1, p2) in want.items():
            profile = (g.index_of(0, r), g.index_of(1, c))
            assert g.payoff(profile, 0) == p1
            assert g.payoff(profile, 1) == p2


class TestBertrand:
    def test_formula_examples(self):
        g = bertrand_grid(100)
        idx = lambda v: v - 1
        assert g.payoff((idx(50), idx(60)), 0) == 2500
        assert g.payoff((idx(50), idx(50)), 0) == 1250
        assert g.payoff((idx(60), idx(50)), 0) == 0
        assert g.payoff((idx(49), idx(50)), 0) == 2499

    def test_whole_tensor_matches_formula(self):
        g = bertrand_grid(30)
        for i in range(30):
            for j in range(30):
                me, other = i + 1, j + 1
                if me < other:
                    want = Fraction(me * (100 - me))
                elif me == other:
                    want = Fraction(me * (100 - me), 2)
                else:
                    want = Fraction(0)
                assert g.payoff((i, j), 0) == want
                assert g.payoff((j, i), 1) == want

    def test_minimum_size(self):
        with pytest.raises(InputError):
            bertrand_grid(1)


class TestHotelling:
    def test_formula_examples(self):
        g = hotelling_grid(99)
        idx = lambda v: v - 1
        assert g.payoff((idx(49), idx(50)), 0) == Fraction(99, 2)
        assert g.payoff((idx(50), idx(50)), 0) == 50
        assert g.payoff((idx(51), idx(50)), 0) == Fraction(99, 2)

    def test_whole_tensor_matches_formula(self):
        g = hotelling_grid(25)
        for i in range(25):
            for j in range(25):
                me, other = i + 1, j + 1
                if me < other:
                    want = Fraction(me) + Fraction(other - me, 2)
                elif me > other:
                    want = Fraction(100 - me) + Fraction(me - other, 2)
                else:
                    want = Fraction(50)
                assert g.payoff((i, j), 0) == want

    def test_size_bounds(self):
        with pytest.raises(InputError):
            hotelling_grid(1)
        with pytest.raises(InputError):
            hotelling_grid(100)


class TestNaturals:
    def test_payoff_is_own_pick(self):
        g = naturals_truncated(9)
        assert g.payoff((3, 7), 0) == 3
        assert g.payoff((3, 7), 1) == 7

    def test_fast_outcome_and_nash(self):
        g = naturals_truncated(5)
        history, outcome = replay_fast_pure(g)
        assert len(history) == 1
        assert outcome == ((5,), (5,))
        assert brute_pure_nash(g) == {(5, 5)}


class TestChase3p:
    def test_payoff_rules(self):
        g = chase_3p(9)
        assert g.payoff((3, 2, 9), 0) == 3  # one above the chased pick
        assert g.payoff((3, 3, 1), 0) == 0
        assert g.payoff((4, 4, 0), 1) == 4  # matching pays the matched value
        assert g.payoff((4, 5, 0), 1) == 0
        for profile in [(0, 0, 0), (3, 2, 9), (9, 9, 9)]:
            assert g.payoff(profile, 2) == 0

    def test_truncated_game_is_already_a_fixed_point(self):
        # at the cap the successor payoff is unrealizable, so against the
        # belief (cap, anything) every strategy ties at zero and survives
        g = chase_3p(6)
        history, outcome = replay_fast_pure(g)
        assert history == []
        assert outcome == (tuple(range(7)),) * 3


class TestRegistry:
    def test_names(self):
        assert catalog_names() == sorted(CATALOG)
        assert {"gap3x2", "bertrand100", "hotelling99", "naturals5", "chase3p6"} <= set(
            catalog_names()
        )

    def test_unknown_name(self):
        with pytest.raises(InputError):
            catalog_entry("nope")

    def test_discretized_entries_carry_deviation_notes(self):
        for name in ("bertrand100", "hotelling99", "naturals5", "chase3p6"):
            assert catalog_entry(name).deviation_note

    def test_every_entry_round_trips_bit_exactly(self):
        for name in catalog_names():
            entry = catalog_entry(name)
            game = entry.game()
            assert parse_game(render_game(game)) == game
            # the emitted form carries the notes as comments and parses back
            assert parse_game(entry.emit()) == game


class TestRandomGame:
    def test_same_seed_same_tensor(self):
        a = random_game(2, [3, 4], 7, seed=5)
        b = random_game(2, [3, 4], 7, seed=5)
        assert a == b
        assert a != random_game(2, [3, 4], 7, seed=6)

    def test_single_profile_game(self):
        g = random_game(2, [1, 1], 5, seed=1)
        history, outcome = replay_fast_pure(g)
        assert history == []
        assert outcome == ((0,), (0,))

    def test_bounds_respected(self):
        g = random_game(3, [2, 2, 2], 3, seed=9)
        for profile in itertools.product(range(2), repeat=3):
            for i in range(3):
                q = g.payoff(profile, i)
                assert -3 <= q <= 3 and q.denominator == 1

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            random_game(2, [3], 5, seed=0)
        with pytest.raises(InputError):
            random_game(2, [0, 2], 5, seed=0)
