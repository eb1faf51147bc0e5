"""Theorem checkers: closure, equilibria, and the campaign functions."""

import json
import random

import pytest

from nbrelim.beliefs import BeliefKind
from nbrelim.catalog import (
    bertrand_grid,
    chase_3p,
    gap_3x2,
    hotelling_grid,
    naturals_truncated,
    random_game,
)
from nbrelim.games import FiniteGame, InputError, full_restriction, restrict, restrict_by_labels
from nbrelim.reductions import ReductionKind
from nbrelim.verification import (
    TheoremReport,
    check_equivalence,
    check_fast_dominance,
    check_kind_monotonicity,
    check_nash_preservation,
    check_oracle_agreement,
    check_order_independence,
    is_closed,
    pure_nash,
    random_restriction,
)

from oracles import brute_pure_nash, is_pure_best_to_some


@pytest.fixture(scope="module")
def g():
    return gap_3x2()


class TestIsClosed:
    def test_outcome_is_closed(self, g):
        assert is_closed(g, restrict_by_labels(g, [["T"], ["L", "R"]]), BeliefKind.PURE)

    def test_empty_game_is_closed(self, g):
        assert is_closed(g, restrict(g, [(), ()]), BeliefKind.PURE)

    def test_subgame_is_not_closed(self, g):
        assert not is_closed(
            g, restrict_by_labels(g, [["M", "B"], ["L", "R"]]), BeliefKind.PURE
        )

    def test_degenerate_nonempty_not_closed(self, g):
        assert not is_closed(g, restrict(g, [(0,), ()]), BeliefKind.PURE)

    def test_unknown_when_inconclusive(self):
        # the pinched-window game: X is best only against the 1/3-2/3 mix
        from fractions import Fraction

        def pay(profile):
            s1, s2, _ = profile
            if s1 == 0:
                return (Fraction(2, 3), 0, 0)
            if s1 == 1:
                return (2 if s2 == 0 else 0, 0, 0)
            return (0 if s2 == 0 else 1, 0, 0)

        game = FiniteGame.from_function([["X", "Y", "Z"], ["H", "T"], ["m"]], pay)
        verdict = is_closed(
            game, full_restriction(game), BeliefKind.INDEPENDENT_MIXED, resolution=2
        )
        assert verdict is None

    def test_restriction_of_another_game_rejected(self, g):
        other = random_game(2, (3, 2), 5, 1)
        for kept in ([(), ()], [(0,), (1,)]):
            with pytest.raises(InputError):
                is_closed(g, restrict(other, kept), BeliefKind.PURE)

    def test_pure_closedness_matches_brute_force(self):
        rng = random.Random(19)
        seen = set()
        for trial in range(40):
            players = 2 + trial % 2
            sizes = [rng.randint(1, 5 - players) for _ in range(players)]
            game = random_game(players, sizes, 2, seed=300 + trial)
            restriction = random_restriction(game, rng, nondegenerate=trial % 4 < 2)
            kept = restriction.kept
            expected = all(
                is_pure_best_to_some(game, i, s, kept)
                for i in range(players)
                for s in kept[i]
            )
            assert is_closed(game, restriction, BeliefKind.PURE) is expected
            seen.add((restriction.is_nondegenerate(), expected))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


class TestPureNash:
    def test_naturals(self):
        game = naturals_truncated(5)
        assert pure_nash(game) == ((5, 5),)

    def test_small_grids_match_brute_force(self):
        for game in (bertrand_grid(15), hotelling_grid(15)):
            assert set(pure_nash(game)) == brute_pure_nash(game)

    def test_constant_game_all_profiles(self):
        game = FiniteGame.from_function([["a", "b"], ["x", "y"]], lambda p: (0, 0))
        assert set(pure_nash(game)) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_matching_pennies_has_none(self):
        table = {
            (0, 0): (1, -1), (0, 1): (-1, 1),
            (1, 0): (-1, 1), (1, 1): (1, -1),
        }
        game = FiniteGame([["H", "T"], ["h", "t"]], table)
        assert pure_nash(game) == ()

    def test_restricted_scan(self, g):
        sub = restrict_by_labels(g, [["M", "B"], ["L", "R"]])
        assert set(pure_nash(sub)) == brute_pure_nash(g, kept=[(1, 2), (0, 1)])

    def test_degenerate_rejected(self, g):
        with pytest.raises(InputError):
            pure_nash(restrict(g, [(), (0,)]))

    def test_random_games_match_brute_force(self):
        rng = random.Random(2)
        for trial in range(25):
            players = rng.choice((2, 3))
            sizes = [rng.randint(1, 3) for _ in range(players)]
            game = random_game(players, sizes, 4, seed=3000 + trial)
            assert set(pure_nash(game)) == brute_pure_nash(game)


class TestCheckers:
    def test_order_independence_gap_game(self, g):
        for bk in (BeliefKind.PURE, BeliefKind.CORRELATED):
            reports = check_order_independence(g, bk, num_orders=12, seed=1)
            assert {r.theorem_id for r in reports} == {
                "order_independence", "largest_closed", "nondegenerate_outcome",
            }
            assert all(r.verdict == "pass" for r in reports)

    def test_order_independence_trivial_game(self):
        game = random_game(2, [1, 1], 3, seed=0)
        reports = check_order_independence(game, BeliefKind.PURE, num_orders=3)
        assert all(r.verdict == "pass" for r in reports)

    def test_order_independence_unknown_for_coarse_mixed_3p(self):
        game = chase_3p(3)
        reports = check_order_independence(
            game, BeliefKind.INDEPENDENT_MIXED, num_orders=2, resolution=2
        )
        assert all(r.verdict in ("pass", "unknown") for r in reports)

    def test_undecided_mixed_3p_never_reports_fail(self):
        # the pinched-window game forces inconclusive certificates at
        # resolution 2, so the checkers must say unknown rather than fail
        from fractions import Fraction

        def pay(profile):
            s1, s2, _ = profile
            if s1 == 0:
                return (Fraction(2, 3), 0, 0)
            if s1 == 1:
                return (2 if s2 == 0 else 0, 0, 0)
            return (0 if s2 == 0 else 1, 0, 0)

        game = FiniteGame.from_function([["X", "Y", "Z"], ["H", "T"], ["m"]], pay)
        for check in (
            lambda: check_order_independence(
                game, BeliefKind.INDEPENDENT_MIXED, num_orders=2, resolution=2
            ),
            lambda: check_fast_dominance(
                game, BeliefKind.INDEPENDENT_MIXED, num_orders=2, resolution=2
            ),
            lambda: check_equivalence(
                game, BeliefKind.INDEPENDENT_MIXED, resolution=2
            ),
        ):
            reports = check()
            assert all(r.verdict in ("pass", "unknown") for r in reports)
            assert any(r.verdict == "unknown" for r in reports)

    def test_fast_dominance_gap_game(self, g):
        reports = check_fast_dominance(g, BeliefKind.PURE, num_orders=8)
        assert [r.theorem_id for r in reports] == [
            "fast_dominance_i", "fast_dominance_ii",
        ]
        assert all(r.verdict == "pass" for r in reports)

    def test_fast_dominance_fixed_point_vacuous(self):
        game = FiniteGame.from_function([["a"], ["x"]], lambda p: (0, 0))
        reports = check_fast_dominance(game, BeliefKind.PURE)
        assert all(r.verdict == "pass" for r in reports)

    def test_equivalence_gap_game(self, g):
        for bk in (BeliefKind.PURE, BeliefKind.CORRELATED):
            reports = check_equivalence(g, bk, seed=2)
            assert all(r.verdict == "pass" for r in reports)

    def test_equivalence_constant_game(self):
        game = FiniteGame.from_function([["a", "b"], ["x", "y"]], lambda p: (1, 1))
        reports = check_equivalence(game, BeliefKind.PURE)
        assert all(r.verdict == "pass" for r in reports)
        # nothing is ever removable: every outcome is the full game
        oi = check_order_independence(game, BeliefKind.PURE, num_orders=4)
        assert all(r.verdict == "pass" for r in oi)

    def test_nash_preservation_gap_game(self, g):
        for kind in ReductionKind:
            reports = check_nash_preservation(g, kind, num_orders=6)
            assert [r.theorem_id for r in reports] == [
                "nash_preservation_i", "nash_preservation_ii",
            ]
            assert all(r.verdict == "pass" for r in reports)

    def test_nash_preservation_no_equilibria_game(self):
        table = {
            (0, 0): (1, -1), (0, 1): (-1, 1),
            (1, 0): (-1, 1), (1, 1): (1, -1),
        }
        game = FiniteGame([["H", "T"], ["h", "t"]], table)
        reports = check_nash_preservation(game, ReductionKind.TILDE, num_orders=4)
        assert all(r.verdict == "pass" for r in reports)

    def test_oracle_agreement_small_games(self):
        rng = random.Random(9)
        for trial in range(6):
            sizes = [rng.randint(1, 3), rng.randint(1, 3)]
            game = random_game(2, sizes, 5, seed=4000 + trial)
            reports = check_oracle_agreement(game, max_denominator=4)
            assert all(r.verdict == "pass" for r in reports)

    def test_kind_monotonicity_small_games(self):
        rng = random.Random(10)
        for trial in range(6):
            sizes = [rng.randint(1, 3), rng.randint(1, 3)]
            game = random_game(2, sizes, 5, seed=5000 + trial)
            reports = check_kind_monotonicity(game)
            assert all(r.verdict == "pass" for r in reports)

    def test_arrow_outcomes_are_self_closed(self):
        # every kept strategy of an arrow or darrow outcome is a best
        # response within the outcome itself (reference: the outcome, not
        # the initial game)
        from nbrelim.oracle import BestResponse, ComparisonSet, find_witness
        from nbrelim.reductions import Policy, iterate

        rng = random.Random(18)
        for trial in range(10):
            sizes = [rng.randint(1, 4), rng.randint(1, 4)]
            game = random_game(2, sizes, 5, seed=7000 + trial)
            for kind in (ReductionKind.ARROW, ReductionKind.DARROW):
                policy = (
                    Policy.RANDOM_PARTIAL if kind is ReductionKind.DARROW else Policy.FAST
                )
                outcome = iterate(game, kind, BeliefKind.PURE, policy, seed=trial).outcome
                for player in range(2):
                    cmp = ComparisonSet(player, outcome.kept[player])
                    for s in outcome.kept[player]:
                        cert = find_witness(
                            game, outcome, player, s, BeliefKind.PURE, cmp
                        )
                        assert isinstance(cert, BestResponse)

    def test_checkers_on_random_corpus(self):
        rng = random.Random(12)
        for trial in range(8):
            players = rng.choice((2, 3))
            sizes = [rng.randint(1, 3) for _ in range(players)]
            game = random_game(players, sizes, 5, seed=6000 + trial)
            for bk in (BeliefKind.PURE, BeliefKind.CORRELATED):
                assert all(
                    r.verdict == "pass"
                    for r in check_order_independence(game, bk, num_orders=6, seed=trial)
                )
                assert all(
                    r.verdict == "pass"
                    for r in check_equivalence(game, bk, seed=trial)
                )
            assert all(
                r.verdict == "pass"
                for r in check_nash_preservation(game, ReductionKind.TILDE, seed=trial)
            )


class TestReportShape:
    def test_record_field_order(self):
        report = TheoremReport("order_independence", "3x2:abc", 7, "pass", "ok")
        record = report.to_record()
        assert list(record) == [
            "theorem", "instance", "seed", "verdict", "details", "counterexample",
        ]
        assert json.loads(json.dumps(record)) == record

    def test_render_line(self):
        report = TheoremReport("largest_closed", "2x2:def", 0, "fail", "boom")
        assert report.render() == "largest_closed 2x2:def seed=0: fail (boom)"
