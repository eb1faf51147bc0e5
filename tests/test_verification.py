"""Theorem checkers: closure, equilibria, and the campaign functions."""

import dataclasses
import gc
import itertools
import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from nbrelim import oracle, verification
from nbrelim.beliefs import BeliefKind
from nbrelim.catalog import (
    bertrand_grid,
    chase_3p,
    gap_3x2,
    hotelling_grid,
    naturals_truncated,
    random_game,
)
from nbrelim.games import (
    FiniteGame,
    InputError,
    Restriction,
    full_restriction,
    restrict,
    restrict_by_labels,
)
from nbrelim.oracle import BestResponse, NeverBest, full_comparison, is_best_response
from nbrelim.reductions import (
    Policy,
    ReductionKind,
    Rejection,
    Step,
    Trace,
    validate_step,
)
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
    random_order_traces,
    random_restriction,
)

from oracles import (
    brute_pure_nash,
    grid_distributions,
    is_pure_best_to_some,
    opponent_profiles,
    point_distribution,
    restrictions_outside,
)


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


class TestLargerCandidates:
    def test_lattice_candidates_equal_checked_restrictions(self):
        # 7 strategies in all: the whole lattice, built from masks
        game = random_game(3, [2, 3, 2], 3, seed=4)
        outcome = restrict(game, [(0,), (1, 2), (0, 1)])
        got = list(restrictions_outside(game, outcome))
        subsets = [
            [c for r in range(n + 1) for c in itertools.combinations(range(n), r)]
            for n in game.sizes
        ]
        lattice = [Restriction(game, kept) for kept in itertools.product(*subsets)]
        expected = [r for r in lattice if not outcome.contains(r)]
        assert len(got) == 2**7 - 2**5
        assert sorted((r.kept, r.bits) for r in got) == sorted(
            (r.kept, r.bits) for r in expected
        )


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

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_orders_are_pairwise_distinct(self, seed):
        # each order draws from its own child seed; the grid has many orders
        game = bertrand_grid(10)
        traces = random_order_traces(game, ReductionKind.TILDE, BeliefKind.PURE, 6, seed)
        assert len({t.render() for t in traces}) == 6

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
            reports = check_oracle_agreement(game)
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


class TestZeroSamples:
    """A checker that samples nothing would pass unchecked, so it refuses."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda game: check_order_independence(game, BeliefKind.PURE, num_orders=0),
            lambda game: check_fast_dominance(game, BeliefKind.PURE, num_orders=0),
            lambda game: check_equivalence(game, BeliefKind.PURE, num_orders=0),
            lambda game: check_nash_preservation(game, ReductionKind.DARROW, num_orders=0),
        ],
        ids=["order_independence", "fast_dominance", "equivalence", "nash"],
    )
    def test_no_samples_is_an_input_error(self, g, run):
        with pytest.raises(InputError, match="must be at least 1"):
            run(g)


def _games(players, max_size):
    """Games of `players` players with at most `max_size` strategies each and
    payoffs in [-2, 2], so that ties are common."""
    return st.lists(
        st.integers(1, max_size), min_size=players, max_size=players
    ).flatmap(
        lambda sizes: st.lists(
            st.integers(-2, 2),
            min_size=players * math.prod(sizes),
            max_size=players * math.prod(sizes),
        ).map(lambda pays: _game_from(sizes, pays))
    )


def _game_from(sizes, pays):
    labels = [[f"s{k}" for k in range(n)] for n in sizes]
    rows = iter(zip(*[iter(pays)] * len(sizes)))
    return FiniteGame.from_function(labels, lambda profile: next(rows))


def dominated_3x4x4():
    """Player 1's strategies 0 and 1 are strictly dominated by 2; player 2's
    and player 3's strategy 0 by their strategy 3."""
    base = random_game(3, [3, 4, 4], 5, seed=11)

    def pay(profile):
        row = []
        for i, drop in enumerate(((2, 1, 0), (1, 0, 0, 0), (1, 0, 0, 0))):
            top = list(profile)
            top[i] = len(drop) - 1 if drop[profile[i]] else profile[i]
            row.append(base.payoff(tuple(top), i) - drop[profile[i]])
        return row

    return FiniteGame.from_function(base.labels, pay)


class TestGridScans:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(_games(2, 3), _games(3, 2)))
    # Player 1's strategy 0 is a best response only at the (1/2, 1/2) mix,
    # which the compositions of 3 alone miss.
    @example(_game_from([3, 2], [0, 0, 0, 0, 1, 0, -1, 0, -1, 0, 1, 0]))
    def test_cross_check_mask_is_every_grid_best_response(self, game):
        for player in range(game.players):
            cmp = full_comparison(game, player)
            profiles = list(opponent_profiles(game, player))
            for den in range(1, 7):
                grid = list(grid_distributions(profiles, den))
                expected = sum(
                    1 << s
                    for s in range(game.sizes[player])
                    if any(is_best_response(game, player, s, mu, cmp) for mu in grid)
                )
                assert verification._grid_best_responses(game, player, den) == expected

    def test_cross_check_scans_each_player_once(self, monkeypatch):
        game = dominated_3x4x4()
        scans = []
        scan = verification._grid_best_responses

        def counted(game, player, max_denominator):
            scans.append(player)
            return scan(game, player, max_denominator)

        monkeypatch.setattr(verification, "_grid_best_responses", counted)
        reports = check_oracle_agreement(game)
        assert [r.verdict for r in reports] == ["pass"]
        assert scans == [0, 1, 2]

    @pytest.mark.parametrize("limit, verdict", [(220_932, "pass"), (220_931, "unknown")])
    def test_a_grid_over_the_limit_is_not_scanned(self, monkeypatch, limit, verdict):
        # Player 1 faces 16 opponent profiles, and its strategy 0 is
        # never-best: its denominator-6 grid has C(19, 15) + C(20, 15) +
        # C(21, 15) = 73,644 points, 220,932 units of work for its 3
        # strategies.
        game = dominated_3x4x4()
        scans = []
        scan = verification._grid_best_responses

        def counted(game, player, max_denominator):
            scans.append(player)
            return scan(game, player, max_denominator)

        monkeypatch.setattr(verification, "_grid_best_responses", counted)
        monkeypatch.setattr(verification, "MAX_GRID_WORK", limit)
        [report] = check_oracle_agreement(game)
        assert report.verdict == verdict
        if verdict == "unknown":
            assert scans == []
            assert report.details == (
                "player 1's denominator-6 grid has 73644 points, 220932 for its 3 "
                f"strategies, over the limit of {limit}"
            )
        else:
            assert scans == [0, 1, 2]

    def test_scans_leave_no_cyclic_garbage(self):
        # Refcounting alone frees what a scan made, so when the cyclic
        # collector runs does not change a run's peak memory.
        game = dominated_3x4x4()
        kept = full_restriction(game).kept
        gc.collect()
        gc.disable()
        try:
            assert verification._grid_best_responses(game, 0, 4)
            for s in (0, 2):
                oracle._grid_product_witness(game, 0, s, kept, full_comparison(game, 0), 3)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_product_scan_of_a_dominated_strategy_finds_nothing(self):
        game = dominated_3x4x4()
        kept = full_restriction(game).kept
        cmp = full_comparison(game, 0)
        for s in (0, 1):
            assert oracle._grid_product_witness(game, 0, s, kept, cmp, 8) is None
        assert oracle._grid_product_witness(game, 0, 2, kept, cmp, 8) is not None


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


def _instance(game):
    return "x".join(map(str, game.sizes)) + ":" + game.digest()


def _fake_iterate(monkeypatch, pick):
    """Stand in for `verification.iterate`.  `pick(kind, policy)` gives the
    kept sets and maximality of a stepless trace, a whole `Trace`, or None
    for a real run.  Returns the traces handed out, in call order."""
    real = verification.iterate
    handed = []

    def fake(game, kind, belief_kind, policy, seed=0, resolution=8, cache=None):
        choice = pick(kind, policy)
        if isinstance(choice, Trace):
            trace = choice
        elif choice is None:
            trace = real(
                game, kind, belief_kind, policy, seed=seed,
                resolution=resolution, cache=cache,
            )
        else:
            kept, maximal = choice
            trace = Trace(
                game, kind, belief_kind, policy, seed, (), restrict(game, kept), maximal
            )
        handed.append(trace)
        return trace

    monkeypatch.setattr(verification, "iterate", fake)
    return handed


_ONLY_EQUILIBRIUM_00 = {  # a 2x2 game whose one pure equilibrium is (0, 0)
    (0, 0): (2, 2), (0, 1): (0, 0),
    (1, 0): (0, 0), (1, 1): (1, -1),
}


class TestFailPaths:
    """Every fail and unknown report, forced by stubbing the engine calls."""

    def test_order_independence_mismatch(self, g, monkeypatch):
        handed = _fake_iterate(
            monkeypatch,
            lambda kind, policy: None if policy is Policy.FAST else ([(0,), (0,)], True),
        )
        reports = check_order_independence(g, BeliefKind.PURE, num_orders=2)
        inst = _instance(g)
        assert reports == [
            TheoremReport(
                "order_independence", inst, 0, "fail",
                "a random order reached a different outcome",
                (handed[0].render(), handed[1].render()),
            ),
            TheoremReport(
                "largest_closed", inst, 0, "pass",
                "outcome is closed and no larger closed restriction was found",
            ),
            TheoremReport(
                "nondegenerate_outcome", inst, 0, "pass",
                "all outcomes keep every player non-empty",
            ),
        ]

    def test_order_independence_unknown_for_non_maximal_mixed_3p(self, monkeypatch):
        game = random_game(3, [2, 2, 2], 3, seed=1)
        handed = _fake_iterate(monkeypatch, lambda kind, policy: ([(0, 1)] * 3, False))
        reports = check_order_independence(
            game, BeliefKind.INDEPENDENT_MIXED, num_orders=2, seed=4
        )
        assert reports == [
            TheoremReport(
                "order_independence", _instance(game), 4, "unknown",
                "inconclusive certificates block a maximality proof",
            )
        ]
        assert [t.policy for t in handed] == [
            Policy.FAST, Policy.RANDOM_PARTIAL, Policy.SINGLE_RANDOM,
        ]

    @pytest.mark.parametrize(
        "closed, verdict, details",
        [
            (None, "unknown", "closedness of the outcome is undecided"),
            (False, "fail", "outcome is not closed"),
        ],
    )
    def test_largest_closed_outcome_not_closed(self, g, monkeypatch, closed, verdict, details):
        monkeypatch.setattr(verification, "is_closed", lambda *args: closed)
        reports = check_order_independence(g, BeliefKind.PURE, num_orders=2)
        counterexample = ("{T}x{L,R}",) if verdict == "fail" else ()
        assert reports[1] == TheoremReport(
            "largest_closed", _instance(g), 0, verdict, details, counterexample
        )
        assert [r.verdict for r in reports] == ["pass", verdict, "pass"]

    def test_largest_closed_lattice_escape(self, g, monkeypatch):
        # the fake outcome {T}x{L} is closed, but the closed {T}x{R} escapes
        # it; no step leads to it, so the chain is broken
        handed = _fake_iterate(monkeypatch, lambda kind, policy: ([(0,), (0,)], True))
        reports = check_order_independence(g, BeliefKind.PURE, num_orders=2)
        assert is_closed(g, handed[0].outcome, BeliefKind.PURE)
        assert reports[1] == TheoremReport(
            "largest_closed", _instance(g), 0, "fail",
            "the fast trace ends at {T,M,B}x{L,R}, not at the outcome",
            (handed[0].render(),),
        )

    def _fake_fast(self, g, monkeypatch, steps):
        outcome = restrict(g, [(0,), (0, 1)])  # the real, closed outcome
        fake = Trace(
            g, ReductionKind.TILDE, BeliefKind.PURE, Policy.FAST, 0, steps, outcome
        )
        _fake_iterate(monkeypatch, lambda kind, policy: fake if policy is Policy.FAST else None)
        return fake, check_order_independence(g, BeliefKind.PURE, num_orders=2)[1]

    def test_largest_closed_illegal_step(self, g, monkeypatch):
        # T is a best response to L, yet the fake step claims it never-best
        full = full_restriction(g)
        step = Step(
            full, restrict(g, [(1, 2), (0, 1)]), ((0,), ()), ReductionKind.TILDE,
            BeliefKind.PURE, (((0, 0), NeverBest("exhaustive")),),
        )
        fake, report = self._fake_fast(g, monkeypatch, (step,))
        assert report == TheoremReport(
            "largest_closed", _instance(g), 0, "fail",
            "step 1 removes player 1 strategy T (witness)", (fake.render(),),
        )

    def test_largest_closed_steps_do_not_chain(self, g, monkeypatch):
        # two legal steps, but step 2 starts at {T,M}, not at step 1's {T,B}
        def tilde(source, target):
            return validate_step(g, source, target, ReductionKind.TILDE, BeliefKind.PURE)

        first = tilde(full_restriction(g), restrict(g, [(0, 2), (0, 1)]))
        second = tilde(restrict(g, [(0, 1), (0, 1)]), restrict(g, [(0,), (0, 1)]))
        fake, report = self._fake_fast(g, monkeypatch, (first, second))
        assert report == TheoremReport(
            "largest_closed", _instance(g), 0, "fail",
            "step 2 does not start at {T,B}x{L,R}", (fake.render(),),
        )

    def test_degenerate_outcome(self, g, monkeypatch):
        handed = _fake_iterate(
            monkeypatch,
            lambda kind, policy: None if policy is not Policy.SINGLE_RANDOM else ([(0,), ()], True),
        )
        reports = check_order_independence(g, BeliefKind.PURE, num_orders=2)
        assert reports[0].verdict == "fail"
        assert reports[2] == TheoremReport(
            "nondegenerate_outcome", _instance(g), 0, "fail",
            "an outcome lost a player's whole strategy set", (handed[2].render(),),
        )

    def test_fast_dominance_unknown(self, g, monkeypatch):
        _fake_iterate(
            monkeypatch,
            lambda kind, policy: None if policy is Policy.FAST else ([(0,), (0, 1)], False),
        )
        inst = _instance(g)
        assert check_fast_dominance(g, BeliefKind.PURE, num_orders=2) == [
            TheoremReport(
                theorem, inst, 0, "unknown",
                "inconclusive certificates block a maximality proof",
            )
            for theorem in ("fast_dominance_i", "fast_dominance_ii")
        ]

    def test_fast_dominance_containment_breaks(self, g, monkeypatch):
        handed = _fake_iterate(
            monkeypatch,
            lambda kind, policy: None if policy is Policy.FAST else ([(0,), (0,)], True),
        )
        reports = check_fast_dominance(g, BeliefKind.PURE, num_orders=2)
        inst = _instance(g)
        assert reports == [
            TheoremReport(
                "fast_dominance_i", inst, 0, "fail", "containment broke",
                ("index 1", handed[0].render(), handed[1].render()),
            ),
            TheoremReport(
                "fast_dominance_ii", inst, 0, "pass",
                "fast step count is minimal among sampled orders",
            ),
        ]

    def test_fast_dominance_shorter_order(self, g, monkeypatch):
        handed = _fake_iterate(
            monkeypatch,
            lambda kind, policy: None if policy is Policy.FAST else ([(0,), (0, 1)], True),
        )
        reports = check_fast_dominance(g, BeliefKind.PURE, num_orders=2)
        inst = _instance(g)
        assert reports == [
            TheoremReport(
                "fast_dominance_i", inst, 0, "pass",
                "fast trace contained stepwise in every sampled order",
            ),
            TheoremReport(
                "fast_dominance_ii", inst, 0, "fail",
                "a shorter order reached the fast outcome",
                (handed[0].render(), handed[1].render()),
            ),
        ]

    @pytest.mark.parametrize("rejected", [ReductionKind.ARROW, ReductionKind.DARROW])
    def test_equivalence_step_rejected(self, g, monkeypatch, rejected):
        asked = []
        rejection = Rejection(1, 0, NeverBest("exhaustive"), "witness")

        def fake(game, source, target, kind, *args):
            asked.append((source, target, kind))
            return rejection if kind is rejected else None

        monkeypatch.setattr(verification, "validate_step", fake)
        reports = check_equivalence(g, BeliefKind.PURE, seed=2)
        source, target, _ = asked[0]
        assert [kind for _, _, kind in asked] == [ReductionKind.ARROW, ReductionKind.DARROW]
        assert reports[0] == TheoremReport(
            "equivalence_i", _instance(g), 2, "fail",
            "an arrow step failed to validate as darrow",
            (
                f"source {source.render()} target {target.render()}",
                "player 2 strategy 0 (witness)",
            ),
        )
        assert [r.verdict for r in reports] == ["fail", "pass", "pass"]

    def test_equivalence_unknown(self, g, monkeypatch):
        _fake_iterate(
            monkeypatch,
            lambda kind, policy: None if kind is ReductionKind.TILDE else ([(0,), (0, 1)], False),
        )
        reports = check_equivalence(g, BeliefKind.PURE, num_orders=1)
        assert reports[1:] == [
            TheoremReport(
                "equivalence_ii", _instance(g), 0, "unknown",
                "inconclusive certificates block a maximality proof",
            )
        ]
        assert reports[0].verdict == "pass"

    def test_equivalence_mismatch_and_degenerate(self, g, monkeypatch):
        handed = _fake_iterate(
            monkeypatch,
            lambda kind, policy: (
                None if policy is Policy.FAST and kind is ReductionKind.TILDE
                else ([(0,), ()], True)
            ),
        )
        reports = check_equivalence(g, BeliefKind.PURE, num_orders=1)
        inst = _instance(g)
        assert [t.kind for t in handed] == [
            ReductionKind.TILDE, ReductionKind.ARROW,
            ReductionKind.TILDE, ReductionKind.ARROW, ReductionKind.DARROW,
        ]
        assert reports[1:] == [
            TheoremReport(
                "equivalence_ii", inst, 0, "fail",
                "a relation reached a different outcome",
                (handed[0].render(), handed[1].render()),
            ),
            TheoremReport(
                "nondegenerate_outcome", inst, 0, "fail",
                "an outcome lost a player's whole strategy set", (handed[1].render(),),
            ),
        ]

    def test_equivalence_reads_every_random_order(self, g, monkeypatch):
        # the last darrow order stops after its first step; the fast traces
        # and every other order still agree, so only it can fail the check
        real, cut = verification.random_order_traces, []

        def stop_early(game, kind, *args):
            traces = real(game, kind, *args)
            if kind is ReductionKind.DARROW:
                t = traces[-1]
                traces[-1] = dataclasses.replace(
                    t, steps=t.steps[:1], outcome=t.steps[0].target
                )
                cut.append(traces[-1])
            return traces

        monkeypatch.setattr(verification, "random_order_traces", stop_early)
        reports = check_equivalence(g, BeliefKind.PURE, num_orders=2)
        assert len(cut) == 1 and cut[0].outcome.kept != ((0,), (0, 1))
        assert reports[1].theorem_id == "equivalence_ii"
        assert reports[1].verdict == "fail"
        assert reports[1].counterexample[1] == cut[0].render()

    def test_nash_equilibrium_lost(self, monkeypatch):
        game = FiniteGame([["U", "D"], ["l", "r"]], _ONLY_EQUILIBRIUM_00)
        assert pure_nash(game) == ((0, 0),)
        handed = _fake_iterate(monkeypatch, lambda kind, policy: ([(0,), ()], True))
        reports = check_nash_preservation(game, ReductionKind.ARROW, num_orders=2)
        inst = _instance(game)
        assert [t.policy for t in handed] == [
            Policy.FAST, Policy.RANDOM_PARTIAL, Policy.SINGLE_RANDOM,
        ]
        assert reports == [
            TheoremReport(
                "nash_preservation_i", inst, 0, "fail", "an equilibrium was eliminated",
                (handed[0].render(), "lost equilibria [(0, 0)]"),
            ),
            TheoremReport(
                "nash_preservation_ii", inst, 0, "pass",
                "outcomes introduce no new equilibria",
            ),
        ]

    def test_nash_equilibrium_gained(self, monkeypatch):
        # (0, 0) is the only equilibrium; inside {U,M}x{l,c} so is (1, 1),
        # where player 1 would rather play D
        table = {
            (0, 0): (2, 2), (0, 1): (0, 0), (0, 2): (0, 0),
            (1, 0): (0, 0), (1, 1): (1, 1), (1, 2): (0, 0),
            (2, 0): (0, 1), (2, 1): (3, 0), (2, 2): (0, 0),
        }
        game = FiniteGame([["U", "M", "D"], ["l", "c", "r"]], table)
        assert pure_nash(game) == ((0, 0),)
        handed = _fake_iterate(monkeypatch, lambda kind, policy: ([(0, 1), (0, 1)], True))
        reports = check_nash_preservation(game, ReductionKind.DARROW, num_orders=2)
        inst = _instance(game)
        assert all(t.policy is not Policy.FAST for t in handed)
        assert reports == [
            TheoremReport(
                "nash_preservation_i", inst, 0, "pass",
                "every equilibrium of the game survives into every outcome",
            ),
            TheoremReport(
                "nash_preservation_ii", inst, 0, "fail",
                "an outcome gained an equilibrium",
                (handed[0].render(), "new equilibria [(1, 1)]"),
            ),
        ]

    @pytest.mark.parametrize(
        "cert, line",
        [
            (NeverBest("lp"), "LP says never-best but a grid witness exists"),
            (
                BestResponse(point_distribution((1,))),
                "returned witness fails re-verification",
            ),
        ],
    )
    def test_oracle_disagreement(self, monkeypatch, cert, line):
        game = FiniteGame([["U", "D"], ["l", "r"]], _ONLY_EQUILIBRIUM_00)
        asked = []

        def fake(game, restriction, player, strategy, *args):
            asked.append((player, strategy))
            return cert

        monkeypatch.setattr(verification, "find_witness", fake)
        reports = check_oracle_agreement(game, seed=5)
        assert asked == [(0, 0)]
        assert reports == [
            TheoremReport(
                "oracle_agreement", _instance(game), 5, "fail",
                "LP and grid enumeration disagree", (f"player 1 strategy 0: {line}",),
            )
        ]

    @pytest.mark.parametrize(
        "verdicts",
        [
            {"pure": True, "mixed": True, "correlated": False},
            {"pure": True, "mixed": False, "correlated": True},
            {"pure": False, "mixed": False, "correlated": True},
        ],
    )
    def test_kind_chain_breaks(self, monkeypatch, verdicts):
        game = FiniteGame([["U", "D"], ["l", "r"]], _ONLY_EQUILIBRIUM_00)
        asked = []

        def fake(game, restriction, player, strategy, kind, *args):
            asked.append((player, strategy, kind))
            if verdicts[kind.value]:
                return BestResponse(point_distribution((0,)))
            return NeverBest("lp")

        monkeypatch.setattr(verification, "find_witness", fake)
        reports = check_kind_monotonicity(game, seed=6)
        assert asked == [(0, 0, kind) for kind in BeliefKind]
        names = {True: "BestResponse", False: "NeverBest"}
        assert reports == [
            TheoremReport(
                "kind_monotonicity", _instance(game), 6, "fail",
                "the belief-kind chain broke",
                (
                    "player 1 strategy 0: "
                    + ", ".join(f"{k}={names[v]}" for k, v in verdicts.items()),
                ),
            )
        ]

    def test_nash_each_direction_checks_every_trace(self, monkeypatch):
        # every outcome drops (0, 0) and gains (1, 1): both directions fail,
        # each with its own counterexample
        game = FiniteGame([["U", "D"], ["l", "r"]], _ONLY_EQUILIBRIUM_00)
        handed = _fake_iterate(monkeypatch, lambda kind, policy: ([(1,), (1,)], True))
        reports = check_nash_preservation(game, ReductionKind.TILDE, num_orders=2)
        inst = _instance(game)
        assert reports == [
            TheoremReport(
                "nash_preservation_i", inst, 0, "fail", "an equilibrium was eliminated",
                (handed[0].render(), "lost equilibria [(0, 0)]"),
            ),
            TheoremReport(
                "nash_preservation_ii", inst, 0, "fail",
                "an outcome gained an equilibrium",
                (handed[0].render(), "new equilibria [(1, 1)]"),
            ),
        ]
