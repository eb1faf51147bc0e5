"""Theorem checkers: closure, equilibria, and the campaign functions."""

import itertools
import json
import random

import pytest

from nbrelim import verification
from nbrelim.beliefs import BeliefKind, point_distribution
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
    join,
    restrict,
    restrict_by_labels,
)
from nbrelim.oracle import BestResponse, NeverBest
from nbrelim.reductions import Policy, ReductionKind, Rejection, Trace
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


class TestLargerCandidates:
    def test_lattice_candidates_equal_checked_restrictions(self):
        # 7 strategies in all: the whole lattice, built from masks
        game = random_game(3, [2, 3, 2], 3, seed=4)
        outcome = restrict(game, [(0,), (1, 2), (0, 1)])
        got = list(verification._larger_candidates(game, outcome, 0))
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


def _instance(game):
    return "x".join(map(str, game.sizes)) + ":" + game.digest()


def _fake_iterate(monkeypatch, pick):
    """Stand in for `verification.iterate`.  `pick(kind, policy)` gives the
    kept sets and maximality of a stepless trace, or None for a real run.
    Returns the traces handed out, in call order."""
    real = verification.iterate
    handed = []

    def fake(game, kind, belief_kind, policy, seed=0, resolution=8, cache=None):
        choice = pick(kind, policy)
        if choice is None:
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


def _coordination(n):
    return FiniteGame.from_function(
        [[f"a{s}" for s in range(n)], [f"b{s}" for s in range(n)]],
        lambda p: (1, 1) if p[0] == p[1] else (0, 0),
    )


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
        _fake_iterate(monkeypatch, lambda kind, policy: ([(0,), (0,)], True))
        reports = check_order_independence(g, BeliefKind.PURE, num_orders=2)
        assert reports[1] == TheoremReport(
            "largest_closed", _instance(g), 0, "fail",
            "closed restriction {T}x{R} escapes the outcome", ("{T}x{R}",),
        )

    def _sampled_supersets(self, game, outcome, seed):
        rng = random.Random(verification.child_seed(seed, 999))
        samples = [
            join(outcome, random_restriction(game, rng, nondegenerate=False))
            for _ in range(20)
        ]
        return [c for c in samples if c != outcome]

    def test_largest_closed_sampled_supersets_then_equilibria(self, monkeypatch):
        # 14 strategies: past the lattice, the sampled supersets of the
        # forced outcome {a0}x{b0} are all unclosed, so the first equilibrium
        # singleton outside the outcome is the counterexample
        game = _coordination(7)
        _fake_iterate(monkeypatch, lambda kind, policy: ([(0,), (0,)], True))
        real = verification.is_closed
        asked = []

        def spy(game, restriction, *args):
            asked.append(restriction)
            return real(game, restriction, *args)

        monkeypatch.setattr(verification, "is_closed", spy)
        reports = check_order_independence(game, BeliefKind.PURE, num_orders=2, seed=3)
        assert reports[1] == TheoremReport(
            "largest_closed", _instance(game), 3, "fail",
            "closed restriction {a1}x{b1} escapes the outcome", ("{a1}x{b1}",),
        )
        outcome = restrict(game, [(0,), (0,)])
        expected = [outcome] + self._sampled_supersets(game, outcome, 3)
        assert len(expected) > 10
        assert asked[: len(expected)] == expected
        assert all(len(r.kept[0]) == len(r.kept[1]) == 1 for r in asked[len(expected):])

    def test_largest_closed_first_closed_sample(self, monkeypatch):
        game = _coordination(7)
        _fake_iterate(monkeypatch, lambda kind, policy: ([(0,), (0,)], True))
        monkeypatch.setattr(verification, "is_closed", lambda *args: True)
        reports = check_order_independence(game, BeliefKind.PURE, num_orders=2, seed=3)
        first = self._sampled_supersets(game, restrict(game, [(0,), (0,)]), 3)[0]
        assert reports[1] == TheoremReport(
            "largest_closed", _instance(game), 3, "fail",
            f"closed restriction {first.render()} escapes the outcome",
            (first.render(),),
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
