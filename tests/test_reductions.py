"""Reduction steps, fast variants, iteration policies, trace invariants."""

import random
from fractions import Fraction

import pytest

from nbrelim import reductions
from nbrelim.beliefs import BeliefKind, PurePoint
from nbrelim.catalog import (
    bertrand_grid,
    gap_3x2,
    hotelling_grid,
    naturals_truncated,
    random_game,
)
from nbrelim.games import (
    FiniteGame,
    InputError,
    full_restriction,
    restrict,
    restrict_by_labels,
)
from nbrelim.oracle import (
    BestResponse,
    ComparisonSet,
    EmptyBeliefSet,
    NeverBest,
    OracleCache,
    find_witness,
    full_comparison,
    is_best_response,
    render_certificate,
)
from nbrelim.reductions import (
    Frontier,
    IllegalStepError,
    Policy,
    ReductionKind,
    Rejection,
    Step,
    UnsupportedOperationError,
    candidate_certificates,
    fast_step,
    iterate,
    legal_removal_candidates,
    validate_step,
)
from nbrelim.verification import child_seed

from oracles import (
    enumerate_pure_beliefs,
    iterate_reference,
    narrowed_membership,
    replay_fast_pure,
)


@pytest.fixture(scope="module")
def g():
    return gap_3x2()


@pytest.fixture(scope="module")
def sub_G(g):
    return restrict_by_labels(g, [["M", "B"], ["L", "R"]])


@pytest.fixture(scope="module")
def sub_Gp(g):
    return restrict_by_labels(g, [["M"], ["L", "R"]])


class TestValidateStep:
    def test_legal_under_initial_reference(self, g, sub_G, sub_Gp):
        result = validate_step(g, sub_G, sub_Gp, ReductionKind.TILDE, BeliefKind.PURE)
        assert isinstance(result, Step)
        assert result.removed == ((2,), ())

    def test_illegal_under_current_reference(self, g, sub_G, sub_Gp):
        result = validate_step(g, sub_G, sub_Gp, ReductionKind.ARROW, BeliefKind.PURE)
        assert isinstance(result, Rejection)
        assert (result.player, result.strategy) == (0, 2)
        assert isinstance(result.certificate, BestResponse)
        # the witness is the left column: B is the sub-game's best reply to it
        assert result.certificate.witness.profile == (0,)

    def test_illegal_under_target_reference(self, g, sub_G, sub_Gp):
        result = validate_step(g, sub_G, sub_Gp, ReductionKind.DARROW, BeliefKind.PURE)
        assert isinstance(result, Rejection)

    def test_removing_nothing_is_an_error(self, g, sub_G):
        with pytest.raises(InputError):
            validate_step(g, sub_G, sub_G, ReductionKind.TILDE, BeliefKind.PURE)

    def test_non_nested_is_an_error(self, g, sub_G):
        other = restrict_by_labels(g, [["T"], ["L", "R"]])
        with pytest.raises(InputError):
            validate_step(g, sub_G, other, ReductionKind.TILDE, BeliefKind.PURE)

    def test_vacuous_elimination_is_flagged_but_legal(self, g):
        degenerate = restrict(g, [(0, 1), ()])
        target = restrict(g, [(0,), ()])
        result = validate_step(
            g, degenerate, target, ReductionKind.TILDE, BeliefKind.PURE
        )
        assert isinstance(result, Step)
        from nbrelim.oracle import EmptyBeliefSet

        assert result.certificate_for(0, 1) == EmptyBeliefSet()


class TestFastStep:
    def test_gap_game_first_step(self, g):
        step = fast_step(g, full_restriction(g), ReductionKind.TILDE, BeliefKind.PURE)
        assert step is not None
        assert step.removed == ((1, 2), ())
        assert step.target.kept == ((0,), (0, 1))

    def test_fixed_point_returns_none(self, g):
        outcome = restrict_by_labels(g, [["T"], ["L", "R"]])
        assert fast_step(g, outcome, ReductionKind.TILDE, BeliefKind.PURE) is None

    def test_hotelling_first_step_matches_oracle(self):
        game = hotelling_grid(99)
        history, _ = replay_fast_pure(game)
        step = fast_step(
            game, full_restriction(game), ReductionKind.TILDE, BeliefKind.PURE
        )
        assert step is not None
        assert step.target.kept == history[0]
        assert step.target.kept[0] == tuple(range(1, 98))  # positions 2..98

    def test_no_fast_darrow(self, g):
        with pytest.raises(UnsupportedOperationError):
            fast_step(g, full_restriction(g), ReductionKind.DARROW, BeliefKind.PURE)


class TestCandidates:
    def test_gap_subgame_under_arrow(self, g, sub_G):
        assert legal_removal_candidates(
            g, sub_G, ReductionKind.ARROW, BeliefKind.PURE
        ) == ((), ())

    def test_gap_subgame_under_tilde(self, g, sub_G):
        assert legal_removal_candidates(
            g, sub_G, ReductionKind.TILDE, BeliefKind.PURE
        ) == ((1, 2), ())

    def test_fixed_point_all_empty(self, g):
        outcome = restrict_by_labels(g, [["T"], ["L", "R"]])
        for kind in ReductionKind:
            assert legal_removal_candidates(
                g, outcome, kind, BeliefKind.PURE
            ) == ((), ())

    def test_arrow_and_darrow_singletons_coincide(self):
        # a strategy with no strictly better reply within the kept set is the
        # same thing whether or not it may compare against itself
        rng = random.Random(3)
        for trial in range(25):
            sizes = [rng.randint(1, 4), rng.randint(1, 4)]
            game = random_game(2, sizes, 4, seed=900 + trial)
            source = full_restriction(game)
            for bk in (BeliefKind.PURE, BeliefKind.CORRELATED):
                arrow = legal_removal_candidates(game, source, ReductionKind.ARROW, bk)
                darrow = legal_removal_candidates(game, source, ReductionKind.DARROW, bk)
                assert arrow == darrow

    def test_joint_removal_of_all_candidates_validates(self):
        rng = random.Random(5)
        checked = 0
        for trial in range(30):
            sizes = [rng.randint(2, 4), rng.randint(2, 4)]
            game = random_game(2, sizes, 4, seed=1300 + trial)
            source = full_restriction(game)
            cands = legal_removal_candidates(
                game, source, ReductionKind.DARROW, BeliefKind.PURE
            )
            removal = {i: list(gone) for i, gone in enumerate(cands) if gone}
            if not removal:
                continue
            checked += 1
            result = validate_step(
                game, source, source.remove(removal),
                ReductionKind.DARROW, BeliefKind.PURE,
            )
            assert isinstance(result, Step)
        assert checked > 5


class TestIterate:
    def test_gap_game_one_step(self, g):
        trace = iterate(g, ReductionKind.TILDE, BeliefKind.PURE)
        assert len(trace.steps) == 1
        assert trace.outcome.kept == ((0,), (0, 1))
        assert trace.maximal

    def test_naturals_one_round(self):
        game = naturals_truncated(5)
        trace = iterate(game, ReductionKind.TILDE, BeliefKind.PURE)
        assert len(trace.steps) == 1
        assert trace.outcome.kept == ((5,), (5,))

    def test_policies_share_the_outcome(self, g):
        fast = iterate(g, ReductionKind.TILDE, BeliefKind.PURE)
        assert len(fast.steps) == 1
        for seed in range(6):
            single = iterate(
                g, ReductionKind.TILDE, BeliefKind.PURE, Policy.SINGLE_RANDOM, seed
            )
            partial = iterate(
                g, ReductionKind.TILDE, BeliefKind.PURE, Policy.RANDOM_PARTIAL, seed
            )
            assert single.outcome.kept == fast.outcome.kept
            assert partial.outcome.kept == fast.outcome.kept
            assert single.maximal and partial.maximal
            # two strategies go, one at a time: every single-removal order
            # needs two steps, never fewer than the fast round count
            assert len(single.steps) == 2

    def test_fast_darrow_unsupported(self, g):
        with pytest.raises(UnsupportedOperationError):
            iterate(g, ReductionKind.DARROW, BeliefKind.PURE, Policy.FAST)

    def test_shrinking_chain_and_length_bound(self):
        game = random_game(2, [4, 4], 5, seed=77)
        trace = iterate(
            game, ReductionKind.TILDE, BeliefKind.PURE, Policy.SINGLE_RANDOM, 9
        )
        assert len(trace.steps) <= sum(game.sizes)
        prev = full_restriction(game)
        for step in trace.steps:
            assert step.source.kept == prev.kept
            assert prev.contains(step.target)
            assert step.target.kept != prev.kept
            prev = step.target
        assert trace.outcome.kept == prev.kept

    def test_same_seed_same_trace_bytes(self):
        game = random_game(2, [4, 3], 5, seed=21)
        a = iterate(game, ReductionKind.TILDE, BeliefKind.PURE,
                    Policy.RANDOM_PARTIAL, 4)
        b = iterate(game, ReductionKind.TILDE, BeliefKind.PURE,
                    Policy.RANDOM_PARTIAL, 4)
        assert a.render() == b.render()

    def test_every_step_revalidates(self):
        rng = random.Random(15)
        for trial in range(12):
            sizes = [rng.randint(1, 4), rng.randint(1, 4)]
            game = random_game(2, sizes, 5, seed=40 + trial)
            for kind in ReductionKind:
                for bk in (BeliefKind.PURE, BeliefKind.CORRELATED):
                    policy = (
                        Policy.RANDOM_PARTIAL
                        if kind is ReductionKind.DARROW
                        else Policy.FAST
                    )
                    trace = iterate(game, kind, bk, policy, seed=trial)
                    cache = OracleCache(bk)
                    for step in trace.steps:
                        result = validate_step(
                            game, step.source, step.target, kind, bk, cache=cache
                        )
                        assert isinstance(result, Step)

    def test_outcomes_admit_no_step(self):
        rng = random.Random(31)
        for trial in range(10):
            sizes = [rng.randint(1, 4), rng.randint(1, 4)]
            game = random_game(2, sizes, 5, seed=60 + trial)
            for kind in ReductionKind:
                policy = (
                    Policy.SINGLE_RANDOM if kind is ReductionKind.DARROW else Policy.FAST
                )
                trace = iterate(game, kind, BeliefKind.PURE, policy, seed=trial)
                assert trace.maximal
                cands = legal_removal_candidates(
                    game, trace.outcome, kind, BeliefKind.PURE
                )
                assert all(not c for c in cands)


class TestEdgeShapes:
    def test_single_player_game(self):
        # one player, no opponents: the only belief is the empty profile and
        # elimination keeps exactly the payoff argmax set
        game = FiniteGame([["a", "b", "c"]], {(0,): (3,), (1,): (1,), (2,): (3,)})
        for bk in BeliefKind:
            trace = iterate(game, ReductionKind.TILDE, bk)
            assert trace.outcome.kept == ((0, 2),)
            assert trace.maximal
        assert enumerate_pure_beliefs(full_restriction(game), 0) == [PurePoint(())]

    def test_free_price_makes_the_grid_a_fixed_point(self):
        # with a zero price available every strategy ties as a best response
        # to the opponent pricing at zero, so nothing is ever removable
        from fractions import Fraction

        def pay(profile):
            prices = (profile[0], profile[1])
            out = []
            for me, other in (prices, prices[::-1]):
                if me < other:
                    out.append(Fraction(me * (100 - me)))
                elif me == other:
                    out.append(Fraction(me * (100 - me), 2))
                else:
                    out.append(Fraction(0))
            return tuple(out)

        labels = [[str(v) for v in range(0, 16)]] * 2
        game = FiniteGame.from_function(labels, pay)
        for kind in (ReductionKind.TILDE, ReductionKind.ARROW):
            for bk in (BeliefKind.PURE, BeliefKind.CORRELATED):
                trace = iterate(game, kind, bk)
                assert len(trace.steps) == 0
                assert trace.outcome.kept == full_restriction(game).kept


class TestStepImplication:
    def test_darrow_implies_arrow_implies_tilde(self):
        # revalidate sampled legal steps under the weaker reference points
        rng = random.Random(8)
        checked = 0
        for trial in range(25):
            sizes = [rng.randint(2, 4), rng.randint(2, 4)]
            game = random_game(2, sizes, 5, seed=700 + trial)
            source = full_restriction(game)
            cands = legal_removal_candidates(
                game, source, ReductionKind.DARROW, BeliefKind.PURE
            )
            flat = [(i, s) for i, gone in enumerate(cands) for s in gone]
            if not flat:
                continue
            chosen = [p for p in flat if rng.random() < 0.6] or [flat[0]]
            removal: dict[int, list[int]] = {}
            for i, s in chosen:
                removal.setdefault(i, []).append(s)
            target = source.remove(removal)
            darrow = validate_step(
                game, source, target, ReductionKind.DARROW, BeliefKind.PURE
            )
            if not isinstance(darrow, Step):
                continue
            checked += 1
            arrow = validate_step(
                game, source, target, ReductionKind.ARROW, BeliefKind.PURE
            )
            tilde = validate_step(
                game, source, target, ReductionKind.TILDE, BeliefKind.PURE
            )
            assert isinstance(arrow, Step)
            assert isinstance(tilde, Step)
        assert checked > 5


class TestFastRefinement:
    def test_fast_result_contained_in_any_partial_step(self):
        rng = random.Random(44)
        for trial in range(20):
            sizes = [rng.randint(2, 4), rng.randint(2, 4)]
            game = random_game(2, sizes, 5, seed=2000 + trial)
            source = full_restriction(game)
            for kind in (ReductionKind.TILDE, ReductionKind.ARROW):
                full_fast = fast_step(game, source, kind, BeliefKind.PURE)
                if full_fast is None:
                    continue
                cands = legal_removal_candidates(game, source, kind, BeliefKind.PURE)
                flat = [(i, s) for i, gone in enumerate(cands) for s in gone]
                chosen = [p for p in flat if rng.random() < 0.5] or [flat[0]]
                removal: dict[int, list[int]] = {}
                for i, s in chosen:
                    removal.setdefault(i, []).append(s)
                partial_target = source.remove(removal)
                assert partial_target.contains(full_fast.target)


class TestUserScript:
    def test_legal_schedule_applies(self, g):
        trace = iterate(
            g, ReductionKind.TILDE, BeliefKind.PURE, Policy.USER_SCRIPT,
            script=[{0: [2]}, {0: [1]}],
        )
        assert [s.removed for s in trace.steps] == [((2,), ()), ((1,), ())]
        assert trace.outcome.kept == ((0,), (0, 1))
        assert trace.maximal

    def test_early_stop_is_not_maximal(self, g):
        trace = iterate(
            g, ReductionKind.TILDE, BeliefKind.PURE, Policy.USER_SCRIPT,
            script=[{0: [2]}],
        )
        assert not trace.maximal
        assert "before a fixed point" in " ".join(trace.notes)

    def test_illegal_schedule_raises_with_rejection(self, g):
        with pytest.raises(IllegalStepError) as exc:
            iterate(
                g, ReductionKind.ARROW, BeliefKind.PURE, Policy.USER_SCRIPT,
                script=[{0: [0]}],  # the top row is a best response everywhere
            )
        assert exc.value.rejection.player == 0
        assert exc.value.rejection.strategy == 0

    def test_script_needs_schedule(self, g):
        with pytest.raises(InputError):
            iterate(g, ReductionKind.TILDE, BeliefKind.PURE, Policy.USER_SCRIPT)


class TestTraceRendering:
    def test_render_shape(self, g):
        trace = iterate(g, ReductionKind.TILDE, BeliefKind.PURE)
        text = trace.render()
        assert "step 1 kind=~ removed={p1:[M,B],p2:[]} -> kept={p1:[T],p2:[L,R]}" in text
        assert "outcome kept={p1:[T],p2:[L,R]} steps=1 maximal=yes" in text
        assert "cert step=1 p1 M NBR(exhaustive)" in text


class TestResidualSupports:
    """One shared cache answers every sweep as a stateless sweep does."""

    @staticmethod
    def corpus():
        rng = random.Random(5)
        games = []
        for k in range(24):
            players = 2 if k < 14 else 3
            sizes = [rng.randint(1, 5 if players == 2 else 3) for _ in range(players)]
            games.append(random_game(players, sizes, 5, seed=300 + k))
        return games

    @staticmethod
    def comparison(kind, game, current, player, s):
        if kind is ReductionKind.TILDE:
            return full_comparison(game, player)
        kept = current.kept[player]
        if kind is ReductionKind.ARROW:
            return ComparisonSet(player, kept)
        return ComparisonSet(player, tuple(t for t in kept if t != s))

    def test_incremental_sweep_matches_a_fresh_one(self):
        served = 0
        for n, game in enumerate(self.corpus()):
            for bk in BeliefKind:
                # One cache for every chain and relation on this game: later
                # chains start off the earlier ones, so entries answer
                # queries they were not made for.
                cache = OracleCache(bk)
                for kind in ReductionKind:
                    # None: drop any kept strategy, legal or not; the cache
                    # holds along every shrinking chain, not only legal ones.
                    for policy in (Policy.RANDOM_PARTIAL, Policy.SINGLE_RANDOM, None):
                        served += self.walk(game, kind, bk, policy, n, cache)
        assert served > 0

    def walk(self, game, kind, bk, policy, seed, cache):
        rng = random.Random(seed)
        current = full_restriction(game)
        served = 0
        while True:
            # What the cache would serve for each kept strategy is an answer.
            for player, ks in enumerate(current.kept):
                if not all(current.kept[j] for j in game.opponents(player)):
                    continue
                for s in ks:
                    cmp = self.comparison(kind, game, current, player, s)
                    cert = cache.lookup(player, s, current.bits, cmp)
                    if isinstance(cert, BestResponse):
                        assert narrowed_membership(bk, cert.witness, current, player)
                        assert is_best_response(game, player, s, cert.witness, cmp)
                    elif cert is not None:
                        fresh = find_witness(game, current, player, s, bk, cmp, 2)
                        assert isinstance(fresh, type(cert))
                    served += cert is not None
            sets, certs, flag = candidate_certificates(
                game, current, bk, kind, 2, cache
            )
            fresh_sets, fresh_certs, fresh_flag = candidate_certificates(
                game, current, bk, kind, 2, None
            )
            assert (sets, flag) == (fresh_sets, fresh_flag)
            assert {
                key: render_certificate(c, game, key[0]) for key, c in certs.items()
            } == {
                key: render_certificate(c, game, key[0])
                for key, c in fresh_certs.items()
            }
            flat = [(i, s) for i, gone in enumerate(sets) for s in gone]
            if policy is None:
                flat = [
                    (i, s) for i, ks in enumerate(current.kept) if len(ks) > 1
                    for s in ks
                ]
            if not flat:
                return served
            if policy is not Policy.RANDOM_PARTIAL:
                chosen = [flat[rng.randrange(len(flat))]]
            else:
                chosen = [pair for pair in flat if rng.getrandbits(1)] or flat[:1]
            removal: dict[int, list[int]] = {}
            for i, s in chosen:
                removal.setdefault(i, []).append(s)
            current = current.remove(removal)

    def test_a_restriction_off_the_chain_forgets(self, g):
        # M and B are best responses within {M,B}, but not once T is back.
        cache = OracleCache(BeliefKind.PURE)
        sub = restrict(g, [(1, 2), (0, 1)])
        for source, expected in ((sub, ((), ())), (full_restriction(g), ((1, 2), ()))):
            sets, _, _ = candidate_certificates(
                g, source, BeliefKind.PURE, ReductionKind.ARROW, cache=cache
            )
            assert sets == expected

    def test_never_best_fact_never_answers_an_empty_belief_set(self, g):
        # M is never-best on the full game; with no column left the answer
        # is vacuous, even though the restriction lies inside the known one.
        cache = OracleCache(BeliefKind.CORRELATED)
        full = full_restriction(g)
        cmp = full_comparison(g, 0)
        fact = find_witness(g, full, 0, 1, BeliefKind.CORRELATED, cmp, cache=cache)
        assert isinstance(fact, NeverBest)
        hollow = restrict(g, [(0, 1, 2), ()])
        assert isinstance(
            find_witness(g, hollow, 0, 1, BeliefKind.CORRELATED, cmp, cache=cache),
            EmptyBeliefSet,
        )
        _, certs, _ = candidate_certificates(
            g, hollow, BeliefKind.CORRELATED, ReductionKind.TILDE, cache=cache
        )
        assert all(isinstance(certs[(0, s)], EmptyBeliefSet) for s in range(3))


class TestFrontier:
    """A run re-decides only the answers a removal touched, and ends where a
    run with one stateless sweep per round ends, cache and all."""

    @staticmethod
    def pinched_window_with_a_dominated_strategy():
        # X is best only against the 1/3-2/3 mix of H and T, so at grid
        # resolution 2 its mixed answer stays inconclusive while W goes.
        def pay(profile):
            s1, s2, _ = profile
            return ((Fraction(2, 3), 2 * (s2 == 0), s2, -1)[s1], 0, 0)

        return FiniteGame.from_function([["X", "Y", "Z", "W"], ["H", "T"], ["m"]], pay)

    def test_iterate_matches_the_stateless_reference(self):
        games = TestResidualSupports.corpus() + [
            self.pinched_window_with_a_dominated_strategy()
        ]
        runs = 0
        for n, game in enumerate(games):
            for bk in BeliefKind:
                # One cache per side for every run on this game, so later
                # runs start from entries the earlier ones left.
                cache, reference_cache = OracleCache(bk), OracleCache(bk)
                for kind in ReductionKind:
                    for policy in (Policy.FAST, Policy.RANDOM_PARTIAL, Policy.SINGLE_RANDOM):
                        if policy is Policy.FAST and kind is ReductionKind.DARROW:
                            continue
                        for seed in (n, n + 100):
                            trace = iterate(
                                game, kind, bk, policy, seed, resolution=2, cache=cache
                            )
                            reference = iterate_reference(
                                game, kind, bk, policy, seed, reference_cache
                            )
                            assert trace.render() == reference.render()
                            runs += 1
                assert cache.witnesses == reference_cache.witnesses
                assert cache.never_best == reference_cache.never_best
        assert runs == len(games) * 3 * 8 * 2

    @pytest.mark.parametrize("kind", list(ReductionKind))
    def test_an_own_removal_redecides_arrow_and_darrow_facts(self, g, kind):
        # M and B are never-best beside T under every relation; once T is
        # gone (not a legal step) they are best responses within {M,B}
        # under arrow and darrow, so the sweep must not list them.
        cache = OracleCache(BeliefKind.PURE)
        frontier = Frontier(g, kind)
        sub = restrict(g, [(1, 2), (0, 1)])
        expected = ((1, 2), ()) if kind is ReductionKind.TILDE else ((), ())
        for source, sets in ((full_restriction(g), ((1, 2), ())), (sub, expected)):
            got, _, _ = candidate_certificates(
                g, source, BeliefKind.PURE, kind, cache=cache, frontier=frontier
            )
            assert got == sets

    def test_lookups_stay_near_the_strategy_count(self, monkeypatch):
        # A stateless sweep per round looks up every kept strategy: 1,829
        # lookups over the 58 rounds of each run here.
        game = bertrand_grid(30)
        lookups = []
        lookup = OracleCache.lookup

        def counted(self, *args):
            lookups.append(args)
            return lookup(self, *args)

        monkeypatch.setattr(OracleCache, "lookup", counted)
        for seed in range(3):
            lookups.clear()
            trace = iterate(
                game, ReductionKind.TILDE, BeliefKind.PURE, Policy.SINGLE_RANDOM, seed
            )
            assert len(trace.steps) == 58
            assert len(lookups) <= 2 * sum(game.sizes)


class TestSweepTable:
    """`iterate` sweeps each restriction once per cache, relation and
    resolution; a table hit reads the sets back and gives the same trace."""

    @staticmethod
    def counted_sweeps(monkeypatch):
        calls = []
        sweep = reductions.candidate_certificates

        def counted(*args, **kwargs):
            calls.append(args[3])  # the relation swept under
            return sweep(*args, **kwargs)

        monkeypatch.setattr(reductions, "candidate_certificates", counted)
        return calls

    def test_shared_cache_traces_match_fresh_ones(self, monkeypatch):
        sweeps = self.counted_sweeps(monkeypatch)
        games = TestResidualSupports.corpus() + [
            TestFrontier.pinched_window_with_a_dominated_strategy()
        ]
        rounds = 0
        for n, game in enumerate(games):
            for bk in BeliefKind:
                # The runs of `check_equivalence`, all on one cache.
                cache = OracleCache(bk)
                runs = [
                    (kind, Policy.FAST, 0)
                    for kind in (ReductionKind.TILDE, ReductionKind.ARROW)
                ] + [
                    (kind, Policy.SINGLE_RANDOM if k % 2 else Policy.RANDOM_PARTIAL,
                     child_seed(child_seed(n, j + 1), k))
                    for j, kind in enumerate(ReductionKind)
                    for k in range(3)
                ]
                for kind, policy, seed in runs:
                    trace = iterate(
                        game, kind, bk, policy, seed, resolution=2, cache=cache
                    )
                    fresh = iterate(game, kind, bk, policy, seed, resolution=2)
                    reference = iterate_reference(
                        game, kind, bk, policy, seed, OracleCache(bk)
                    )
                    assert trace.render() == fresh.render() == reference.render()
                    rounds += len(trace.steps) + 1
        # The shared cache swept far fewer rounds than the runs made: every
        # fresh and reference run sweeps each of its own rounds.
        shared = len(sweeps) - 2 * rounds
        assert 0 < shared < rounds / 2

    def test_a_rerun_sweeps_nothing(self, monkeypatch):
        sweeps = self.counted_sweeps(monkeypatch)
        game = random_game(2, [5, 5], 5, seed=11)
        for bk in BeliefKind:
            cache = OracleCache(bk)
            for kind in ReductionKind:
                for policy in (Policy.RANDOM_PARTIAL, Policy.SINGLE_RANDOM):
                    first = iterate(game, kind, bk, policy, 3, cache=cache)
                    sweeps.clear()
                    again = iterate(game, kind, bk, policy, 3, cache=cache)
                    assert sweeps == []
                    assert again.render() == first.render()
                    assert len(first.steps) > 0

    def test_each_relation_sweeps_for_itself(self, monkeypatch):
        # `check_equivalence` compares the relations' runs on one cache, so no
        # relation may read another's sweeps, even where, as here, one seed
        # of single removals walks one chain under all three.
        sweeps = self.counted_sweeps(monkeypatch)
        game = random_game(2, [5, 5], 5, seed=11)
        for bk in BeliefKind:
            cache = OracleCache(bk)
            chains = set()
            for kind in ReductionKind:
                sweeps.clear()
                trace = iterate(game, kind, bk, Policy.SINGLE_RANDOM, 3, cache=cache)
                assert sweeps == [kind] * (len(trace.steps) + 1)
                chains.add(tuple(step.target.bits for step in trace.steps))
            assert len(chains) == 1

    def test_each_resolution_keeps_its_own_answers(self):
        # X's mixed answer is inconclusive at resolution 2 and a witness at 3
        # (the 1/3-2/3 mix is on that grid); the coarse run comes first, so
        # both runs must give what a fresh cache gives.
        game = TestFrontier.pinched_window_with_a_dominated_strategy()
        bk = BeliefKind.INDEPENDENT_MIXED
        for kind in ReductionKind:
            policy = Policy.SINGLE_RANDOM if kind is ReductionKind.DARROW else Policy.FAST
            cache = OracleCache(bk)
            traces = {}
            for resolution in (2, 3):
                trace = iterate(
                    game, kind, bk, policy, 1, resolution=resolution, cache=cache
                )
                fresh = iterate(game, kind, bk, policy, 1, resolution=resolution)
                assert trace.render() == fresh.render()
                traces[resolution] = trace
            assert not traces[2].maximal and traces[3].maximal

    def test_a_second_game_is_refused_before_the_table_answers(self):
        # `fixed` is a fixed point, so its full restriction's entry lists
        # nothing removable; g has the same shape and bits, and that entry
        # must not answer for g, where M and B go.
        g = gap_3x2()
        fixed = FiniteGame.from_function(g.labels, lambda p: (0, 0))
        assert iterate(fixed, ReductionKind.TILDE, BeliefKind.PURE).steps == ()
        cache = OracleCache(BeliefKind.PURE)
        iterate(fixed, ReductionKind.TILDE, BeliefKind.PURE, cache=cache)
        with pytest.raises(InputError):
            iterate(g, ReductionKind.TILDE, BeliefKind.PURE, cache=cache)
