"""Reduction steps, fast variants, iteration policies, trace invariants."""

import gc
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nbrelim import oracle, reductions, verification
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
    Inconclusive,
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
    iterate,
    legal_removal_candidates,
    validate_step,
)
from nbrelim.verification import child_seed

from oracles import (
    enumerate_pure_beliefs,
    iterate_reference,
    narrowed_membership,
    removal_of,
    render_trace_reference,
    replay_fast_pure,
    trace_records_reference,
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

    def test_legal_steps_chain(self, g):
        full = full_restriction(g)
        first = validate_step(g, full, full.remove({0: [2]}), ReductionKind.TILDE,
                              BeliefKind.PURE)
        assert isinstance(first, Step)
        source = first.target
        second = validate_step(g, source, source.remove({0: [1]}), ReductionKind.TILDE,
                               BeliefKind.PURE)
        assert isinstance(second, Step)
        assert [s.removed for s in (first, second)] == [((2,), ()), ((1,), ())]
        assert second.target.kept == ((0,), (0, 1))

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

        assert dict(result.certificates)[0, 1] == EmptyBeliefSet()


class TestFastStep:
    """The first step of a fast trace removes the whole never-best set."""

    def test_gap_game_first_step(self, g):
        step = iterate(g, ReductionKind.TILDE, BeliefKind.PURE, Policy.FAST).steps[0]
        assert step.source == full_restriction(g)
        assert step.removed == ((1, 2), ())
        assert step.target.kept == ((0,), (0, 1))

    def test_fixed_point_returns_none(self, g):
        outcome = restrict_by_labels(g, [["T"], ["L", "R"]])
        sets, certs, inconclusive = candidate_certificates(
            g, outcome, BeliefKind.PURE, ReductionKind.TILDE
        )
        assert sets == ((), ()) and not certs and not inconclusive

    def test_hotelling_first_step_matches_oracle(self):
        game = hotelling_grid(99)
        history, _ = replay_fast_pure(game)
        trace = iterate(game, ReductionKind.TILDE, BeliefKind.PURE, Policy.FAST)
        step = trace.steps[0]
        assert step.target.kept == history[0]
        assert step.target.kept[0] == tuple(range(1, 98))  # positions 2..98

    def test_no_fast_darrow(self, g):
        with pytest.raises(UnsupportedOperationError, match="no fast darrow"):
            iterate(g, ReductionKind.DARROW, BeliefKind.PURE, Policy.FAST)


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
        # Every non-empty subset of the candidates is one legal darrow step: a
        # best reply to any belief is no candidate, so it stays in the target
        # and beats each removed strategy at that belief.
        rng = random.Random(5)
        joint = set()  # (players, restricted, belief kind) of joint removals
        for trial in range(400):
            players, restricted = 2 + trial % 2, trial % 4 > 1
            sizes = [rng.randint(2, 4) for _ in range(players)]
            game = random_game(players, sizes, 4, seed=1300 + trial)
            source = restrict(game, [
                sorted(rng.sample(range(n), rng.randint(1, n))) if restricted
                else range(n)
                for n in sizes
            ])
            for bk in BeliefKind:
                cands = legal_removal_candidates(
                    game, source, ReductionKind.DARROW, bk, resolution=2
                )
                flat = [(i, s) for i, gone in enumerate(cands) for s in gone]
                for size in range(1, min(len(flat), 4) + 1):
                    for chosen in itertools.combinations(flat, size):
                        result = validate_step(
                            game, source, source.remove(removal_of(chosen)),
                            ReductionKind.DARROW, bk, 2, OracleCache(bk),
                        )
                        assert isinstance(result, Step), (trial, bk, chosen)
                        if size > 1:
                            joint.add((players, restricted, bk))
        assert len(joint) == 2 * 2 * len(BeliefKind)


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

    def test_a_run_ending_beside_an_inconclusive_strategy_is_not_maximal(self):
        # After W goes, nothing is removable, but X's mixed answer is
        # inconclusive at resolution 2; at resolution 3 X has a witness.
        game = TestFrontier.pinched_window_with_a_dominated_strategy()
        note = "inconclusive strategies kept; sound, possibly non-maximal"
        for resolution, maximal in ((2, False), (3, True)):
            trace = iterate(
                game, ReductionKind.TILDE, BeliefKind.INDEPENDENT_MIXED,
                Policy.FAST, resolution=resolution,
            )
            assert [s.removed for s in trace.steps] == [((3,), (), ())]
            assert trace.outcome.kept == ((0, 1, 2), (0, 1), (0,))
            assert trace.maximal is maximal
            assert trace.notes == (() if maximal else (note,))

    @pytest.mark.parametrize("kind", [ReductionKind.ARROW, ReductionKind.DARROW])
    def test_an_unsound_sweep_raises(self, monkeypatch, kind):
        # An arrow or darrow step is validated once, and a rejection means
        # the sweep was unsound: it is raised, naming the rejected pair.
        validate, rejected = reductions.validate_step, []

        def reject_first_joint(game, source, target, *args):
            step = validate(game, source, target, *args)
            if not rejected and len(step.certificates) > 1:
                rejected.append(step.certificates[0][0])
                return Rejection(*rejected[0], Inconclusive(2), "inconclusive")
            return step

        monkeypatch.setattr(reductions, "validate_step", reject_first_joint)
        game = random_game(2, [5, 5], 5, seed=11)
        with pytest.raises(IllegalStepError) as exc:
            iterate(game, kind, BeliefKind.PURE, Policy.RANDOM_PARTIAL, 1)
        assert rejected
        rejection = exc.value.rejection
        assert (rejection.player, rejection.strategy) == rejected[0]

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
                fast = iterate(game, kind, BeliefKind.PURE, Policy.FAST).steps
                if not fast:
                    continue
                full_fast = fast[0]
                cands = legal_removal_candidates(game, source, kind, BeliefKind.PURE)
                flat = [(i, s) for i, gone in enumerate(cands) for s in gone]
                chosen = [p for p in flat if rng.random() < 0.5] or [flat[0]]
                removal: dict[int, list[int]] = {}
                for i, s in chosen:
                    removal.setdefault(i, []).append(s)
                partial_target = source.remove(removal)
                assert partial_target.contains(full_fast.target)


class TestTraceRendering:
    def test_render_shape(self, g):
        trace = iterate(g, ReductionKind.TILDE, BeliefKind.PURE)
        text = trace.render()
        assert "step 1 kind=~ removed={p1:[M,B],p2:[]} -> kept={p1:[T],p2:[L,R]}" in text
        assert "outcome kept={p1:[T],p2:[L,R]} steps=1 maximal=yes" in text
        assert "cert step=1 p1 M NBR(exhaustive)" in text

    def test_grid_traces_match_the_bitwise_reference(self):
        # Labels come off the masks, through a running list per player; the
        # reference lists every step's sets bit by bit.
        for game in (bertrand_grid(40), hotelling_grid(30)):
            for bk in BeliefKind:
                cache = OracleCache(bk)
                for kind in ReductionKind:
                    for policy in Policy:
                        if policy is Policy.FAST and kind is ReductionKind.DARROW:
                            continue
                        trace = iterate(game, kind, bk, policy, 7, resolution=2, cache=cache)
                        assert list(trace.records()) == trace_records_reference(trace)
                        assert trace.render() == render_trace_reference(trace)

    def test_steps_that_do_not_chain_render_from_their_own_masks(self, g):
        def tilde(source, target):
            return validate_step(g, source, target, ReductionKind.TILDE, BeliefKind.PURE)

        full = full_restriction(g)
        first = tilde(full, restrict(g, [(0, 2), (0, 1)]))
        second = tilde(restrict(g, [(0, 1), (0, 1)]), restrict(g, [(0,), (0, 1)]))
        # targets holding what their sources lack: T comes back, or M does
        # on a step that starts where the last one ended
        grows = Step(
            restrict(g, [(1, 2), (0, 1)]), restrict(g, [(0, 2), (0, 1)]), None,
            ReductionKind.TILDE, BeliefKind.PURE, (((0, 1), NeverBest("exhaustive")),),
        )
        swaps = Step(
            first.target, restrict(g, [(0, 1), (0, 1)]), None,
            ReductionKind.TILDE, BeliefKind.PURE, (((0, 2), NeverBest("exhaustive")),),
        )
        game = bertrand_grid(40)
        run = iterate(game, ReductionKind.TILDE, BeliefKind.CORRELATED,
                      Policy.SINGLE_RANDOM, 3).steps
        assert len(run) > 50
        rng = random.Random(3)
        for initial, steps in [
            (g, (first, second)),
            (g, (second, first)),
            (g, (first, first)),
            (g, (first, grows, second)),
            (g, (first, swaps, second)),
            (game, run[::2]),
            (game, run[::-1]),
            (game, run[:20] + run[30:]),
            (game, tuple(rng.sample(run, len(run)))),
        ]:
            trace = reductions.Trace(
                initial, ReductionKind.TILDE, BeliefKind.PURE, Policy.FAST, 0,
                steps, steps[-1].target,
            )
            assert list(trace.records()) == trace_records_reference(trace)
            assert trace.render() == render_trace_reference(trace)

    def test_a_derived_removed_equals_the_eager_one(self, g):
        # `iterate` and `validate_step` build steps with `removed` None; read,
        # it must be what a step built with its sets listed holds.
        traces = [
            iterate(game, kind, BeliefKind.CORRELATED, policy, 5)
            for game in (g, bertrand_grid(20), random_game(3, [4, 3, 5], 5, seed=4))
            for kind in (ReductionKind.TILDE, ReductionKind.DARROW)
            for policy in (Policy.RANDOM_PARTIAL, Policy.SINGLE_RANDOM)
        ]
        checked = 0
        for step in (step for trace in traces for step in trace.steps):
            source, target = step.source.kept, step.target.kept
            eager = tuple(
                tuple(s for s in own if s not in kept) for own, kept in zip(source, target)
            )
            listed = Step(step.source, step.target, eager, step.kind, step.belief_kind,
                          step.certificates)
            assert step.removed == eager and step == listed and hash(step) == hash(listed)
            assert sum(map(len, eager)) == len(step.certificates) > 0
            checked += 1
        assert checked > 100


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


class TestDarrowReuse:
    """Darrow decides `s` against the kept set minus `s`, and `s` ties with
    itself, so one cache serves arrow's and darrow's queries alike."""

    @staticmethod
    def games():
        return [random_game(2, [4, 5], 5, seed=700 + k) for k in range(30)]

    @staticmethod
    def counted_decisions(monkeypatch):
        """Records (player, strategy) of every decision made afresh, by a
        sweep or by `find_witness`."""
        calls = []
        decide = reductions._find_witness_fast

        def counted(*args, **kwargs):
            calls.append(args[2:4])
            return decide(*args, **kwargs)

        monkeypatch.setattr(reductions, "_find_witness_fast", counted)
        monkeypatch.setattr(oracle, "_find_witness_fast", counted)
        return calls

    def test_a_darrow_sweep_after_an_arrow_one_decides_nothing(self, monkeypatch):
        calls = self.counted_decisions(monkeypatch)
        for game in self.games():
            full = full_restriction(game)
            for bk in BeliefKind:
                cache = OracleCache(bk)
                arrow = candidate_certificates(
                    game, full, bk, ReductionKind.ARROW, cache=cache
                )
                calls.clear()
                darrow = candidate_certificates(
                    game, full, bk, ReductionKind.DARROW, cache=cache
                )
                assert calls == []
                assert (darrow[0], darrow[2]) == (arrow[0], arrow[2])

    def test_a_singleton_darrow_step_reads_the_sweep(self, monkeypatch):
        # the step compares s against the target's kept set, which lacks s;
        # the sweep proved its fact against the source's, which holds it
        calls = self.counted_decisions(monkeypatch)
        steps = 0
        for game in self.games():
            full = full_restriction(game)
            for bk in BeliefKind:
                cache = OracleCache(bk)
                sets, certs, _ = candidate_certificates(
                    game, full, bk, ReductionKind.DARROW, cache=cache
                )
                calls.clear()
                for player, gone in enumerate(sets):
                    for s in gone:
                        step = validate_step(
                            game, full, full.remove({player: [s]}),
                            ReductionKind.DARROW, bk, cache=cache,
                        )
                        assert step.certificates == (((player, s), certs[player, s]),)
                        steps += 1
                assert calls == []
        assert steps > 0

    @given(
        seed=st.integers(0, 10**6),
        bk=st.sampled_from(list(BeliefKind)),
        queries=st.lists(
            st.tuples(
                st.integers(0, 1),  # player
                st.integers(0, 2),  # strategy
                st.integers(0, (1 << 6) - 1),  # restriction mask
                st.integers(0, (1 << 3) - 1),  # comparison set
            ),
            min_size=1,
            max_size=25,
        ),
    )
    # Strategy 0 of player 1 is never-best against {0} and a best response
    # against the whole opponent set: the fact must not answer the second.
    @example(seed=0, bk=BeliefKind.PURE, queries=[(0, 0, 0b001111, 7), (0, 0, 0b111111, 7)])
    @settings(max_examples=100, deadline=None)
    def test_queries_with_or_without_the_strategy_share_one_cache(
        self, seed, bk, queries
    ):
        game = random_game(2, [3, 3], 2, seed=seed)
        cache = OracleCache(bk)
        for player, s, mask, cmp_mask in queries:
            # the opponent keeps its strategies of the mask, and at least one
            kept = [[t for t in range(3) if mask >> 3 * i + t & 1] for i in range(2)]
            kept[1 - player] = kept[1 - player] or [s]
            restriction = restrict(game, kept)
            others = {c for c in range(3) if cmp_mask >> c & 1} - {s}
            for candidates in (others | {s}, others):
                cmp = ComparisonSet(player, tuple(candidates))
                cert = find_witness(game, restriction, player, s, bk, cmp, cache=cache)
                fresh = find_witness(game, restriction, player, s, bk, cmp)
                assert type(cert) is type(fresh)
                if isinstance(cert, BestResponse):
                    assert narrowed_membership(bk, cert.witness, restriction, player)
                    assert is_best_response(game, player, s, cert.witness, cmp)


class TestFrontier:
    """A run re-decides only the answers a removal touched, and ends where a
    run with one stateless sweep per round ends, cache witnesses and all."""

    @staticmethod
    def pinched_window_with_a_dominated_strategy():
        # X is best only against the 1/3-2/3 mix of H and T, so at grid
        # resolution 2 its mixed answer stays inconclusive while W goes.
        def pay(profile):
            s1, s2, _ = profile
            return ((Fraction(2, 3), 2 * (s2 == 0), s2, -1)[s1], 0, 0)

        return FiniteGame.from_function([["X", "Y", "Z", "W"], ["H", "T"], ["m"]], pay)

    def runs_against_the_reference(self, witnesses_equal):
        """Every relation, belief kind and policy on the corpus, two seeds,
        one cache per side per game: traces equal, each never-best entry a
        fact, and the witness tables equal if `witnesses_equal`."""
        games = TestResidualSupports.corpus() + [
            self.pinched_window_with_a_dominated_strategy()
        ]
        runs = longest = 0
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
                if witnesses_equal:
                    assert cache.witnesses == reference_cache.witnesses
                # The reference re-decides every round, so it holds more
                # never-best entries; each of the engine's is a fact.
                for (player, s), entries in cache.never_best.items():
                    for cmp_bits, known_bits, _ in entries:
                        kept = [
                            [t for t in range(size) if known_bits >> offset + t & 1]
                            for offset, size in zip(game.offsets, game.sizes)
                        ]
                        cmp = ComparisonSet(player, [
                            t for t in range(game.sizes[player]) if cmp_bits >> t & 1
                        ])
                        fact = find_witness(game, restrict(game, kept), player, s, bk, cmp)
                        assert isinstance(fact, NeverBest)
                for side in (cache, reference_cache):
                    for table in (side.witnesses, side.never_best):
                        longest = max([longest, *map(len, table.values())])
        assert runs == len(games) * 3 * 8 * 2
        return longest

    def test_iterate_matches_the_stateless_reference(self, monkeypatch):
        # The reference decides more than the engine, so at the default
        # `DEPTH` the two sides can evict different entries and end with
        # different witness tables while every trace stays equal.  With no
        # list ever cut, the tables must be equal.
        monkeypatch.setattr(OracleCache, "DEPTH", 10**6)
        assert self.runs_against_the_reference(witnesses_equal=True) < 10**6

    def test_iterate_matches_the_reference_at_depth_one(self, monkeypatch):
        # Each answer evicts the last, so only traces and facts can agree.
        monkeypatch.setattr(OracleCache, "DEPTH", 1)
        assert self.runs_against_the_reference(witnesses_equal=False) == 1

    def test_sets_and_certificates_follow_the_mask(self, monkeypatch):
        # After each sweep of a run, the frontier's ascending tuples and its
        # dict name exactly the strategies of its removable mask, all kept: a
        # removed strategy's fact leaves all three, a new one enters each.
        last, dropped = {}, []  # frontier -> mask after its last sweep; facts gone
        sweep = reductions.candidate_certificates

        def checked(game, restriction, belief_kind, kind, resolution, cache, frontier):
            dropped.append((last.get(frontier, 0) & ~restriction.bits).bit_count())
            result = sweep(game, restriction, belief_kind, kind, resolution, cache, frontier)
            last[frontier] = frontier.removable
            pairs = [game.bit_pairs[b] for b in range(len(game.bit_pairs))
                     if frontier.removable >> b & 1]
            assert not frontier.removable & ~restriction.bits
            assert result[0] == tuple(frontier.sets) == tuple(
                tuple(s for i, s in pairs if i == player) for player in range(game.players)
            )
            assert result[1] is frontier.certs and sorted(frontier.certs) == pairs
            return result

        monkeypatch.setattr(reductions, "candidate_certificates", checked)
        for game in TestResidualSupports.corpus()[::3] + [bertrand_grid(12)]:
            for bk in (BeliefKind.PURE, BeliefKind.CORRELATED):
                cache = OracleCache(bk)
                for kind in ReductionKind:
                    for seed in range(3):
                        policy = (Policy.SINGLE_RANDOM, Policy.RANDOM_PARTIAL)[seed % 2]
                        iterate(game, kind, bk, policy, seed, cache=cache)
        assert len(dropped) > 100 and sum(dropped) > 100

    @pytest.mark.parametrize("kind", list(ReductionKind))
    def test_a_never_best_fact_is_decided_once_per_run(self, monkeypatch, kind):
        # A never-best fact holds for the rest of a run under every relation,
        # so no sweep decides its strategy again.
        decided = []
        decide = reductions._find_witness_fast

        def recorded(game, kept, player, s, *args):
            cert = decide(game, kept, player, s, *args)
            decided.append(((player, s), cert))
            return cert

        monkeypatch.setattr(reductions, "_find_witness_fast", recorded)
        redecided = facts = 0
        for game in (bertrand_grid(12), random_game(2, [6, 6], 2, seed=4)):
            for bk in (BeliefKind.PURE, BeliefKind.CORRELATED):
                for policy in (Policy.SINGLE_RANDOM, Policy.RANDOM_PARTIAL):
                    for seed in range(3):
                        decided.clear()
                        iterate(game, kind, bk, policy, seed, cache=OracleCache(bk))
                        known = set()
                        for pair, cert in decided:
                            redecided += pair in known
                            if isinstance(cert, NeverBest):
                                known.add(pair)
                        facts += len(known)
        assert facts > 0
        assert redecided == 0

    @pytest.mark.parametrize("kind", list(ReductionKind))
    @pytest.mark.parametrize("policy", [Policy.SINGLE_RANDOM, Policy.RANDOM_PARTIAL])
    def test_draws_past_one_machine_word_match_the_reference(self, kind, policy):
        # 80 strategy bits: a draw's k-th set bit crosses the 64-bit boundary.
        game = bertrand_grid(40)
        assert sum(game.sizes) > 64
        cache, reference_cache = OracleCache(BeliefKind.PURE), OracleCache(BeliefKind.PURE)
        for seed in range(3):
            trace = iterate(
                game, kind, BeliefKind.PURE, policy, seed, resolution=2, cache=cache
            )
            reference = iterate_reference(
                game, kind, BeliefKind.PURE, policy, seed, reference_cache
            )
            assert trace.render() == reference.render()
            assert any(  # some removal drawn past the first machine word
                game.offsets[1] + t >= 64 for step in trace.steps for t in step.removed[1]
            )

    @pytest.mark.parametrize("kind", list(ReductionKind))
    def test_an_emptied_opponent_set_leaves_only_vacuous_certificates(self, g, kind):
        # M and B are never-best on the full game, facts the frontier keeps.
        # With the columns gone, every kept row is removable vacuously, and no
        # certificate may be a never-best fact kept from the earlier sweep.
        cache = OracleCache(BeliefKind.CORRELATED)
        frontier = Frontier(g)
        full = full_restriction(g)
        sets, certs, _ = candidate_certificates(
            g, full, BeliefKind.CORRELATED, kind, cache=cache, frontier=frontier
        )
        assert sets == ((1, 2), ()) and isinstance(certs[0, 1], NeverBest)
        for current in (restrict(g, [(0, 1, 2), ()]), restrict(g, [(0, 2), ()])):
            sets, certs, _ = candidate_certificates(
                g, current, BeliefKind.CORRELATED, kind, cache=cache, frontier=frontier
            )
            assert sets == (current.kept[0], ())
            assert certs == {(0, s): EmptyBeliefSet() for s in current.kept[0]}
            step = reductions._certified_step(
                current, current.remove({0: [2]}), [(0, 2)], kind,
                BeliefKind.CORRELATED, certs,
            )
            assert step.certificates == (((0, 2), EmptyBeliefSet()),)
            assert "NBR(vacuous)" in render_certificate(step.certificates[0][1], g, 0)

    def test_a_frontier_needs_a_cache(self, g):
        # The frontier reads each witness's support from the cache.
        with pytest.raises(InputError):
            candidate_certificates(
                g, full_restriction(g), BeliefKind.PURE, ReductionKind.TILDE,
                frontier=Frontier(g),
            )

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


class TestColumnBests:
    """Along a run from the full game a kept column's best kept payoff is the
    game's own, so the run's sweeps read `game.colmax`; a sweep anywhere else
    computes the best over the kept set."""

    def test_in_run_column_bests_are_the_games(self, monkeypatch):
        # Payoffs in [-1, 1] tie often, so a column's best is often shared.
        checks = partial = 0
        decide = reductions._find_witness_fast

        def checked(game, kept, player, s, bk, cmp, resolution, bases, colmax):
            nonlocal checks, partial
            assert colmax == oracle._column_best(game, player, bases, cmp)
            checks += 1
            partial += len(cmp.candidates) < game.sizes[player]
            return decide(game, kept, player, s, bk, cmp, resolution, bases, colmax)

        monkeypatch.setattr(reductions, "_find_witness_fast", checked)
        games = [random_game(2, (5, 6), 1, seed) for seed in range(20)]
        games += [random_game(3, (3, 4, 3), 1, seed) for seed in range(10)]
        games += [bertrand_grid(10), hotelling_grid(8)]
        # The grids are symmetric, so player 2's queries are mostly answered
        # from player 1's cache entries: more asymmetric games keep the count.
        games += [random_game(2, (5, 6), 1, seed) for seed in range(20, 50)]
        for n, game in enumerate(games):
            for bk in BeliefKind:
                for kind in ReductionKind:
                    for policy in Policy:
                        if policy is Policy.FAST and kind is ReductionKind.DARROW:
                            continue
                        for seed in (n, n + 100):
                            iterate(game, kind, bk, policy, seed, resolution=2)
        assert partial > 900 and checks > partial

    @staticmethod
    def shadowed():
        # T tops both of player 1's columns; without T, M is best against L
        # and B against R.  Player 2 is indifferent.
        pay = {0: (3, 1, 0), 1: (3, 0, 1)}
        return FiniteGame.from_function(
            [["T", "M", "B"], ["L", "R"]], lambda p: (pay[p[1]][p[0]], 0)
        )

    @pytest.mark.parametrize("kind", [ReductionKind.ARROW, ReductionKind.DARROW])
    @pytest.mark.parametrize("bk", [BeliefKind.PURE, BeliefKind.CORRELATED])
    def test_a_sweep_off_the_full_game_computes_column_bests(self, kind, bk):
        # No legal step removes T, so these restrictions lie off every run;
        # `game.colmax` there would make M and B look never-best.
        game = self.shadowed()
        both, left = restrict(game, [(1, 2), (0, 1)]), restrict(game, [(1, 2), (0,)])
        assert legal_removal_candidates(game, both, kind, bk) == ((), ())
        assert legal_removal_candidates(game, left, kind, bk) == ((2,), ())
        frontier, cache = Frontier(game), OracleCache(bk)
        for restriction, want in ((both, ((), ())), (left, ((2,), ()))):
            sets, _, _ = candidate_certificates(
                game, restriction, bk, kind, cache=cache, frontier=frontier
            )
            assert sets == want
        # From the full game, M and B are the never-best ones.
        sets, _, _ = candidate_certificates(
            game, full_restriction(game), bk, kind, cache=OracleCache(bk),
            frontier=Frontier(game),
        )
        assert sets == ((1, 2), ())


class TestSeeding:
    """A run seeds its generator at its first draw, so a run that draws
    nothing builds none."""

    @staticmethod
    def counted_generators(monkeypatch):
        made = []

        class Counted(random.Random):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", Counted)
        return made

    def test_fast_and_zero_step_runs_build_no_generator(self, g, monkeypatch):
        made = self.counted_generators(monkeypatch)
        fast = iterate(g, ReductionKind.TILDE, BeliefKind.PURE, Policy.FAST, seed=3)
        assert fast.steps
        constant = FiniteGame.from_function([["a", "b"], ["x", "y"]], lambda p: (1, 1))
        for policy in (Policy.SINGLE_RANDOM, Policy.RANDOM_PARTIAL):
            idle = iterate(constant, ReductionKind.ARROW, BeliefKind.PURE, policy, seed=3)
            assert not idle.steps
        assert made == []

    @pytest.mark.parametrize("policy", [Policy.SINGLE_RANDOM, Policy.RANDOM_PARTIAL])
    def test_a_random_run_builds_one_seeded_generator(self, g, monkeypatch, policy):
        expected = iterate(g, ReductionKind.TILDE, BeliefKind.PURE, policy, seed=5)
        made = self.counted_generators(monkeypatch)
        trace = iterate(g, ReductionKind.TILDE, BeliefKind.PURE, policy, seed=5)
        assert len(trace.steps) > 1
        assert made == [(5,)]
        assert trace.render() == expected.render()


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

    # sha256 over the runs below of every step's certificates as `repr` writes
    # them, never-best mixtures included, as the engine gave them when each
    # sweep first listed its strategies per player and then decided them.
    CERTIFICATES = "e30949bf018d2e865ce3f2a2ff58b23f7bd8ad338fc107165c8292abc9bd61c7"

    @staticmethod
    def certificates_digest(monkeypatch):
        traces = []
        run = verification.iterate

        def kept(*args, **kwargs):
            traces.append(run(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(verification, "iterate", kept)
        digest, mixtures = hashlib.sha256(), 0
        # Each (player, strategy) is decided once a sweep, and a lookup reads
        # its own entries, or in a symmetric game the other player's too: the
        # grids are where a sweep's order can reach a later answer.
        games = TestResidualSupports.corpus() + [bertrand_grid(10), hotelling_grid(9)]
        for n, game in enumerate(games):
            for bk in BeliefKind:
                traces.clear()  # `check_equivalence`'s runs, on its one cache
                verification.check_equivalence(game, bk, seed=n, resolution=2)
                for trace in traces:
                    digest.update(f"{n} {trace.kind} {trace.policy} {trace.seed}\n".encode())
                    for step in trace.steps:
                        digest.update(f"{step.certificates!r}\n".encode())
                        mixtures += sum(
                            getattr(cert, "dominating", None) is not None
                            for _, cert in step.certificates
                        )
        return digest.hexdigest(), mixtures

    def test_step_certificates_keep_their_digest(self, monkeypatch):
        # `render()` shows a never-best proof's kind only, and the mixture a
        # proof carries rests on what the shared cache held when it was
        # decided: a sweep that decides in another order shows here.
        digest, mixtures = self.certificates_digest(monkeypatch)
        assert mixtures > 0
        assert digest == self.CERTIFICATES

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

    @staticmethod
    def rerun_corpus():
        """(game index, game, belief kind, relation, policy, seed) of seeded
        orders, tilde and arrow, over the residual-support corpus."""
        games = TestResidualSupports.corpus() + [
            TestFrontier.pinched_window_with_a_dominated_strategy()
        ]
        policies = (Policy.RANDOM_PARTIAL, Policy.SINGLE_RANDOM)
        for n, game in enumerate(games):
            for bk in BeliefKind:
                for kind in (ReductionKind.TILDE, ReductionKind.ARROW):
                    for k, policy in enumerate(policies):
                        yield n, game, bk, kind, policy, child_seed(n, k)

    def test_a_rerun_reads_certificates_from_the_cache(self, monkeypatch):
        # A re-run hits the table every round; each chosen strategy's
        # certificate is the cache's, and nothing is decided afresh (an arrow
        # re-run validates its steps through `find_witness`, which the cache
        # answers).
        calls = TestDarrowReuse.counted_decisions(monkeypatch)
        hits = 0
        for n, game, bk, kind, policy, seed in self.rerun_corpus():
            cache = OracleCache(bk)
            iterate(game, kind, bk, policy, seed, resolution=2, cache=cache)
            calls.clear()
            again = iterate(game, kind, bk, policy, seed, resolution=2, cache=cache)
            assert calls == []
            fresh = iterate(game, kind, bk, policy, seed, resolution=2)
            reference = iterate_reference(game, kind, bk, policy, seed, OracleCache(bk))
            certs = [[s.certificates for s in t.steps] for t in (again, fresh, reference)]
            assert certs[0] == certs[1] == certs[2]
            hits += len(again.steps)
        assert hits > 500

    def test_an_evicted_certificate_falls_back_to_the_oracle(self, monkeypatch):
        # With one entry per (player, strategy), the other runs on a shared
        # cache push out most certificates before a re-run reads them.  A
        # re-run sweeps nothing, so each decision it makes afresh is one that
        # was evicted.
        monkeypatch.setattr(OracleCache, "DEPTH", 1)
        decided = TestDarrowReuse.counted_decisions(monkeypatch)
        runs, evicted = {}, 0
        for n, game, bk, kind, policy, seed in self.rerun_corpus():
            runs.setdefault((n, bk), []).append((game, kind, policy, seed))
        for (n, bk), group in runs.items():
            cache = OracleCache(bk)
            for k, (game, kind, policy, seed) in enumerate(group + group):
                decided.clear()
                trace = iterate(game, kind, bk, policy, seed, resolution=2, cache=cache)
                evicted += len(decided) * (k >= len(group))
                fresh = iterate(game, kind, bk, policy, seed, resolution=2)
                assert trace.render() == fresh.render()
        assert evicted  # some certificate was evicted and decided again

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


class TestSharedSteps:
    """Runs on one cache share each transition a live trace already took,
    and the table keeps nothing that no trace holds."""

    @staticmethod
    def counted_builds(monkeypatch):
        calls = []
        for name in ("_certified_step", "validate_step"):
            build = getattr(reductions, name)

            def counted(*args, name=name, build=build, **kwargs):
                calls.append(name)
                return build(*args, **kwargs)

            monkeypatch.setattr(reductions, name, counted)
        return calls

    def test_a_held_transition_builds_nothing(self, monkeypatch):
        builds = self.counted_builds(monkeypatch)
        game = random_game(2, [5, 5], 5, seed=11)
        for bk in BeliefKind:
            # An entry lives as long as the trace that first took it, which
            # may be an earlier run's: every trace is held.
            cache, held = OracleCache(bk), []
            for kind in ReductionKind:
                for policy in (Policy.RANDOM_PARTIAL, Policy.SINGLE_RANDOM):
                    first = iterate(game, kind, bk, policy, 3, cache=cache)
                    builds.clear()
                    again = iterate(game, kind, bk, policy, 3, cache=cache)
                    held += [first, again]
                    assert builds == []
                    assert len(again.steps) == len(first.steps) > 0
                    assert all(a is b for a, b in zip(again.steps, first.steps))
                    assert again.outcome is first.outcome
                    # keyed by the source's bits and the drop mask
                    assert {
                        (step.source.bits, step.source.bits & ~step.target.bits): step
                        for step in first.steps
                    }.items() <= cache.steps[kind, 8].items()

    def test_dropped_traces_leave_an_empty_table(self):
        # Refcounting alone frees the traces: no step or trace is in a cycle.
        game = random_game(2, [4, 5], 5, seed=2)
        gc.disable()
        try:
            for bk in BeliefKind:
                cache = OracleCache(bk)
                traces = [
                    iterate(game, kind, bk, policy, seed, cache=cache)
                    for kind in ReductionKind
                    for policy in (Policy.RANDOM_PARTIAL, Policy.SINGLE_RANDOM)
                    for seed in range(5)
                ]
                assert sum(map(len, cache.steps.values())) > 0
                del traces
                assert list(cache.steps) == [(kind, 8) for kind in ReductionKind]
                assert all(table == {} for table in cache.steps.values())
        finally:
            gc.enable()

    @pytest.mark.parametrize("kind", list(ReductionKind))
    def test_a_run_that_raises_shares_nothing(self, monkeypatch, kind):
        name = "_certified_step" if kind is ReductionKind.TILDE else "validate_step"
        build, built = getattr(reductions, name), []

        def failing(*args, **kwargs):
            if len(built) == 2:
                raise RuntimeError("step three")
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(reductions, name, failing)
        game = bertrand_grid(10)
        cache = OracleCache(BeliefKind.PURE)
        with pytest.raises(RuntimeError):
            iterate(game, kind, BeliefKind.PURE, Policy.SINGLE_RANDOM, 1, cache=cache)
        assert len(built) == 2
        assert cache.steps == {(kind, 8): {}}

    def test_shared_steps_match_fresh_runs(self):
        shared = 0
        for n, game in enumerate(TestResidualSupports.corpus()):
            for bk in BeliefKind:
                cache, held, seen = OracleCache(bk), [], set()
                for kind in ReductionKind:
                    policies = [Policy.RANDOM_PARTIAL, Policy.SINGLE_RANDOM]
                    if kind is not ReductionKind.DARROW:
                        policies.append(Policy.FAST)
                    for policy in policies:
                        # the same seeds under every relation: one chain of
                        # removals is often walked under all three
                        for seed in (n, n + 1, n + 2):
                            trace = iterate(
                                game, kind, bk, policy, seed, resolution=2, cache=cache
                            )
                            fresh = iterate(game, kind, bk, policy, seed, resolution=2)
                            reference = iterate_reference(
                                game, kind, bk, policy, seed, OracleCache(bk)
                            )
                            assert trace.render() == fresh.render() == reference.render()
                            shared += sum(id(step) in seen for step in trace.steps)
                            seen.update(map(id, trace.steps))
                            held.append(trace)
        assert shared > 1000  # of the 2,874 steps taken


class TestStartingFrontier:
    """A run on a cache goes on from a copy of the frontier its relation's
    first run left at the full restriction, so its first sweep re-decides
    only the strategies whose witnesses lost a strategy since."""

    @staticmethod
    def counted_copies(monkeypatch):
        copies = []
        copy = Frontier.copy

        def counted(self):
            copies.append(self)
            return copy(self)

        monkeypatch.setattr(Frontier, "copy", counted)
        return copies

    def test_runs_on_one_cache_match_fresh_ones_and_the_reference(self, monkeypatch):
        # No trace is held, so no step is shared and every later run sweeps
        # from its start's copy once it leaves the restrictions swept before.
        copies = self.counted_copies(monkeypatch)
        runs = 0
        for n, game in enumerate(TestResidualSupports.corpus()):
            for bk in BeliefKind:
                cache = OracleCache(bk)
                for kind in ReductionKind:
                    policies = [Policy.RANDOM_PARTIAL, Policy.SINGLE_RANDOM]
                    if kind is not ReductionKind.DARROW:
                        policies.append(Policy.FAST)
                    for policy in policies:
                        for seed in (n, n + 1, n + 2):
                            trace = iterate(
                                game, kind, bk, policy, seed, resolution=2, cache=cache
                            )
                            fresh = iterate(game, kind, bk, policy, seed, resolution=2)
                            reference = iterate_reference(
                                game, kind, bk, policy, seed, OracleCache(bk)
                            )
                            assert trace.render() == fresh.render() == reference.render()
                            runs += 1
                assert set(cache.starts) == {(kind, 2) for kind in ReductionKind}
        # One copy stored per cache and relation, and one per fresh run; the
        # rest (216) are later runs' starts.  Most later runs on these small
        # games sweep nothing the cache has not swept.
        stored = len(TestResidualSupports.corpus()) * 3 * 3 + runs
        assert len(copies) - stored > 150

    @pytest.mark.parametrize("bk", [BeliefKind.PURE, BeliefKind.CORRELATED])
    def test_a_later_run_looks_up_only_what_its_removals_woke(self, monkeypatch, bk):
        game = bertrand_grid(12)
        cache = OracleCache(bk)
        first = iterate(game, ReductionKind.TILDE, bk, Policy.RANDOM_PARTIAL, 1, cache=cache)
        start = cache.starts[ReductionKind.TILDE, 8]
        watched = [0] * len(game.bit_pairs)  # strategy bit -> the bits it watches
        for bit, mask in enumerate(start.watchers):
            for b in range(len(watched)):
                watched[b] |= (mask >> b & 1) << bit
        sweeps = []  # per sweep: its restriction's bits and the bits looked up
        inside = []  # non-empty while a sweep runs: a step's build looks up too
        sweep, lookup = reductions.candidate_certificates, OracleCache.lookup

        def swept(game, restriction, *args):
            sweeps.append((restriction.bits, []))
            inside.append(True)
            try:
                return sweep(game, restriction, *args)
            finally:
                inside.pop()

        def counted(self, player, s, *args):
            if inside:
                sweeps[-1][1].append(game.offsets[player] + s)
            return lookup(self, player, s, *args)

        monkeypatch.setattr(reductions, "candidate_certificates", swept)
        monkeypatch.setattr(OracleCache, "lookup", counted)
        second = iterate(game, ReductionKind.TILDE, bk, Policy.SINGLE_RANDOM, 2, cache=cache)
        assert second.steps[0].target != first.steps[0].target
        bits, looked = sweeps[0]
        woken = [
            b for b in range(len(watched))
            if bits >> b & 1 and watched[b] & ~bits and not start.removable >> b & 1
        ]
        assert looked == woken  # ascending: player after player
        # A run from a fresh frontier looks up every kept strategy here.
        assert 0 < len(looked) < bits.bit_count() / 2
        assert second.render() == iterate(
            game, ReductionKind.TILDE, bk, Policy.SINGLE_RANDOM, 2
        ).render()
