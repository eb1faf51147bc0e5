"""Best-response oracle: certificates, LP routes, grids, caching, determinism."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nbrelim.beliefs import (
    BeliefKind,
    DistributionBelief,
    ProductBelief,
    PurePoint,
)
from nbrelim import oracle
from nbrelim.catalog import bertrand_grid, gap_3x2, hotelling_grid, random_game
from nbrelim.games import FiniteGame, InputError, full_restriction, restrict
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

from nbrelim import reductions
from nbrelim.reductions import (
    Policy,
    ReductionKind,
    candidate_certificates,
    comparison_for,
    iterate,
    legal_removal_candidates,
)

from oracles import (
    best_response_set,
    correlated_row_generation,
    first_pure_dominator,
    grid_distributions,
    grid_product_witness_reference,
    is_pure_best_to_some,
    lp_feasible_reference,
    mixture_beats,
    opponent_profiles,
    replay_fast_pure,
)


@pytest.fixture(scope="module")
def g():
    return gap_3x2()


def matching_pennies():
    table = {
        (0, 0): (1, -1),
        (0, 1): (-1, 1),
        (1, 0): (-1, 1),
        (1, 1): (1, -1),
    }
    return FiniteGame([["H", "T"], ["h", "t"]], table)


def mixed_dominance_game():
    # C is beaten by the A/B coin flip but by neither pure strategy alone
    table = {
        (0, 0): (3, 0), (0, 1): (0, 0),
        (1, 0): (0, 0), (1, 1): (3, 0),
        (2, 0): (1, 0), (2, 1): (1, 0),
    }
    return FiniteGame([["A", "B", "C"], ["L", "R"]], table)


def pinched_window_3p():
    # X is best only against the opponent mix (1/3 H, 2/3 T): the Y row forces
    # q <= 1/3 and the Z row forces q >= 1/3.  Player 3 is a spectator.
    def pay(profile):
        s1, s2, _ = profile
        if s1 == 0:
            return (Fraction(2, 3), 0, 0)
        if s1 == 1:
            return (2 if s2 == 0 else 0, 0, 0)
        return (0 if s2 == 0 else 1, 0, 0)

    return FiniteGame.from_function([["X", "Y", "Z"], ["H", "T"], ["m"]], pay)


class TestIsBestResponse:
    def test_bottom_not_best_globally(self, g):
        # against L, the top row's 2 beats the bottom row's 1
        assert not is_best_response(g, 0, 2, PurePoint((0,)), full_comparison(g, 0))

    def test_bottom_best_locally(self, g):
        assert is_best_response(g, 0, 2, PurePoint((0,)), ComparisonSet(0, (1, 2)))

    def test_self_comparison(self, g):
        for s in range(3):
            assert is_best_response(g, 0, s, PurePoint((1,)), ComparisonSet(0, (s,)))

    def test_wrong_player_comparison(self, g):
        with pytest.raises(InputError):
            is_best_response(g, 0, 0, PurePoint((0,)), ComparisonSet(1, (0,)))


class TestComparisonSet:
    @given(
        player=st.integers(0, 2),
        raw=st.lists(st.integers(0, 7), max_size=10),
        drop=st.integers(0, 7),
    )
    @settings(max_examples=100, deadline=None)
    def test_trusted_constructor_equals_the_checked_one(self, player, raw, drop):
        # the checked constructor sorts and deduplicates; the trusted one
        # takes a normalized tuple and a mask built apart from it: the kept
        # set's, and, as `comparison_for` builds a darrow target's set after
        # one strategy's removal, the kept set's without that strategy
        kept = tuple(sorted(set(raw)))
        bits = sum(1 << c for c in kept)
        without = tuple(c for c in kept if c != drop)
        for candidates, trusted in (
            (raw, ComparisonSet._trusted(player, kept, bits)),
            ([c for c in raw if c != drop],
             ComparisonSet._trusted(player, without, bits & ~(1 << drop))),
        ):
            checked = ComparisonSet(player, tuple(candidates))
            assert (trusted.candidates, trusted.bits) == (checked.candidates, checked.bits)
            assert trusted == checked and hash(trusted) == hash(checked)


class TestFindWitness:
    def test_middle_never_best_pure(self, g):
        cert = find_witness(
            g, full_restriction(g), 0, 1, BeliefKind.PURE, full_comparison(g, 0)
        )
        assert cert == NeverBest("exhaustive")

    def test_top_has_pure_witness(self, g):
        cert = find_witness(
            g, full_restriction(g), 0, 0, BeliefKind.PURE, full_comparison(g, 0)
        )
        assert isinstance(cert, BestResponse)
        assert is_best_response(g, 0, 0, cert.witness, full_comparison(g, 0))

    def test_strict_pure_dominance_correlated(self):
        table = {(0, 0): (3, 0), (0, 1): (3, 0), (1, 0): (1, 0), (1, 1): (1, 0)}
        game = FiniteGame([["A", "B"], ["L", "R"]], table)
        cert = find_witness(
            game, full_restriction(game), 0, 1, BeliefKind.CORRELATED,
            full_comparison(game, 0),
        )
        assert isinstance(cert, NeverBest)
        assert cert.proof in ("lp", "dominated")

    def test_mixed_dominance_needs_the_lp(self):
        game = mixed_dominance_game()
        cert = find_witness(
            game, full_restriction(game), 0, 2, BeliefKind.CORRELATED,
            full_comparison(game, 0),
        )
        # neither A nor B beats C alone: the two-row proof carries the
        # coin flip that does
        assert cert.proof == "lp"
        assert cert.dominating == ((0, Fraction(1, 2)), (1, Fraction(1, 2)))
        assert mixture_beats(game, 0, 2, full_restriction(game).kept, cert.dominating)
        # ... but C survives under pure beliefs? no: (1,1) loses to 3s anywhere
        pure = find_witness(
            game, full_restriction(game), 0, 2, BeliefKind.PURE,
            full_comparison(game, 0),
        )
        assert pure == NeverBest("exhaustive")

    def test_matching_pennies_everyone_best(self):
        game = matching_pennies()
        cmp = full_comparison(game, 0)
        for s in (0, 1):
            cert = find_witness(
                game, full_restriction(game), 0, s, BeliefKind.CORRELATED, cmp
            )
            assert isinstance(cert, BestResponse)
            assert is_best_response(game, 0, s, cert.witness, cmp)
        # the uniform distribution is also a witness for either strategy,
        # and a denominator-4 grid enumeration agrees with the verdict
        uniform = DistributionBelief(
            (((0,), Fraction(1, 2)), ((1,), Fraction(1, 2)))
        )
        assert is_best_response(game, 0, 0, uniform, cmp)
        assert is_best_response(game, 0, 1, uniform, cmp)
        profiles = list(opponent_profiles(game, 0))
        for s in (0, 1):
            assert any(
                is_best_response(game, 0, s, mu, cmp)
                for mu in grid_distributions(profiles, 4)
            )

    def test_two_player_mixed_delegates_to_correlated(self):
        game = mixed_dominance_game()
        cert = find_witness(
            game, full_restriction(game), 0, 2, BeliefKind.INDEPENDENT_MIXED,
            full_comparison(game, 0),
        )
        assert isinstance(cert, NeverBest)
        witness_cert = find_witness(
            game, full_restriction(game), 0, 0, BeliefKind.INDEPENDENT_MIXED,
            full_comparison(game, 0),
        )
        assert isinstance(witness_cert, BestResponse)
        assert isinstance(witness_cert.witness, ProductBelief)

    def test_empty_belief_set_flagged(self, g):
        degenerate = restrict(g, [(0, 1, 2), ()])
        cert = find_witness(
            g, degenerate, 0, 0, BeliefKind.PURE, full_comparison(g, 0)
        )
        assert cert == EmptyBeliefSet()

    def test_empty_comparison_set_always_best(self, g):
        cert = find_witness(
            g, full_restriction(g), 0, 1, BeliefKind.PURE, ComparisonSet(0, ())
        )
        assert isinstance(cert, BestResponse)

    def test_out_of_range_comparison_set_rejected(self, g):
        # Candidate 4 of a 4-strategy player used to read a neighbouring row.
        game = random_game(2, (3, 4), 5, 2)
        for kind in BeliefKind:
            with pytest.raises(InputError):
                find_witness(
                    game, full_restriction(game), 1, 0, kind, ComparisonSet(1, (4,))
                )
        with pytest.raises(InputError):
            find_witness(
                g, full_restriction(g), 0, 0, BeliefKind.PURE, ComparisonSet(0, (3,))
            )
        with pytest.raises(InputError):
            ComparisonSet(1, (-1,))


class TestDecisionLadder:
    """A pure witness answers every belief kind: the lexicographically first
    kept opponent profile against which the strategy is a best response,
    in the kind's belief form.  Without one, pure beliefs are exhausted."""

    @staticmethod
    def pure_form(kind, profile):
        if kind is BeliefKind.PURE:
            return PurePoint(profile)
        if kind is BeliefKind.CORRELATED:
            return DistributionBelief(((profile, Fraction(1)),))
        return ProductBelief(tuple(((t, Fraction(1)),) for t in profile))

    def test_first_pure_witness_in_the_kinds_form(self):
        from nbrelim.verification import random_restriction

        rng = random.Random(41)
        hits, misses = set(), set()
        for trial in range(24):
            players = 2 + trial % 2
            sizes = [rng.randint(1, 5 - players) for _ in range(players)]
            # payoffs in [-2, 2] make ties, and so several pure witnesses, common
            game = random_game(players, sizes, 2, seed=700 + trial)
            for restriction, player, kind in itertools.product(
                (full_restriction(game), random_restriction(game, rng)),
                range(players),
                BeliefKind,
            ):
                kept = restriction.kept
                axes = [kept[j] for j in range(players) if j != player]
                for candidates in (range(sizes[player]), kept[player], ()):
                    cmp = ComparisonSet(player, tuple(candidates))
                    for s in kept[player]:
                        cert = find_witness(
                            game, restriction, player, s, kind, cmp, resolution=2
                        )
                        first = next(
                            (
                                opp
                                for opp in itertools.product(*axes)
                                if s in best_response_set(
                                    game, player, opp, {s, *candidates}
                                )
                            ),
                            None,
                        )
                        if first is not None:
                            hits.add((players, kind))
                            assert cert == BestResponse(self.pure_form(kind, first))
                            continue
                        misses.add((players, kind))
                        if kind is BeliefKind.PURE:
                            assert cert == NeverBest("exhaustive")
                        elif isinstance(cert, BestResponse):
                            assert len(cert.witness.support()) > 1
                            assert is_best_response(game, player, s, cert.witness, cmp)
                        else:
                            assert isinstance(cert, (NeverBest, Inconclusive))
        every = {(n, kind) for n in (2, 3) for kind in BeliefKind}
        assert hits == every and misses == every


class TestCorrelatedRowGeneration:
    """The support-only violation scan with incremental rows over integer
    pivots decides as a dense scan over the plain-Fraction reference LP."""

    @staticmethod
    def lp_path_against_reference(game, seed, monkeypatch, reached=None):
        """Every query that reaches the LP, for both comparison sets over
        seeded restrictions, against the reference; returns the most rows
        generated by one query and the reference verdicts seen, and adds each
        player whose query reached the LP to `reached`.  A query whose two
        rows the closed form settles makes one LP call for two rows."""
        lp_calls, settled = [], []
        real, real_pair = oracle.lp_feasible, oracle._pair_mixture

        def counting(inequalities, *args, **kwargs):
            lp_calls.append(len(inequalities))
            return real(inequalities, *args, **kwargs)

        def counting_pair(r1, r2):
            lam = real_pair(r1, r2)
            settled.append(lam is not None)
            return lam

        monkeypatch.setattr(oracle, "lp_feasible", counting)
        monkeypatch.setattr(oracle, "_pair_mixture", counting_pair)
        rng = random.Random(seed)
        most_rows = 0
        verdicts = set()
        for _ in range(10):
            kept = [sorted(rng.sample(range(k), rng.randint(3, k))) for k in game.sizes]
            r = restrict(game, kept)
            for player in range(game.players):
                for cmp, s in itertools.product(
                    (ComparisonSet(player, kept[player]), full_comparison(game, player)),
                    kept[player],
                ):
                    lp_calls.clear()
                    settled.clear()
                    cert = find_witness(game, r, player, s, BeliefKind.CORRELATED, cmp)
                    if not lp_calls:
                        continue  # settled by the pure scans before any LP
                    tag, atoms, rows = correlated_row_generation(
                        game, player, s, kept, cmp.candidates, lp_feasible_reference
                    )
                    assert rows == len(lp_calls) + (True in settled)
                    if tag == "nbr":
                        assert cert.proof == "lp"
                        assert (cert.dominating is not None) == (rows == 2)
                        if cert.dominating is not None:
                            assert {k for k, _ in cert.dominating} <= set(cmp.candidates)
                            assert mixture_beats(game, player, s, kept, cert.dominating)
                    else:
                        assert cert == BestResponse(DistributionBelief(atoms))
                    most_rows = max(most_rows, rows)
                    verdicts.add(tag)
                    if reached is not None:
                        reached.add(player)
        return most_rows, verdicts

    @pytest.mark.parametrize("build", [bertrand_grid, hotelling_grid])
    def test_wide_grid_verdicts_match_reference(self, build, monkeypatch):
        most_rows, verdicts = self.lp_path_against_reference(build(16), 2, monkeypatch)
        assert most_rows >= 3
        assert verdicts == {"br", "nbr"}

    def test_tied_violations_pick_the_first_competitor(self, monkeypatch):
        # Payoffs in [-2, 2] make equal violations common.
        for seed in range(4):
            game = random_game(2, (7, 7), 2, seed)
            most_rows, verdicts = self.lp_path_against_reference(game, seed, monkeypatch)
            assert most_rows >= 3
            assert verdicts == {"br", "nbr"}

    @staticmethod
    def cyclic_three_player(sizes, seed):
        """Player i's payoff, in [-1, 1], depends on its own strategy and
        player i + 1's only, so every column repeats along the third axis.
        Uniform random 3-player games of this size reach no LP: against nine
        or more opponent profiles nearly every strategy is a pure best reply."""
        rng = random.Random(seed)
        table = [
            [[rng.randint(-1, 1) for _ in range(sizes[(i + 1) % 3])] for _ in range(n)]
            for i, n in enumerate(sizes)
        ]
        labels = [[f"s{k}" for k in range(n)] for n in sizes]
        return FiniteGame.from_function(
            labels, lambda p: tuple(table[i][p[i]][p[(i + 1) % 3]] for i in range(3))
        )

    def test_three_player_strides_match_reference(self, monkeypatch):
        # Each player's candidates sit at its own stride in the tensor, read
        # as one slice when they are consecutive, as a full comparison set is.
        reached, verdicts, most_rows = set(), set(), 0
        for sizes in ((5, 6, 5), (6, 6, 6)):
            for seed in range(4):
                game = self.cyclic_three_player(sizes, seed)
                rows, seen = self.lp_path_against_reference(
                    game, seed, monkeypatch, reached
                )
                most_rows, verdicts = max(most_rows, rows), verdicts | seen
        assert reached == {0, 1, 2}
        assert most_rows >= 3
        assert verdicts == {"br", "nbr"}

    def test_a_stuck_solver_meets_the_row_bound(self, monkeypatch):
        # A solver that keeps returning its first vertex makes the scan pick
        # the same competitor again and again.  Each generated row's
        # competitor is new, so the oracle stops at one row per candidate
        # with an internal error, long before the solver gives up.  The
        # query's first two rows admit no dominating mixture, so the
        # closed form passes them on and the stuck solver is reached.
        class SolverGaveUp(Exception):
            pass

        real, vertex, calls = oracle.lp_feasible, [], []

        def stuck(*args, **kwargs):
            calls.append(args)
            if len(calls) > 50:
                raise SolverGaveUp
            if not vertex:
                vertex.append(real(*args, **kwargs))
            return vertex[0]

        game = random_game(2, (8, 8), 2, 1)
        monkeypatch.setattr(oracle, "lp_feasible", stuck)
        with pytest.raises(RuntimeError, match="bound of 8 rows"):
            find_witness(
                game, full_restriction(game), 0, 0, BeliefKind.CORRELATED,
                full_comparison(game, 0),
            )
        assert len(calls) == 8


class TestPairMixture:
    """Two generated rows decide their LP in closed form: by Farkas' lemma
    it is infeasible iff some mixture of the two competitors strictly beats
    the strategy at every kept base, and the proof carries that mixture."""

    @staticmethod
    def beats(lam, r1, r2):
        return all(lam * a + (1 - lam) * c < 0 for a, c in zip(r1, r2))

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(*[st.lists(st.integers(-3, 3), min_size=n, max_size=n)] * 2)
        )
    )
    @example(([0, 0], [0, 0]))  # zero rows
    @example(([0, 0, 0], [-1, -2, -1]))
    @example(([-1, 2, 1], [-1, -3, 1]))  # equal entries, one of them >= 0
    @example(([-1, 2], [-1, -3]))
    @example(([-2, -1], [-2, -1]))  # equal rows, a pure dominator
    @settings(max_examples=400, deadline=None)
    def test_pair_agrees_with_the_reference_lp(self, rows):
        r1, r2 = rows
        n = len(r1)
        lam = oracle._pair_mixture(r1, r2)
        point = lp_feasible_reference([(r1, 0), (r2, 0)], ([1] * n, 1), num_vars=n)
        assert (lam is None) == (point is not None)
        if lam is None:
            return
        assert 0 < lam < 1 and self.beats(lam, r1, r2)
        # the simplest such λ: no smaller denominator has one
        assert not any(
            self.beats(Fraction(p, q), r1, r2)
            for q in range(2, lam.denominator)
            for p in range(1, q)
        )

    @pytest.mark.parametrize("build, n", [(bertrand_grid, 40), (hotelling_grid, 30)])
    def test_stored_mixtures_beat_on_the_source(self, build, n):
        game = build(n)
        proofs = []
        for kind in ReductionKind:
            runs = [(Policy.RANDOM_PARTIAL, seed) for seed in (0, 1)]
            if kind is not ReductionKind.DARROW:
                runs.append((Policy.FAST, 0))
            for policy, seed in runs:
                trace = iterate(game, kind, BeliefKind.CORRELATED, policy, seed)
                for step in trace.steps:
                    for (player, s), cert in step.certificates:
                        assert isinstance(cert, NeverBest) and cert.dominating
                        assert mixture_beats(
                            game, player, s, step.source.kept, cert.dominating
                        )
                        proofs.append((cert.proof, len(cert.dominating)))
        # the grid's correlated proofs are pure dominators and two-row LPs
        assert set(proofs) <= {("dominated", 1), ("lp", 2)}
        assert ("dominated", 1) in proofs
        assert (("lp", 2) in proofs) == (build is bertrand_grid)


class TestRangeBases:
    """One opponent with consecutive kept strategies gets its bases as a
    `range`, and the oracle reads its payoff rows as strided slices."""

    @staticmethod
    def restrictions(game, rng, count):
        for _ in range(count):
            kept = []
            for size in game.sizes:
                if rng.random() < 0.6:  # a block: a prefix, a middle, all
                    lo = rng.randrange(size)
                    kept.append(range(lo, rng.randint(lo + 1, size)))
                else:
                    kept.append(sorted(rng.sample(range(size), rng.randint(1, size))))
            yield restrict(game, kept)

    def test_opponent_bases_is_a_range_for_one_consecutive_opponent(self):
        rng = random.Random(27)
        shapes = set()
        for game in (bertrand_grid(16), hotelling_grid(16), random_game(3, (4, 3, 4), 3, 9)):
            for r in itertools.chain([full_restriction(game)], self.restrictions(game, rng, 30)):
                for player in range(game.players):
                    bases = game.opponent_bases(player, r.kept)
                    profiles = opponent_profiles(game, player, r.kept)
                    assert list(bases) == [game.profile_base(player, o) for o in profiles]
                    block = all(
                        r.kept[j] == tuple(range(r.kept[j][0], r.kept[j][-1] + 1))
                        for j in game.opponents(player)
                    )
                    is_range = type(bases) is range
                    assert is_range == (game.players == 2 and block)
                    shapes.add((game.players, block, is_range))
            assert type(game.opponent_bases(0)) is (range if game.players == 2 else list)
        assert shapes == {
            (2, True, True), (2, False, False), (3, True, False), (3, False, False)
        }

    def test_range_bases_decide_as_list_bases(self):
        rng = random.Random(28)
        verdicts = set()
        for game in (bertrand_grid(16), hotelling_grid(16)):
            for r in self.restrictions(game, rng, 12):
                kept = r.kept
                for player in range(2):
                    bases = game.opponent_bases(player, kept)
                    if type(bases) is not range:
                        continue
                    for kind, candidates, s in itertools.product(
                        (BeliefKind.PURE, BeliefKind.CORRELATED),
                        (kept[player], range(game.sizes[player])),
                        kept[player],
                    ):
                        cmp = ComparisonSet(player, tuple(candidates))
                        args = (game, kept, player, s, kind, cmp, 2)
                        cert = oracle._find_witness_fast(*args, bases)
                        twin = oracle._find_witness_fast(*args, list(bases))
                        assert type(cert) is type(twin) and cert == twin
                        if isinstance(cert, BestResponse):
                            assert cert._scan == twin._scan
                        verdicts.add((kind, getattr(cert, "proof", "br")))
        assert verdicts == {
            (BeliefKind.PURE, "br"), (BeliefKind.PURE, "exhaustive"),
            (BeliefKind.CORRELATED, "br"), (BeliefKind.CORRELATED, "dominated"),
            (BeliefKind.CORRELATED, "lp"),
        }


class TestWholeRowScans:
    """The whole-row scans of the decision ladder pick what plain scans in
    candidate order pick, on tie-heavy games (payoffs in [-2, 2]) with full
    and partial comparison sets."""

    @staticmethod
    def restrictions(seeds):
        for seed in seeds:
            game = random_game(2, (7, 7), 2, seed=1500 + seed)
            rng = random.Random(seed)
            for _ in range(4):
                kept = [sorted(rng.sample(range(7), rng.randint(1, 7))) for _ in range(2)]
                yield game, restrict(game, kept), rng

    def cases(self, seeds):
        for game, r, rng in self.restrictions(seeds):
            for player in range(2):
                partial = sorted(rng.sample(range(7), rng.randint(1, 6)))
                for candidates in (range(7), r.kept[player], partial):
                    yield game, r, player, ComparisonSet(player, tuple(candidates))

    def test_prefilter_returns_the_first_dominator(self):
        dominated = decoys = 0
        for game, r, player, cmp in self.cases(range(8)):
            kept = r.kept
            opps = list(opponent_profiles(game, player, kept))
            for s in kept[player]:
                cert = find_witness(game, r, player, s, BeliefKind.CORRELATED, cmp)
                first = first_pure_dominator(game, player, s, kept, cmp.candidates)
                if first is None:
                    assert getattr(cert, "proof", None) != "dominated"
                    continue
                dominated += 1
                assert cert == NeverBest("dominated", ((first, Fraction(1)),))
                # A candidate before the dominator that beats the strategy
                # at the LP's start column passes the first filter only.
                own = [game.payoff((s, *o) if player == 0 else (*o, s), player)
                       for o in opps]
                start = opps[own.index(max(own))]
                decoys += any(
                    game.payoff((c, *start) if player == 0 else (*start, c), player)
                    > max(own)
                    for c in cmp.candidates
                    if c < first
                )
        assert dominated > 100 and decoys > 10

    def test_column_best_is_the_per_base_max(self):
        shapes = set()
        for game, r, player, cmp in self.cases(range(4)):
            bases = game.opponent_bases(player, r.kept)
            scale = game.scales[player]
            want = [
                max(
                    game.payoff((c, *o) if player == 0 else (*o, c), player) * scale
                    for c in cmp.candidates
                )
                for o in opponent_profiles(game, player, r.kept)
            ]
            assert oracle._column_best(game, player, bases, cmp) == want
            assert oracle._column_best(game, player, bases[:1], cmp) == want[:1]
            shapes.add((len(cmp.candidates) == 1, len(cmp.candidates) == 7))
        assert shapes == {(True, False), (False, False), (False, True)}

    @pytest.mark.parametrize("kind", list(ReductionKind))
    def test_sweep_with_shared_bases_matches_find_witness(self, kind, monkeypatch):
        decided = []
        real = reductions._find_witness_fast

        def recording(game, kept, player, s, belief_kind, cmp, resolution, bases,
                      colmax=None):
            assert bases == game.opponent_bases(player, kept)
            cert = real(game, kept, player, s, belief_kind, cmp, resolution, bases,
                        colmax)
            decided.append((player, s, cmp, cert))
            return cert

        monkeypatch.setattr(reductions, "_find_witness_fast", recording)
        verdicts = set()
        for game, r, _ in self.restrictions(range(3)):
            for belief_kind in BeliefKind:
                decided.clear()
                removable, certs, _ = candidate_certificates(game, r, belief_kind, kind)
                assert len(decided) == sum(map(len, r.kept))
                for player, s, cmp, cert in decided:
                    assert cmp == comparison_for(kind, game, r, r, player)
                    assert cert == find_witness(game, r, player, s, belief_kind, cmp)
                    if kind is ReductionKind.DARROW:
                        # the darrow definition: s against the kept set
                        # minus s, which the sweep's kept set gives because
                        # s ties with itself
                        without = ComparisonSet(player, set(cmp.candidates) - {s})
                        assert cert == find_witness(
                            game, r, player, s, belief_kind, without
                        )
                    verdicts.add(type(cert))
                    if isinstance(cert, NeverBest):
                        assert certs[(player, s)] == cert
                        assert s in removable[player]
                    else:
                        assert s not in removable[player]
        assert verdicts == {BestResponse, NeverBest}


class TestGridSearch:
    def test_coarse_grid_is_inconclusive(self):
        game = pinched_window_3p()
        cert = find_witness(
            game, full_restriction(game), 0, 0, BeliefKind.INDEPENDENT_MIXED,
            full_comparison(game, 0), resolution=2,
        )
        assert cert == Inconclusive(2)

    def test_finer_grid_finds_the_pinched_witness(self):
        game = pinched_window_3p()
        cert = find_witness(
            game, full_restriction(game), 0, 0, BeliefKind.INDEPENDENT_MIXED,
            full_comparison(game, 0), resolution=3,
        )
        assert isinstance(cert, BestResponse)
        assert isinstance(cert.witness, ProductBelief)
        assert cert.witness.factors[0] == ((0, Fraction(1, 3)), (1, Fraction(2, 3)))
        assert is_best_response(game, 0, 0, cert.witness, full_comparison(game, 0))

    def test_correlated_shortcut_still_proves_never_best(self):
        # Y is never best even under correlated beliefs once X's constant is high
        def pay(profile):
            s1, s2, _ = profile
            if s1 == 0:
                return (3, 0, 0)
            return (2 if s2 == 0 else 0, 0, 0)

        game = FiniteGame.from_function([["X", "Y"], ["H", "T"], ["m"]], pay)
        cert = find_witness(
            game, full_restriction(game), 0, 1, BeliefKind.INDEPENDENT_MIXED,
            full_comparison(game, 0), resolution=2,
        )
        assert isinstance(cert, NeverBest)

    def test_product_scan_matches_the_fraction_loop(self):
        # Random 3- and 4-player queries with payoffs in [-2, 2], so ties are
        # common: the integer scan returns the reference loop's first hit.
        rng = random.Random(23)
        found = []
        for trial in range(200):
            players = 3 if trial % 3 else 4
            sizes = [rng.randint(1, 4 if players == 3 else 3) for _ in range(players)]
            game = random_game(players, sizes, 2, seed=9000 + trial)
            kept = tuple(tuple(sorted(rng.sample(range(n), rng.randint(1, n)))) for n in sizes)
            player = rng.randrange(players)
            strategy = rng.randrange(sizes[player])
            size = sizes[player]
            candidates = tuple(sorted(rng.sample(range(size), rng.randint(1, size))))
            resolution = rng.randint(1, 5)
            got = oracle._grid_product_witness(
                game, player, strategy, kept, ComparisonSet(player, candidates), resolution
            )
            assert got == grid_product_witness_reference(
                game, player, strategy, kept, candidates, resolution
            )
            found.append(got is not None)
        assert 20 < found.count(False) < 100

    def test_inconclusive_excluded_from_never_best_set(self):
        game = pinched_window_3p()
        sets = legal_removal_candidates(
            game, full_restriction(game), ReductionKind.TILDE,
            BeliefKind.INDEPENDENT_MIXED, resolution=2,
        )
        assert 0 not in sets[0]  # X stays despite the inconclusive answer


class TestNeverBestSet:
    def test_gap_game_reference_initial(self, g):
        sets = legal_removal_candidates(
            g, full_restriction(g), ReductionKind.TILDE, BeliefKind.PURE
        )
        assert sets == ((1, 2), ())

    def test_fixed_point_game(self):
        # every strategy a best response to something: pure coordination
        table = {(0, 0): (1, 1), (0, 1): (0, 0), (1, 0): (0, 0), (1, 1): (1, 1)}
        game = FiniteGame([["a", "b"], ["x", "y"]], table)
        sets = legal_removal_candidates(
            game, full_restriction(game), ReductionKind.TILDE, BeliefKind.PURE
        )
        assert sets == ((), ())

    def test_bertrand_first_round_oracle(self):
        game = bertrand_grid(100)
        history, _ = replay_fast_pure(game)
        first_kept = history[0]
        expected_removed = tuple(
            tuple(s for s in range(100) if s not in set(kept))
            for kept in first_kept
        )
        sets = legal_removal_candidates(
            game, full_restriction(game), ReductionKind.TILDE, BeliefKind.PURE
        )
        assert sets == expected_removed
        assert sets[0] == tuple(range(50, 100))  # prices 51..100

    def test_reference_current_differs(self, g):
        sub = restrict(g, [(1, 2), (0, 1)])
        initial = legal_removal_candidates(
            g, sub, ReductionKind.TILDE, BeliefKind.PURE
        )
        current = legal_removal_candidates(
            g, sub, ReductionKind.ARROW, BeliefKind.PURE
        )
        assert initial == ((1, 2), ())
        assert current == ((), ())

    def test_degenerate_vacuous_removals(self, g):
        degenerate = restrict(g, [(0, 2), ()])
        sets = legal_removal_candidates(
            g, degenerate, ReductionKind.TILDE, BeliefKind.PURE
        )
        assert sets == ((0, 2), ())  # player 1 faces no beliefs at all


class TestSoundnessAndDeterminism:
    def test_witnesses_reverify_on_random_games(self):
        rng = random.Random(11)
        for trial in range(40):
            players = rng.choice((2, 2, 3))
            sizes = [rng.randint(1, 3) for _ in range(players)]
            game = random_game(players, sizes, 5, seed=100 + trial)
            full = full_restriction(game)
            for kind in BeliefKind:
                for player in range(players):
                    cmp = full_comparison(game, player)
                    for s in range(sizes[player]):
                        cert = find_witness(game, full, player, s, kind, cmp,
                                            resolution=3)
                        if isinstance(cert, BestResponse):
                            assert is_best_response(game, player, s, cert.witness, cmp)
                        elif isinstance(cert, NeverBest) and kind is BeliefKind.PURE:
                            assert not is_pure_best_to_some(
                                game, player, s, full.kept
                            )

    def test_kind_monotonicity_on_random_games(self):
        rng = random.Random(23)
        for trial in range(40):
            sizes = [rng.randint(1, 4), rng.randint(1, 4)]
            game = random_game(2, sizes, 5, seed=500 + trial)
            full = full_restriction(game)
            for player in (0, 1):
                cmp = full_comparison(game, player)
                for s in range(sizes[player]):
                    certs = {
                        kind: find_witness(game, full, player, s, kind, cmp)
                        for kind in BeliefKind
                    }
                    nbr = {k: isinstance(c, NeverBest) for k, c in certs.items()}
                    if nbr[BeliefKind.CORRELATED]:
                        assert nbr[BeliefKind.INDEPENDENT_MIXED]
                    if nbr[BeliefKind.INDEPENDENT_MIXED]:
                        assert nbr[BeliefKind.PURE]
                    # with one opponent the two mixed notions coincide
                    assert nbr[BeliefKind.CORRELATED] == nbr[BeliefKind.INDEPENDENT_MIXED]

    def test_identical_inputs_identical_certificates(self):
        game = mixed_dominance_game()
        full = full_restriction(game)
        cmp = full_comparison(game, 0)
        for kind in BeliefKind:
            a = find_witness(game, full, 0, 0, kind, cmp)
            b = find_witness(game, full, 0, 0, kind, cmp)
            assert a == b

    def test_cache_changes_nothing_observable(self):
        game = bertrand_grid(12)
        full = full_restriction(game)
        cache = OracleCache(BeliefKind.CORRELATED)
        for player in (0, 1):
            cmp = full_comparison(game, player)
            for s in range(12):
                fresh = find_witness(game, full, player, s, BeliefKind.CORRELATED, cmp)
                cached = find_witness(
                    game, full, player, s, BeliefKind.CORRELATED, cmp, cache=cache
                )
                assert isinstance(fresh, type(cached))
                if isinstance(cached, BestResponse):
                    assert is_best_response(game, player, s, cached.witness, cmp)

    def test_cache_kind_mismatch_rejected(self):
        game = matching_pennies()
        cache = OracleCache(BeliefKind.PURE)
        with pytest.raises(InputError):
            find_witness(
                game, full_restriction(game), 0, 0, BeliefKind.CORRELATED,
                full_comparison(game, 0), cache=cache,
            )

    def test_cache_bound_to_one_game(self, g):
        # Same shape as g, but B strictly beats T and M: a fresh run keeps
        # {B}x{L,R}.  g's never-best fact for B must not answer for it.
        other = FiniteGame.from_function(g.labels, lambda p: (Fraction(p[0] == 2), 0))
        fresh = iterate(other, ReductionKind.TILDE, BeliefKind.PURE)
        assert fresh.outcome.render() == "{B}x{L,R}"
        cache = OracleCache(BeliefKind.PURE)
        first = iterate(g, ReductionKind.TILDE, BeliefKind.PURE, cache=cache)
        with pytest.raises(InputError):
            iterate(other, ReductionKind.TILDE, BeliefKind.PURE, cache=cache)
        with pytest.raises(InputError):
            find_witness(
                other, full_restriction(other), 0, 2, BeliefKind.PURE,
                full_comparison(other, 0), cache=cache,
            )
        # An equal game is the same game.
        again = iterate(gap_3x2(), ReductionKind.TILDE, BeliefKind.PURE, cache=cache)
        assert again.render() == first.render()

    def test_a_witness_never_answers_a_larger_comparison_set(self, g, monkeypatch):
        # B's witness is proved against {B} alone.  It also beats M, and T
        # beats it, but a lookup only tests set inclusion: each larger
        # comparison set is decided afresh.
        fresh = []
        decide = oracle._find_witness_fast

        def counted(*args):
            fresh.append(args)
            return decide(*args)

        monkeypatch.setattr(oracle, "_find_witness_fast", counted)
        cache = OracleCache(BeliefKind.PURE)
        full = full_restriction(g)
        for candidates, expected in (
            ((2,), BestResponse), ((1, 2), BestResponse), ((0, 1, 2), NeverBest)
        ):
            cmp = ComparisonSet(0, candidates)
            cert = find_witness(g, full, 0, 2, BeliefKind.PURE, cmp, cache=cache)
            assert isinstance(cert, expected)
        assert len(fresh) == 3

    def test_cache_hit_keeps_never_best_evidence(self, g):
        full = full_restriction(g)
        cmp = full_comparison(g, 0)
        fresh = find_witness(g, full, 0, 1, BeliefKind.CORRELATED, cmp)
        assert fresh == NeverBest("dominated", ((0, Fraction(1)),))
        cache = OracleCache(BeliefKind.CORRELATED)
        sub = restrict(g, [(1, 2), (1,)])
        for restriction in (full, full, sub):
            assert find_witness(
                g, restriction, 0, 1, BeliefKind.CORRELATED, cmp, cache=cache
            ) == fresh


def _support_mask(game, player, belief):
    return sum(
        {1 << (game.offsets[j] + t) for profile in belief.support()
         for j, t in zip(game.opponents(player), profile)}
    )


class TestLazyWitness:
    """An oracle answer builds its witness belief when it is first read."""

    @pytest.mark.parametrize("kind", list(BeliefKind))
    def test_a_campaign_builds_no_belief(self, kind, monkeypatch):
        from nbrelim.verification import check_equivalence

        built, answers = [], []
        for cls in (oracle.PurePoint, oracle.DistributionBelief, oracle.ProductBelief):
            def init(self, *args, _init=cls.__init__, **kwargs):
                built.append(self)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)
        decide = oracle._find_witness_fast

        def recorded(*args):
            answers.append(decide(*args))
            return answers[-1]

        monkeypatch.setattr(oracle, "_find_witness_fast", recorded)
        monkeypatch.setattr(reductions, "_find_witness_fast", recorded)
        game = random_game(2, (4, 5), 5, seed=23)
        reports = check_equivalence(game, kind, seed=1)
        assert all(r.verdict == "pass" for r in reports)
        assert any(isinstance(cert, BestResponse) for cert in answers)
        assert built == []

    def test_certificates_equal_their_eager_twins(self):
        from nbrelim.verification import random_restriction

        rng = random.Random(57)
        seen = set()
        for trial in range(30):
            players = 2 + trial % 2
            sizes = [rng.randint(2, 6 - players) for _ in range(players)]
            game = random_game(players, sizes, 5, seed=900 + trial)
            for kind in BeliefKind:
                cache = OracleCache(kind)
                for restriction, player in itertools.product(
                    (full_restriction(game), random_restriction(game, rng)), range(players)
                ):
                    kept = restriction.kept
                    for candidates, s in itertools.product(
                        (range(sizes[player]), kept[player], ()), kept[player]
                    ):
                        cmp = ComparisonSet(player, tuple(candidates))
                        cert = find_witness(
                            game, restriction, player, s, kind, cmp,
                            resolution=2, cache=cache,
                        )
                        if not isinstance(cert, BestResponse):
                            continue
                        seen.add((players, kind, len(cert.witness.support()) > 1))
                        assert type(cert) is BestResponse
                        assert cert.witness is cert.witness
                        twin = BestResponse(cert.witness)
                        assert cert == twin and hash(cert) == hash(twin)
                        with pytest.raises(AttributeError):
                            cert.witness = cert.witness
                for (player, _), entries in cache.witnesses.items():
                    for cert, support, _ in entries:
                        assert support == _support_mask(game, player, cert.witness)
        # pure hits, LP vertices and grid points, under every kind they reach
        every = {(n, kind, many) for n in (2, 3) for kind in BeliefKind for many in (False, True)}
        assert seen == every - {(2, BeliefKind.PURE, True), (3, BeliefKind.PURE, True)}


class TestRendering:
    def test_certificate_text(self, g):
        full = full_restriction(g)
        cmp = full_comparison(g, 0)
        nbr = find_witness(g, full, 0, 1, BeliefKind.PURE, cmp)
        assert render_certificate(nbr, g, 0) == "NBR(exhaustive)"
        br = find_witness(g, full, 0, 0, BeliefKind.PURE, cmp)
        assert render_certificate(br, g, 0).startswith("BR(witness=pure(")
        assert render_certificate(Inconclusive(8), g, 0) == "INCONCLUSIVE(res=8)"
        corr = find_witness(g, full, 0, 1, BeliefKind.CORRELATED, cmp)
        assert render_certificate(corr, g, 0) == "NBR(lp)"
