"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance (all
checks here are exact; the only knobs are corpus sizes and runtime budgets)
and prints one pass/fail line; one more cross-checks criterion 2's
`largest_closed` verdicts against the lattice reference.  Run with
`pytest tests/test_acceptance.py -v -s` to see the lines as they complete.

Expected values tagged as derived were computed by the independent
brute-force oracles in tests/oracles.py (best-response tables replayed
without the elimination engine) and are frozen below.
"""

import random
import time
from dataclasses import dataclass

import pytest

from nbrelim.beliefs import BeliefKind
from nbrelim.catalog import (
    bertrand_grid,
    gap_3x2,
    hotelling_grid,
    naturals_truncated,
    random_game,
)
from nbrelim.cli import main
from nbrelim.games import FiniteGame, full_restriction, restrict_by_labels
from nbrelim.oracle import (
    DEFAULT_GRID_RESOLUTION,
    BestResponse,
    NeverBest,
    OracleCache,
    find_witness,
    full_comparison,
    is_best_response,
)
from nbrelim.reductions import (
    Policy,
    ReductionKind,
    Rejection,
    Step,
    Trace,
    iterate,
    legal_removal_candidates,
    validate_step,
)
from nbrelim.verification import (
    check_order_independence,
    is_closed,
    pure_nash,
    random_order_traces,
    random_restriction,
)

from oracles import (
    brute_pure_nash,
    grid_distributions,
    larger_closed_reference,
    replay_fast_pure,
)

RANDOM_2P_GAMES = 500
RANDOM_3P_GAMES = 100
ORDERS_PER_GAME = 20
BOTH_KINDS = (BeliefKind.PURE, BeliefKind.CORRELATED)


def _report(num: int, name: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = detail if not failures else f"{len(failures)} violation(s): {failures[:3]}"
    print(f"[criterion {num}] {name}: {status} {suffix}".rstrip())
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"


@dataclass
class Bundle:
    name: str
    game: FiniteGame
    belief_kind: BeliefKind
    fast: Trace
    orders: list
    cache: OracleCache


@pytest.fixture(scope="session")
def corpus():
    games = [
        ("gap3x2", gap_3x2()),
        ("bertrand100", bertrand_grid(100)),
        ("hotelling99", hotelling_grid(99)),
    ]
    for k in range(RANDOM_2P_GAMES):
        seed = 9000 + k
        rng = random.Random(seed)
        sizes = [rng.randint(1, 5), rng.randint(1, 5)]
        games.append((f"rand2p{k}", random_game(2, sizes, 5, seed=seed)))
    for k in range(RANDOM_3P_GAMES):
        seed = 77000 + k
        rng = random.Random(seed)
        sizes = [rng.randint(1, 3) for _ in range(3)]
        games.append((f"rand3p{k}", random_game(3, sizes, 5, seed=seed)))
    return games


@pytest.fixture(scope="session")
def tilde_bundles(corpus):
    """Fast tilde trace plus 20 random maximal orders per game and belief kind."""
    t0 = time.monotonic()
    bundles = {}
    for name, game in corpus:
        for bk in BOTH_KINDS:
            cache = OracleCache(bk)
            fast = iterate(game, ReductionKind.TILDE, bk, Policy.FAST, cache=cache)
            orders = random_order_traces(
                game, ReductionKind.TILDE, bk, ORDERS_PER_GAME, seed=1, cache=cache
            )
            bundles[(name, bk)] = Bundle(name, game, bk, fast, orders, cache)
    return bundles, time.monotonic() - t0


@pytest.fixture(scope="session")
def small_oracle_corpus():
    """200 two-player games, sizes <= 3, integer payoffs in [-5, 5]."""
    games = []
    for k in range(200):
        seed = 40000 + k
        rng = random.Random(seed)
        sizes = [rng.randint(1, 3), rng.randint(1, 3)]
        games.append(random_game(2, sizes, 5, seed=seed))
    return games


def test_criterion_1_counterexample_fidelity():
    game = gap_3x2()
    source = restrict_by_labels(game, [["M", "B"], ["L", "R"]])
    target = restrict_by_labels(game, [["M"], ["L", "R"]])
    t0 = time.perf_counter()
    tilde = validate_step(game, source, target, ReductionKind.TILDE, BeliefKind.PURE)
    arrow = validate_step(game, source, target, ReductionKind.ARROW, BeliefKind.PURE)
    elapsed_ms = (time.perf_counter() - t0) * 1000
    failures = []
    if not isinstance(tilde, Step):
        failures.append("step is not legal under the initial-game reference")
    if not isinstance(arrow, Rejection):
        failures.append("step did not get rejected under the current-game reference")
    else:
        if (arrow.player, arrow.strategy) != (0, 2):
            failures.append(f"wrong rejection target {arrow}")
        witness = arrow.certificate.witness
        if witness.profile != (0,):
            failures.append(f"witness is not the left column: {witness}")
    if elapsed_ms >= 10:
        failures.append(f"took {elapsed_ms:.2f} ms, budget 10 ms")
    _report(1, "relation-gap counterexample", failures, f"{elapsed_ms:.2f} ms")


def test_criterion_2_order_independence(tilde_bundles):
    bundles, build_seconds = tilde_bundles
    t0 = time.monotonic()
    failures = []
    for (name, bk), bundle in bundles.items():
        for k, trace in enumerate(bundle.orders):
            if trace.outcome.kept != bundle.fast.outcome.kept:
                failures.append(f"{name}/{bk.value} order {k} diverged")
    elapsed = build_seconds + (time.monotonic() - t0)
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f} s, budget 120 s")
    ngames = len({name for name, _ in bundles})
    _report(
        2, "order independence", failures,
        f"{ngames} games x {ORDERS_PER_GAME} orders x 2 belief kinds in {elapsed:.1f} s",
    )


def test_largest_closed_matches_lattice_reference(corpus):
    """Criterion 2's `largest_closed` verdict, read off the fast trace's
    induction, equals a sweep of the whole lattice outside the outcome on
    the random games, under pure and correlated beliefs, and on the
    3-player ones under mixed beliefs too."""
    failures, checked = [], 0
    for name, game in corpus:
        if not name.startswith("rand"):
            continue
        kinds = BOTH_KINDS + ((BeliefKind.INDEPENDENT_MIXED,) if game.players == 3 else ())
        for bk in kinds:
            got = check_order_independence(game, bk, num_orders=1, seed=1)[1].verdict
            cache = OracleCache(bk)
            outcome = iterate(game, ReductionKind.TILDE, bk, Policy.FAST, cache=cache).outcome
            closed = is_closed(game, outcome, bk, DEFAULT_GRID_RESOLUTION, cache)
            expected = {None: "unknown", False: "fail"}.get(closed)
            if closed:
                larger = larger_closed_reference(
                    game, outcome, bk, DEFAULT_GRID_RESOLUTION, cache
                )
                expected = "pass" if larger is None else "fail"
            checked += 1
            if got != expected:
                failures.append(f"{name}/{bk.value}: {got}, lattice {expected}")
    assert not failures, failures[:5]
    assert checked == 2 * RANDOM_2P_GAMES + 3 * RANDOM_3P_GAMES


def test_criterion_3_fast_dominance(tilde_bundles):
    bundles, _ = tilde_bundles
    failures = []
    for (name, bk), bundle in bundles.items():
        fast = bundle.fast
        for k, trace in enumerate(bundle.orders):
            horizon = max(len(fast.steps), len(trace.steps))
            for alpha in range(horizon + 1):
                if not trace.restriction_at(alpha).contains(fast.restriction_at(alpha)):
                    failures.append(f"{name}/{bk.value} order {k} index {alpha}")
                    break
            if trace.outcome.kept == fast.outcome.kept and len(fast.steps) > len(trace.steps):
                failures.append(f"{name}/{bk.value} order {k} was shorter than fast")
    _report(3, "fast dominance", failures, "stepwise containment and step counts")


def test_criterion_4_equivalence(tilde_bundles):
    bundles, _ = tilde_bundles
    t0 = time.monotonic()
    failures = []
    for (name, bk), bundle in bundles.items():
        game = bundle.game
        big = sum(game.sizes) > 30
        fast_arrow = iterate(
            game, ReductionKind.ARROW, bk, Policy.FAST, cache=bundle.cache
        )
        if fast_arrow.outcome.kept != bundle.fast.outcome.kept:
            failures.append(f"{name}/{bk.value}: fast arrow outcome differs")
        rng = random.Random(2024)
        for _ in range(2 if big else 3):
            source = random_restriction(game, rng, nondegenerate=True)
            cands = legal_removal_candidates(
                game, source, ReductionKind.ARROW, bk, cache=bundle.cache
            )
            flat = [(i, s) for i, gone in enumerate(cands) for s in gone]
            if not flat:
                continue
            chosen = [p for p in flat if rng.getrandbits(1)] or [flat[0]]
            removal = {}
            for i, s in chosen:
                removal.setdefault(i, []).append(s)
            target = source.remove(removal)
            arrow = validate_step(
                game, source, target, ReductionKind.ARROW, bk, cache=bundle.cache
            )
            darrow = validate_step(
                game, source, target, ReductionKind.DARROW, bk, cache=bundle.cache
            )
            if not isinstance(arrow, Step) or not isinstance(darrow, Step):
                failures.append(f"{name}/{bk.value}: arrow/darrow step mismatch")
        for s in range(2):
            trace = iterate(
                game, ReductionKind.DARROW, bk, Policy.RANDOM_PARTIAL,
                seed=300 + s, cache=bundle.cache,
            )
            if trace.outcome.kept != bundle.fast.outcome.kept:
                failures.append(f"{name}/{bk.value}: darrow trace {s} diverged")
            if not trace.outcome.is_nondegenerate():
                failures.append(f"{name}/{bk.value}: degenerate darrow outcome")
        if not bundle.fast.outcome.is_nondegenerate():
            failures.append(f"{name}/{bk.value}: degenerate outcome")
    elapsed = time.monotonic() - t0
    _report(4, "relation equivalence", failures, f"{elapsed:.1f} s")


def test_criterion_5_catalog_ground_truths(tilde_bundles):
    bundles, _ = tilde_bundles
    failures = []
    # Independent oracle: replay elimination from brute-force best-response
    # tables, then freeze the outcomes and round counts it produced.
    expectations = {
        "bertrand100": (bertrand_grid(100), "1", 50),
        "hotelling99": (hotelling_grid(99), "50", 49),
    }
    for name, (game, label, rounds) in expectations.items():
        history, final = replay_fast_pure(game)
        engine = bundles[(name, BeliefKind.PURE)].fast
        if len(history) != rounds:
            failures.append(f"{name}: oracle replay gave {len(history)} rounds")
        if len(engine.steps) != rounds:
            failures.append(f"{name}: engine took {len(engine.steps)} rounds, not {rounds}")
        if engine.outcome.kept != final:
            failures.append(f"{name}: outcome {engine.outcome.render()}")
        want = tuple((game.index_of(i, label),) for i in range(2))
        if engine.outcome.kept != want:
            failures.append(f"{name}: outcome is not ({{{label}}},{{{label}}})")
        for alpha, kept in enumerate(history, start=1):
            if engine.restriction_at(alpha).kept != kept:
                failures.append(f"{name}: round {alpha} differs from the oracle replay")
                break
    n5 = naturals_truncated(5)
    history, final = replay_fast_pure(n5)
    engine = iterate(n5, ReductionKind.TILDE, BeliefKind.PURE)
    if not (len(history) == len(engine.steps) == 1):
        failures.append("naturals5 did not finish in one round")
    if engine.outcome.kept != final or engine.outcome.kept != ((5,), (5,)):
        failures.append(f"naturals5 outcome {engine.outcome.render()}")
    _report(
        5, "catalog ground truths", failures,
        "bertrand 50 rounds to ({1},{1}); hotelling 49 rounds to ({50},{50}); "
        "naturals 1 round to ({5},{5})",
    )


def test_criterion_6_nash_preservation(tilde_bundles):
    bundles, _ = tilde_bundles
    failures = []
    for (name, bk), bundle in bundles.items():
        if bk is not BeliefKind.PURE:
            continue
        nash_before = set(pure_nash(bundle.game))
        for k, trace in enumerate([bundle.fast] + bundle.orders):
            nash_after = (
                set(pure_nash(trace.outcome))
                if trace.outcome.is_nondegenerate()
                else set()
            )
            if nash_before != nash_after:
                failures.append(f"{name} trace {k}: {nash_before} vs {nash_after}")
                break
    for name, label in (("bertrand100", "1"), ("hotelling99", "50")):
        bundle = bundles[(name, BeliefKind.PURE)]
        profile = tuple(bundle.game.index_of(i, label) for i in range(2))
        if set(pure_nash(bundle.game)) != {profile}:
            failures.append(f"{name}: equilibrium set is not {{{label},{label}}}")
        if set(brute_pure_nash(bundle.game)) != {profile}:
            failures.append(f"{name}: brute-force scan disagrees")
    _report(6, "equilibrium preservation", failures, "pure beliefs, full corpus")


def test_criterion_7_oracle_cross_check(small_oracle_corpus):
    t0 = time.monotonic()
    failures = []
    for idx, game in enumerate(small_oracle_corpus):
        full = full_restriction(game)
        cache = OracleCache(BeliefKind.CORRELATED)
        for player in range(2):
            cmp = full_comparison(game, player)
            profiles = list(game.opponent_profiles(player))
            for s in range(game.sizes[player]):
                cert = find_witness(
                    game, full, player, s, BeliefKind.CORRELATED, cmp, cache=cache
                )
                grid_hit = next(
                    (
                        mu
                        for mu in grid_distributions(profiles, 6)
                        if is_best_response(game, player, s, mu, cmp)
                    ),
                    None,
                )
                if isinstance(cert, NeverBest) and grid_hit is not None:
                    failures.append(f"game {idx} p{player + 1} s{s}: NBR but grid witness")
                if isinstance(cert, BestResponse) and not is_best_response(
                    game, player, s, cert.witness, cmp
                ):
                    failures.append(f"game {idx} p{player + 1} s{s}: witness fails")
    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f} s, budget 60 s")
    _report(
        7, "LP vs grid cross-check", failures,
        f"200 games, denominator-6 grid, {elapsed:.1f} s",
    )


def test_criterion_8_kind_monotonicity(small_oracle_corpus):
    failures = []
    for idx, game in enumerate(small_oracle_corpus):
        full = full_restriction(game)
        for player in range(2):
            cmp = full_comparison(game, player)
            for s in range(game.sizes[player]):
                certs = {
                    kind: find_witness(game, full, player, s, kind, cmp)
                    for kind in BeliefKind
                }
                nbr = {k: isinstance(c, NeverBest) for k, c in certs.items()}
                if nbr[BeliefKind.CORRELATED] != nbr[BeliefKind.INDEPENDENT_MIXED]:
                    failures.append(f"game {idx}: correlated vs mixed differ (n=2)")
                if nbr[BeliefKind.INDEPENDENT_MIXED] and not nbr[BeliefKind.PURE]:
                    failures.append(f"game {idx}: mixed NBR but pure BR")
    _report(
        8, "belief-kind monotonicity", failures,
        "correlated => mixed => pure on 200 games",
    )


def test_criterion_9_determinism(capsys):
    commands = [
        ["solve", "--game", "catalog:hotelling99", "--policy", "random", "--seed", "3"],
        ["solve", "--game", "catalog:gap3x2", "--relation", "darrow",
         "--policy", "single", "--seed", "5", "--beliefs", "correlated"],
        ["check-step", "--game", "catalog:gap3x2", "--from", "M,B;L,R",
         "--to", "M;L,R", "--relation", "arrow"],
        ["verify", "order-independence", "--random", "4", "--max-size", "4",
         "--orders", "6", "--seed", "11", "--format", "records"],
        ["catalog", "emit", "bertrand100"],
    ]
    failures = []
    for argv in commands:
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        if code1 != code2 or out1 != out2:
            failures.append(f"{' '.join(argv)} is not reproducible")
    _report(9, "seeded reruns are byte-identical", failures, f"{len(commands)} commands")
