"""Brute-force reference computations, independent of the elimination engine.

Everything here is computed straight from `FiniteGame.payoff` lookups with
plain loops: best-response tables, opponent profiles, fast-elimination
replays, pure equilibrium scans, an exact vertex-enumeration feasibility
oracle for cross-checking the simplex, and a plain-`Fraction` phase-1
simplex with a dense lazy-row loop that the engine's integer pivots and
support-only scan must follow step for step, with a plain pure-domination
scan beside it and an integer check that a never-best proof's mixture
strictly beats its strategy.  It also holds
the belief grids of the grid searches in plain `Fraction` (correlated
beliefs of bounded denominator and the first witness of the product-grid
search), the belief-set definitions the tests check against (kinds,
narrowed membership, pure enumeration), a plain-`Fraction`
reading, digest and rendering of game text for the integer game layer, and
a line-by-line reader of game text that the bulk tokenizer must match error
for error, a trace renderer that lists every step's sets bit by bit, and the
catalog's Bertrand and Hotelling grids built one payoff pair per profile.
Nothing imports the oracle or reduction machinery, except
`iterate_reference`: the iteration loop with one stateless sweep per round,
which the engine's watch-list frontier must match byte for byte;
`larger_closed_reference`: a sweep of every restriction outside an outcome
with `verification.is_closed`, which the order-independence checker's
induction must match verdict for verdict; and `render_trace_reference`,
which writes certificates with `oracle.render_certificate`.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import re
from fractions import Fraction

from nbrelim.beliefs import (
    BeliefKind,
    DistributionBelief,
    ProductBelief,
    PurePoint,
    as_product,
)
from nbrelim.games import FiniteGame, FormatError, InputError, full_restriction


def best_response_set(game, player, opp_profile, candidates=None):
    """Own strategies maximizing the payoff against one opponent profile."""
    if candidates is None:
        candidates = range(game.sizes[player])
    candidates = list(candidates)

    def pay(s):
        profile = list(opp_profile)
        profile.insert(player, s)
        return game.payoff(tuple(profile), player)

    best = max(pay(s) for s in candidates)
    return {s for s in candidates if pay(s) == best}


def br_table(game: FiniteGame, player: int) -> dict:
    """opponent profile -> best responses over the full own strategy set."""
    opps = [range(game.sizes[j]) for j in range(game.players) if j != player]
    return {
        opp: best_response_set(game, player, opp)
        for opp in itertools.product(*opps)
    }


def opponent_profiles(game: FiniteGame, player: int, kept=None):
    """Opponent index tuples, lexicographic; parallel to
    `FiniteGame.opponent_bases`.  `kept` optionally restricts each player's
    strategy set; the player's own entry is ignored."""
    axes = []
    for j in range(game.players):
        if j == player:
            continue
        axes.append(range(game.sizes[j]) if kept is None else kept[j])
    return itertools.product(*axes)


def replay_fast_pure(game: FiniteGame):
    """Replay all-at-once elimination of strategies that are never best
    responses (reference point: the full game; beliefs: kept pure opponent
    profiles).  Returns (list of kept-set tuples per round, final kept)."""
    tables = [br_table(game, i) for i in range(game.players)]
    kept = [set(range(s)) for s in game.sizes]
    history = []
    while True:
        new_kept = []
        for i in range(game.players):
            axes = [sorted(kept[j]) for j in range(game.players) if j != i]
            reachable = set()
            for opp in itertools.product(*axes):
                reachable |= tables[i][opp]
            new_kept.append(kept[i] & reachable)
        if new_kept == kept:
            break
        kept = new_kept
        history.append(tuple(tuple(sorted(k)) for k in kept))
    return history, tuple(tuple(sorted(k)) for k in kept)


def brute_pure_nash(game: FiniteGame, kept=None):
    """Pure equilibria by direct scan; `kept` optionally restricts the sets."""
    if kept is None:
        kept = [range(s) for s in game.sizes]
    kept = [list(k) for k in kept]
    out = set()
    for profile in itertools.product(*kept):
        ok = True
        for i in range(game.players):
            opp = tuple(s for j, s in enumerate(profile) if j != i)
            own = game.payoff(profile, i)
            for s in kept[i]:
                alt = list(profile)
                alt[i] = s
                if game.payoff(tuple(alt), i) > own:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(profile)
    return out


def is_pure_best_to_some(game, player, strategy, kept, candidates=None):
    """Is the strategy a best response (within candidates) to some pure
    opponent profile drawn from the kept sets?"""
    axes = [sorted(kept[j]) for j in range(game.players) if j != player]
    for opp in itertools.product(*axes):
        if strategy in best_response_set(game, player, opp, candidates):
            return True
    return False


# --- exact linear algebra for the LP cross-check ---------------------------


def solve_linear_system(rows, rhs):
    """Gaussian elimination over Fractions; None when singular/inconsistent."""
    n = len(rows)
    if n == 0:
        return []
    width = len(rows[0])
    a = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    col = 0
    pivots = []
    for col in range(width):
        piv = next((r for r in range(len(pivots), n) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[len(pivots)], a[piv] = a[piv], a[len(pivots)]
        r0 = len(pivots)
        inv = 1 / a[r0][col]
        a[r0] = [v * inv for v in a[r0]]
        for r in range(n):
            if r != r0 and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[r0])]
        pivots.append(col)
        if len(pivots) == width:
            break
    for r in range(len(pivots), n):
        if a[r][width] != 0:
            return None  # inconsistent
    if len(pivots) < width:
        return None  # underdetermined: no unique vertex
    x = [Fraction(0)] * width
    for r, col in enumerate(pivots):
        x[col] = a[r][width]
    return x


def feasible_by_vertex_enumeration(inequalities, equality, num_vars):
    """Feasibility of {x >= 0, A x >= b, e.x = f} by enumerating basic points.

    The equality is a probability-style normalization, so the region is
    bounded and, if non-empty, contains a vertex where `num_vars` constraints
    (the equality plus num_vars-1 others) are tight.
    """
    rows = [([Fraction(v) for v in c], Fraction(b)) for c, b in inequalities]
    eq_c = [Fraction(v) for v in equality[0]]
    eq_b = Fraction(equality[1])
    tight_pool = []
    for j in range(num_vars):
        coeffs = [Fraction(0)] * num_vars
        coeffs[j] = Fraction(1)
        tight_pool.append((coeffs, Fraction(0)))
    tight_pool.extend(rows)

    def satisfies(x):
        if any(v < 0 for v in x):
            return False
        if sum(c * v for c, v in zip(eq_c, x)) != eq_b:
            return False
        return all(
            sum(c * v for c, v in zip(coeffs, x)) >= b for coeffs, b in rows
        )

    if num_vars == 1:
        sol = solve_linear_system([eq_c], [eq_b])
        return sol is not None and satisfies(sol)
    for combo in itertools.combinations(range(len(tight_pool)), num_vars - 1):
        mat = [eq_c] + [tight_pool[k][0] for k in combo]
        rhs = [eq_b] + [tight_pool[k][1] for k in combo]
        sol = solve_linear_system(mat, rhs)
        if sol is not None and satisfies(sol):
            return True
    return False


# --- plain-Fraction references for the exact LP and its row generation -----


def lp_feasible_reference(inequalities, equality=None, num_vars=None):
    """Phase-1 simplex with Bland's rule, every pivot over `Fraction`.

    A general contract: rational (coefficients, bound) rows meaning
    coeffs.x >= bound, and an optional equality row.  Called with bound-0
    rows and the unit sum `([1] * n, 1)`, the system that
    `nbrelim.simplex.lp_feasible` decides, it takes the same pivots and
    returns the identical basic point (or None); a ValueError stands in for
    the engine's input errors.
    """
    rows = [([Fraction(c) for c in a], Fraction(b), False) for a, b in inequalities]
    if equality is not None:
        rows.append(([Fraction(c) for c in equality[0]], Fraction(equality[1]), True))
    widths = {len(a) for a, _, _ in rows}
    if num_vars is None:
        if len(widths) != 1:
            raise ValueError("constraint rows have inconsistent dimensions")
        num_vars = widths.pop()
    elif widths and widths != {num_vars}:
        raise ValueError("constraint rows have inconsistent dimensions")
    if num_vars == 0:
        ok = all((b == 0 if eq else b <= 0) for _, b, eq in rows)
        return [] if ok else None

    m = len(rows)
    surplus_at = num_vars
    art_at = num_vars + sum(1 for _, _, eq in rows if not eq)
    ncols = art_at + m
    tableau, basis, arts = [], [], set()
    surplus = surplus_at
    for a, b, eq in rows:
        row = [Fraction(0)] * (ncols + 1)
        row[:num_vars] = a
        own_surplus = None
        if not eq:
            own_surplus = surplus
            row[surplus] = Fraction(-1)
            surplus += 1
        row[ncols] = b
        if b < 0 or (b == 0 and not eq):
            row = [-v for v in row]
        if own_surplus is not None and row[own_surplus] == 1:
            basis.append(own_surplus)
        else:
            col = art_at + len(arts)
            row[col] = Fraction(1)
            basis.append(col)
            arts.add(col)
        tableau.append(row)

    if arts:
        obj = [sum(tableau[r][j] for r in range(m) if basis[r] in arts)
               for j in range(ncols + 1)]
        while True:
            enter = next((j for j in range(art_at) if obj[j] > 0), None)
            if enter is None:
                break
            leave, best = None, None
            for r in range(m):
                a = tableau[r][enter]
                if a > 0:
                    ratio = tableau[r][ncols] / a
                    if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[leave]
                    ):
                        leave, best = r, ratio
            pivot_row = [v / tableau[leave][enter] for v in tableau[leave]]
            tableau[leave] = pivot_row
            for r in range(m):
                if r != leave:
                    f = tableau[r][enter]
                    tableau[r] = [v - f * p for v, p in zip(tableau[r], pivot_row)]
            f = obj[enter]
            obj = [v - f * p for v, p in zip(obj, pivot_row)]
            basis[leave] = enter
        if obj[ncols] != 0:
            return None
    x = [Fraction(0)] * num_vars
    for r, b in enumerate(basis):
        if b < num_vars:
            x[b] = tableau[r][ncols]
    return x


def correlated_row_generation(game, player, strategy, kept, candidates, lp):
    """Lazy-row LP decision over correlated beliefs, dense and in `Fraction`.

    Starts from the opponent profile where `strategy` pays most (first one on
    ties), adds the most violated competitor's row at each LP vertex (first
    one on ties) and re-solves with `lp`.  Returns ("br", atoms, rows) with
    the witness distribution as (profile, probability) pairs, or
    ("nbr", None, rows); `rows` counts the generated competitor rows.
    """
    axes = [sorted(kept[j]) for j in range(game.players) if j != player]
    profiles = list(itertools.product(*axes))

    def pay(s, opp):
        profile = list(opp)
        profile.insert(player, s)
        return game.payoff(tuple(profile), player)

    own = [pay(strategy, opp) for opp in profiles]
    start = max(range(len(profiles)), key=lambda k: (own[k], -k))
    point = [Fraction(int(k == start)) for k in range(len(profiles))]
    ineqs = []
    while True:
        own_val = sum(p * o for p, o in zip(point, own))
        worst, worst_gap = None, 0
        for other in sorted(candidates):
            gap = sum(p * pay(other, opp) for p, opp in zip(point, profiles)) - own_val
            if gap > worst_gap:
                worst, worst_gap = other, gap
        if worst is None:
            atoms = tuple((opp, p) for opp, p in zip(profiles, point) if p > 0)
            return "br", atoms, len(ineqs)
        ineqs.append(([o - pay(worst, opp) for o, opp in zip(own, profiles)], 0))
        point = lp(ineqs, ([1] * len(profiles), 1), num_vars=len(profiles))
        if point is None:
            return "nbr", None, len(ineqs)


def first_pure_dominator(game, player, strategy, kept, candidates):
    """The first candidate, in index order, that pays strictly more than
    `strategy` against every kept opponent profile, or None: the plain full
    scan the oracle's prefiltered domination test must agree with."""
    axes = [sorted(kept[j]) for j in range(game.players) if j != player]

    def pay(s, opp):
        profile = list(opp)
        profile.insert(player, s)
        return game.payoff(tuple(profile), player)

    for c in sorted(candidates):
        if all(pay(c, opp) > pay(strategy, opp) for opp in itertools.product(*axes)):
            return c
    return None


def mixture_beats(game, player, strategy, kept, mixture):
    """True iff `mixture`, (strategy, probability) pairs summing to 1 with
    every probability in (0, 1], pays strictly more than `strategy` against
    every kept opponent profile.  Compared in integers: payoffs on the
    player's scale, probabilities as numerators over their common
    denominator."""
    probabilities = [p for _, p in mixture]
    if sum(probabilities) != 1 or not all(0 < p <= 1 for p in probabilities):
        return False
    scale, den = game.scales[player], math.lcm(*(p.denominator for p in probabilities))
    weights = [(k, p.numerator * (den // p.denominator)) for k, p in mixture]

    def pay(s, opp):
        profile = list(opp)
        profile.insert(player, s)
        value = game.payoff(tuple(profile), player) * scale
        assert value.denominator == 1
        return value.numerator

    return all(
        sum(w * pay(k, opp) for k, w in weights) > den * pay(strategy, opp)
        for opp in opponent_profiles(game, player, kept)
    )


# --- belief grids in plain Fraction ------------------------------------------


def simplex_vectors(size, max_denominator):
    """Probability vectors of `size` entries with denominator <= max_denominator
    as Fraction tuples, denominator first, each once (at its smallest
    denominator), compositions by stars and bars in ascending order."""
    seen = set()
    for den in range(1, max_denominator + 1):
        for bars in itertools.combinations(range(den + size - 1), size - 1):
            cuts = (-1,) + bars + (den + size - 1,)
            vec = tuple(Fraction(b - a - 1, den) for a, b in zip(cuts, cuts[1:]))
            if vec not in seen:
                seen.add(vec)
                yield vec


def grid_distributions(profiles, max_denominator):
    """All correlated beliefs over `profiles` with denominator <= max_denominator."""
    for vec in simplex_vectors(len(profiles), max_denominator):
        yield DistributionBelief(tuple((pr, p) for pr, p in zip(profiles, vec) if p > 0))


def grid_product_witness_reference(game, player, strategy, kept, candidates, resolution):
    """The product-grid search in plain Fractions: one sorted grid per
    opponent over its kept strategies, their product in order (the last
    opponent varying fastest), the first point at which `strategy` pays at
    least every candidate, as a `ProductBelief`; None if there is none."""
    opps = [j for j in range(game.players) if j != player]
    grids = [sorted(simplex_vectors(len(kept[j]), resolution)) for j in opps]

    def value(c, factors):
        total = Fraction(0)
        for picks in itertools.product(*factors):
            prob = Fraction(1)
            for _, p in picks:
                prob *= p
            profile = [s for s, _ in picks]
            profile.insert(player, c)
            total += prob * game.payoff(tuple(profile), player)
        return total

    for combo in itertools.product(*grids):
        factors = tuple(
            tuple((s, p) for s, p in zip(kept[j], vec) if p > 0) for j, vec in zip(opps, combo)
        )
        own = value(strategy, factors)
        if all(own >= value(c, factors) for c in candidates):
            return ProductBelief(factors)
    return None


# --- belief-set definitions ------------------------------------------------


def point_distribution(profile):
    """The one-atom correlated belief on an opponent profile."""
    return DistributionBelief(((tuple(profile), Fraction(1)),))


def kind_of(mu):
    if isinstance(mu, PurePoint):
        return BeliefKind.PURE
    if isinstance(mu, ProductBelief):
        return BeliefKind.INDEPENDENT_MIXED
    if isinstance(mu, DistributionBelief):
        return BeliefKind.CORRELATED
    raise InputError(f"not a belief: {mu!r}")


def as_distribution(mu):
    """Lift any belief to the equivalent correlated distribution."""
    if isinstance(mu, DistributionBelief):
        return mu
    if isinstance(mu, PurePoint):
        return point_distribution(mu.profile)
    return DistributionBelief(tuple(sorted(as_product(mu).atoms())))


def narrowed_membership(kind, mu, restriction, player):
    """Is `mu` a member of the player's belief set narrowed to the restriction?

    Membership means every atom of positive probability stays inside the kept
    opponent strategies.  A kind or shape mismatch is an error, never False.
    """
    if kind_of(mu) is not kind:
        raise InputError(f"belief {mu!r} does not have kind {kind.value}")
    game = restriction.parent
    opps = [j for j in range(game.players) if j != player]
    if isinstance(mu, ProductBelief) and len(mu.factors) != len(opps):
        raise InputError("belief has wrong number of opponent factors")
    inside = True
    for profile in mu.support():
        if len(profile) != len(opps):
            raise InputError("belief profile has wrong arity")
        for j, s in zip(opps, profile):
            if not 0 <= s < game.sizes[j]:
                raise InputError(f"belief strategy {s} out of range for player {j + 1}")
            inside = inside and s in restriction.kept[j]
    return inside


def enumerate_pure_beliefs(restriction, player):
    """All pure beliefs over the kept opponent strategies, lexicographic.

    Empty exactly when some opponent component of the restriction is empty.
    """
    game = restriction.parent
    axes = [restriction.kept[j] for j in range(game.players) if j != player]
    return [PurePoint(profile) for profile in itertools.product(*axes)]


# --- game text in plain Fraction --------------------------------------------


def parse_game_reference(text):
    """Well-formed game text read line by line into Fractions.

    Returns (labels, {profile: payoffs}); labels are found by list search and
    every numeral becomes a `Fraction`, with no memo or integer form.
    """
    lines = [raw.split("#", 1)[0].strip() for raw in text.split("\n")]
    lines = [line for line in lines if line]
    n = int(re.fullmatch(r"players ([0-9]+)", lines[0]).group(1))
    labels = [lines[1 + i].partition(":")[2].split() for i in range(n)]
    table = {}
    for line in lines[1 + n :]:
        head, _, tail = line.partition(":")
        names = head.split()[1:]
        profile = tuple(labels[i].index(lab) for i, lab in enumerate(names))
        table[profile] = tuple(Fraction(tok) for tok in tail.split())
    return labels, table


def parse_game_lines_reference(text):
    """The line-by-line game text reader: one regex match per line, errors
    in line order, then the table handed to `FiniteGame(labels, table)`.

    It raises the same `FormatError` messages `parse_game` must raise, and
    on valid text returns an equal game.  Lines end at `\n` only; `strip()`
    drops the `\r` of a `\r\n`.
    """
    numbered = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            numbered.append((lineno, stripped))
    if not numbered:
        raise FormatError("empty game text")

    def count(token, lineno):
        try:
            return int(token)
        except ValueError:
            raise FormatError(
                f"line {lineno}: numeral of {len(token)} characters is too long"
            ) from None

    def numeral(token):
        if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", token):
            raise FormatError(f"not an integer or a/b rational: {token!r}")
        num, _, den = token.partition("/")
        try:
            return Fraction(int(num), int(den)) if den else int(num)
        except ValueError:
            raise FormatError(f"numeral of {len(token)} characters is too long") from None
        except ZeroDivisionError:
            raise FormatError(f"zero denominator: {token!r}") from None

    lineno, head = numbered[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "players" or not re.fullmatch("[0-9]+", parts[1]):
        raise FormatError(f"line {lineno}: expected 'players <n>'")
    n = count(parts[1], lineno)
    if n < 1:
        raise FormatError(f"line {lineno}: need at least one player")
    if len(numbered) < 1 + n:
        raise FormatError("missing strategies lines")

    labels = []
    for i in range(n):
        lineno, line = numbered[1 + i]
        m = re.match(r"^strategies\s+([0-9]+)\s*:\s*(.*)$", line)
        if not m or count(m.group(1), lineno) != i + 1:
            raise FormatError(f"line {lineno}: expected 'strategies {i + 1}: ...'")
        labs = tuple(m.group(2).split())
        if not labs:
            raise FormatError(f"line {lineno}: player {i + 1} has no strategies")
        if len(set(labs)) != len(labs):
            raise FormatError(f"line {lineno}: duplicate labels for player {i + 1}")
        labels.append(labs)

    table = {}
    for lineno, line in numbered[1 + n :]:
        m = re.match(r"^payoff\s+(.*?)\s*:\s*(.*)$", line)
        if not m:
            raise FormatError(f"line {lineno}: expected 'payoff <labels> : <rationals>'")
        labs = m.group(1).split()
        vals = m.group(2).split()
        if len(labs) != n:
            raise FormatError(f"line {lineno}: expected {n} strategy labels")
        if len(vals) != n:
            raise FormatError(f"line {lineno}: expected {n} payoffs")
        key = []
        for i, lab in enumerate(labs):
            if lab not in labels[i]:
                raise FormatError(f"line {lineno}: unknown label {lab!r} for player {i + 1}")
            key.append(labels[i].index(lab))
        if tuple(key) in table:
            raise FormatError(f"line {lineno}: duplicate profile {' '.join(labs)}")
        try:
            table[tuple(key)] = tuple(numeral(v) for v in vals)
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None

    try:
        return FiniteGame(labels, table)
    except InputError as exc:
        raise FormatError(str(exc)) from None


def _rational_text(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def digest_reference(labels, table):
    """sha256 prefix of the labels and the canonical rationals, row by row."""
    rows = [table[p] for p in itertools.product(*(range(len(labs)) for labs in labels))]
    blob = "\n".join(
        [";".join(",".join(labs) for labs in labels)]
        + [",".join(_rational_text(q) for q in row) for row in rows]
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def render_game_reference(labels, table, header_comment=None):
    """The canonical text form, one payoff line per profile in flat order,
    after a `# ` line per line of `header_comment`, trailing blanks cut."""
    out = [f"# {line}".rstrip() for line in (header_comment or "").splitlines()]
    out.append(f"players {len(labels)}")
    out += [f"strategies {i + 1}: " + " ".join(labs) for i, labs in enumerate(labels)]
    for profile in itertools.product(*(range(len(labs)) for labs in labels)):
        names = " ".join(labels[i][s] for i, s in enumerate(profile))
        vals = " ".join(_rational_text(q) for q in table[profile])
        out.append(f"payoff {names} : {vals}")
    return "\n".join(out) + "\n"


# --- catalog grids one profile at a time -----------------------------------


def bertrand_grid_reference(grid_max):
    """The Bertrand grid built by `FiniteGame.from_function`, one payoff pair
    per price profile: demand 100 - p at the lower price, profits split on a
    tie, zero for the higher-priced seller."""

    def pay(profile):
        prices = (profile[0] + 1, profile[1] + 1)
        out = []
        for me, other in (prices, prices[::-1]):
            if me < other:
                out.append(Fraction(me * (100 - me)))
            elif me == other:
                out.append(Fraction(me * (100 - me), 2))
            else:
                out.append(Fraction(0))
        return out

    return FiniteGame.from_function([[str(v) for v in range(1, grid_max + 1)]] * 2, pay)


def hotelling_grid_reference(grid_max):
    """The Hotelling grid built by `FiniteGame.from_function`, one payoff pair
    per spot profile: a seller's own side of the 100-unit street plus half
    the gap to the other, half the street on a tie."""

    def pay(profile):
        spots = (profile[0] + 1, profile[1] + 1)
        out = []
        for me, other in (spots, spots[::-1]):
            if me == other:
                out.append(Fraction(50))
            elif me < other:
                out.append(me + Fraction(other - me, 2))
            else:
                out.append(100 - me + Fraction(me - other, 2))
        return out

    return FiniteGame.from_function([[str(v) for v in range(1, grid_max + 1)]] * 2, pay)


def removal_of(chosen):
    """The `Restriction.remove` argument dropping the (player, strategy)
    pairs `chosen`."""
    removal = {}
    for i, s in chosen:
        removal.setdefault(i, []).append(s)
    return removal


def iterate_reference(game, kind, belief_kind, policy, seed, cache, resolution=2):
    """`reductions.iterate` with a stateless `candidate_certificates` sweep of
    every kept strategy each round, sharing `cache`: the loop before the
    frontier and the sweep table, drawing the same random choices from the
    same sorted sets.  Each step is built eagerly, its target by the checked
    `Restriction.remove` and its `removed` sets listed, so the engine's
    mask-built steps are compared against plain ones."""
    from nbrelim.reductions import (
        IllegalStepError,
        Policy,
        ReductionKind,
        Rejection,
        Step,
        Trace,
        candidate_certificates,
        validate_step,
    )

    rng = random.Random(seed)
    current = full_restriction(game)
    steps, notes, maximal = [], [], True
    while True:
        sets, certs, inconclusive = candidate_certificates(
            game, current, belief_kind, kind, resolution, cache
        )
        flat = [(i, s) for i, gone in enumerate(sets) for s in gone]
        if not flat:
            if inconclusive:
                notes.append("inconclusive strategies kept; sound, possibly non-maximal")
                maximal = False
            break
        if policy is Policy.FAST:
            chosen = flat
        elif policy is Policy.SINGLE_RANDOM:
            chosen = [flat[rng.randrange(len(flat))]]
        else:
            chosen = []
            while not chosen:
                chosen = [pair for pair in flat if rng.getrandbits(1)]
        removal = removal_of(chosen)
        target = current.remove(removal)
        if kind is ReductionKind.DARROW:
            step = validate_step(
                game, current, target, kind, belief_kind, resolution, cache
            )
            if isinstance(step, Rejection):
                raise IllegalStepError(step)
        else:
            removed = tuple(tuple(removal.get(i, ())) for i in range(game.players))
            step_certs = tuple((pair, certs[pair]) for pair in chosen)
            step = Step(current, target, removed, kind, belief_kind, step_certs)
        steps.append(step)
        current = step.target
    return Trace(
        game, kind, belief_kind, policy, seed, tuple(steps), current, maximal,
        tuple(notes),
    )


def _mask_labels(game, bits):
    """Per player, the labels of the strategies set in `bits`, one bit at a
    time."""
    return [
        [game.labels[i][s] for s in range(n) if bits >> off + s & 1]
        for i, (off, n) in enumerate(zip(game.offsets, game.sizes))
    ]


def trace_records_reference(trace):
    """`Trace.records()` with every step's labels listed afresh from its two
    masks: removed, `source & ~target`; kept, `target`."""
    game = trace.initial
    records = [
        {"record": "step", "index": k, "kind": step.kind.value,
         "removed": _mask_labels(game, step.source.bits & ~step.target.bits),
         "kept": _mask_labels(game, step.target.bits)}
        for k, step in enumerate(trace.steps, start=1)
    ]
    records.append({
        "record": "outcome", "game": game.digest(), "kind": trace.kind.value,
        "beliefs": trace.belief_kind.value, "policy": trace.policy.value,
        "seed": trace.seed, "steps": len(trace.steps),
        "kept": _mask_labels(game, trace.outcome.bits), "maximal": trace.maximal,
    })
    return records


def render_trace_reference(trace):
    """`Trace.render()` written from `trace_records_reference`."""
    from nbrelim.oracle import render_certificate

    def braced(sets):
        return "{" + ",".join(
            f"p{i + 1}:[{','.join(labels)}]" for i, labels in enumerate(sets)
        ) + "}"

    symbol = {"tilde": "~", "arrow": "->", "darrow": "=>"}
    game = trace.initial
    *steps, outcome = trace_records_reference(trace)
    out = [
        f"game {outcome['game']} kind={symbol[outcome['kind']]} "
        f"beliefs={outcome['beliefs']} policy={outcome['policy']} seed={outcome['seed']}"
    ]
    out += [
        f"step {r['index']} kind={symbol[r['kind']]} removed={braced(r['removed'])} "
        f"-> kept={braced(r['kept'])}"
        for r in steps
    ]
    out.append(
        f"outcome kept={braced(outcome['kept'])} steps={outcome['steps']} "
        f"maximal={'yes' if outcome['maximal'] else 'no'}"
    )
    out += [f"note {note}" for note in trace.notes]
    for k, step in enumerate(trace.steps, start=1):
        for (player, s), cert in step.certificates:
            out.append(
                f"cert step={k} p{player + 1} {game.labels[player][s]} "
                f"{render_certificate(cert, game, player)}"
            )
    return "\n".join(out) + "\n"


def restrictions_outside(game, outcome):
    """Every restriction of `game` that `outcome` does not contain: the whole
    subset lattice, tested on bit masks before each restriction is built."""
    from nbrelim.games import Restriction

    kepts = [
        [tuple(s for s in range(size) if m >> s & 1) for m in range(1 << size)]
        for size in game.sizes
    ]
    masks = [
        [m << off for m in range(1 << size)]
        for size, off in zip(game.sizes, game.offsets)
    ]
    for kept, parts in zip(itertools.product(*kepts), itertools.product(*masks)):
        if (bits := sum(parts)) & ~outcome.bits:
            yield Restriction._trusted(game, kept, bits)


def larger_closed_reference(game, outcome, belief_kind, resolution, cache=None):
    """The first restriction outside `outcome` that `verification.is_closed`
    finds closed, by a sweep of the whole lattice; None when there is none.
    The verdict `check_order_independence` reads off the fast trace's
    induction must match it."""
    from nbrelim.verification import is_closed

    return next(
        (
            c for c in restrictions_outside(game, outcome)
            if is_closed(game, c, belief_kind, resolution, cache)
        ),
        None,
    )
