"""Brute-force reference computations, independent of the elimination engine.

Everything here is computed straight from `FiniteGame.payoff` lookups with
plain loops: best-response tables, fast-elimination replays, pure equilibrium
scans, an exact vertex-enumeration feasibility oracle for cross-checking
the simplex, and a plain-`Fraction` phase-1 simplex with a dense lazy-row
loop that the engine's integer pivots and support-only scan must follow
step for step.  Nothing imports the oracle or reduction machinery.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from nbrelim.games import FiniteGame


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

    Same contract and same pivot rule as `nbrelim.simplex.lp_feasible`, so
    both return the identical basic point (or None); a ValueError stands in
    for the engine's input errors.
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
