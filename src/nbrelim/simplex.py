"""Exact rational LP feasibility via phase-1 simplex with Bland's rule.

The solver answers one question: does x >= 0 exist with a.x >= b for each
inequality row and e.x == f for the normalization row?  Pivots run in exact
integer (fraction-free) arithmetic: inputs that are not all `int` are scaled
to integers by their common denominator, and one running denominator, the
determinant of the current basis, keeps the tableau integral (Edmonds 1967,
Bareiss 1968, as in Avis's lrs).  The returned point is `fractions.Fraction`.
Bland's pivoting rule makes the run deterministic and cycle-free.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .games import InputError, Rational

Row = tuple[Sequence[Rational], Rational]


def lp_feasible(
    inequalities: Sequence[Row],
    equality: Row | None = None,
    num_vars: int | None = None,
) -> list[Fraction] | None:
    """Feasible basic point of {x >= 0, A x >= b, e.x = f}, or None.

    `inequalities` are (coefficients, bound) rows meaning coeffs.x >= bound;
    `equality` is the single normalization row meaning coeffs.x == bound.
    Returns the structural variables of a basic feasible solution found by
    phase-1 simplex, or None when the system is infeasible.
    """
    rows = [(coeffs, bound, False) for coeffs, bound in inequalities]
    if equality is not None:
        rows.append((equality[0], equality[1], True))
    widths = {len(coeffs) for coeffs, _, _ in rows}
    if num_vars is None:
        if len(widths) != 1:
            raise InputError("constraint rows have inconsistent dimensions")
        num_vars = widths.pop()
    elif widths and widths != {num_vars}:
        raise InputError("constraint rows have inconsistent dimensions")
    ints = {int}
    if not all(type(b) is int and ints.issuperset(map(type, a)) for a, b, _ in rows):
        # Rows of plain ints (every oracle call) are used as they are.  Scaling
        # the others by the common denominator leaves the surplus and artificial
        # columns at +-1, which rescales those variables by a positive constant:
        # reduced-cost signs and the order of ratios, hence Bland's pivots, are
        # those of the rational tableau.
        rows = [([Fraction(c) for c in a], Fraction(b), eq) for a, b, eq in rows]
        scale = lcm(*(v.denominator for a, b, _ in rows for v in (b, *a)))
        rows = [([int(c * scale) for c in a], int(b * scale), eq) for a, b, eq in rows]
    m = len(rows)
    # Column layout: structural | surplus | artificial.  Flipping an
    # inequality with bound <= 0 makes its surplus column a ready-made basic
    # unit column; equalities and positive bounds get an artificial.
    art_at = num_vars + sum(1 for _, _, is_eq in rows if not is_eq)
    ncols = art_at + sum(1 for _, bound, is_eq in rows if is_eq or bound > 0)
    tableau: list[list[int]] = []
    basis: list[int] = []
    surplus, art = num_vars, art_at
    for coeffs, bound, is_eq in rows:
        row = [0] * (ncols + 1)
        row[:num_vars], row[ncols] = coeffs, bound
        if not is_eq:
            row[surplus] = -1
        if bound < 0 or (bound == 0 and not is_eq):
            row = [-v for v in row]
        if is_eq or bound > 0:
            row[art] = 1
            basis.append(art)
            art += 1
        else:
            basis.append(surplus)
        surplus += not is_eq
        tableau.append(row)

    # The true tableau is `tableau / den`; den is the basis determinant,
    # 1 for the starting unit basis and positive after every pivot.
    den = 1
    while True:
        # Objective: minimize the sum of artificials.  Its reduced-cost row is
        # the sum of the rows whose basic variable is artificial, in every
        # tableau (pivots are linear in the rows), so it is read off them
        # rather than pivoted as a row of its own.
        arts = [row for row, b in zip(tableau, basis) if b >= art_at]
        if not arts:
            break
        obj = arts[0] if len(arts) == 1 else [sum(col) for col in zip(*arts)]
        # Bland: entering column = smallest index with positive reduced cost,
        # artificial columns excluded so they never re-enter.
        enter = -1
        for j in range(art_at):
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            if obj[ncols] != 0:
                return None
            break
        # Ratio test by cross-multiplication (both entries positive); Bland
        # tie-break on the smallest basic variable index.
        leave = -1
        for r in range(m):
            a = tableau[r][enter]
            if a > 0:
                if leave < 0:
                    leave = r
                    continue
                lhs = tableau[r][ncols] * tableau[leave][enter]
                rhs = tableau[leave][ncols] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave = r
        if leave < 0:
            raise InputError("phase-1 objective unbounded; inconsistent tableau")
        # Integer pivot: every other row becomes (piv * v - f * p) // den, an
        # exact division (Bareiss), and the pivot entry the new denominator.
        piv_row = tableau[leave]
        piv = piv_row[enter]
        for r, row in enumerate(tableau):
            if r != leave:
                f = row[enter]
                tableau[r] = [(piv * v - f * p) // den for v, p in zip(row, piv_row)]
        basis[leave], den = enter, piv
    x = [Fraction(0)] * num_vars
    for r, b in enumerate(basis):
        if b < num_vars:
            x[b] = Fraction(tableau[r][-1], den)
    return x
