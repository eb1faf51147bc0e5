"""Exact LP feasibility over the probability simplex, by phase-1 simplex
with Bland's rule.

The solver answers the correlated oracle's one question: does x >= 0 with
sum x = 1 exist that has r.x >= 0 for every given integer row r?  Row k is
written -r.x + s_k = 0, with its surplus s_k basic from the start, and the
sum row gets the only artificial.  Pivots run in exact integer
(fraction-free) arithmetic: one running denominator, the determinant of the
current basis, keeps the tableau integral (Edmonds 1967, Bareiss 1968, as in
Avis's lrs).  The returned point is `fractions.Fraction`.  Bland's pivoting
rule makes the run deterministic and cycle-free.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .games import InputError


def lp_feasible(
    inequalities: Sequence[Sequence[int]], *, num_vars: int
) -> list[Fraction] | None:
    """Feasible basic point of {x >= 0, sum x = 1, r.x >= 0 for r in
    inequalities}, or None when there is none.  Each row holds `num_vars`
    ints: the oracle is the only caller, and other numbers are not checked."""
    if any(len(r) != num_vars for r in inequalities):
        raise InputError("constraint rows have inconsistent dimensions")
    n, m = num_vars, len(inequalities)
    # Columns: structural | surplus, then the right-hand side.  The
    # artificial of the sum row (row m) would be column n + m; it never
    # enters, so it is not stored, but its index stands for it in `basis`.
    width = n + m
    tableau = [[-c for c in r] + [0] * (m + 1) for r in inequalities]
    for k, row in enumerate(tableau):
        row[n + k] = 1
    tableau.append([1] * n + [0] * m + [1])
    basis = list(range(n, width + 1))
    # The true tableau is `tableau / den`; den is the basis determinant,
    # 1 for the starting unit basis and positive after every pivot.
    den = 1
    while True:
        # Minimize the artificial: while it is basic in the sum row, that
        # row is the objective's reduced-cost row.  Until then every other
        # row keeps right-hand side 0 (each pivot is on one of them) and the
        # sum row's stays positive, so the artificial never sits at 0: with
        # no entering column the system is infeasible.  Bland: the entering
        # column is the smallest index with a positive reduced cost.
        obj = tableau[m]
        enter = next((j for j in range(width) if obj[j] > 0), -1)
        if enter < 0:
            return None
        # The ratio test ties at 0 among the rows with a positive entry, so
        # Bland's tie-break takes the smallest basic index among them; the
        # sum row, with a positive ratio, leaves only when there is none.
        rising = [r for r in range(m) if tableau[r][enter] > 0]
        leave = min(rising, key=basis.__getitem__, default=m)
        # Integer pivot: every other row becomes (piv * v - f * p) // den, an
        # exact division (Bareiss), and the pivot entry the new denominator.
        piv_row = tableau[leave]
        piv = piv_row[enter]
        for r, row in enumerate(tableau):
            if r != leave:
                f = row[enter]
                tableau[r] = [(piv * v - f * p) // den for v, p in zip(row, piv_row)]
        basis[leave], den = enter, piv
        if leave == m:  # the artificial left the basis at 0
            break
    x = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tableau[r][-1], den)
    return x
