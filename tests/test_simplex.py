"""Exact LP feasibility over the simplex: handwritten cases, a vertex-
enumeration oracle, and the plain-Fraction reference pivots that the integer
pivots must follow."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nbrelim.games import InputError
from nbrelim.simplex import lp_feasible

from oracles import feasible_by_vertex_enumeration, lp_feasible_reference


def check_point(x, rows):
    assert all(v >= 0 for v in x) and sum(x) == 1
    for coeffs in rows:
        assert sum(c * v for c, v in zip(coeffs, x)) >= 0


def same_as_reference(rows, nvars):
    """The point (or None) of `lp_feasible`, after checking that the general
    Fraction reference gives the same one on the same system."""
    got = lp_feasible(rows, num_vars=nvars)
    want = lp_feasible_reference([(r, 0) for r in rows], ([1] * nvars, 1), num_vars=nvars)
    assert got == want
    if got is not None:
        # a basic entry is a Fraction, a non-basic one the int 0
        assert all(type(v) is Fraction or (type(v) is int and v == 0) for v in got)
        check_point(got, rows)
    return got


def vertex_feasible(rows, nvars):
    return feasible_by_vertex_enumeration([(r, 0) for r in rows], ([1] * nvars, 1), nvars)


def test_single_variable_pinned():
    assert lp_feasible([], num_vars=1) == [Fraction(1)]
    assert lp_feasible([[5]], num_vars=1) == [Fraction(1)]
    assert lp_feasible([], num_vars=3) == [Fraction(1), 0, 0]


def test_no_variables_is_infeasible():
    # the empty simplex has no point, whatever the rows
    assert lp_feasible([], num_vars=0) is None
    assert lp_feasible([[], []], num_vars=0) is None


def test_contradictory_system_infeasible():
    # x >= 2y and y >= 2x leave only x = y = 0, off the simplex
    assert lp_feasible([[1, -2], [-2, 1]], num_vars=2) is None


def test_all_negative_row_infeasible():
    # one comparison row with strictly negative coefficients: mu_L*(0-2)+mu_R*(1-2)>=0
    assert lp_feasible([[-2, -1]], num_vars=2) is None


def test_explicit_nonneg_rows_are_harmless():
    rows = [[1, 0], [0, 1], [1, -1]]
    x = lp_feasible(rows, num_vars=2)
    assert x is not None
    check_point(x, rows)


def test_tight_balance():
    # forces the uniform point: x - y >= 0 and y - x >= 0
    x = lp_feasible([[1, -1], [-1, 1]], num_vars=2)
    assert x == [Fraction(1, 2), Fraction(1, 2)]


def test_dimension_mismatch():
    with pytest.raises(InputError):
        lp_feasible([[1, 2], [1]], num_vars=2)
    with pytest.raises(InputError):
        lp_feasible([[1, 2]], num_vars=3)


def test_deterministic():
    rows = [[3, -1, -2], [-1, 2, -1]]
    assert lp_feasible(rows, num_vars=3) == lp_feasible(rows, num_vars=3)
    assert lp_feasible(rows, num_vars=3) == same_as_reference(rows, 3)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_against_vertex_enumeration(data):
    nvars = data.draw(st.integers(1, 3))
    row = st.lists(st.integers(-4, 4), min_size=nvars, max_size=nvars)
    rows = data.draw(st.lists(row, max_size=4))
    got = same_as_reference(rows, nvars)
    assert (got is not None) == vertex_feasible(rows, nvars)


def test_many_seeded_systems():
    rng = random.Random(7)
    feasible = 0
    for _ in range(300):
        nvars = rng.randint(1, 4)
        rows = [
            [rng.randint(-5, 5) for _ in range(nvars)] for _ in range(rng.randint(0, 5))
        ]
        got = same_as_reference(rows, nvars)
        assert (got is not None) == vertex_feasible(rows, nvars)
        feasible += got is not None
    assert 30 < feasible < 270


def test_equality_only_systems():
    # An equality r.x == 0 is the row pair r, -r; systems of such pairs pin
    # the point to the simplex's face where every r.x is exactly 0.
    rng = random.Random(3)
    feasible = 0
    for _ in range(100):
        nvars = rng.randint(1, 5)
        eqs = [[rng.randint(-3, 3) for _ in range(nvars)] for _ in range(rng.randint(1, 2))]
        rows = [s for r in eqs for s in (r, [-c for c in r])]
        x = same_as_reference(rows, nvars)
        assert (x is not None) == vertex_feasible(rows, nvars)
        if x is not None:
            feasible += 1
            assert all(sum(c * v for c, v in zip(r, x)) == 0 for r in eqs)
    assert 10 < feasible < 90
    # 2x == y on the simplex; x + y == 0 has no point there
    assert lp_feasible([[2, -1], [-2, 1]], num_vars=2) == [Fraction(1, 3), Fraction(2, 3)]
    assert lp_feasible([[1, 1], [-1, -1]], num_vars=2) is None


# --- the integer pivots take the path of the Fraction pivots -----------------


big = st.integers(2**80 - 9, 2**80 + 9)
entries = st.integers(-6, 6) | big | big.map(lambda v: -v)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_same_point_as_fraction_pivots(data):
    nvars = data.draw(st.integers(1, 7))
    row = st.lists(entries, min_size=nvars, max_size=nvars)
    same_as_reference(data.draw(st.lists(row, max_size=5)), nvars)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_integer_rows_same_point_three_ways(data):
    # As given, with each row scaled by its own positive int (every pivot
    # choice reads only signs, so the pivots and the point stay the same)
    # and through the Fraction reference pivots.
    nvars = data.draw(st.integers(1, 5))
    row = st.lists(entries, min_size=nvars, max_size=nvars)
    rows = data.draw(st.lists(row, max_size=5))
    scales = data.draw(st.lists(st.integers(1, 2**40), min_size=len(rows), max_size=len(rows)))
    got = same_as_reference(rows, nvars)
    scaled = [[k * c for c in r] for k, r in zip(scales, rows)]
    assert lp_feasible(scaled, num_vars=nvars) == got


def test_same_point_on_seeded_systems():
    rng = random.Random(11)
    feasible = 0
    for _ in range(400):
        nvars = rng.randint(1, 6)
        rows = [
            [rng.randint(-9, 9) for _ in range(nvars)] for _ in range(rng.randint(0, 6))
        ]
        feasible += same_as_reference(rows, nvars) is not None
    assert 40 < feasible < 360


def test_same_point_on_integer_comparison_rows():
    # The correlated oracle's shape: wider integer payoff-difference rows.
    rng = random.Random(5)
    infeasible = 0
    for _ in range(300):
        nvars = rng.randint(2, 12)
        rows = [
            [rng.randint(-20, 20) for _ in range(nvars)] for _ in range(rng.randint(1, 5))
        ]
        infeasible += same_as_reference(rows, nvars) is None
    assert 10 < infeasible < 290


def test_huge_coefficients_divide_exactly():
    # Coefficients near 2**80 make the basis determinants ~2**160 and more:
    # an inexact floor division in a pivot would change the point.
    rng = random.Random(80)
    big = 2**80
    seen = 0
    for _ in range(120):
        nvars = rng.randint(2, 5)
        rows = [
            [big + rng.randint(-999, 999) if rng.random() < 0.5
             else -big + rng.randint(-999, 999) for _ in range(nvars)]
            for _ in range(rng.randint(1, 4))
        ]
        x = same_as_reference(rows, nvars)
        if x is not None:
            seen += max(v.denominator for v in x) > 2**60
    assert seen > 0
