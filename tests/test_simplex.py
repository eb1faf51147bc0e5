"""Exact LP feasibility: handwritten cases, a vertex-enumeration oracle, and
the plain-Fraction reference pivots that the integer pivots must follow."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nbrelim import simplex
from nbrelim.games import InputError
from nbrelim.simplex import lp_feasible

from oracles import feasible_by_vertex_enumeration, lp_feasible_reference


def check_point(x, inequalities, equality):
    assert all(v >= 0 for v in x)
    for coeffs, bound in inequalities:
        assert sum(c * v for c, v in zip(coeffs, x)) >= bound
    coeffs, bound = equality
    assert sum(c * v for c, v in zip(coeffs, x)) == bound


def test_single_variable_pinned():
    x = lp_feasible([], ([Fraction(1)], Fraction(1)), num_vars=1)
    assert x == [Fraction(1)]


def test_contradictory_system_infeasible():
    # x - y >= 0 and y - x >= 1 cannot both hold on the unit simplex
    ineqs = [([1, -1], 0), ([-1, 1], 1)]
    assert lp_feasible(ineqs, ([1, 1], 1)) is None


def test_all_negative_row_infeasible():
    # one comparison row with strictly negative coefficients: mu_L*(0-2)+mu_R*(1-2)>=0
    assert lp_feasible([([-2, -1], 0)], ([1, 1], 1)) is None


def test_explicit_nonneg_rows_are_harmless():
    ineqs = [([1, 0], 0), ([0, 1], 0), ([1, -1], 0)]
    x = lp_feasible(ineqs, ([1, 1], 1))
    assert x is not None
    check_point(x, ineqs, ([1, 1], 1))


def test_tight_balance():
    # forces the uniform point: x - y >= 0 and y - x >= 0
    ineqs = [([1, -1], 0), ([-1, 1], 0)]
    x = lp_feasible(ineqs, ([1, 1], 1))
    assert x == [Fraction(1, 2), Fraction(1, 2)]


def test_dimension_mismatch():
    with pytest.raises(InputError):
        lp_feasible([([1, 2], 0), ([1], 0)], ([1, 1], 1))


def test_deterministic():
    ineqs = [([3, -1, 0], 1), ([-1, 2, -1], 0)]
    eq = ([1, 1, 1], 1)
    assert lp_feasible(ineqs, eq) == lp_feasible(ineqs, eq)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_against_vertex_enumeration(data):
    nvars = data.draw(st.integers(1, 3))
    nrows = data.draw(st.integers(0, 4))
    ineqs = []
    for _ in range(nrows):
        coeffs = [
            Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3)))
            for _ in range(nvars)
        ]
        bound = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 2)))
        ineqs.append((coeffs, bound))
    eq = ([Fraction(1)] * nvars, Fraction(1))
    got = lp_feasible(ineqs, eq, num_vars=nvars)
    want = feasible_by_vertex_enumeration(ineqs, eq, nvars)
    assert (got is not None) == want
    if got is not None:
        check_point(got, ineqs, eq)


def test_many_seeded_systems():
    rng = random.Random(7)
    for _ in range(300):
        nvars = rng.randint(1, 4)
        ineqs = []
        for _ in range(rng.randint(0, 5)):
            ineqs.append(
                (
                    [Fraction(rng.randint(-5, 5)) for _ in range(nvars)],
                    Fraction(rng.randint(-2, 2)),
                )
            )
        eq = ([Fraction(1)] * nvars, Fraction(1))
        got = lp_feasible(ineqs, eq, num_vars=nvars)
        assert (got is not None) == feasible_by_vertex_enumeration(ineqs, eq, nvars)
        if got is not None:
            check_point(got, ineqs, eq)


# --- the integer pivots take the path of the Fraction pivots -----------------


def same_as_reference(ineqs, eq, nvars):
    got = lp_feasible(ineqs, eq, num_vars=nvars)
    want = lp_feasible_reference(ineqs, eq, num_vars=nvars)
    assert got == want
    if got is not None:
        assert all(type(v) is Fraction for v in got)
    return got


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_same_point_as_fraction_pivots(data):
    nvars = data.draw(st.integers(1, 5))
    ineqs = [
        (data.draw(st.lists(rationals, min_size=nvars, max_size=nvars)),
         data.draw(st.sampled_from([Fraction(0), Fraction(-1, 2)]) | rationals))
        for _ in range(data.draw(st.integers(0, 5)))
    ]
    eq = data.draw(
        st.none()
        | st.just(([1] * nvars, 1))
        | st.tuples(st.lists(rationals, min_size=nvars, max_size=nvars), rationals)
    )
    if not ineqs and eq is None:
        eq = ([1] * nvars, 1)
    same_as_reference(ineqs, eq, nvars)


def test_same_point_on_seeded_systems():
    rng = random.Random(11)
    feasible = 0
    for _ in range(400):
        nvars = rng.randint(1, 6)
        den = rng.choice([1, 1, 2, 6, 35])
        ineqs = [
            (
                [Fraction(rng.randint(-9, 9), den) for _ in range(nvars)],
                # bound 0 starts a row basic on its surplus; negative flips it
                Fraction(rng.choice([0, 0, -1, rng.randint(-4, 4)]), rng.randint(1, 3)),
            )
            for _ in range(rng.randint(0, 6))
        ]
        eq = ([Fraction(rng.randint(0, 4), den) for _ in range(nvars)], Fraction(1))
        feasible += same_as_reference(ineqs, eq, nvars) is not None
    assert 40 < feasible < 360


def test_same_point_on_integer_comparison_rows():
    # The correlated oracle's shape: integer payoff-difference rows with
    # bound 0 and the unit-simplex equality, passed without Fraction.
    rng = random.Random(5)
    infeasible = 0
    for _ in range(300):
        nvars = rng.randint(2, 12)
        ineqs = [
            ([rng.randint(-20, 20) for _ in range(nvars)], 0)
            for _ in range(rng.randint(1, 5))
        ]
        infeasible += same_as_reference(ineqs, ([1] * nvars, 1), nvars) is None
    assert 10 < infeasible < 290


def test_equality_only_systems():
    rng = random.Random(3)
    for _ in range(100):
        nvars = rng.randint(1, 5)
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(nvars)]
        bound = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        same_as_reference([], (coeffs, bound), nvars)
    assert lp_feasible([], ([2, 3], Fraction(1, 2))) == [Fraction(1, 4), 0]
    assert lp_feasible([], ([-1, -1], 1)) is None


def test_huge_coefficients_divide_exactly():
    # Coefficients near 2**80 make the basis determinants ~2**160 and more:
    # an inexact floor division in a pivot would change the point.
    rng = random.Random(80)
    big = 2**80
    seen = 0
    for _ in range(120):
        nvars = rng.randint(2, 5)
        ineqs = [
            (
                [big + rng.randint(-999, 999) if rng.random() < 0.5
                 else -big + rng.randint(-999, 999) for _ in range(nvars)],
                rng.choice([0, big, -big + 7, Fraction(big, 3)]),
            )
            for _ in range(rng.randint(1, 4))
        ]
        eq = ([rng.randint(1, 3) for _ in range(nvars)], rng.randint(1, 5))
        x = same_as_reference(ineqs, eq, nvars)
        if x is not None:
            check_point(x, ineqs, eq)
            seen += max(v.denominator for v in x) > 2**60
    assert seen > 0


# --- all-int systems skip the scaling ----------------------------------------


def as_fractions(row):
    coeffs, bound = row
    return [Fraction(c) for c in coeffs], Fraction(bound)


big = st.integers(2**80 - 9, 2**80 + 9)
entries = st.integers(-6, 6) | big | big.map(lambda v: -v) | st.booleans()


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_integer_rows_same_point_three_ways(data):
    # As given (plain ints take the unscaled path), with every entry a
    # Fraction (the scaled path) and through the Fraction reference pivots;
    # bool entries and rows mixing int and Fraction take the scaled path.
    nvars = data.draw(st.integers(1, 5))
    row = st.tuples(
        st.lists(entries, min_size=nvars, max_size=nvars),
        st.sampled_from([0, 0, -1, -(2**80)]) | entries,
    )
    ineqs = data.draw(st.lists(row, max_size=5))
    eq = data.draw(st.just(([1] * nvars, 1)) | row)
    got = lp_feasible(ineqs, eq, num_vars=nvars)
    scaled = lp_feasible(list(map(as_fractions, ineqs)), as_fractions(eq), num_vars=nvars)
    assert got == scaled == lp_feasible_reference(ineqs, eq, num_vars=nvars)
    mixed = [
        as_fractions(r) if data.draw(st.booleans(), label="as Fraction") else r
        for r in ineqs
    ]
    assert lp_feasible(mixed, eq, num_vars=nvars) == got


def test_integer_rows_skip_the_scaling(monkeypatch):
    def no_scaling(*denominators):
        raise AssertionError("an all-int system was scaled")

    monkeypatch.setattr(simplex, "lcm", no_scaling)
    ineqs = [([3, -1, 0], 1), ([-1, 2, -1], 0)]
    got = lp_feasible(ineqs, ([1, 1, 1], 1))
    assert got is not None and got == lp_feasible_reference(ineqs, ([1, 1, 1], 1))
    for row in ([3, Fraction(-1), 0], 1), ([3, True, 0], 1), ([3, -1, 0], 1.0):
        with pytest.raises(AssertionError):
            lp_feasible([row], ([1, 1, 1], 1))
