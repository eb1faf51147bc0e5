"""game layer: rationals, games, restrictions, lattice algebra, text format."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nbrelim.games import (
    FiniteGame,
    FormatError,
    InputError,
    Restriction,
    RestrictionClass,
    full_restriction,
    join,
    meet,
    parse_game,
    parse_rational,
    render_game,
    render_rational,
    restrict,
    restrict_by_labels,
)
from nbrelim.catalog import bertrand_grid, gap_3x2


@pytest.fixture(scope="module")
def g3x2():
    return gap_3x2()


class TestRational:
    def test_parse_forms(self):
        assert parse_rational("3") == Fraction(3)
        assert parse_rational("-7/2") == Fraction(-7, 2)
        assert parse_rational("4/6") == Fraction(2, 3)  # canonicalized

    @pytest.mark.parametrize("bad", ["1.5", "1/0", "1/-2", "a", "", "2 /3", "1e3"])
    def test_parse_rejects(self, bad):
        with pytest.raises(FormatError):
            parse_rational(bad)

    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rational(render_rational(q)) == q


class TestFiniteGame:
    def test_payoff_examples(self, g3x2):
        # top row pays 2 against either column
        assert g3x2.payoff((0, 0), 0) == 2
        assert g3x2.payoff((0, 0), 1) == 0

    def test_constant_zero_game(self):
        g = FiniteGame.from_function([["a", "b"], ["x"]], lambda p: (0, 0))
        assert all(g.payoff(pr, i) == 0 for pr in [(0, 0), (1, 0)] for i in (0, 1))

    def test_bertrand_payoff(self):
        g = bertrand_grid(100)
        # price 49 against 50 sells 49*(100-49): evaluated from the formula
        assert g.payoff((48, 49), 0) == Fraction(49 * (100 - 49))
        assert g.payoff((48, 49), 0) == 2499

    def test_out_of_range_errors(self, g3x2):
        with pytest.raises(InputError):
            g3x2.payoff((3, 0), 0)
        with pytest.raises(InputError):
            g3x2.payoff((0, 0), 2)
        with pytest.raises(InputError):
            g3x2.payoff((0,), 0)

    def test_tensor_must_be_total(self):
        with pytest.raises(InputError):
            FiniteGame([["a", "b"], ["x"]], {(0, 0): (1, 1)})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError):
            FiniteGame.from_function([["a", "a"], ["x"]], lambda p: (0, 0))

    @pytest.mark.parametrize("label", ["a b", "", "a:b", "a;b", "a,b", "a#b"])
    def test_format_breaking_labels_rejected(self, label):
        with pytest.raises(InputError):
            FiniteGame.from_function([[label], ["x"]], lambda p: (0, 0))

    def test_structural_equality(self, g3x2):
        assert g3x2 == gap_3x2()
        assert hash(g3x2) == hash(gap_3x2())


class TestRestriction:
    def test_restrict_examples(self, g3x2):
        sub = restrict_by_labels(g3x2, [["M", "B"], ["L", "R"]])
        assert sub.kept == ((1, 2), (0, 1))
        # bits: player 1's strategies first (M=1, B=2), then player 2's (L=3, R=4)
        assert sub.bits == 0b11110
        assert full_restriction(g3x2).kept == ((0, 1, 2), (0, 1))
        empty = restrict(g3x2, [(), ()])
        assert empty.classify() is RestrictionClass.EMPTY

    def test_classify(self, g3x2):
        assert full_restriction(g3x2).classify() is RestrictionClass.NONDEGENERATE
        assert restrict(g3x2, [(), (0,)]).classify() is RestrictionClass.DEGENERATE
        assert restrict(g3x2, [(), ()]).classify() is RestrictionClass.EMPTY

    def test_out_of_range(self, g3x2):
        with pytest.raises(InputError):
            restrict(g3x2, [(0, 5), (0,)])

    def test_payoffs_inherited_never_copied(self, g3x2):
        sub = restrict_by_labels(g3x2, [["M", "B"], ["L", "R"]])
        for profile in [(1, 0), (1, 1), (2, 0), (2, 1)]:
            assert sub.payoff(profile, 0) == g3x2.payoff(profile, 0)

    def test_payoff_outside_restriction_is_error(self, g3x2):
        sub = restrict_by_labels(g3x2, [["M"], ["L"]])
        with pytest.raises(InputError):
            sub.payoff((0, 0), 0)

    def test_meet_join_examples(self, g3x2):
        sub = restrict_by_labels(g3x2, [["M", "B"], ["L", "R"]])
        assert meet(sub, sub).kept == sub.kept
        a = restrict_by_labels(g3x2, [["T"], ["L"]])
        b = restrict_by_labels(g3x2, [["M"], ["L", "R"]])
        assert meet(a, b).kept == ((), (0,))
        assert join(a, b).kept == ((0, 1), (0, 1))

    def test_join_of_halves_covers_grid(self):
        g = bertrand_grid(10)
        lo = restrict(g, [range(0, 5), range(0, 5)])
        hi = restrict(g, [range(4, 10), range(4, 10)])
        assert join(lo, hi).kept == full_restriction(g).kept

    def test_mismatched_parents(self, g3x2):
        other = bertrand_grid(3)
        with pytest.raises(InputError):
            meet(full_restriction(g3x2), full_restriction(other))


subset_pairs = st.integers(0, 7).flatmap(
    lambda _: st.tuples(
        st.sets(st.integers(0, 2), max_size=3),
        st.sets(st.integers(0, 1), max_size=2),
    )
)


@st.composite
def restriction_of_3x2(draw):
    rows = draw(st.sets(st.integers(0, 2), max_size=3))
    cols = draw(st.sets(st.integers(0, 1), max_size=2))
    return (tuple(sorted(rows)), tuple(sorted(cols)))


class TestLatticeLaws:
    @given(a=restriction_of_3x2(), b=restriction_of_3x2())
    @settings(max_examples=80)
    def test_meet_join_are_lattice_ops(self, a, b):
        g = gap_3x2()
        ra, rb = Restriction(g, a), Restriction(g, b)
        lo, hi = meet(ra, rb), join(ra, rb)
        assert ra.contains(lo) and rb.contains(lo)
        assert hi.contains(ra) and hi.contains(rb)
        # meet is the greatest lower bound: anything below both sits below it
        assert lo.kept == tuple(
            tuple(sorted(set(x) & set(y))) for x, y in zip(a, b)
        )

    @given(a=restriction_of_3x2(), b=restriction_of_3x2())
    @settings(max_examples=80)
    def test_subset_order_matches_containment(self, a, b):
        g = gap_3x2()
        ra, rb = Restriction(g, a), Restriction(g, b)
        componentwise = all(set(x) <= set(y) for x, y in zip(a, b))
        assert rb.contains(ra) == componentwise


GOOD_TEXT = """\
# the relation-gap game
players 2
strategies 1: T M B
strategies 2: L R
payoff T L : 2 0
payoff T R : 2 0
payoff M L : 0 0
payoff M R : 1 0
payoff B L : 1 0
payoff B R : 0 0
"""


class TestTextFormat:
    def test_parse_matches_builtin(self, g3x2):
        assert parse_game(GOOD_TEXT) == g3x2

    def test_round_trip(self, g3x2):
        assert parse_game(render_game(g3x2)) == g3x2

    def test_round_trip_fractional(self):
        g = bertrand_grid(5)
        assert parse_game(render_game(g)) == g

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda t: t.replace("payoff B R : 0 0\n", ""),  # missing profile
            lambda t: t + "payoff B R : 0 0\n",  # duplicate profile
            lambda t: t.replace("2 0", "2.0 0"),  # float payoff
            lambda t: t.replace("players 2", "players two"),
            lambda t: t.replace("strategies 2: L R", "strategies 2: L L"),
            lambda t: t.replace("payoff T L : 2 0", "payoff T X : 2 0"),
            lambda t: t.replace("payoff T L : 2 0", "payoff T L : 2"),
        ],
    )
    def test_malformed_rejected(self, mutation):
        with pytest.raises(FormatError):
            parse_game(mutation(GOOD_TEXT))

    def test_numeral_past_the_digit_limit_names_its_line(self):
        text = GOOD_TEXT.replace("payoff M R : 1 0", "payoff M R : " + "9" * 4400 + " 0")
        with pytest.raises(FormatError, match=r"^line \d+: numeral of 4400 characters"):
            parse_game(text)

    def test_comments_and_blanks_ignored(self):
        text = GOOD_TEXT.replace(
            "payoff T L : 2 0", "\n# mid comment\npayoff T L : 2 0  # inline"
        )
        assert parse_game(text) == gap_3x2()
