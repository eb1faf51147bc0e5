"""game layer: rationals, games, restrictions, text format."""

import gc
import itertools
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nbrelim.games import (
    FiniteGame,
    FormatError,
    InputError,
    Restriction,
    full_restriction,
    parse_game,
    parse_rational,
    render_game,
    render_rational,
    restrict,
    restrict_by_labels,
)
from nbrelim import catalog, games
from nbrelim.catalog import bertrand_grid, gap_3x2, random_game

from oracles import (
    digest_reference,
    parse_game_lines_reference,
    parse_game_reference,
    render_game_reference,
)


@pytest.fixture(scope="module")
def g3x2():
    return gap_3x2()


_ZERO_GAMES: dict[tuple[int, ...], FiniteGame] = {}


def _zero_game(sizes):
    """The all-zero game of the given shape, built once per shape."""
    if sizes not in _ZERO_GAMES:
        labels = [[f"s{s}" for s in range(n)] for n in sizes]
        _ZERO_GAMES[sizes] = FiniteGame.from_function(labels, lambda p: (0,) * len(sizes))
    return _ZERO_GAMES[sizes]


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
    @pytest.mark.parametrize(
        "removal, bad",
        [({0: [0]}, [0]), ({0: [-1]}, [-1]), ({1: [2]}, [2]), ({1: [0, 0, 5]}, [5]),
         ({0: ["M"]}, ["M"]), ({0: [0, "M", 0]}, [0, "M"]),
         ({0: [1, 1.0, None, [2]]}, [1.0, None, [2]])],
    )
    def test_removing_an_absent_strategy_is_an_input_error(self, g3x2, removal, bad):
        # player 1 keeps M and B (indices 1, 2), player 2 both of its two;
        # the absent entries are named once each, as given, whatever their types
        sub = restrict_by_labels(g3x2, [["M", "B"], ["L", "R"]])
        with pytest.raises(InputError, match=re.escape(f"absent strategies {bad} of player")):
            sub.remove(removal)

    @pytest.mark.parametrize("player", [-1, -2, 2, "0", 1.0])
    def test_removing_for_an_absent_player_is_an_input_error(self, g3x2, player):
        # a negative key must not index from the end, a large one must not
        # surface as an IndexError
        sub = restrict_by_labels(g3x2, [["M", "B"], ["L", "R"]])
        with pytest.raises(InputError, match="player key"):
            sub.remove({player: [1]})

    def test_restrict_examples(self, g3x2):
        sub = restrict_by_labels(g3x2, [["M", "B"], ["L", "R"]])
        assert sub.kept == ((1, 2), (0, 1))
        # bits: player 1's strategies first (M=1, B=2), then player 2's (L=3, R=4)
        assert sub.bits == 0b11110
        assert full_restriction(g3x2).kept == ((0, 1, 2), (0, 1))
        empty = restrict(g3x2, [(), ()])
        assert empty.kept == ((), ()) and empty.bits == 0
        with pytest.raises(InputError):
            sub.remove({0: [0]})
        # remove filters the kept sets and clears bits without a rebuild: on
        # seeded chains it must give exactly the restriction built afresh
        for seed in range(6):
            rng = random.Random(seed)
            shape = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
            game = random_game(len(shape), shape, 3, seed=seed)
            current = full_restriction(game)
            while any(current.kept):
                removal = {}
                for i in rng.sample(range(game.players), rng.randint(1, game.players)):
                    gone = rng.randint(0, len(current.kept[i]))
                    removal[i] = rng.sample(current.kept[i], gone)
                nxt = current.remove(removal)
                kept = tuple(
                    tuple(s for s in ks if s not in removal.get(i, ()))
                    for i, ks in enumerate(current.kept)
                )
                fresh = Restriction(game, kept)
                assert nxt == fresh and nxt.kept == fresh.kept and nxt.bits == fresh.bits
                assert current.contains(nxt)
                current = nxt

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_trusted_constructor_equals_the_checked_one(self, data):
        shape = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        game = random_game(len(shape), shape, 3, seed=data.draw(st.integers(0, 99)))
        # the checked constructor sorts and deduplicates; the trusted one
        # takes the normalized sets and an independently built mask
        raw = [data.draw(st.lists(st.integers(0, n - 1), max_size=6)) for n in shape]
        kept = tuple(tuple(sorted(set(ks))) for ks in raw)
        offsets = list(itertools.accumulate(shape, initial=0))
        bits = sum(1 << offsets[i] + s for i, ks in enumerate(kept) for s in ks)
        trusted = Restriction._trusted(game, kept, bits)
        checked = Restriction(game, tuple(map(tuple, raw)))
        assert (trusted.kept, trusted.bits) == (checked.kept, checked.bits)
        assert trusted == checked and hash(trusted) == hash(checked)
        full = full_restriction(game)
        whole = Restriction(game, tuple(tuple(range(n)) for n in shape))
        assert (full.kept, full.bits) == (whole.kept, whole.bits)
        assert full == whole

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_mask_reads_as_its_checked_restriction(self, data):
        # `_trusted(game, None, bits)` derives `kept` from the mask when read.
        # Per-player sets up to 70 wide cross a 64-bit word; every operation
        # runs on a fresh lazy restriction, so none leans on a derived `kept`.
        sizes, room = [], 4900  # profiles in the game
        for _ in range(data.draw(st.integers(1, 3))):
            sizes.append(data.draw(st.integers(1, min(70, room))))
            room //= sizes[-1]
        game = _zero_game(tuple(sizes))
        width = sum(sizes)
        bits, other = (data.draw(st.integers(0, (1 << width) - 1)) for _ in range(2))
        offsets = list(itertools.accumulate(sizes, initial=0))

        def sets(mask):  # the reference: one test per bit
            return tuple(
                tuple(s for s in range(n) if mask >> offsets[i] + s & 1)
                for i, n in enumerate(sizes)
            )

        def lazy(mask):
            return Restriction._trusted(game, None, mask)

        kept, other_kept = sets(bits), sets(other)
        eager, eager_other = Restriction(game, kept), Restriction(game, other_kept)
        assert lazy(bits).kept == eager.kept == kept
        assert lazy(bits).bits == eager.bits == bits
        assert lazy(bits) == eager and hash(lazy(bits)) == hash(eager)
        assert (lazy(bits) == eager_other) is (kept == other_kept)
        assert lazy(bits).render() == eager.render()
        assert lazy(bits).is_nondegenerate() is all(kept)
        assert lazy(bits).contains(lazy(other)) is eager.contains(eager_other) is all(
            set(b) <= set(a) for a, b in zip(kept, other_kept)
        )
        # remove the strategies both keep; then try one that `bits` lacks
        removal = {i: [s for s in ks if s in other_kept[i]] for i, ks in enumerate(kept)}
        removed = lazy(bits).remove(removal)
        assert removed == eager.remove(removal) and removed.kept == sets(bits & ~other)
        absent = next(((i, s) for i, ks in enumerate(other_kept) for s in ks
                       if s not in kept[i]), None)
        if absent is not None:
            errors = []
            for restriction in (lazy(bits), eager):
                with pytest.raises(InputError) as error:
                    restriction.remove({absent[0]: [absent[1]]})
                errors.append(str(error.value))
            assert errors[0] == errors[1]

    def test_classify(self, g3x2):
        assert full_restriction(g3x2).is_nondegenerate()
        assert not restrict(g3x2, [(), (0,)]).is_nondegenerate()
        assert not restrict(g3x2, [(), ()]).is_nondegenerate()

    def test_out_of_range(self, g3x2):
        with pytest.raises(InputError):
            restrict(g3x2, [(0, 5), (0,)])

    def test_mismatched_parents(self, g3x2):
        other = bertrand_grid(3)
        with pytest.raises(InputError, match="different parent games"):
            full_restriction(g3x2).contains(full_restriction(other))


@st.composite
def restriction_of_3x2(draw):
    rows = draw(st.sets(st.integers(0, 2), max_size=3))
    cols = draw(st.sets(st.integers(0, 1), max_size=2))
    return (tuple(sorted(rows)), tuple(sorted(cols)))


class TestLatticeLaws:
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
            # digits outside ASCII: a superscript count, Arabic-Indic numerals
            lambda t: t.replace("players 2", "players \u00b2"),
            lambda t: t.replace("payoff M R : 1 0", "payoff M R : \u0661/\u0662 0"),
            lambda t: t.replace("strategies 2: L R", "strategies \u0662: L R"),
            # counts past the interpreter's int-string digit limit
            lambda t: t.replace("players 2", "players " + "9" * 4400),
            lambda t: t.replace("strategies 2: L R", "strategies " + "2" * 4400 + ": L R"),
        ],
    )
    def test_malformed_rejected(self, mutation):
        with pytest.raises(FormatError):
            parse_game(mutation(GOOD_TEXT))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_parse_agrees_with_the_fraction_reference(self, data):
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
        labels = [[f"{chr(97 + i)}{k}" for k in range(size)] for i, size in enumerate(sizes)]
        lines = []
        for profile in itertools.product(*map(range, sizes)):
            vals = []
            for _ in sizes:
                num = data.draw(st.integers(-12, 12))
                den = data.draw(st.sampled_from([1, 1, 2, 3, 4, 6, 7]))
                grow = data.draw(st.sampled_from([1, 1, 2, 3]))  # unreduced, as 4/6
                text = str(num * grow)
                if num >= 0 and data.draw(st.booleans()):
                    text = "+" + text
                if den * grow != 1:
                    text += f"/{den * grow}"
                vals.append(text)
            names = " ".join(labels[i][s] for i, s in enumerate(profile))
            lines.append(f"payoff {names} : {' '.join(vals)}")
        lines = data.draw(st.permutations(lines))
        text = "\n".join(
            [f"players {len(sizes)}"]
            + [f"strategies {i + 1}: " + " ".join(labs) for i, labs in enumerate(labels)]
            + lines
        )
        game = parse_game(text)
        ref_labels, table = parse_game_reference(text)
        for profile, row in table.items():
            assert tuple(game.payoff(profile, i) for i in range(len(sizes))) == row
        assert game.digest() == digest_reference(ref_labels, table)
        assert render_game(game) == render_game_reference(ref_labels, table)
        assert parse_game(render_game(game)) == game
        assert FiniteGame(ref_labels, table) == game

    def test_numeral_past_the_digit_limit_names_its_line(self):
        text = GOOD_TEXT.replace("payoff M R : 1 0", "payoff M R : " + "9" * 4400 + " 0")
        with pytest.raises(FormatError, match=r"^line \d+: numeral of 4400 characters"):
            parse_game(text)

    def test_comments_and_blanks_ignored(self):
        text = GOOD_TEXT.replace(
            "payoff T L : 2 0", "\n# mid comment\npayoff T L : 2 0  # inline"
        )
        assert parse_game(text) == gap_3x2()


def _outcome(parse, text):
    """A game's digest, or the text of the `FormatError` the parse raised."""
    try:
        return parse(text).digest()
    except FormatError as exc:
        return f"FormatError: {exc}"


def _assert_parity(text):
    """`parse_game` accepts what the line reader accepts, as an equal game,
    and otherwise raises the same message; returns the shared outcome."""
    got = _outcome(parse_game, text)
    assert got == _outcome(parse_game_lines_reference, text)
    return got


ONE_PLAYER_TEXT = """\
players 1
strategies 1: a b c
payoff b : 2/3
payoff a : 1
payoff c : -1
"""

THREE_PLAYER_TEXT = render_game(random_game(3, (2, 3, 2), 4, seed=5))


def _sub(old, new):
    return lambda text: text.replace(old, new)


# (name, text -> text, accepted?) on GOOD_TEXT unless the name says otherwise
MUTATIONS = [
    ("unspaced colon", _sub("payoff T L : 2 0", "payoff T L:2 0"), True),
    ("colon glued left", _sub(" : ", ": "), True),
    ("colon glued right", _sub(" : ", " :"), True),
    ("tabs", _sub(" ", "\t"), True),
    ("crlf", _sub("\n", "\r\n"), True),
    ("inline comment", _sub("payoff M L : 0 0", "payoff M L : 0 0 # x:;"), True),
    ("mid-block comment", _sub("payoff M L", "# payoff X : ;\npayoff M L"), True),
    ("blank lines", lambda t: t.replace("\npayoff M", "\n\n  \t\npayoff M") + "\n\n", True),
    ("permuted lines", lambda t: "\n".join(t.splitlines()[:4] + t.splitlines()[:3:-1]), True),
    ("semicolon token", _sub("payoff T R : 2 0", "payoff T R ; : 2 0"), False),
    ("semicolon numeral", _sub("payoff T R : 2 0", "payoff T R : 2 ; 0"), False),
    ("semicolon glued", _sub("payoff T R : 2 0", "payoff T;R : 2 0"), False),
    ("trailing semicolon", _sub("payoff B L : 1 0", "payoff B L : 1 0;"), False),
    ("two colons", _sub("payoff T R : 2 0", "payoff T R : 2 : 0"), False),
    ("double colon", _sub("payoff T R : 2 0", "payoff T R :: 2 0"), False),
    ("colon among labels", _sub("payoff T R : 2 0", "payoff T : R : 2 0"), False),
    ("missing colon", _sub("payoff T R : 2 0", "payoff T R 2 0"), False),
    ("missing profile", _sub("payoff B R : 0 0\n", ""), False),
    ("duplicate profile", lambda t: t + "payoff T L : 2 0\n", False),
    ("duplicate in place", _sub("payoff B R", "payoff B L"), False),
    ("two lines on one", _sub("0\npayoff M R", "0 payoff M R"), False),
    ("one line on two", _sub("payoff M R : 1 0", "payoff M R :\n1 0"), False),
    ("keyword typo", _sub("payoff M R", "payof M R"), False),
    ("keyword glued", _sub("payoff M R", "payoffM R"), False),
    ("extra label", _sub("payoff M R", "payoff M R L"), False),
    ("extra payoff", _sub("payoff M R : 1 0", "payoff M R : 1 0 0"), False),
    ("short payoffs", _sub("payoff M R : 1 0", "payoff M R : 1"), False),
    ("short line after long", lambda t: t.replace(
        "payoff M L : 0 0\npayoff M R : 1 0", "payoff M L : 0 0 0\npayoff M R : 1"), False),
    ("zero denominator", _sub("payoff M R : 1 0", "payoff M R : 1/0 0"), False),
    ("no payoff lines", lambda t: "\n".join(t.splitlines()[:4]), False),
    ("players past sys.maxsize", _sub("players 2", "players 99999999999999999999"), False),
    ("semicolon label", _sub(" R", " ;"), False),
    ("colon label", _sub(" R", " R:"), False),
    ("comma label", _sub(" R", " R,S"), False),
    ("keyword label", _sub(" R", " payoff"), True),
    ("numeral label", _sub(" R", " -1/2"), True),
    ("one player", lambda t: ONE_PLAYER_TEXT, True),
    ("one player, colon glued", lambda t: ONE_PLAYER_TEXT.replace(" : ", ":"), True),
    ("one player, missing colon", lambda t: ONE_PLAYER_TEXT.replace("a : 1", "a 1"), False),
    ("three players", lambda t: THREE_PLAYER_TEXT, True),
    ("three players, permuted", lambda t: "\n".join(
        THREE_PLAYER_TEXT.splitlines()[:4] + THREE_PLAYER_TEXT.splitlines()[:3:-1]), True),
    ("three players, short label",
     lambda t: THREE_PLAYER_TEXT.replace("s1 s2 s1 :", "s1 s2 :"), False),
    # lines end at `\n` only; other line breaks are whitespace
    ("line separator in a comment", _sub("# the relation-gap game", "# the\u2028gap"), True),
    ("next line ending a payoff line", _sub("payoff T L : 2 0", "payoff T L : 2 0\x85"), True),
    ("form feed between payoffs", _sub("payoff T R : 2 0", "payoff T R :\x0c2 0"), True),
    ("bare carriage returns", _sub("\n", "\r"), False),
]


class TestParserParity:
    """`parse_game` against the line-by-line reader in `oracles`: text in
    the layout `render_game` writes takes the span reader, and the rest,
    valid or not, the line walk."""

    @pytest.mark.parametrize("mutation,accepted", [(m, a) for _, m, a in MUTATIONS],
                             ids=[name for name, _, _ in MUTATIONS])
    def test_mutation_corpus(self, mutation, accepted):
        outcome = _assert_parity(mutation(GOOD_TEXT))
        assert outcome.startswith("FormatError") is not accepted

    def test_accepted_mutations_read_the_same_game(self, g3x2):
        for name, mutation, accepted in MUTATIONS[:9]:
            assert accepted and parse_game(mutation(GOOD_TEXT)) == g3x2, name

    def test_chunks_name_the_bad_line(self):
        game = random_game(2, (70, 70), 5, seed=3)
        lines = render_game(game).splitlines()
        assert len(lines) - 3 > games._CHUNK  # the payoff block spans two chunks
        k = 3 + games._CHUNK + 100  # index of a payoff line in the second chunk
        assert parse_game("\n".join(lines)) == game
        assert parse_game("\n".join(lines[:3] + lines[:2:-1])) == game
        edits = [
            lines[k] + " 1.5",
            lines[k].replace(" : ", " "),
            lines[k].replace(" : ", " : 1.5 "),
            lines[k].replace("payoff", "payof"),
            lines[7],  # a repeat of a profile from the first chunk
        ]
        for edit in edits:
            text = "\n".join(lines[:k] + [edit] + lines[k + 1 :])
            outcome = _assert_parity(text)
            assert outcome.startswith(f"FormatError: line {k + 1}: "), outcome

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_mutations(self, data):
        n = data.draw(st.integers(1, 3), label="players")
        pool = ["a", "b", "c", "payoff", "0", "-1", "x/2", ";", ",", ":"]
        labels = []
        for _ in range(n):
            labs = data.draw(st.lists(st.sampled_from(pool[:7]), min_size=1, max_size=3,
                                      unique=True))
            labels.append(labs)
        if data.draw(st.integers(0, 9)) == 0:  # rarely, a label the format refuses
            labels[-1] = labels[-1] + [data.draw(st.sampled_from(pool[7:]))]
        colon = data.draw(st.sampled_from([" : ", ":", " :", ": "]))
        lines = []
        for profile in itertools.product(*labels):
            vals = [str(data.draw(st.integers(-3, 3))) for _ in range(n)]
            if data.draw(st.booleans()):
                vals[0] += "/" + str(data.draw(st.integers(1, 4)))
            lines.append("payoff " + " ".join(profile) + colon + " ".join(vals))
        lines = data.draw(st.permutations(lines))
        k = data.draw(st.integers(0, len(lines) - 1))
        edit = data.draw(st.sampled_from(["none"] * 4 + ["drop", "repeat"]), label="line edit")
        if edit != "none":
            lines = lines[:k] + lines[k + (edit == "drop") :] + [lines[k]] * (edit == "repeat")
        text = "\n".join(
            [f"players {n}"]
            + [f"strategies {i + 1}: " + " ".join(labs) for i, labs in enumerate(labels)]
            + lines
        ) + data.draw(st.sampled_from(["", "\n"]))
        snippets = [":", ";", " ", "\t", "\n", "\r\n", "#", "payoff ", "a", "/", "0",
                    "\n\n", "payoff a : 1\n", "\x1c", "\xa0"]
        for _ in range(data.draw(st.integers(0, 3), label="edits")):
            at = data.draw(st.integers(0, len(text)))
            if data.draw(st.booleans()):
                text = text[:at] + data.draw(st.sampled_from(snippets)) + text[at:]
            else:
                text = text[:at] + text[at + data.draw(st.integers(1, 3)) :]
        chunk = data.draw(st.sampled_from([1, 2, 3, games._CHUNK]), label="chunk")
        span = data.draw(st.sampled_from([1, 5, 16, games._SPAN]), label="span")
        saved = games._CHUNK, games._SPAN
        games._CHUNK, games._SPAN = chunk, span
        try:
            _assert_parity(text)
        finally:
            games._CHUNK, games._SPAN = saved


class TestLineEnds:
    """Lines end at `\n` only: `str.strip` and `str.split` treat every other
    line break as whitespace."""

    def test_a_next_line_at_a_line_end_shifts_no_line_number(self):
        lines = GOOD_TEXT.split("\n")
        lines[4] += "\x85"  # line 5, the first payoff line
        lines[5] = lines[5].replace("payoff T R", "payoff T X")
        outcome = _assert_parity("\n".join(lines))
        assert outcome == "FormatError: line 6: unknown label 'X' for player 2"

    def test_a_line_separator_stays_inside_its_comment(self, g3x2):
        text = GOOD_TEXT.replace("players 2\n", "players 2\n# author\u2028note\n")
        assert parse_game(text) == g3x2
        text = text.replace("strategies 1", "strategies 9")
        assert _assert_parity(text).startswith("FormatError: line 4: expected 'strategies 1")

    @given(
        text=st.text(alphabet="ab #\n\r\x85\u2028", max_size=40),
        span=st.integers(0, 12),
    )
    def test_spans_split_as_text_split(self, text, span):
        saved, games._SPAN = games._SPAN, span
        try:
            got = list(games._lines(text))
        finally:
            games._SPAN = saved
        assert got == [line.split("#", 1)[0] for line in text.split("\n")]


def _parse_at(monkeypatch, text, span, chunk):
    """`_outcome` of `parse_game` with `_SPAN` and `_CHUNK` shrunk."""
    with monkeypatch.context() as m:
        m.setattr(games, "_SPAN", span)
        m.setattr(games, "_CHUNK", chunk)
        return _assert_parity(text)


class TestChunkBoundaries:
    """Spans of text and chunks of rows cut anywhere read the same game."""

    def test_crlf_text(self, monkeypatch):
        game = random_game(2, (4, 3), 5, seed=8)
        text = render_game(game).replace("\n", "\r\n")
        for span in range(1, 40, 3):
            for chunk in (1, 2, 5):
                assert _parse_at(monkeypatch, text, span, chunk) == game.digest()

    def test_comments_and_blank_lines_at_every_cut(self, monkeypatch):
        text = GOOD_TEXT.replace("\npayoff M", "\n\n # note: ; \n\t\npayoff M")
        text = text.replace("payoff B L : 1 0", "payoff B L : 1 0 # x") + "\n\n"
        want = _outcome(parse_game, text)
        assert want == gap_3x2().digest()
        for span in range(1, len(text) + 2):
            assert _parse_at(monkeypatch, text, span, 2) == want

    @pytest.mark.parametrize("bad,message", [
        (("players 2", "players 2 3"), "line 5: expected 'players <n>'"),
        (("strategies 2: L R", "strategies 3: L R"), "line 7: expected 'strategies 2: ...'"),
        (("strategies 2: L R", "strategies 2:"), "line 7: player 2 has no strategies"),
        (("payoff M L : 0 0", "payoff M L : 0"), "line 10: expected 2 payoffs"),
    ])
    def test_errors_after_a_cut_name_their_line(self, monkeypatch, bad, message):
        text = "\n# preamble\n\n" + GOOD_TEXT.replace(*bad)
        assert _outcome(parse_game, text) == f"FormatError: {message}"
        for span in range(1, len(text) + 2, 2):
            for chunk in (1, 3):
                assert _parse_at(monkeypatch, text, span, chunk) == f"FormatError: {message}"

    def test_a_short_row_past_the_first_chunk_names_its_profile(self, monkeypatch):
        monkeypatch.setattr(games, "_CHUNK", 3)
        labels = [["a", "b", "c"], ["x", "y", "z"]]

        def pay(profile):
            return (1,) if profile == (2, 1) else (1, 2)

        message = "^" + re.escape("profile (2, 1): expected 2 payoffs") + "$"
        with pytest.raises(InputError, match=message):
            FiniteGame.from_function(labels, pay)

    @pytest.mark.parametrize("chunk", [3, 64, games._CHUNK])
    def test_digest_and_text_over_several_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(games, "_CHUNK", chunk)
        game = random_game(2, (70, 70), 5, seed=9)  # 4,900 profiles
        assert game.sizes[0] * game.sizes[1] > chunk  # two chunks or more
        table = {p: tuple(map(Fraction, r)) for p, r in _rows(game, True).items()}
        assert game.digest() == digest_reference(game.labels, table)
        assert render_game(game) == render_game_reference(game.labels, table)
        assert FiniteGame.from_function(game.labels, table.__getitem__) == game

    @pytest.mark.parametrize("comment", [None, "emitted for a test\n\n  indented  "])
    @pytest.mark.parametrize("chunk", [1, 2, 5, 64, games._CHUNK])
    def test_render_matches_the_per_line_reference(self, monkeypatch, chunk, comment):
        # `render_game` fills a list per chunk of `2 * _CHUNK // (2n + 3)`
        # profiles; a label column longer than two chunks is built from runs.
        # The last three games cross the default chunk, and 100 x 90 and
        # 20 x 20 x 21 take the runs for player 1.
        monkeypatch.setattr(games, "_CHUNK", chunk)
        shapes = [(1, (7,)), (2, (4, 3)), (3, (3, 2, 4)), (1, (5000,)), (2, (100, 90)),
                  (3, (20, 20, 21))]
        for players, sizes in shapes:
            if chunk < 64 and sizes[0] > 10:  # small chunks on small games only
                continue
            game = random_game(players, sizes, 5, seed=len(sizes) + sizes[0])
            table = {p: tuple(map(Fraction, r)) for p, r in _rows(game, True).items()}
            want = render_game_reference(game.labels, table, comment)
            assert render_game(game, comment) == want, sizes

    @pytest.mark.parametrize("chunk", [3, 15, 21, 96])
    def test_three_player_digest_over_several_chunks(self, monkeypatch, chunk):
        # The digest text goes to sha256 in lists of 2 * chunk slots, here
        # chunk // 3 profiles each: player i's numerals fill every sixth slot
        # from 2 * i + 1.  Of the 24 profiles, 15 and 21 leave a short last
        # list, and 96 puts all in one.  Built games take the numerals from
        # the ints, parsed ones from the tokens.
        monkeypatch.setattr(games, "_CHUNK", chunk)
        labels = [["a", "b", "c"], ["x", "y"], ["p", "q", "r", "s"]]
        table = {
            p: (Fraction(p[0] - p[2], 3), Fraction(7 * p[1] - 4, 2), Fraction(sum(p)))
            for p in itertools.product(range(3), range(2), range(4))
        }
        game = FiniteGame.from_function(labels, table.__getitem__)
        assert game.digest() == digest_reference(labels, table)
        parsed = parse_game(render_game(game))
        assert parsed == game and parsed._digest == game._digest


def _peak_mb(fn, *args):
    """Peak traced memory of `fn(*args)` in MB, its result included."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Parse, build and render hold one `_CHUNK` of rows beside the game.

    On the 200-wide Bertrand grid (40,000 profiles, ten chunks) a build
    peaks near 5.0 MB, a render near 1.9 MB and a parse near 3.6 MB.  Each
    bound sits below the peak of a layer that holds the whole text split
    into lines, or every row and digest line at once: 7.9, 5.8 and 9.1 MB.
    """

    @pytest.fixture(scope="class")
    def grid(self):
        game = bertrand_grid(200)
        return game, render_game(game)

    def test_build(self):
        assert _peak_mb(bertrand_grid, 200) < 6.5

    def test_build_scales_each_chunk(self):
        """`from_function` scales each chunk of rows as it arrives, and equal
        ints share one object: the build peaks near 1.6 MB, the game kept
        near 0.8 MB.  Holding every raw payoff column until the end peaked
        near 5.0 MB."""
        assert _peak_mb(bertrand_grid, 200) < 3.0

    def test_render(self, grid):
        assert _peak_mb(render_game, grid[0]) < 4.3

    def test_parse(self, grid):
        assert _peak_mb(parse_game, grid[1]) < 6.0

    def test_parse_by_the_line_walk(self, grid):
        """A comment line in the payoff block and rows in reverse order send
        the parse to the line walk, which keeps one offset per profile and
        one shared token per payoff: it peaks near 6.9 MB.  A walk that kept
        a tuple or list per line peaked at 15.6 MB."""
        lines = grid[1].splitlines()
        text = "\n".join(lines[:3] + ["# a comment"] + lines[:2:-1]) + "\n"
        assert _peak_mb(parse_game, text) < 10.0

    def test_parse_player_count_past_the_lines(self, grid):
        """A header read to the end of the text counts its lines, not holds them."""
        text = grid[1].replace("players 2", "players 99999999999999999999", 1)

        def parse():
            with pytest.raises(FormatError, match="^missing strategies lines$"):
                parse_game(text)

        assert _peak_mb(parse) < 6.0


def _rows(game, native):
    """Each profile's payoffs: as `Fraction`, or as `int` where integral."""
    rows = {}
    for profile in itertools.product(*map(range, game.sizes)):
        row = tuple(game.payoff(profile, i) for i in range(game.players))
        rows[profile] = tuple(
            int(q) if native and q.denominator == 1 else q for q in row
        )
    return rows


BUILDERS = [entry.build for entry in catalog.CATALOG.values()] + [
    lambda: random_game(3, (2, 3, 4), 5, seed=1),
    lambda: random_game(1, (4,), 2, seed=2),
    lambda: catalog.bertrand_grid(7),
    lambda: catalog.hotelling_grid(6),
]


class TestConstructors:
    """`from_function` and `FiniteGame(labels, table)` build one tensor."""

    @pytest.mark.parametrize("build", BUILDERS)
    def test_both_constructors_agree(self, build):
        game = build()
        for native in (True, False):
            rows = _rows(game, native)
            by_table = FiniteGame(game.labels, rows)
            by_function = FiniteGame.from_function(game.labels, rows.__getitem__)
            for built in (by_table, by_function):
                assert built == game and built.digest() == game.digest()
                assert built.ipay == game.ipay and built.scales == game.scales
                assert built.colmax == game.colmax
                assert all(type(v) is int for col in built.ipay for v in col)

    def test_other_numeric_types_are_read_exactly(self):
        game = FiniteGame.from_function([["a", "b"]], lambda p: ((0.5, "1/3")[p[0]],))
        assert game.ipay == ((3, 2),) and game.scales == (6,)
        assert game == FiniteGame([["a", "b"]], {(0,): (Fraction(1, 2),), (1,): ("1/3",)})

    @pytest.mark.parametrize("short_at", [None, 0, 3])
    def test_wrong_arity_row(self, short_at):
        labels = [["a", "b"], ["x", "y"]]

        def pay(profile):
            k = profile[0] * 2 + profile[1]
            return (1,) if short_at is None or k == short_at else (1, 2)

        bad = (0, 0) if short_at is None else (short_at // 2, short_at % 2)
        message = "^" + re.escape(f"profile {bad}: expected 2 payoffs") + "$"
        with pytest.raises(InputError, match=message):
            FiniteGame.from_function(labels, pay)
        table = {p: pay(p) for p in itertools.product(range(2), range(2))}
        with pytest.raises(InputError, match=message):
            FiniteGame(labels, table)
        with pytest.raises(InputError, match=r"^profile \(0, 0\): expected 2 payoffs$"):
            FiniteGame.from_function(labels, lambda p: (1, 2, 3))


def _non_canonical_twin():
    """A game, its canonical text, a twin of that text whose numerals are
    written as +4, 04, 2/4, -0, 0/7 and 6/3, and the forms used."""
    labels = [["a", "b", "c"], ["x", "y"]]
    half = Fraction(1, 2)
    rows = {
        (0, 0): (4, half), (0, 1): (0, 2), (1, 0): (4, 0),
        (1, 1): (half, 2), (2, 0): (0, 4), (2, 1): (2, 0),
    }
    game = FiniteGame(labels, rows)
    canonical = render_game(game)
    forms = {"4": ["+4", "04"], "1/2": ["2/4"], "0": ["-0", "0/7"], "2": ["6/3"]}
    used = {token: 0 for token in forms}

    def twin(token):
        used[token] += 1
        return forms[token][used[token] % len(forms[token])]

    lines = []
    for line in canonical.splitlines():
        if line.startswith("payoff "):
            head, _, vals = line.partition(" : ")
            line = head + " : " + " ".join(map(twin, vals.split()))
        lines.append(line)
    return game, canonical, "\n".join(lines) + "\n", forms


def _walk_must_not_run(*args):
    raise AssertionError("the line walk read the text")


class TestTokenRoutes:
    """Which reader reads which text: the span reader takes text in the
    layout `render_game` writes, with its label comparison and its table of
    distinct numeral tokens, and the line walk takes every other valid
    file; and the chunked scaling of `from_function`."""

    @pytest.fixture(scope="class")
    def written_texts(self):
        """Texts in the layout `render_game` writes, each also with CRLF ends."""
        texts = [render_game(entry.build()) for entry in catalog.CATALOG.values()]
        texts += [entry.emit() for entry in catalog.CATALOG.values()]
        texts += [THREE_PLAYER_TEXT, _non_canonical_twin()[2]]
        return texts + [text.replace("\n", "\r\n") for text in texts]

    @pytest.mark.parametrize("span", [1, 2, 7, 64, games._SPAN])
    def test_written_text_never_reaches_the_walk(self, monkeypatch, written_texts, span):
        monkeypatch.setattr(games, "_read_payoff_lines", _walk_must_not_run)
        monkeypatch.setattr(games, "_SPAN", span)
        for chunk in (1, 3, games._CHUNK):
            monkeypatch.setattr(games, "_CHUNK", chunk)
            for text in written_texts:
                parse_game(text)

    @pytest.mark.parametrize("name", ["inline comment", "mid-block comment", "blank lines",
                                      "permuted lines", "three players, permuted"])
    def test_comments_blank_lines_and_line_order_reach_the_walk(self, monkeypatch, name):
        mutation = next(m for n, m, accepted in MUTATIONS if n == name and accepted)
        monkeypatch.setattr(games, "_read_payoff_lines", _walk_must_not_run)
        with pytest.raises(AssertionError, match="the line walk read the text"):
            parse_game(mutation(GOOD_TEXT))

    def test_non_canonical_numerals_read_as_their_canonical_text(self):
        game, canonical, text, forms = _non_canonical_twin()
        written = text.split()
        assert all(form in written for options in forms.values() for form in options)
        assert _assert_parity(text) == game.digest()
        for parsed in (parse_game(text), parse_game(canonical)):
            assert parsed == game and parsed.digest() == game.digest()
            assert parsed.ipay == game.ipay and parsed.scales == game.scales
            assert parsed.colmax == game.colmax

    @pytest.mark.parametrize("shape", [(5, 6), (3, 4, 5)])
    def test_rows_swapped_across_a_cut(self, monkeypatch, shape):
        game = random_game(len(shape), shape, 5, seed=12)
        lines = render_game(game).splitlines()
        k = 1 + len(shape) + 7  # the eighth payoff line, swapped with the ninth
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
        text = "\n".join(lines) + "\n"
        unknown = lines[k].split()
        unknown[1] = "zz"
        bad = "\n".join(lines[:k] + [" ".join(unknown)] + lines[k + 1 :]) + "\n"
        message = f"FormatError: line {k + 1}: unknown label 'zz' for player 1"
        assert _outcome(parse_game, text) == game.digest()
        for span in range(1, len(text) + 2, 11):
            for chunk in (1, 3, games._CHUNK):
                assert _parse_at(monkeypatch, text, span, chunk) == game.digest()
                assert _parse_at(monkeypatch, bad, span, chunk) == message

    def test_from_function_shares_equal_ints(self):
        game = bertrand_grid(50)
        assert len(set(map(id, game.ipay[0]))) <= len(set(game.ipay[0]))
        assert len(set(map(id, game.ipay[1]))) <= len(set(game.ipay[1]))

    def test_a_late_denominator_multiplies_the_stored_ints_up(self, monkeypatch):
        monkeypatch.setattr(games, "_CHUNK", 2)
        labels = [["a", "b", "c", "d"], ["x", "y", "z"]]

        def pay(profile):
            k = profile[0] * 3 + profile[1]
            return (Fraction(1000 + k, 1 + k // 4), 1000 if k < 7 else 0.5)

        game = FiniteGame.from_function(labels, pay)
        table = {p: pay(p) for p in itertools.product(range(4), range(3))}
        whole = FiniteGame(labels, table)  # one chunk: scaled once
        assert game.scales == whole.scales == (6, 2)
        assert game.ipay == whole.ipay and game.colmax == whole.colmax
        assert game.digest() == whole.digest()
        for profile, row in table.items():
            assert tuple(game.payoff(profile, i) for i in range(2)) == tuple(map(Fraction, row))
        assert len(set(map(id, game.ipay[1]))) <= len(set(game.ipay[1]))
