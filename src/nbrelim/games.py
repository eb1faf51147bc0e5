"""Finite strategic games over exact rationals.

Games, restrictions, and the plain-text game format.  Payoffs are stored
once, as integers: player i's payoffs times the lcm of their denominators.
They come back as `fractions.Fraction` at the API; there is no floating
point anywhere in the engine.  Every value is immutable after construction
and can be shared freely between threads.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

#: Exact rational number: arbitrary-precision, canonical (gcd-reduced,
#: positive denominator).  The stdlib Fraction already guarantees both.
Rational = Fraction

#: A joint strategy profile, one index per player.
JointProfile = tuple[int, ...]


class InputError(ValueError):
    """Malformed input: out-of-range index, mismatched parents, bad shapes."""


class FormatError(InputError):
    """Malformed game text."""


# ASCII digits only: `\d` and `str.isdigit` also accept other scripts' digits.
_COUNT_RE = re.compile(r"[0-9]+")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
#: Rows the text layer holds at once: profiles evaluated by `from_function`,
#: lines joined for the digest or by `render_game`, and half the longest
#: row-major label period the parser precomputes.
_CHUNK = 4096


def _numeral(token: str) -> int | Fraction:
    """`a` as an int, `a/b` (b > 0) as a canonical Fraction."""
    if not _RATIONAL_RE.fullmatch(token):
        raise FormatError(f"not an integer or a/b rational: {token!r}")
    num, _, den = token.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else int(num)
    except ValueError:  # past the interpreter's int-string digit limit
        raise FormatError(f"numeral of {len(token)} characters is too long") from None
    except ZeroDivisionError:
        raise FormatError(f"zero denominator: {token!r}") from None


def parse_rational(token: str) -> Rational:
    """Parse `a` or `a/b` (b > 0) into a canonical Rational.

    Decimal or float syntax is rejected: the text format is bit-exact.
    """
    return Fraction(_numeral(token.strip()))


def render_rational(q: Rational) -> str:
    """Inverse of parse_rational; canonical `a` or `a/b` form."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _numerals(values: Sequence[int], scale: int, prefix: str = "") -> Iterator[str]:
    """Canonical text of each `value / scale`, as `render_rational` writes it,
    after `prefix`, read lazily; equal values share one string."""
    text = {}
    for v in set(values):
        g = math.gcd(v, scale)
        text[v] = prefix + (str(v // g) if g == scale else f"{v // g}/{scale // g}")
    return map(text.__getitem__, values)


def _label_column(labs: Sequence, stride: int) -> Callable[[int, int], list]:
    """Reads a player's row-major label column, each label `stride` times in
    turn, from a precomputed cycle of at most two `_CHUNK`s or by runs."""
    fits = len(labs) * stride <= 2 * _CHUNK
    period = [lab for lab in labs for _ in range(stride)] if fits else None

    def column(first: int, count: int) -> list:
        if period is not None:
            at = first % len(period)
            return (period * ((at + count) // len(period) + 1))[at : at + count]
        out, end = [], first + count
        while first < end:
            run = min(end, (first // stride + 1) * stride) - first
            out += [labs[first // stride % len(labs)]] * run
            first += run
        return out

    return column


def _extend_scaled(ints: list, scale: int, shared: dict, values: Sequence) -> tuple[list, int]:
    """`ints`, integers on `scale`, extended by `values` on the lcm of `scale`
    and their denominators, and that lcm.  A new denominator multiplies the
    stored ints up once; equal ints share the one object kept in `shared`."""
    types = set(map(type, values))
    if types == {int}:
        new = values if scale == 1 else list(map(scale.__mul__, values))
    else:
        if not types <= {int, Fraction}:
            values = list(map(Fraction, values))  # floats, numeral strings: read exactly
        # A Fraction hashes slowly, so each entry is scaled on its own.
        dens = list(map(operator.attrgetter("denominator"), values))
        lcm = math.lcm(scale, *set(dens))
        if lcm != scale:
            up = {v: v * (lcm // scale) for v in shared}
            ints, scale = list(map(up.__getitem__, ints)), lcm
            shared.clear()
            shared.update(zip(up.values(), up.values()))
        nums = map(operator.attrgetter("numerator"), values)
        new = list(map(operator.mul, nums, map(scale.__floordiv__, dens)))
    ints += map(shared.setdefault, new, new)
    return ints, scale


def _check_labels(labels: Sequence[Sequence[str]]) -> None:
    """Reject a label set the text format cannot carry."""
    if len(labels) < 1:
        raise InputError("a game needs at least one player")
    for i, labs in enumerate(labels):
        if not labs:
            raise InputError(f"player {i + 1} has an empty strategy set")
        if len(set(labs)) != len(labs):
            raise InputError(f"player {i + 1} has duplicate strategy labels")
        for lab in labs:
            bad = not lab or any(ch.isspace() or ch in ":;,#" for ch in lab)
            if bad:
                # whitespace breaks the text format; the other characters
                # break payoff lines, comments, or restriction literals
                raise InputError(f"bad strategy label {lab!r}")


class FiniteGame:
    """An n-player strategic game with labeled strategies and a dense payoff tensor.

    Profiles are tuples of strategy indices; the tensor is stored flat in
    row-major (player-0-major) order, once, as integers: `ipay[i][k]` is
    player i's payoff at flat index k times `scales[i]`, the lcm of that
    player's payoff denominators.  `colmax[i]` maps the tensor offset of
    each opponent profile to the best entry of `ipay[i]` against it.
    Best-response comparisons are invariant under the positive scaling, so
    scans run on plain ints; `payoff` forms the `Fraction` on demand.
    `offsets[i]` is player i's first bit in `Restriction.bits`, `bit_masks[i]`
    the mask of its bits, and `bit_pairs[b]` the (player, strategy) of bit b.

    One builder, `_fill`, stores per-player integer columns in row-major
    order with `colmax` and the digest.  `__init__` checks and flattens a
    profile-keyed table, and `from_function` evaluates its rows one chunk at
    a time; both scale the rows through `_build`.  `_from_columns` takes
    integer columns made elsewhere: `parse_game` scales its numeral tokens
    by a table of the distinct ones, and `catalog` builds the Bertrand and
    Hotelling grids' columns directly on scale 2.
    """

    __slots__ = (
        "players",
        "labels",
        "sizes",
        "strides",
        "ipay",
        "scales",
        "colmax",
        "offsets",
        "bit_masks",
        "bit_pairs",
        "_opponents",
        "_digest",
        "_hash",
    )

    def __init__(
        self,
        labels: Sequence[Sequence[str]],
        table: Mapping[JointProfile, Sequence[Rational]],
    ) -> None:
        self._shape(labels)
        flat = [None] * (self.strides[0] * self.sizes[0])
        for profile, row in table.items():
            idx = self.flat_index(profile)
            if flat[idx] is not None:
                raise InputError(f"duplicate payoff entry for profile {profile}")
            flat[idx] = row
        missing = flat.count(None)
        if missing:
            raise InputError(f"payoff tensor incomplete: {missing} profiles missing")
        self._build([(flat, 0)])

    @classmethod
    def from_function(
        cls,
        labels: Sequence[Sequence[str]],
        payoff: Callable[[JointProfile], Sequence[Rational]],
    ) -> "FiniteGame":
        """Build the dense tensor by evaluating `payoff` at every joint profile,
        one `_CHUNK` of profiles at a time."""
        game = cls.__new__(cls)
        game._shape(labels)
        profiles = itertools.product(*map(range, game.sizes))
        starts = range(0, game.strides[0] * game.sizes[0], _CHUNK)
        game._build((list(map(payoff, itertools.islice(profiles, _CHUNK))), k) for k in starts)
        return game

    @classmethod
    def _from_columns(cls, labels: Sequence[Sequence[str]], ipay: list, scales: Sequence[int],
                      numerals: Iterable | None = None) -> "FiniteGame":
        """A game from per-player integer columns in row-major order, as
        `_fill` stores them: pass `ipay` holding the only reference to each
        column, so that each is freed as its tuple is made."""
        game = cls.__new__(cls)
        game._shape(labels)
        game._fill(ipay, scales, numerals)
        return game

    def _shape(self, labels: Sequence[Sequence[str]]) -> None:
        """Check the labels and set everything that depends only on them."""
        _check_labels(labels)
        self.players = n = len(labels)
        self.labels = tuple(tuple(labs) for labs in labels)
        self.sizes = tuple(len(labs) for labs in self.labels)
        strides = [1] * n
        for i in range(n - 2, -1, -1):
            strides[i] = strides[i + 1] * self.sizes[i + 1]
        self.strides = tuple(strides)
        self.offsets = tuple(itertools.accumulate(self.sizes[:-1], initial=0))
        sizes = self.sizes
        self.bit_masks = tuple((1 << n) - 1 << o for n, o in zip(sizes, self.offsets))
        self.bit_pairs = tuple((i, s) for i, n in enumerate(sizes) for s in range(n))
        self._opponents = tuple(tuple(j for j in range(n) if j != i) for i in range(n))

    def _build(self, chunks: Iterable[tuple[Sequence[Sequence[Rational]], int]]) -> None:
        """The tensor from chunks of payoff rows in row-major order, each with
        the flat index of its first row.  Each chunk is cut into per-player
        columns and scaled as it arrives, so no raw column outlives it."""
        n = self.players
        ipay, scales, shared = [[] for _ in range(n)], [1] * n, [{} for _ in range(n)]
        for rows, start in chunks:
            try:
                columns = list(zip(*rows, strict=True))
            except ValueError:  # rows of different lengths
                columns = []
            if len(columns) != n:
                k = next(k for k, row in enumerate(rows, start) if len(row) != n)
                profile = tuple(k // st % sz for st, sz in zip(self.strides, self.sizes))
                raise InputError(f"profile {profile}: expected {n} payoffs")
            for i, part in enumerate(columns):
                ipay[i], scales[i] = _extend_scaled(ipay[i], scales[i], shared[i], part)
        self._fill(ipay, scales)

    def _fill(self, ipay: list, scales: Sequence[int], numerals: Iterable | None = None) -> None:
        """Store the integer tensor, one row-major column per player on its
        scale, with `colmax` and the digest; each column of `ipay` is turned
        into a tuple in place.  The digest's line of canonical rationals per
        profile goes to sha256 one chunk at a time.  Its text comes from
        `numerals`, one column of canonical numeral strings per player, when
        the caller has them, and from the ints otherwise."""
        colmax = []
        for i, col in enumerate(ipay):
            ipay[i] = col = tuple(col)
            span, step = self.sizes[i] * self.strides[i], self.strides[i]
            bases = self.opponent_bases(i)
            colmax.append({b: max(col[b : b + span : step]) for b in bases})
        self.ipay = tuple(ipay)
        self.scales = tuple(scales)
        self.colmax = tuple(colmax)

        columns = list(map(iter, numerals or map(_numerals, self.ipay, self.scales)))
        digest = hashlib.sha256(";".join(",".join(labs) for labs in self.labels).encode())
        # A chunk's list holds 2 * _CHUNK slots, under glibc malloc's 128 KB mmap
        # threshold: twice that raised solve-wide's peak RSS by 1.7 MB.
        width, total, step = 2 * self.players, len(self.ipay[0]), max(1, _CHUNK // self.players)
        for start in range(0, total, step):  # per profile "\n", then ","-joined numerals
            buf = (["\n"] + ["", ","] * self.players)[:-1] * min(step, total - start)
            for i, col in enumerate(columns):  # player i's numeral sits at 2 * i + 1
                buf[2 * i + 1 :: width] = itertools.islice(col, step)
            digest.update("".join(buf).encode())
        self._digest = digest.hexdigest()
        self._hash = hash(self._digest)

    def flat_index(self, profile: Sequence[int]) -> int:
        """Row-major tensor offset of a joint profile, range-checked."""
        if len(profile) != self.players:
            raise InputError(f"profile {tuple(profile)} has wrong arity")
        idx = 0
        for i, s in enumerate(profile):
            if not 0 <= s < self.sizes[i]:
                raise InputError(f"strategy index {s} out of range for player {i + 1}")
            idx += s * self.strides[i]
        return idx

    def payoff(self, profile: Sequence[int], player: int) -> Rational:
        """Exact payoff of `player` at `profile`."""
        if not 0 <= player < self.players:
            raise InputError(f"player index {player} out of range")
        return Fraction(self.ipay[player][self.flat_index(profile)], self.scales[player])

    def opponents(self, player: int) -> tuple[int, ...]:
        return self._opponents[player]

    def opponent_bases(
        self, player: int, kept: Sequence[Sequence[int]] | None = None
    ) -> Sequence[int]:
        """Tensor offsets of the opponent profiles, lexicographic in opponent order.

        `kept` optionally restricts each player's strategy set, sorted and
        duplicate-free as a `Restriction`'s; player `player`'s own entry is
        ignored.  One opponent's consecutive strategies give a `range`, so a
        payoff row over them is one strided slice; otherwise a list.
        """
        axes = []
        for j in range(self.players):
            if j == player:
                continue
            choices = range(self.sizes[j]) if kept is None else kept[j]
            stride = self.strides[j]
            if self.players == 2 and choices and choices[-1] - choices[0] < len(choices):
                return range(choices[0] * stride, (choices[-1] + 1) * stride, stride)
            axes.append([s * stride for s in choices])
        if len(axes) == 1:  # one opponent: its scaled axis is the list
            return axes[0]
        return [sum(combo) for combo in itertools.product(*axes)]

    def profile_base(self, player: int, opp_profile: Sequence[int]) -> int:
        """Tensor offset of an opponent profile (player's own component absent)."""
        opps = self.opponents(player)
        if len(opp_profile) != len(opps):
            raise InputError("opponent profile has wrong arity")
        base = 0
        for j, s in zip(opps, opp_profile):
            if not 0 <= s < self.sizes[j]:
                raise InputError(f"strategy index {s} out of range for player {j + 1}")
            base += s * self.strides[j]
        return base

    def label_of(self, player: int, strategy: int) -> str:
        return self.labels[player][strategy]

    def index_of(self, player: int, label: str) -> int:
        try:
            return self.labels[player].index(label)
        except ValueError:
            raise InputError(f"player {player + 1} has no strategy {label!r}") from None

    def digest(self) -> str:
        """Stable content hash (sha256 prefix) used in reports."""
        return self._digest[:12]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteGame):
            return NotImplemented
        return self._digest == other._digest

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        shape = "x".join(str(s) for s in self.sizes)
        return f"FiniteGame({shape}, {self.digest()})"


def _unchecked(cls: type, *values: object):
    """An instance of the frozen dataclass `cls` from its field values in
    declaration order, built without `__init__`: the caller vouches for them."""
    new = object.__new__(cls)
    new.__dict__.update(zip(cls.__dataclass_fields__, values))
    return new


#: `bytes.translate` table from the digits `bin` writes to 0 and 1 flags.
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _index_sets(game: FiniteGame, bits: int) -> tuple[tuple[int, ...], ...]:
    """Per player, the strategies set in `bits` (laid out as `Restriction.bits`),
    ascending: a few C-level passes over `bin`'s digits, lowest bit first."""
    return tuple(
        tuple(itertools.compress(
            range(n), bin(bits >> o & (1 << n) - 1)[:1:-1].encode().translate(_FLAGS)
        ))
        for o, n in zip(game.offsets, game.sizes)
    )


@dataclass(init=False, repr=False, slots=True, unsafe_hash=True)
class Restriction:
    """Per-player subsets of a parent game's strategy sets.

    Payoffs are inherited from the parent, never copied.  Empty components are
    allowed.  `bits` holds the kept strategies as one integer, player after
    player: strategy s of player i is bit `parent.offsets[i] + s`.  The mask
    is the restriction: `kept`, the per-player ascending index tuples, is
    read off it on first use, and equality and hash read the mask.
    """

    parent: FiniteGame
    bits: int
    _kept: tuple[tuple[int, ...], ...] | None = field(compare=False)

    def __init__(self, parent: FiniteGame, kept: Sequence[Iterable[int]]) -> None:
        if len(kept) != parent.players:
            raise InputError("restriction arity does not match the game")
        norm = []
        bits = 0
        for i, (ks, offset) in enumerate(zip(kept, parent.offsets)):
            uniq = tuple(sorted(set(ks)))
            if uniq and (uniq[0] < 0 or uniq[-1] >= parent.sizes[i]):
                raise InputError(f"kept set for player {i + 1} out of range")
            norm.append(uniq)
            bits |= sum(1 << s for s in uniq) << offset
        self.parent, self.bits, self._kept = parent, bits, tuple(norm)

    @classmethod
    def _trusted(cls, parent: FiniteGame, kept: tuple | None, bits: int) -> "Restriction":
        """No checks: `kept` is None (read off `bits` when asked for) or `bits`'s."""
        new = object.__new__(cls)
        new.parent, new.bits, new._kept = parent, bits, kept
        return new

    @property
    def kept(self) -> tuple[tuple[int, ...], ...]:
        if self._kept is None:
            self._kept = _index_sets(self.parent, self.bits)
        return self._kept

    def is_nondegenerate(self) -> bool:
        return all(map(self.bits.__and__, self.parent.bit_masks))

    def contains(self, other: "Restriction") -> bool:
        """Componentwise superset test."""
        if self.parent != other.parent:
            raise InputError("restrictions have different parent games")
        return not other.bits & ~self.bits

    def remove(self, removal: Mapping[int, Iterable[int]]) -> "Restriction":
        """New restriction with `removal[player]` dropped from each kept set:
        the removed bits cleared, and its `kept` read off the mask."""
        bits = self.bits
        offsets, sizes = self.parent.offsets, self.parent.sizes
        for i, gone in removal.items():
            if not (isinstance(i, int) and 0 <= i < len(sizes)):
                raise InputError(f"cannot remove strategies of player key {i!r}")
            gone, drop = tuple(gone), 0
            mine = bits >> offsets[i] & (1 << sizes[i]) - 1
            for s in gone:
                if not (isinstance(s, int) and 0 <= s < sizes[i] and mine >> s & 1):
                    bad = ", ".join(dict.fromkeys(  # each absent one once, in the given order
                        repr(t) for t in gone if not isinstance(t, int) or t not in self.kept[i]))
                    raise InputError(f"cannot remove absent strategies [{bad}] of player {i + 1}")
                drop |= 1 << s
            bits &= ~(drop << offsets[i])
        return Restriction._trusted(self.parent, None, bits)

    def render(self) -> str:
        """Label form, e.g. `{T}x{L,R}`."""
        parts = []
        for i, ks in enumerate(self.kept):
            parts.append("{" + ",".join(self.parent.label_of(i, s) for s in ks) + "}")
        return "x".join(parts)

    def __repr__(self) -> str:
        return f"Restriction({self.render()})"


def full_restriction(game: FiniteGame) -> Restriction:
    return Restriction._trusted(game, None, (1 << sum(game.sizes)) - 1)


def restrict(game: FiniteGame, kept: Sequence[Iterable[int]]) -> Restriction:
    """Restriction of `game` keeping the given per-player index sets."""
    return Restriction(game, tuple(tuple(ks) for ks in kept))


def restrict_by_labels(game: FiniteGame, kept_labels: Sequence[Iterable[str]]) -> Restriction:
    kept = tuple(
        tuple(game.index_of(i, lab) for lab in labs) for i, labs in enumerate(kept_labels)
    )
    return Restriction(game, kept)


# ---------------------------------------------------------------------------
# Game text format
#
#   players <n>
#   strategies <i>: <label> <label> ...
#   payoff <label_1> ... <label_n> : <q_1> ... <q_n>
#
# `#` starts a comment and blank lines are skipped; spacing around `:` is
# free.  Every joint profile must appear exactly once, in any order.
# ---------------------------------------------------------------------------

_STRATEGIES_RE = re.compile(r"^strategies\s+([0-9]+)\s*:\s*(.*)$")
_PAYOFF_RE = re.compile(r"^payoff\s+(.*?)\s*:\s*(.*)$")
#: Characters of game text split or tokenized at once, rounded up to a line end.
_SPAN = 1 << 16


def _count(token: str, lineno: int) -> int:
    """An ASCII decimal count; a numeral past the digit limit is an error."""
    try:
        return int(token)
    except ValueError:
        raise FormatError(
            f"line {lineno}: numeral of {len(token)} characters is too long"
        ) from None


def _spans(text: str, start: int = 0) -> Iterator[str]:
    """`text[start:]` in spans of whole lines of about `_SPAN` characters; the
    `\n` between two spans belongs to neither."""
    while (end := text.find("\n", start + _SPAN)) >= 0:
        yield text[start:end]
        start = end + 1
    yield text[start:]


def _lines(text: str) -> Iterator[str]:
    """The lines of `text` as `text.split("\n")` gives them, comments cut,
    split one span at a time."""
    for span in _spans(text):
        lines = span.split("\n")
        if "#" in span:
            lines = [line.split("#", 1)[0] for line in lines]
        yield from lines


def _nonblank(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each non-blank line, from 1."""
    return ((k, s) for k, raw in enumerate(lines, 1) if (s := raw.strip()))


def parse_game(text: str) -> FiniteGame:
    """Read the game text format; a `FormatError` names the first bad line.

    Lines end at `\n` only.  The header is read line by line.  Payoff lines
    as `render_game` writes them are read in bulk by `_payoff_columns`, one
    span at a time.  Any other payoff block, with comments, blank lines or
    lines out of row-major order, and every bad one, is read by
    `_read_payoff_lines` from the same numbered lines as the header: it
    takes the lines one by one and raises the first bad line's error.
    Either reader gives each player's column of numeral tokens in
    row-major order and a table of its distinct tokens' values: each
    column is scaled by one `map`, and when every distinct token is
    canonical the token columns are the digest's text.
    """
    numbered = _nonblank(_lines(text))
    lineno, head = next(numbered, (0, ""))
    if not head:
        raise FormatError("empty game text")
    parts = head.split()
    if len(parts) != 2 or parts[0] != "players" or not _COUNT_RE.fullmatch(parts[1]):
        raise FormatError(f"line {lineno}: expected 'players <n>'")
    n = _count(parts[1], lineno)
    if n < 1:
        raise FormatError(f"line {lineno}: need at least one player")
    # (index, numbered line) pairs; `range` takes any count, where `islice`
    # refuses one past `sys.maxsize`
    header = zip(range(n), numbered)
    labels: list[tuple[str, ...]] = []
    try:
        for i, (lineno, line) in header:
            m = _STRATEGIES_RE.match(line)
            if not m or _count(m.group(1), lineno) != i + 1:
                raise FormatError(f"line {lineno}: expected 'strategies {i + 1}: ...'")
            labs = tuple(m.group(2).split())
            if not labs:
                raise FormatError(f"line {lineno}: player {i + 1} has no strategies")
            if len(set(labs)) != len(labs):
                raise FormatError(f"line {lineno}: duplicate labels for player {i + 1}")
            labels.append(labs)
    except FormatError:
        # A missing line is reported before a bad one: count the rest, keep none.
        if len(labels) + 1 + sum(1 for _ in header) < n:
            raise FormatError("missing strategies lines") from None
        raise
    if len(labels) < n:
        raise FormatError("missing strategies lines")

    start = 0  # of the line after the header
    for _ in range(lineno):
        start = text.find("\n", start) + 1 or len(text)
    read = _payoff_columns(_spans(text, start), labels)
    # `numbered` stands after the header: `zip` stopped at the end of `range`
    columns, tables = read or _read_payoff_lines(numbered, labels)
    ipay, scales = [], []
    for col, table in zip(columns, tables):
        scale = math.lcm(*{q.denominator for q in table.values()})
        ints = {t: q.numerator * (scale // q.denominator) for t, q in table.items()}
        ipay.append(tuple(map(ints.__getitem__, col)))
        scales.append(scale)
    canonical = all(render_rational(q) == t for table in tables for t, q in table.items())
    try:
        return FiniteGame._from_columns(labels, ipay, scales, columns if canonical else None)
    except InputError as exc:  # a bad label
        raise FormatError(str(exc)) from None


def _payoff_columns(
    spans: Iterable[str], labels: Sequence[Sequence[str]]
) -> tuple[list[list[str]], list[dict[str, int | Fraction]]] | None:
    """Each player's numeral tokens in row-major order and a table of their
    distinct tokens' values, read from payoff lines in the layout
    `render_game` writes; None when any check fails.

    Each span is tokenized whole: each `\n` becomes a `;` token (no valid
    payoff line holds a `;`), each `:` is spaced, and one `split()` gives
    the tokens.  Strided slices check that each record is one line
    `payoff <n labels> : <n numerals>`, so a blank line fails, and so does
    any span with a `#`.  Each player's label column is compared, as one
    list, with its labels in row-major order: a slice of a precomputed
    period of at most two `_CHUNK`s, or runs built for the span.  The
    records must then number exactly the profiles.  Equal numeral tokens
    of a player share one string; each distinct one is checked once.
    CRLF line ends and non-canonical numerals read here too.
    """
    n = len(labels)
    sizes = [len(labs) for labs in labels]
    strides = [math.prod(sizes[i + 1 :]) for i in range(n)]
    # A label that is a separator token (a bad label) matches no token, so
    # the slot checks also place every `:` and `;`.
    names = [[lab if lab not in (":", ";") else None for lab in labs] for labs in labels]
    expected = list(map(_label_column, names, strides))

    width = 2 * n + 3  # payoff, n labels, `:`, n numerals, `;`
    done = 0  # records read
    columns: list[list[str]] = [[] for _ in range(n)]
    distinct: list[dict[str, str]] = [{} for _ in range(n)]
    for span in spans:
        if not span:  # after the `\n` that ends the text
            continue
        if "#" in span:
            return None
        body = span[:-1] if span.endswith("\n") else span  # its last line blank
        records = body.count("\n") + 1
        toks = body.replace(":", " : ").replace("\n", " ; ").split()
        if not (
            len(toks) == records * width - 1
            and toks[::width].count("payoff") == records
            and toks[n + 1 :: width].count(":") == records
            and toks[width - 1 :: width].count(";") == records - 1
            and all(toks[1 + i :: width] == expected[i](done, records) for i in range(n))
        ):
            return None
        done += records
        for i, col in enumerate(columns):
            vals = toks[n + 2 + i :: width]
            col += map(distinct[i].setdefault, vals, vals)
    if done != math.prod(sizes):
        return None  # a profile missing, or the block read again
    try:
        tables = [{token: _numeral(token) for token in tokens} for tokens in distinct]
    except FormatError:
        return None
    return columns, tables


def _read_payoff_lines(
    numbered: Iterable[tuple[int, str]], labels: Sequence[Sequence[str]]
) -> tuple[list[list[str]], list[dict[str, int | Fraction]]]:
    """What `_payoff_columns` returns, read one line at a time from every
    valid payoff block, in any line order; otherwise the error of the first
    bad line, then the label or completeness error of lines that all read.

    Per line it keeps one int, the profile's tensor offset, and per player
    one token, shared by its equal tokens; a set of the offsets shows a
    repeated profile.  The columns are put in row-major order at the end.
    """
    n = len(labels)
    strides = [math.prod(map(len, labels[i + 1 :])) for i in range(n)]
    index = [{lab: k * st for k, lab in enumerate(labs)} for labs, st in zip(labels, strides)]
    offsets: list[int] = []
    seen: set[int] = set()
    columns: list[list[str]] = [[] for _ in range(n)]
    distinct: list[dict[str, str]] = [{} for _ in range(n)]
    tables: list[dict[str, int | Fraction]] = [{} for _ in range(n)]
    for lineno, line in numbered:
        m = _PAYOFF_RE.match(line)
        if not m:
            raise FormatError(f"line {lineno}: expected 'payoff <labels> : <rationals>'")
        labs = m.group(1).split()
        vals = m.group(2).split()
        if len(labs) != n:
            raise FormatError(f"line {lineno}: expected {n} strategy labels")
        if len(vals) != n:
            raise FormatError(f"line {lineno}: expected {n} payoffs")
        try:
            offset = sum(map(dict.__getitem__, index, labs))
        except KeyError:
            i = next(i for i, lab in enumerate(labs) if lab not in index[i])
            raise FormatError(
                f"line {lineno}: unknown label {labs[i]!r} for player {i + 1}"
            ) from None
        if offset in seen:
            raise FormatError(f"line {lineno}: duplicate profile {' '.join(labs)}")
        seen.add(offset)
        offsets.append(offset)
        for col, tokens, table, val in zip(columns, distinct, tables, vals):
            if val not in tokens:
                try:
                    table[val] = _numeral(val)
                except FormatError as exc:
                    raise FormatError(f"line {lineno}: {exc}") from None
                tokens[val] = val
            col.append(tokens[val])
    try:
        _check_labels(labels)
    except InputError as exc:
        raise FormatError(str(exc)) from None
    missing = math.prod(map(len, labels)) - len(seen)
    if missing:
        raise FormatError(f"payoff tensor incomplete: {missing} profiles missing")
    order = sorted(range(len(offsets)), key=offsets.__getitem__)
    return [list(map(col.__getitem__, order)) for col in columns], tables


def render_game(game: FiniteGame, header_comment: str | None = None) -> str:
    """Canonical text form; `parse_game(render_game(g)) == g`.  A chunk of
    payoff lines is one list filled by strided slices, as `_fill`'s digest
    buffer: per profile `payoff`, labels, ` :`, numerals (each after a space)."""
    head = [f"# {line}".rstrip() for line in (header_comment or "").splitlines()]
    head.append(f"players {game.players}")
    head += [f"strategies {i + 1}: " + " ".join(labs) for i, labs in enumerate(game.labels)]
    out = ["\n".join(head) + "\n"]
    n, total, width = game.players, len(game.ipay[0]), 2 * game.players + 3
    labels = [[" " + lab for lab in labs] for labs in game.labels]
    label_columns = list(map(_label_column, labels, game.strides))
    columns = [_numerals(col, scale, " ") for col, scale in zip(game.ipay, game.scales)]
    step = max(1, 2 * _CHUNK // width)  # 2 * _CHUNK slots a chunk, as in `_fill`
    for start in range(0, total, step):
        count = min(step, total - start)
        buf = (["payoff"] + [""] * n + [" :"] + [""] * n + ["\n"]) * count
        for i, col in enumerate(columns):
            buf[1 + i :: width] = label_columns[i](start, count)
            buf[n + 2 + i :: width] = itertools.islice(col, count)
        out.append("".join(buf))
    return "".join(out)
