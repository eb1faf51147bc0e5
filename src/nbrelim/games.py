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
from typing import Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

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
#: Rows the text layer holds at once: payoff lines parsed, profiles evaluated
#: by `from_function`, and lines joined for the digest or by `render_game`.
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


def _numerals(values: Sequence[int], scale: int) -> Iterator[str]:
    """Canonical text of each `value / scale`, as `render_rational` writes it,
    read lazily; equal values share one string."""
    text = {}
    for v in set(values):
        g = math.gcd(v, scale)
        text[v] = str(v // g) if g == scale else f"{v // g}/{scale // g}"
    return map(text.__getitem__, values)


def _scaled(values: Sequence[object]) -> tuple[Sequence[int], int]:
    """`values` as integers on their least common denominator, and that
    denominator."""
    types = set(map(type, values))
    if types == {int}:
        return values, 1
    if types <= {int, Fraction}:
        # A Fraction hashes slowly, so each entry is scaled on its own.
        dens = list(map(operator.attrgetter("denominator"), values))
        scale = math.lcm(*set(dens))
        nums = map(operator.attrgetter("numerator"), values)
        return list(map(operator.mul, nums, map(scale.__floordiv__, dens))), scale
    # Other entries, such as the parser's numeral tokens, are read once per
    # distinct value.
    exact = {q: q if isinstance(q, (int, Fraction)) else Fraction(q) for q in set(values)}
    scale = math.lcm(*{q.denominator for q in exact.values()})
    ints = {q: f.numerator * (scale // f.denominator) for q, f in exact.items()}
    return list(map(ints.__getitem__, values)), scale


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

    One builder, `_fill`, turns per-player payoff columns in row-major order
    into the integer tensor, `colmax` and the digest.  `__init__` checks and
    flattens a profile-keyed table into those columns; `from_function` and
    `parse_game` produce the columns directly.
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
        self._fill(self._columns(flat))

    @classmethod
    def from_function(
        cls,
        labels: Sequence[Sequence[str]],
        payoff: Callable[[JointProfile], Sequence[Rational]],
    ) -> "FiniteGame":
        """Build the dense tensor by evaluating `payoff` at every joint profile."""
        game = cls.__new__(cls)
        game._shape(labels)
        profiles = itertools.product(*map(range, game.sizes))
        columns = [[] for _ in game.sizes]
        for start in range(0, game.strides[0] * game.sizes[0], _CHUNK):
            rows = list(map(payoff, itertools.islice(profiles, _CHUNK)))
            for col, part in zip(columns, game._columns(rows, start)):
                col += part
        game._fill(columns)
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

    def _columns(self, rows: Sequence[Sequence[Rational]], start: int = 0) -> list[tuple]:
        """Per-player columns of payoff rows in row-major order, the first row
        at flat index `start`."""
        n = self.players
        try:
            columns = list(zip(*rows, strict=True))
        except ValueError:  # rows of different lengths
            columns = []
        if len(columns) != n:
            k = next(k for k, row in enumerate(rows, start) if len(row) != n)
            profile = tuple(k // st % sz for st, sz in zip(self.strides, self.sizes))
            raise InputError(f"profile {profile}: expected {n} payoffs")
        return columns

    def _fill(self, columns: Iterable[Sequence[object]]) -> None:
        """The tensor builder: scaled integers, `colmax` and the digest from
        one row-major payoff column per player.  Entries are ints, Fractions
        or anything `Fraction()` reads, such as the parser's checked numeral
        tokens; each distinct entry is converted once.  The digest's line of
        canonical rationals per profile goes to sha256 one chunk at a time."""
        ipay, scales, colmax = [], [], []
        for i, col in enumerate(columns):
            col, scale = _scaled(col)
            span, step = self.sizes[i] * self.strides[i], self.strides[i]
            bases = self.opponent_bases(i)
            colmax.append({b: max(col[b : b + span : step]) for b in bases})
            ipay.append(tuple(col))
            scales.append(scale)
        self.ipay = tuple(ipay)
        self.scales = tuple(scales)
        self.colmax = tuple(colmax)

        rows = map(",".join, zip(*map(_numerals, ipay, scales)))
        digest = hashlib.sha256(";".join(",".join(labs) for labs in self.labels).encode())
        while chunk := "\n".join(itertools.islice(rows, _CHUNK)):
            digest.update(("\n" + chunk).encode())
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
    ) -> list[int]:
        """Tensor offsets of the opponent profiles, lexicographic in opponent order.

        `kept` optionally restricts each player's strategy set; player
        `player`'s own entry in `kept` is ignored.
        """
        axes = []
        for j in range(self.players):
            if j == player:
                continue
            choices = range(self.sizes[j]) if kept is None else kept[j]
            axes.append([s * self.strides[j] for s in choices])
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


@dataclass(frozen=True)
class Restriction:
    """Per-player subsets of a parent game's strategy sets.

    Payoffs are inherited from the parent, never copied.  Empty components are
    allowed.  `bits` holds the kept strategies as one integer, player after
    player: strategy s of player i is bit `parent.offsets[i] + s`.
    """

    parent: FiniteGame
    kept: tuple[tuple[int, ...], ...]
    bits: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.kept) != self.parent.players:
            raise InputError("restriction arity does not match the game")
        norm = []
        bits = 0
        for i, (ks, offset) in enumerate(zip(self.kept, self.parent.offsets)):
            uniq = tuple(sorted(set(ks)))
            if uniq and (uniq[0] < 0 or uniq[-1] >= self.parent.sizes[i]):
                raise InputError(f"kept set for player {i + 1} out of range")
            norm.append(uniq)
            bits |= sum(1 << s for s in uniq) << offset
        object.__setattr__(self, "kept", tuple(norm))
        object.__setattr__(self, "bits", bits)

    # (parent, kept, bits), no checks: `kept` sorted, duplicate-free, in range.
    _trusted = classmethod(_unchecked)

    def is_nondegenerate(self) -> bool:
        return all(self.kept)

    def contains(self, other: "Restriction") -> bool:
        """Componentwise superset test."""
        if self.parent != other.parent:
            raise InputError("restrictions have different parent games")
        return not other.bits & ~self.bits

    def remove(self, removal: Mapping[int, Iterable[int]]) -> "Restriction":
        """New restriction with `removal[player]` dropped from each kept set.

        The kept sets are already normalized, so filtering them and clearing
        the removed bits is all the new restriction needs.
        """
        kept, bits = list(self.kept), self.bits
        offsets, sizes = self.parent.offsets, self.parent.sizes
        for i, gone in removal.items():
            if not (isinstance(i, int) and 0 <= i < len(kept)):
                raise InputError(f"cannot remove strategies of player key {i!r}")
            gone, own, drop = tuple(gone), kept[i], 0
            mine = bits >> offsets[i] & (1 << sizes[i]) - 1
            for s in gone:
                if not (isinstance(s, int) and 0 <= s < sizes[i] and mine >> s & 1):
                    bad = sorted(set(gone).difference(own))
                    raise InputError(f"cannot remove absent strategies {bad}")
                drop |= 1 << s
            if drop & drop - 1:
                kept[i] = tuple(itertools.filterfalse(set(gone).__contains__, own))
            elif drop:  # one strategy, at its rank among the kept bits
                k = (mine & drop - 1).bit_count()
                kept[i] = own[:k] + own[k + 1 :]
            bits &= ~(drop << offsets[i])
        return Restriction._trusted(self.parent, tuple(kept), bits)

    def render(self) -> str:
        """Label form, e.g. `{T}x{L,R}`."""
        parts = []
        for i, ks in enumerate(self.kept):
            parts.append("{" + ",".join(self.parent.label_of(i, s) for s in ks) + "}")
        return "x".join(parts)

    def __repr__(self) -> str:
        return f"Restriction({self.render()})"


def full_restriction(game: FiniteGame) -> Restriction:
    kept = tuple(tuple(range(s)) for s in game.sizes)
    return Restriction._trusted(game, kept, (1 << sum(game.sizes)) - 1)


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
#: Characters of game text split into lines at once, rounded up to a line end.
_SPAN = 1 << 16


def _count(token: str, lineno: int) -> int:
    """An ASCII decimal count; a numeral past the digit limit is an error."""
    try:
        return int(token)
    except ValueError:
        raise FormatError(
            f"line {lineno}: numeral of {len(token)} characters is too long"
        ) from None


def _lines(text: str) -> Iterator[str]:
    """The lines of `text` as `text.split("\n")` gives them, comments cut,
    split one span of whole lines of about `_SPAN` characters at a time."""
    start = 0
    while True:
        end = text.find("\n", start + _SPAN)
        span = text[start:] if end < 0 else text[start:end]
        lines = span.split("\n")
        if "#" in span:
            lines = [line.split("#", 1)[0] for line in lines]
        yield from lines
        if end < 0:
            return
        start = end + 1


def _nonblank(lines: Iterable[str], start: int = 0) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each non-blank line, the first of
    `lines` numbered `start + 1`."""
    return ((k, s) for k, raw in enumerate(lines, start + 1) if (s := raw.strip()))


def parse_game(text: str) -> FiniteGame:
    """Read the game text format; a `FormatError` names the first bad line.

    Lines end at `\n` only, and `_lines` splits the text lazily, one span at
    a time.  The header is read line by line.  The payoff lines are read in
    bulk by `_payoff_columns`: chunks of `_CHUNK` lines, each tokenized by
    one `str.split()` and checked with strided slices.  Its per-player
    columns go straight to the tensor builder.  When a bulk check fails,
    `_reject_payoff_lines` walks the payoff lines one by one and raises the
    first bad line's error.  It never returns a game, so the bulk path is
    the only one that accepts.
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
    header = list(itertools.islice(numbered, n))
    if len(header) < n:
        raise FormatError("missing strategies lines")

    labels: list[tuple[str, ...]] = []
    for i, (lineno, line) in enumerate(header):
        m = _STRATEGIES_RE.match(line)
        if not m or _count(m.group(1), lineno) != i + 1:
            raise FormatError(f"line {lineno}: expected 'strategies {i + 1}: ...'")
        labs = tuple(m.group(2).split())
        if not labs:
            raise FormatError(f"line {lineno}: player {i + 1} has no strategies")
        if len(set(labs)) != len(labs):
            raise FormatError(f"line {lineno}: duplicate labels for player {i + 1}")
        labels.append(labs)

    columns = _payoff_columns((line for _, line in numbered), labels)
    if columns is None:
        body = itertools.islice(_lines(text), lineno, None)
        _reject_payoff_lines(_nonblank(body, lineno), labels)
    game = FiniteGame.__new__(FiniteGame)
    try:
        game._shape(labels)
    except InputError as exc:
        raise FormatError(str(exc)) from None
    game._fill(columns)
    return game


def _payoff_columns(
    lines: Iterator[str], labels: Sequence[Sequence[str]]
) -> list[list[str]] | None:
    """Each player's numeral tokens in row-major order, or None when a check fails.

    The non-blank `lines` are tokenized in chunks of `_CHUNK`: a chunk is
    joined with a `;` token at each line end (no valid payoff line holds a
    `;`), spaced around every `:` and split once.  Strided slices check that
    each record is one line `payoff <n labels> : <n numerals>`.  Per-player
    dicts map labels to tensor offsets already multiplied by the strides.
    Offsets are kept from the first record out of row-major order on; then
    records land by offset, and a repeated profile shows in the offsets.
    Each distinct numeral token is checked once, and equal tokens share one
    string.
    """
    n = len(labels)
    sizes = [len(labs) for labs in labels]
    strides = [math.prod(sizes[i + 1 :]) for i in range(n)]
    total = strides[0] * sizes[0]
    # A label that is a separator token (a bad label) is left out, so the
    # slot checks below also place every `:` and `;`.
    index = [
        {lab: k * st for k, lab in enumerate(labs) if lab not in (":", ";")}
        for labs, st in zip(labels, strides)
    ]
    width = 2 * n + 3  # payoff, n labels, `:`, n numerals, `;`
    done = 0  # records read
    offsets: list[int] | None = None  # every record's, once one is out of order
    columns: list[list[str]] = [[] for _ in range(n)]
    distinct: dict[str, str] = {}
    while chunk := list(itertools.islice(lines, _CHUNK)):
        records = len(chunk)
        toks = " ; ".join(chunk).replace(":", " : ").split()
        if not (
            len(toks) == records * width - 1
            and toks[::width].count("payoff") == records
            and toks[n + 1 :: width].count(":") == records
            and toks[width - 1 :: width].count(";") == records - 1
        ):
            return None
        flat = map(index[0].__getitem__, toks[1::width])
        for i in range(1, n):
            flat = map(operator.add, flat, map(index[i].__getitem__, toks[1 + i :: width]))
        try:
            flat = list(flat)
        except KeyError:  # an unknown label
            return None
        if offsets is None and flat != list(range(done, done + records)):
            offsets = list(range(done))
        if offsets is not None:
            offsets += flat
        done += records
        for i, col in enumerate(columns):
            vals = toks[n + 2 + i :: width]
            col += map(distinct.setdefault, vals, vals)
    try:
        for token in distinct:
            _numeral(token)
    except FormatError:
        return None
    if done != total:
        return None  # a profile missing or repeated
    if offsets is not None:  # lines out of row-major order
        if len(set(offsets)) != total:
            return None  # a profile repeated
        order = sorted(range(total), key=offsets.__getitem__)
        columns = [list(map(col.__getitem__, order)) for col in columns]
    return columns


def _reject_payoff_lines(
    numbered: Iterable[tuple[int, str]], labels: Sequence[Sequence[str]]
) -> NoReturn:
    """Raise the error of the first bad payoff line, read one line at a time,
    then the label or completeness error of lines that all read.  The
    diagnostic path of `parse_game`: called only once a bulk check failed."""
    n = len(labels)
    index = [{lab: k for k, lab in enumerate(labs)} for labs in labels]
    seen: set[JointProfile] = set()
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
            key = tuple(map(dict.__getitem__, index, labs))
        except KeyError:
            i = next(i for i, lab in enumerate(labs) if lab not in index[i])
            raise FormatError(
                f"line {lineno}: unknown label {labs[i]!r} for player {i + 1}"
            ) from None
        if key in seen:
            raise FormatError(f"line {lineno}: duplicate profile {' '.join(labs)}")
        seen.add(key)
        try:
            for val in vals:
                _numeral(val)
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    try:
        _check_labels(labels)
    except InputError as exc:
        raise FormatError(str(exc)) from None
    missing = math.prod(map(len, labels)) - len(seen)
    if missing:
        raise FormatError(f"payoff tensor incomplete: {missing} profiles missing")
    # Lines that all read, with good labels, pass every bulk check.
    raise AssertionError("the bulk payoff check failed on well-formed lines")


def render_game(game: FiniteGame, header_comment: str | None = None) -> str:
    """Canonical text form; `parse_game(render_game(g)) == g`."""
    out = []
    if header_comment:
        for line in header_comment.splitlines():
            out.append(f"# {line}".rstrip())
    out.append(f"players {game.players}")
    for i, labs in enumerate(game.labels):
        out.append(f"strategies {i + 1}: " + " ".join(labs))
    rows = zip(*map(_numerals, game.ipay, game.scales))
    # itertools.product over the labels walks the tensor in flat order
    profiles = itertools.product(*game.labels)
    lines = (f"payoff {' '.join(p)} : {' '.join(v)}" for p, v in zip(profiles, rows))
    while chunk := "\n".join(itertools.islice(lines, _CHUNK)):
        out.append(chunk)
    return "\n".join(out) + "\n"
