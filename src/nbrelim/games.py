"""Finite strategic games over exact rationals.

Games, restrictions, the subset lattice on restrictions, and the plain-text
game format.  Payoffs are stored once, as integers: player i's payoffs times
the lcm of their denominators.  They come back as `fractions.Fraction` at
the API; there is no floating point anywhere in the engine.  Every value is
immutable after construction and can be shared freely between threads.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from dataclasses import dataclass, field
from enum import Enum
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


def _numerals(values: Sequence[int], scale: int) -> list[str]:
    """Canonical text of each `value / scale`, as `render_rational` writes it."""
    text = {}
    for v in set(values):
        g = math.gcd(v, scale)
        text[v] = str(v // g) if g == scale else f"{v // g}/{scale // g}"
    return [text[v] for v in values]


class FiniteGame:
    """An n-player strategic game with labeled strategies and a dense payoff tensor.

    Profiles are tuples of strategy indices; the tensor is stored flat in
    row-major (player-0-major) order, once, as integers: `ipay[i][k]` is
    player i's payoff at flat index k times `scales[i]`, the lcm of that
    player's payoff denominators.  `colmax[i][base]` is the best entry of
    `ipay[i]` against the opponent profile at tensor offset `base`, over the
    full strategy set.  Best-response comparisons are invariant under the
    positive scaling, so scans run on plain ints; `payoff` forms the
    `Fraction` on demand.
    """

    __slots__ = (
        "players",
        "labels",
        "sizes",
        "strides",
        "ipay",
        "scales",
        "colmax",
        "_digest",
        "_hash",
    )

    def __init__(
        self,
        labels: Sequence[Sequence[str]],
        table: Mapping[JointProfile, Sequence[Rational]],
    ) -> None:
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
        self.players = n = len(labels)
        self.labels = tuple(tuple(labs) for labs in labels)
        self.sizes = tuple(len(labs) for labs in self.labels)
        strides = [1] * n
        for i in range(n - 2, -1, -1):
            strides[i] = strides[i + 1] * self.sizes[i + 1]
        self.strides = tuple(strides)
        total = strides[0] * self.sizes[0]

        # A total table keyed by exactly the profiles is read in one pass;
        # anything else is checked key by key for a precise error.
        profiles = itertools.product(*map(range, self.sizes))
        flat = [table.get(profile) for profile in profiles]
        if len(table) != total or any(row is None for row in flat):
            flat = [None] * total
            for profile, row in table.items():
                idx = self.flat_index(profile)
                if flat[idx] is not None:
                    raise InputError(f"duplicate payoff entry for profile {profile}")
                flat[idx] = row
            missing = flat.count(None)
            if missing:
                raise InputError(f"payoff tensor incomplete: {missing} profiles missing")
        for k, row in enumerate(flat):
            if len(row) != n:
                profile = tuple(k // st % sz for st, sz in zip(strides, self.sizes))
                raise InputError(f"profile {profile}: expected {n} payoffs")

        ipay, scales, colmax, texts = [], [], [], []
        for i in range(n):
            col = [row[i] for row in flat]
            scale = 1
            if any(type(q) is not int for q in col):
                col = [q if isinstance(q, (int, Fraction)) else Fraction(q) for q in col]
                scale = math.lcm(*{q.denominator for q in col})
                col = [q.numerator * (scale // q.denominator) for q in col]
            span = self.sizes[i] * strides[i]
            best: list[int | None] = [None] * total
            for base in self.opponent_bases(i):
                best[base] = max(col[base : base + span : strides[i]])
            ipay.append(tuple(col))
            scales.append(scale)
            colmax.append(tuple(best))
            texts.append(_numerals(col, scale))
        self.ipay = tuple(ipay)
        self.scales = tuple(scales)
        self.colmax = tuple(colmax)

        blob = "\n".join(
            [";".join(",".join(labs) for labs in self.labels)]
            + list(map(",".join, zip(*texts)))
        )
        self._digest = hashlib.sha256(blob.encode()).hexdigest()
        self._hash = hash(self._digest)

    @classmethod
    def from_function(
        cls,
        labels: Sequence[Sequence[str]],
        payoff: Callable[[JointProfile], Sequence[Rational]],
    ) -> "FiniteGame":
        """Build the dense tensor by evaluating `payoff` at every joint profile."""
        sizes = [len(labs) for labs in labels]
        table = {
            profile: payoff(profile)
            for profile in itertools.product(*(range(s) for s in sizes))
        }
        return cls(labels, table)

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
        return tuple(j for j in range(self.players) if j != player)

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
        return [sum(combo) for combo in itertools.product(*axes)]

    def opponent_profiles(
        self, player: int, kept: Sequence[Sequence[int]] | None = None
    ) -> Iterator[JointProfile]:
        """Opponent index tuples, lexicographic; parallel to opponent_bases."""
        axes = []
        for j in range(self.players):
            if j == player:
                continue
            axes.append(range(self.sizes[j]) if kept is None else kept[j])
        return itertools.product(*axes)

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


class RestrictionClass(Enum):
    NONDEGENERATE = "non-degenerate"
    DEGENERATE = "degenerate"
    EMPTY = "empty"


@dataclass(frozen=True)
class Restriction:
    """Per-player subsets of a parent game's strategy sets.

    Payoffs are inherited from the parent, never copied.  Empty components are
    allowed; `classify` distinguishes the degenerate cases.  `bits` holds the
    kept strategies as one integer, player after player: strategy s of player
    i is bit `sum(sizes[:i]) + s`.
    """

    parent: FiniteGame
    kept: tuple[tuple[int, ...], ...]
    bits: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.kept) != self.parent.players:
            raise InputError("restriction arity does not match the game")
        norm = []
        bits = offset = 0
        for i, ks in enumerate(self.kept):
            uniq = tuple(sorted(set(ks)))
            if uniq and (uniq[0] < 0 or uniq[-1] >= self.parent.sizes[i]):
                raise InputError(f"kept set for player {i + 1} out of range")
            norm.append(uniq)
            bits |= sum(1 << s for s in uniq) << offset
            offset += self.parent.sizes[i]
        object.__setattr__(self, "kept", tuple(norm))
        object.__setattr__(self, "bits", bits)

    def classify(self) -> RestrictionClass:
        if all(not ks for ks in self.kept):
            return RestrictionClass.EMPTY
        if any(not ks for ks in self.kept):
            return RestrictionClass.DEGENERATE
        return RestrictionClass.NONDEGENERATE

    def is_empty(self) -> bool:
        return self.classify() is RestrictionClass.EMPTY

    def is_nondegenerate(self) -> bool:
        return self.classify() is RestrictionClass.NONDEGENERATE

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(ks) for ks in self.kept)

    def contains(self, other: "Restriction") -> bool:
        """Componentwise superset test (the lattice order)."""
        _check_same_parent(self, other)
        return not other.bits & ~self.bits

    def __le__(self, other: "Restriction") -> bool:
        return other.contains(self)

    def payoff(self, profile: Sequence[int], player: int) -> Rational:
        """Payoff through the restriction; profiles outside the kept sets are errors."""
        if len(profile) != self.parent.players:
            raise InputError("profile has wrong arity")
        for i, s in enumerate(profile):
            if s not in self.kept[i]:
                raise InputError(
                    f"profile {tuple(profile)} leaves the restriction at player {i + 1}"
                )
        return self.parent.payoff(profile, player)

    def remove(self, removal: Mapping[int, Iterable[int]]) -> "Restriction":
        """New restriction with `removal[player]` dropped from each kept set.

        The kept sets are already normalized, so filtering them and clearing
        the removed bits is all the new restriction needs.
        """
        kept = list(self.kept)
        bits = self.bits
        for i, gone in removal.items():
            gone_set = set(gone)
            bad = gone_set.difference(kept[i])
            if bad:
                raise InputError(f"cannot remove absent strategies {sorted(bad)}")
            kept[i] = tuple(s for s in kept[i] if s not in gone_set)
            offset = sum(self.parent.sizes[:i])
            bits &= ~sum(1 << (offset + s) for s in gone_set)
        new = object.__new__(Restriction)
        object.__setattr__(new, "parent", self.parent)
        object.__setattr__(new, "kept", tuple(kept))
        object.__setattr__(new, "bits", bits)
        return new

    def removed_from(self, other: "Restriction") -> tuple[tuple[int, ...], ...]:
        """Per-player strategies present in `other` but not in self."""
        _check_same_parent(self, other)
        return tuple(
            tuple(s for s in o if s not in keep)
            for keep, o in zip(map(set, self.kept), other.kept)
        )

    def render(self) -> str:
        """Label form, e.g. `{T}x{L,R}`."""
        parts = []
        for i, ks in enumerate(self.kept):
            parts.append("{" + ",".join(self.parent.label_of(i, s) for s in ks) + "}")
        return "x".join(parts)

    def __repr__(self) -> str:
        return f"Restriction({self.render()})"


def _check_same_parent(a: Restriction, b: Restriction) -> None:
    if a.parent != b.parent:
        raise InputError("restrictions have different parent games")


def full_restriction(game: FiniteGame) -> Restriction:
    return Restriction(game, tuple(tuple(range(s)) for s in game.sizes))


def restrict(game: FiniteGame, kept: Sequence[Iterable[int]]) -> Restriction:
    """Restriction of `game` keeping the given per-player index sets."""
    return Restriction(game, tuple(tuple(ks) for ks in kept))


def restrict_by_labels(game: FiniteGame, kept_labels: Sequence[Iterable[str]]) -> Restriction:
    kept = tuple(
        tuple(game.index_of(i, lab) for lab in labs) for i, labs in enumerate(kept_labels)
    )
    return Restriction(game, kept)


def meet(a: Restriction, b: Restriction) -> Restriction:
    """Componentwise intersection (lattice meet)."""
    _check_same_parent(a, b)
    return Restriction(
        a.parent,
        tuple(tuple(sorted(set(x) & set(y))) for x, y in zip(a.kept, b.kept)),
    )


def join(a: Restriction, b: Restriction) -> Restriction:
    """Componentwise union (lattice join)."""
    _check_same_parent(a, b)
    return Restriction(
        a.parent,
        tuple(tuple(sorted(set(x) | set(y))) for x, y in zip(a.kept, b.kept)),
    )


# ---------------------------------------------------------------------------
# Game text format
#
#   players <n>
#   strategies <i>: <label> <label> ...
#   payoff <label_1> ... <label_n> : <q_1> ... <q_n>
#
# `#` starts a comment; every joint profile must appear exactly once.
# ---------------------------------------------------------------------------

_STRATEGIES_RE = re.compile(r"^strategies\s+([0-9]+)\s*:\s*(.*)$")
_PAYOFF_RE = re.compile(r"^payoff\s+(.*?)\s*:\s*(.*)$")


def _count(token: str, lineno: int) -> int:
    """An ASCII decimal count; a numeral past the digit limit is an error."""
    try:
        return int(token)
    except ValueError:
        raise FormatError(
            f"line {lineno}: numeral of {len(token)} characters is too long"
        ) from None


class _Numerals(dict):
    """Memo of parsed numerals: token -> int or Fraction."""

    def __missing__(self, token: str) -> int | Fraction:
        value = self[token] = _numeral(token)
        return value


def parse_game(text: str) -> FiniteGame:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise FormatError("empty game text")

    lineno, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "players" or not _COUNT_RE.fullmatch(parts[1]):
        raise FormatError(f"line {lineno}: expected 'players <n>'")
    n = _count(parts[1], lineno)
    if n < 1:
        raise FormatError(f"line {lineno}: need at least one player")
    if len(lines) < 1 + n:
        raise FormatError("missing strategies lines")

    labels: list[tuple[str, ...]] = []
    for i in range(n):
        lineno, line = lines[1 + i]
        m = _STRATEGIES_RE.match(line)
        if not m or _count(m.group(1), lineno) != i + 1:
            raise FormatError(f"line {lineno}: expected 'strategies {i + 1}: ...'")
        labs = tuple(m.group(2).split())
        if not labs:
            raise FormatError(f"line {lineno}: player {i + 1} has no strategies")
        if len(set(labs)) != len(labs):
            raise FormatError(f"line {lineno}: duplicate labels for player {i + 1}")
        labels.append(labs)

    # One label -> index dict per player; numerals repeat, so each distinct
    # token is parsed once.
    index = [{lab: k for k, lab in enumerate(labs)} for labs in labels]
    numeral = _Numerals().__getitem__
    table: dict[JointProfile, tuple[int | Fraction, ...]] = {}
    for lineno, line in lines[1 + n :]:
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
        if key in table:
            raise FormatError(f"line {lineno}: duplicate profile {' '.join(labs)}")
        try:
            table[key] = tuple(map(numeral, vals))
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None

    try:
        return FiniteGame(labels, table)
    except InputError as exc:
        raise FormatError(str(exc)) from None


def render_game(game: FiniteGame, header_comment: str | None = None) -> str:
    """Canonical text form; `parse_game(render_game(g)) == g`."""
    out = []
    if header_comment:
        for line in header_comment.splitlines():
            out.append(f"# {line}".rstrip())
    out.append(f"players {game.players}")
    for i, labs in enumerate(game.labels):
        out.append(f"strategies {i + 1}: " + " ".join(labs))
    texts = [_numerals(ip, scale) for ip, scale in zip(game.ipay, game.scales)]
    # itertools.product over the labels walks the tensor in flat order
    for labs, vals in zip(itertools.product(*game.labels), zip(*texts)):
        out.append(f"payoff {' '.join(labs)} : {' '.join(vals)}")
    return "\n".join(out) + "\n"
