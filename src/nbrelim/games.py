"""Finite strategic games over exact rationals.

Games, restrictions, the subset lattice on restrictions, and the plain-text
game format.  All payoffs are `fractions.Fraction`; there is no floating point
anywhere in the engine.  Every value is immutable after construction and can
be shared freely between threads.
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


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(token: str) -> Rational:
    """Parse `a` or `a/b` (b > 0) into a canonical Rational.

    Decimal or float syntax is rejected: the text format is bit-exact.
    """
    token = token.strip()
    if not _RATIONAL_RE.match(token):
        raise FormatError(f"not an integer or a/b rational: {token!r}")
    num, _, den = token.partition("/")
    try:
        value = Fraction(int(num), int(den or "1"))
    except ValueError:  # past the interpreter's int-string digit limit
        raise FormatError(f"numeral of {len(token)} characters is too long") from None
    except ZeroDivisionError:
        raise FormatError(f"zero denominator: {token!r}") from None
    return value


def render_rational(q: Rational) -> str:
    """Inverse of parse_rational; canonical `a` or `a/b` form."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class FiniteGame:
    """An n-player strategic game with labeled strategies and a dense payoff tensor.

    Profiles are tuples of strategy indices; the tensor is stored flat in
    row-major (player-0-major) order.  Integer-scaled per-player payoff views
    and per-column best-payoff tables are precomputed so that best-response
    scans run on plain ints.
    """

    __slots__ = (
        "players",
        "labels",
        "sizes",
        "strides",
        "payoffs",
        "_ipay",
        "_scales",
        "_colmax",
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
        self.players = len(labels)
        self.labels = tuple(tuple(labs) for labs in labels)
        self.sizes = tuple(len(labs) for labs in self.labels)
        strides = [1] * self.players
        for i in range(self.players - 2, -1, -1):
            strides[i] = strides[i + 1] * self.sizes[i + 1]
        self.strides = tuple(strides)
        total = strides[0] * self.sizes[0]

        flat: list[tuple[Fraction, ...] | None] = [None] * total
        for profile, row in table.items():
            idx = self._flat_checked(profile)
            if flat[idx] is not None:
                raise InputError(f"duplicate payoff entry for profile {profile}")
            if len(row) != self.players:
                raise InputError(f"profile {profile}: expected {self.players} payoffs")
            flat[idx] = tuple(Fraction(q) for q in row)
        missing = flat.count(None)
        if missing:
            raise InputError(f"payoff tensor incomplete: {missing} profiles missing")
        self.payoffs: tuple[tuple[Fraction, ...], ...] = tuple(flat)  # type: ignore[arg-type]

        # Integer views: player i's payoffs times the lcm of their denominators.
        # Best-response comparisons are invariant under this positive scaling.
        self._scales = []
        self._ipay = []
        for i in range(self.players):
            scale = math.lcm(*(row[i].denominator for row in self.payoffs))
            self._scales.append(scale)
            self._ipay.append(
                [row[i].numerator * (scale // row[i].denominator) for row in self.payoffs]
            )
        # _colmax[i][base] = best payoff player i can get against the opponent
        # profile with tensor offset `base`, over the full strategy set.
        self._colmax = []
        for i in range(self.players):
            ip = self._ipay[i]
            stride = self.strides[i]
            col: list[int | None] = [None] * total
            for base in self.opponent_bases(i):
                col[base] = max(ip[base + s * stride] for s in range(self.sizes[i]))
            self._colmax.append(col)

        blob = "\n".join(
            [";".join(",".join(labs) for labs in self.labels)]
            + [",".join(render_rational(q) for q in row) for row in self.payoffs]
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

    def _flat_checked(self, profile: Sequence[int]) -> int:
        if len(profile) != self.players:
            raise InputError(f"profile {tuple(profile)} has wrong arity")
        idx = 0
        for i, s in enumerate(profile):
            if not 0 <= s < self.sizes[i]:
                raise InputError(f"strategy index {s} out of range for player {i + 1}")
            idx += s * self.strides[i]
        return idx

    def flat_index(self, profile: Sequence[int]) -> int:
        return self._flat_checked(profile)

    def payoff(self, profile: Sequence[int], player: int) -> Rational:
        """Exact payoff of `player` at `profile`."""
        if not 0 <= player < self.players:
            raise InputError(f"player index {player} out of range")
        return self.payoffs[self._flat_checked(profile)][player]

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
        """New restriction with `removal[player]` dropped from each kept set."""
        kept = list(self.kept)
        for i, gone in removal.items():
            gone_set = set(gone)
            bad = gone_set - set(kept[i])
            if bad:
                raise InputError(f"cannot remove absent strategies {sorted(bad)}")
            kept[i] = tuple(s for s in kept[i] if s not in gone_set)
        return Restriction(self.parent, tuple(kept))

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

_STRATEGIES_RE = re.compile(r"^strategies\s+(\d+)\s*:\s*(.*)$")
_PAYOFF_RE = re.compile(r"^payoff\s+(.*?)\s*:\s*(.*)$")


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
    if len(parts) != 2 or parts[0] != "players" or not parts[1].isdigit():
        raise FormatError(f"line {lineno}: expected 'players <n>'")
    n = int(parts[1])
    if n < 1:
        raise FormatError(f"line {lineno}: need at least one player")
    if len(lines) < 1 + n:
        raise FormatError("missing strategies lines")

    labels: list[tuple[str, ...]] = []
    for i in range(n):
        lineno, line = lines[1 + i]
        m = _STRATEGIES_RE.match(line)
        if not m or int(m.group(1)) != i + 1:
            raise FormatError(f"line {lineno}: expected 'strategies {i + 1}: ...'")
        labs = tuple(m.group(2).split())
        if not labs:
            raise FormatError(f"line {lineno}: player {i + 1} has no strategies")
        if len(set(labs)) != len(labs):
            raise FormatError(f"line {lineno}: duplicate labels for player {i + 1}")
        labels.append(labs)

    table: dict[JointProfile, tuple[Rational, ...]] = {}
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
        profile = []
        for i, lab in enumerate(labs):
            if lab not in labels[i]:
                raise FormatError(f"line {lineno}: unknown label {lab!r} for player {i + 1}")
            profile.append(labels[i].index(lab))
        key = tuple(profile)
        if key in table:
            raise FormatError(f"line {lineno}: duplicate profile {' '.join(labs)}")
        try:
            table[key] = tuple(parse_rational(v) for v in vals)
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
    for profile in itertools.product(*(range(s) for s in game.sizes)):
        labs = " ".join(game.label_of(i, s) for i, s in enumerate(profile))
        row = game.payoffs[game.flat_index(profile)]
        vals = " ".join(render_rational(q) for q in row)
        out.append(f"payoff {labs} : {vals}")
    return "\n".join(out) + "\n"
