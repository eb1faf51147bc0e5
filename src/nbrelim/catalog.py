"""Built-in example games and seeded random game generation.

The continuous-strategy originals of the grid games live on real intervals;
the catalog carries discretized versions, and every discretized entry records
how the grid changes the elimination behaviour relative to the continuous
game.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .games import FiniteGame, InputError, JointProfile, render_game


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    deviation_note: str | None
    build: Callable[[], FiniteGame]

    def game(self) -> FiniteGame:
        return self.build()

    def emit(self) -> str:
        comment = self.description
        if self.deviation_note:
            comment += "\n" + self.deviation_note
        return render_game(self.game(), header_comment=comment)


def gap_3x2() -> FiniteGame:
    """3x2 game whose bottom row is never-best globally yet best locally.

    Removing B from the {M,B}x{L,R} sub-game is legal when better responses
    come from the full game (T beats it everywhere) but illegal when they come
    from the sub-game itself (B is the sub-game's best reply to L).  The game
    separates the three reduction relations.
    """
    rows = {
        "T": ((2, 0), (2, 0)),
        "M": ((0, 0), (1, 0)),
        "B": ((1, 0), (0, 0)),
    }
    labels = [["T", "M", "B"], ["L", "R"]]
    table = {
        (r, c): rows[labels[0][r]][c]
        for r in range(3)
        for c in range(2)
    }
    return FiniteGame(labels, table)


def _symmetric_grid(n: int, rows: Iterable[list[int]]) -> FiniteGame:
    """The symmetric game on labels 1..n in which player 1 is paid `rows`,
    one list per own strategy, doubled (scale 2); player 2's column is the
    transpose of player 1's, read off it by strided slices."""
    ipay = [list(itertools.chain.from_iterable(rows))]
    ipay.append(list(itertools.chain.from_iterable(ipay[0][j::n] for j in range(n))))
    return FiniteGame._from_columns([[str(v) for v in range(1, n + 1)]] * 2, ipay, (2, 2))


def bertrand_grid(grid_max: int = 100) -> FiniteGame:
    """Price competition on integer prices 1..grid_max.

    Demand is 100 - p at the lower price p, profits split on a tie, zero for
    the higher-priced seller.  Payoffs are stored doubled, on scale 2, the
    lcm of their denominators at every size: each is a whole or a half, and
    the tie at price 1 pays 99/2.
    """
    if grid_max < 2:
        raise InputError("bertrand grid needs at least two prices")
    return _symmetric_grid(grid_max, (
        [0] * (p - 1) + [p * (100 - p)] + [2 * p * (100 - p)] * (grid_max - p)
        for p in range(1, grid_max + 1)
    ))


def hotelling_grid(grid_max: int = 99) -> FiniteGame:
    """Location choice on integer positions 1..grid_max along a 100-unit street.

    A seller captures their own side of the street plus half the gap to the
    other seller; a tie splits the whole street.  Payoffs are stored doubled,
    on scale 2: at own spot a and other spot b, 200 - a - b when b < a, 100
    when b == a and a + b when b > a.  Scale 2 is the lcm of their
    denominators at every size: each is a whole or a half, and spots 1 and
    2 split 3/2.
    """
    if not 2 <= grid_max <= 99:
        raise InputError("hotelling grid size must be between 2 and 99")
    return _symmetric_grid(grid_max, (
        [*range(199 - a, 200 - 2 * a, -1), 100, *range(2 * a + 1, a + grid_max + 1)]
        for a in range(1, grid_max + 1)
    ))


def naturals_truncated(n: int = 5) -> FiniteGame:
    """Two players pick a number in 0..n and are paid their own pick."""
    if n < 1:
        raise InputError("need at least the numbers 0 and 1")
    labels = [[str(v) for v in range(n + 1)]] * 2

    def pay(profile: JointProfile) -> tuple[int, int]:
        return (profile[0], profile[1])

    return FiniteGame.from_function(labels, pay)


def chase_3p(n: int = 6) -> FiniteGame:
    """Three players over 0..n: player 1 is paid for landing one above player
    2's pick, player 2 for matching player 1, player 3 is always paid zero."""
    if n < 2:
        raise InputError("chase game needs at least 0..2")
    labels = [[str(v) for v in range(n + 1)]] * 3

    def pay(profile: JointProfile) -> tuple[int, int, int]:
        k, l, _ = profile
        return (k if k == l + 1 else 0, k if k == l else 0, 0)

    return FiniteGame.from_function(labels, pay)


def random_game(
    players: int,
    sizes: Sequence[int],
    payoff_bound: int,
    seed: int,
) -> FiniteGame:
    """Seeded game with integer payoffs uniform in [-payoff_bound, payoff_bound].

    Payoffs are drawn in row-major profile order, players in order within each
    profile, so the same seed always reproduces the same tensor.
    """
    if players < 1 or len(sizes) != players:
        raise InputError("sizes must list one entry per player")
    if any(s < 1 for s in sizes):
        raise InputError("every player needs at least one strategy")
    rng = random.Random(seed)
    labels = [[f"s{k + 1}" for k in range(size)] for size in sizes]

    def pay(profile: JointProfile) -> tuple[int, ...]:
        return tuple(rng.randint(-payoff_bound, payoff_bound) for _ in range(players))

    return FiniteGame.from_function(labels, pay)


_NATURALS_NOTE = (
    "Deviation from the unbounded original: truncating at N leaves a largest "
    "number that is a dominant best response, so elimination stops at "
    "({N},{N}); with unbounded numbers nothing is ever a best response and "
    "the game reduces to the empty game."
)

_CHASE_NOTE = (
    "Deviation from the unbounded original: at the cap N the successor payoff "
    "cannot be realized, so every strategy ties as a best response to the "
    "belief pairing the cap with anything, and the truncated game is already "
    "a fixed point; the unbounded original cascades through infinitely many "
    "alternating rounds."
)

_BERTRAND_NOTE = (
    "Deviation from the continuous price interval (0,100]: on the integer "
    "grid the one-cent undercut bottoms out at price 1, so iterated "
    "elimination terminates at ({1},{1}), a pure equilibrium of the grid "
    "game.  The continuous game instead reduces to the empty game, and its "
    "remove-everything-at-once variant gets stuck at ({50},{50})."
)

_HOTELLING_NOTE = (
    "Deviation from the continuous interval (0,100): positions are the "
    "integers 1..99.  The outcome ({50},{50}) agrees with the continuous "
    "reduction target, and on the grid all three reduction relations reach "
    "it, whereas in the continuous game the target-referenced variant yields "
    "no reduction at all."
)

CATALOG: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in (
        CatalogEntry(
            "gap3x2",
            "3x2 game separating the three reduction relations",
            None,
            gap_3x2,
        ),
        CatalogEntry(
            "bertrand100",
            "price competition, integer prices 1..100, demand 100-p, tie splits",
            _BERTRAND_NOTE,
            lambda: bertrand_grid(100),
        ),
        CatalogEntry(
            "hotelling99",
            "location choice on integer positions 1..99 of a 100-unit street",
            _HOTELLING_NOTE,
            lambda: hotelling_grid(99),
        ),
        CatalogEntry(
            "naturals5",
            "both players paid their own pick from 0..5",
            _NATURALS_NOTE,
            lambda: naturals_truncated(5),
        ),
        CatalogEntry(
            "chase3p6",
            "player 1 chases player 2's pick plus one over 0..6; player 3 inert",
            _CHASE_NOTE,
            lambda: chase_3p(6),
        ),
    )
}


def catalog_names() -> list[str]:
    return sorted(CATALOG)


def catalog_entry(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise InputError(f"unknown catalog game {name!r}") from None
