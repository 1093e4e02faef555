"""Optimal Nash equilibria of finite normal form games.

The solver enumerates candidate supports (one non-empty action subset per
player), filters them with sound dominance arguments, and solves the
remaining ones: a profile with support B is a Nash equilibrium iff every
in-support action of a player yields the same utility against the others
and no out-of-support action yields more. Among all equilibria found, the
one maximising the sum of utilities (social welfare) is returned; the
social-cost variant negates the game first.

A support with one or two mixers (players who mix) is decided by linear
algebra and at most one LP, unless neither mixer's indifference pins the
other's block (`_solve_pinned`). Supports that neither it nor a closed
form decides first meet a linear relaxation: one LP over distributions
on the support's cells, which every equilibrium with that support
satisfies. An infeasible relaxation proves the support has no
equilibrium, and its optimum bounds the support's welfare. A two-player
support that survives is solved exactly at the vertices of its
equilibrium polytopes. Any other is decided on the product of
probability simplices by a best-first corner search (an exclusion
method: Berg and Sandholm, AAAI 2017), which returns the support's
welfare-optimal equilibrium up to RELAXATION_MARGIN, or proves that none
beats the running bar. Only its box cap, or a failed LP (see below),
leaves a support "inconclusive".

Each mixed support's conditions are built once, in the `_SupportSystem`
that `solve_support` hands to every solver family: one condition tensor
over the support's cells holds every indifference gap (pivot minus
in-support action), then every deviation gain (outside action minus
pivot), player by player, and last the welfare. The relaxation's rows,
the two-player polytopes, the three-binary closed form, the pinned LP and
the corner search's root box all read it.

Both linear programs, the relaxation and the pinned LP, go to HiGHS
through scipy's bundled bindings (`scipy.optimize._highspy`), by way of
`_solve_lp`, rather than through `scipy.optimize.linprog`: on programs this
small, `linprog`'s wrapper takes several times as long as HiGHS's solve.
`_solve_lp` hands HiGHS the model and options `linprog(method="highs")`
would, so the results are the same bits, and it keeps `linprog`'s recheck
of an optimal point. One HiGHS solver, given those options once, runs
every LP: each program is passed as plain arrays after the solver drops
the last one's state. The bindings load and the solver is made on the
first LP (`_lp_solver`): importing `scipy.optimize` is most of a fresh
process's start, and a process that solves no LP never pays for it.
Only a HiGHS proof of infeasibility refutes a support. Any other failure,
including an optimal point that fails the recheck, proves nothing: the
relaxation then bounds nothing (+inf) and the pinned LP leaves its
support "inconclusive".

The search is one pass over the supports in canonical order, pure ones
first. It keeps a running bar, the best welfare of the candidates found
so far, and a mixed support meets the cheap sound skips before any
solving: its cell-welfare bound against the bar, presolve's dominance
test, mixed dominance (some player's conditions refuted by a mix of two
of them), closed-form refutation (two or three players mixing over two
actions each, whose closed-form points all clearly fail), then (for
supports the pinned LP and closed forms leave) the relaxation bound
against the bar. A skipped support's candidate could neither be the
maximum nor precede the earlier one among ties, and a refuted support
has none. The pure equilibria, the cell-welfare bounds, the presolve
verdicts and both kinds of refutation are decided for every support of a
game at once, in array passes over the support grid laid out per shape
(`_SupportLayout`).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .games import MixedProfile, NormalFormGame

Joint = tuple[int, ...]


class NoEquilibriumError(RuntimeError):
    """The solver found no equilibrium candidate.

    Every finite game has a Nash equilibrium, so this signals a solver
    failure, never a property of the game itself.
    """


# Feasibility applies to utilities normalised to [0, 1]; the welfare
# tolerance is the tie window for comparing candidate welfare in original
# units; the least support probability realises the strict positivity of
# in-support probabilities, and a point is accepted down to ACCEPT_FLOOR.
# The corner search evaluates at most MAX_BOXES boxes, polishes a box once
# its longest edge is at most POLISH_WIDTH, and again each time the edge
# has shrunk POLISH_STEP-fold.
FEASIBILITY_TOL = 1e-8
WELFARE_TOL = 1e-6
MIN_SUPPORT_PROB = 1e-6
ACCEPT_FLOOR = MIN_SUPPORT_PROB - 1e-12
MAX_BOXES = 20000
POLISH_WIDTH = 1e-2
POLISH_STEP = 16.0
# A relaxation bound is trusted up to this margin, in normalised welfare:
# ten times HiGHS's default feasibility and optimality tolerances.
RELAXATION_MARGIN = 1e-6

# `linprog`'s recheck of an optimal point: sqrt(tol) * 10 at its tol = 1e-9.
_LP_RECHECK_TOL = float(np.sqrt(1e-9) * 10)
# What a mix of a player's condition rows must exceed on every cell to
# refute a support (`_mixed_refuted`): the band plus a margin. A point an
# LP takes lies within HiGHS's primal feasibility tolerance (1e-7) of
# every row, bound and the sum; a row is a difference of normalised
# utilities, at most 1 in size, so over C cells the mix there exceeds the
# band plus 1e-7 while the margin exceeds (C + 1) * 1e-7. This margin
# leaves HiGHS no room on supports of up to 3,000 cells.
_REFUTE_MARGIN = _LP_RECHECK_TOL
_REFUTE_LEVEL = FEASIBILITY_TOL + _REFUTE_MARGIN
# `_binary_refuted` leaves a support to `solve_support` where a closed
# form's divisor is near zero, in normalised utilities. A 2x2 pin whose
# gaps differ by delta has an lstsq residual of up to about 1e-15 / delta,
# which meets `_pinned_block`'s 1e-9 check near delta = 1e-6: _PIN_TOL
# leaves a factor of 100. The three-binary closed form is repeated to the
# bit, and its degeneracy tests are at 1e-12 (relative to the quadratic's
# scale for its leading coefficient): _DEGENERATE_TOL leaves a factor of
# 1,000, and rounding is far below both.
_PIN_TOL = 1e-4
_DEGENERATE_TOL = 1e-9
# How far a closed-form point must miss `accept`'s probability interval or
# its band on a gain for `_binary_refuted` to count it as failed. Beyond
# _PIN_TOL a pinned point of lstsq's lies within about 3e-12 of the closed
# form's in [-1, 2], and the three-binary points are the same bits.
_CLOSED_FORM_MARGIN = 1e-9


@dataclass(frozen=True)
class Support:
    """A candidate support: one non-empty, sorted action subset per player."""

    sets: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.sets)

    @property
    def is_pure(self) -> bool:
        return all(len(s) == 1 for s in self.sets)

    def masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << a for a in s) for s in self.sets)


@dataclass
class EquilibriumCandidate:
    profile: MixedProfile
    values: np.ndarray
    welfare: float
    support: Support
    support_index: int = -1


@dataclass
class Removal:
    """One action removed by iterated strict dominance, and the action
    that beat it. Rounds run player by player: in a round, each player in
    turn loses the actions dominated against what the others have left,
    so a removal is seen by the later players in the same round."""

    player: int
    action: int
    dominated_by: int
    round: int


@dataclass
class EquilibriumResult:
    values: np.ndarray
    profile: MixedProfile
    welfare: float
    support: Support
    regrets: np.ndarray
    removals: list[Removal]
    candidates: int
    pruned: int
    inconclusive: int


# ---------------------------------------------------------------------------
# Expected utilities and regret


def _contract_tensor(u: np.ndarray, probs: Sequence[np.ndarray], keep=()):
    """Contract all axes of `u` except those listed in `keep`.

    Kept axes stay in their original relative order. Walking axes from the
    last to the first keeps earlier axis numbers valid as axes disappear.
    `@` contracts the last axis, so an axis is moved last only when a kept
    axis still sits after it.
    """
    res = u
    for axis in range(len(probs) - 1, -1, -1):
        if axis in keep:
            continue
        if res.ndim - 1 != axis:
            res = res.transpose(*range(axis), *range(axis + 1, res.ndim), axis)
        res = res @ probs[axis]
    return res


def expected_utility(game: NormalFormGame, profile: MixedProfile, player: int) -> float:
    """Expected utility of a player under a mixed profile: the utility of
    every joint action weighted by the product of the players' choice
    probabilities."""
    u = game.float_utilities()[..., player]
    return float(_contract_tensor(u, profile.probs))


def switch_values(game: NormalFormGame, profile: MixedProfile, player: int) -> np.ndarray:
    """Utility of each pure deviation of `player` with the others fixed."""
    u = game.float_utilities()[..., player]
    return np.asarray(_contract_tensor(u, profile.probs, keep=(player,)), dtype=np.float64)

def regret(game: NormalFormGame, profile: MixedProfile, player: int) -> float:
    """Best unilateral improvement available to `player`; zero at equilibrium.

    Best responses against fixed opponents are attained at pure actions
    because the expected utility is linear in the player's own strategy.
    """
    vec = switch_values(game, profile, player)
    return float(vec.max() - float(np.dot(vec, profile.probs[player])))


def _pure_values(game: NormalFormGame, joint: Joint) -> np.ndarray:
    """Expected utilities of the pure profile `joint`, read off the float
    table: the numbers a contraction gives, without one. Adding 0.0 turns
    a stored -0.0 into the 0.0 a contraction returns."""
    return game.float_utilities()[joint] + 0.0


def _pure_regrets(game: NormalFormGame, joint: Joint) -> np.ndarray:
    """Regret of every player at the pure profile `joint`: its best switch
    value along its own axis minus the value of its own action."""
    floats = game.float_utilities()
    regrets = np.zeros(game.n_players)
    for i in range(game.n_players):
        switch = floats[joint[:i] + (slice(None),) + joint[i + 1 :] + (i,)]
        regrets[i] = switch.max() - floats[joint + (i,)]
    return regrets


# ---------------------------------------------------------------------------
# Stage blocks and iterated dominance


@dataclass
class StageBlock:
    """Every stage of one level as one padded block, for the pure-answer
    pass (`pure_answer_picks`); one game is a level of one node
    (`_game_block`). `nodes` are the level's nodes that have rows, in
    order. Node q's rows are its stage's cells in C order; `rows[q]` lists
    them, padded to the level's largest cell count K by repeating the last.
    `deviations[q, k, i]` lists the cells that differ from cell k in
    coalition i's action alone, cell k included, padded to the level's
    largest action count by repeating the last; a padding cell has the
    deviations of the cell it repeats. Each is given as the flat index of
    coalition i's utility at that cell in the (N, K, coalitions) block of
    the rows' utilities, so that one `take` gathers them all.
    `actions[q, k, i]` is coalition i's own action in cell k, for iterated
    dominance. `single` marks the nodes where at most one coalition has
    more than one action, and `two_binary` those where exactly two have
    two and every other has one. Nodes and rows count from the level's
    first."""

    nodes: np.ndarray  # (N,)
    rows: np.ndarray  # (N, K)
    deviations: np.ndarray  # (N, K, coalitions, A) flat (N, K, coalitions) indices
    actions: np.ndarray  # (N, K, coalitions)
    single: np.ndarray  # (N,) bool
    two_binary: np.ndarray  # (N,) bool


def stage_block(start: np.ndarray, shapes: np.ndarray) -> StageBlock:
    """The `StageBlock` of one level's nodes, given their stage shapes
    (nodes, coalitions) and row bounds `start` (nodes + 1), both counted
    from the level's first."""
    sizes = np.diff(start)
    nodes = np.flatnonzero(sizes)
    sizes, shapes = sizes[nodes], shapes[nodes]
    n, coalitions = shapes.shape
    cells = np.minimum(np.arange(sizes.max(initial=1)), sizes[:, None] - 1)
    # C-order strides: coalition i's action moves a cell by the product of
    # the later coalitions' action counts.
    stride = np.ones_like(shapes)
    for i in range(coalitions - 2, -1, -1):
        stride[:, i] = stride[:, i + 1] * shapes[:, i + 1]
    # Per (node, cell, coalition): the coalition's own action in the cell.
    # Per (node, cell, coalition, a): the cell with the coalition's action
    # set to a, then the flat index of the coalition's utility there.
    cell = cells[:, :, None]
    count, stride = shapes[:, None, :], stride[:, None, :]
    own = cell // stride % count
    action = np.minimum(np.arange(shapes.max(initial=1)), count[..., None] - 1)
    deviation = cell[..., None] + (action - own[..., None]) * stride[..., None]
    deviation += np.arange(n)[:, None, None, None] * cells.shape[1]
    return StageBlock(
        nodes=nodes,
        rows=start[nodes, None] + cells,
        deviations=deviation * coalitions + np.arange(coalitions)[:, None],
        actions=own,
        single=(shapes > 1).sum(axis=1) <= 1,
        two_binary=((shapes > 1).sum(axis=1) == 2) & (shapes <= 2).all(axis=1),
    )


@functools.cache
def _game_block(shape: tuple[int, ...]) -> StageBlock:
    """The block of one game of `shape`, for `filter_dominated`, built on
    its first use and kept: every game of the shape reads it, so no caller
    may write."""
    block = stage_block(np.array([0, math.prod(shape)]), np.array([shape]))
    for array in vars(block).values():
        array.setflags(write=False)
    return block


def undominated_cells(
    reply: np.ndarray, actions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Iterated strict dominance on M games at once. Per game, cell and
    player, `reply` (M, K, players, A) holds the player's utility when it
    switches the cell's action to each of its actions, padded by repeating
    the last, and `actions` (M, K, players) its own action in the cell:
    the arrays a `StageBlock` gives, over any of its games. Returns None
    when no action is dominated, else the mask (M, K) of the cells whose
    actions all survive, and per action (M, players, A) the round that
    removes it (0 for a survivor) and the action that removes it.

    Rounds run player by player until one removes nothing (see
    `Removal`). Player i's step removes every live action that another
    live action of its beats against every live choice of the others,
    compared exactly (`>`), each by the first live action that beats it
    and was not removed earlier in the step, as removal one action at a
    time in action order finds it (one remains, as `>` is transitive). A
    test decides every player's step against the live actions, so it
    holds for the players in turn until one removes an action. The first,
    with every action live, is the early exit. A padding action has its
    original's utilities and comes after it, so it is removed in the same
    step and removes no real action."""
    # beats[g, k, i, b, w]: b gives player i more than w against cell k's
    # other actions; dominates[g, i, b, w]: against all live ones.
    beats = reply[..., :, None] > reply[..., None, :]
    dominates = beats.all(axis=1)
    removed = dominates.any(axis=-2)
    if not removed.any():
        return None
    n_games, _cells, players, n_actions = reply.shape
    games = np.arange(n_games)[:, None]
    alive = np.ones(removed.shape, dtype=bool)
    # dead[g, k, j]: player j's own action in cell k is removed.
    dead = np.zeros(actions.shape, dtype=bool)
    rounds = np.zeros(removed.shape, dtype=np.int64)
    by = np.zeros(removed.shape, dtype=np.int64)
    before = np.arange(n_actions)[:, None] < np.arange(n_actions)
    step = 0  # player i's step in round r is step (r - 1) * players + i
    while True:
        losing = removed.any(axis=(0, 2)).tolist()
        if not any(losing):
            return ~dead.any(axis=-1), rounds, by
        while not losing[step % players]:
            step += 1
        i = step % players
        gone = removed[:, i]
        first = (dominates[:, i] > (gone[:, :, None] & before)).argmax(axis=1)
        np.copyto(rounds[:, i], step // players + 1, where=gone)
        np.copyto(by[:, i], first, where=gone)
        alive[:, i] ^= gone
        dead[..., i] |= gone[games, actions[..., i]]
        step += 1
        # Cells where some other player's action is dead test nothing.
        count = dead.sum(axis=-1, keepdims=True)
        tested = beats | (count > dead)[..., None, None]
        dominates = tested.all(axis=1) & alive[..., :, None]
        removed = dominates.any(axis=-2) & alive


def filter_dominated(
    game: NormalFormGame,
) -> tuple[NormalFormGame, list[list[int]], list[Removal]]:
    """Iterated removal of strictly dominated pure actions, compared
    exactly on the stored utilities: `undominated_cells` on the game's
    block.

    Returns the reduced game, the surviving original action indices per
    player, and the removal log in elimination order: by round, then
    player, then action. Removal can never empty an action set: a
    dominated action implies a surviving dominator.
    """
    block = _game_block(game.shape)
    out = undominated_cells(game.utilities.reshape(-1)[block.deviations], block.actions)
    if out is None:
        return game, [list(range(c)) for c in game.shape], []
    _cells, (rounds,), (by,) = out
    rounds, by = rounds.tolist(), by.tolist()
    removed = [(i, a) for i, c in enumerate(game.shape) for a in range(c) if rounds[i][a]]
    removals = [Removal(i, a, by[i][a], rounds[i][a]) for i, a in removed]
    removals.sort(key=lambda r: r.round)
    kept = [[a for a in range(c) if not rounds[i][a]] for i, c in enumerate(game.shape)]
    names = [tuple(game.action_names[i][a] for a in k) for i, k in enumerate(kept)]
    return NormalFormGame(names, game.utilities[np.ix_(*kept)]), kept, removals


# ---------------------------------------------------------------------------
# Support enumeration and presolve


def support_count(shape: Sequence[int]) -> int:
    total = 1
    for c in shape:
        total *= (1 << c) - 1
    return total


@dataclass(frozen=True)
class _SupportLayout:
    """Everything about the supports of one shape that no utility enters.

    Player i's subsets are its non-empty action sets, subset k being
    bitmask k + 1; `member[i]` (subsets, actions) marks their actions,
    `padded[i]` (subsets, actions) lists them, padded by repeating the
    first, and `pairs[i]` (subsets, actions * actions) marks their ordered
    pairs of distinct actions. `others[i]` (cells, combinations) marks, in
    C order over the other players, which of their cells lie in which
    combination of their subsets. The supports form a grid, one axis per
    player indexing its subsets; `order` lists the grid's C-order
    positions in canonical order and `combos` (supports, players) their
    subset indices.

    For `_mixed_refuted`, per player with at least three actions (empty
    for the others): its condition rows are the differences u_a - u_b of
    two distinct actions, in lexicographic order of (a, b), and
    `row_pairs[i]` (4, row pairs) lists each pair of rows as (a, b) of
    the first and (a, b) of the second. `row_valid[i]` (subsets, row
    pairs) marks, as 1.0, the pairs whose rows are both conditions of a
    subset with pivot p, its first action: a - p for a != p, and p - b
    for b != p in the subset. `cell_pairs[i]` (2, cell pairs) lists each
    pair of the others' cells, a cell with itself included, and
    `pair_within[i]` (cell pairs, combinations) marks, as 1.0, the pairs
    whose two cells lie in the combination.

    For `_binary_refuted`, `binary` holds the `_BinaryBlocks` of the
    supports on which exactly two players mix, then of those on which
    exactly three do, over two actions each, every other player keeping
    one.
    """

    subsets: tuple[tuple[tuple[int, ...], ...], ...]
    member: tuple[np.ndarray, ...]
    padded: tuple[np.ndarray, ...]
    pairs: tuple[np.ndarray, ...]
    others: tuple[np.ndarray, ...]
    order: np.ndarray
    combos: np.ndarray
    row_pairs: tuple[np.ndarray, ...]
    row_valid: tuple[np.ndarray, ...]
    cell_pairs: tuple[np.ndarray, ...]
    pair_within: tuple[np.ndarray, ...]
    binary: tuple[_BinaryBlocks, ...]

    def __post_init__(self):
        # One layout serves every game of its shape: no caller may write.
        fields = (
            self.member, self.padded, self.pairs, self.others,
            self.row_pairs, self.row_valid, self.cell_pairs, self.pair_within,
            *(vars(blocks).values() for blocks in self.binary),
        )
        for array in (self.order, self.combos, *itertools.chain(*fields)):
            array.setflags(write=False)

    def support(self, position: int) -> Support:
        """The support at `position` in canonical order."""
        ks = self.combos[position].tolist()
        return Support(tuple(subsets[k] for subsets, k in zip(self.subsets, ks)))


@dataclass(frozen=True)
class _BinaryBlocks:
    """The supports of one shape on which k players (the mixers) keep two
    actions each and every other player one, as S rows. A mixer's picks
    are 0, its first support action (its pivot), and 1, its second; a
    support's block is its 2 ** k cells, one per choice of picks, in C
    order. Every index is the flat index of one player's utility at one
    cell of the (cells, players) table. `positions` (S,) are the
    supports' C-order positions in the support grid. `gaps` (2, S, k,
    2 ** (k - 1)) gives each mixer's utility at its pivot, then at its
    second action, against the other mixers' picks in C order.
    `deviations` (S, players, A, 2 ** k) gives each player's utility
    over the block with its action switched to each action outside its
    support, padded to the largest action count A; a support action or a
    padding one takes the player's pivot, as every action in `pivots`
    (S, players, 1, 2 ** k) does."""

    positions: np.ndarray
    gaps: np.ndarray
    deviations: np.ndarray
    pivots: np.ndarray


def _binary_blocks(shape: tuple[int, ...], subsets, grid, k: int) -> _BinaryBlocks:
    """The `_BinaryBlocks` of the supports with k mixers, given each
    player's subsets and every support's subset indices in C-order grid
    position."""
    n, width = len(shape), max(shape)
    strides = [math.prod(shape[p + 1 :]) for p in range(n)]

    def flat(joint, player, action):
        cell = sum(a * t for a, t in zip(joint, strides))
        return (cell + (action - joint[player]) * strides[player]) * n + player

    def cell(sets, mixers, picks):
        joint = [s[0] for s in sets]
        for m, r in zip(mixers, picks):
            joint[m] = sets[m][r]
        return joint

    positions, gaps, deviations, pivots = [], [], [], []
    for position, combo in enumerate(grid):
        sets = [subs[q] for subs, q in zip(subsets, combo)]
        sizes = [len(s) for s in sets]
        if sizes.count(2) != k or sizes.count(1) != n - k:
            continue
        mixers = [p for p, size in enumerate(sizes) if size == 2]
        block = [cell(sets, mixers, picks) for picks in itertools.product((0, 1), repeat=k)]
        positions.append(position)
        gaps.append([
            [
                [flat(j, m, sets[m][pick]) for j in block if j[m] == sets[m][0]]
                for m in mixers
            ]
            for pick in (0, 1)
        ])
        pivots.append([[[flat(j, p, s[0]) for j in block]] for p, s in enumerate(sets)])
        deviations.append([
            [
                [flat(j, p, a if a < c and a not in s else s[0]) for j in block]
                for a in range(width)
            ]
            for p, (c, s) in enumerate(zip(shape, sets))
        ])
    cells = 1 << k
    return _BinaryBlocks(
        positions=np.array(positions, dtype=np.intp),
        gaps=np.array(gaps, dtype=np.intp).reshape(-1, 2, k, cells // 2).swapaxes(0, 1),
        deviations=np.array(deviations, dtype=np.intp).reshape(-1, n, width, cells),
        pivots=np.array(pivots, dtype=np.intp).reshape(-1, n, 1, cells),
    )


@functools.cache
def _support_layout(shape: tuple[int, ...]) -> _SupportLayout:
    """The layout of `shape`, built on its first use and kept."""
    subsets = tuple(
        tuple(tuple(a for a in range(c) if mask >> a & 1) for mask in range(1, 1 << c))
        for c in shape
    )
    member = tuple(
        np.array([[a in s for a in range(c)] for s in subs]) for c, subs in zip(shape, subsets)
    )
    # Ascending total size, then lexicographic bitmasks, which subset
    # indices order as their masks do; the grid lists them in C order.
    grid = list(itertools.product(*(range(len(subs)) for subs in subsets)))
    order = sorted(
        range(len(grid)),
        key=lambda f: (sum(len(subs[k]) for subs, k in zip(subsets, grid[f])), grid[f]),
    )
    others = []
    for i in range(len(shape)):
        cells = np.ones((1, 1), dtype=bool)
        for j, m in enumerate(member):
            if j != i:
                cells = cells[:, None, :, None] & m.T[None, :, None, :]
                cells = cells.reshape(cells.shape[0] * cells.shape[1], -1)
        others.append(cells)
    row_pairs, row_valid, cell_pairs, pair_within = [], [], [], []
    for c, subs, cells in zip(shape, subsets, others):
        rows = [(a, b) for a in range(c) for b in range(c) if a != b] if c > 2 else []
        rows = np.array(rows, dtype=np.intp).reshape(-1, 2)
        firsts, seconds = np.triu_indices(len(rows), 1)
        valid = np.array(
            [[b == s[0] or (a == s[0] and b in s) for a, b in rows.tolist()] for s in subs],
            dtype=bool,
        ).reshape(len(subs), -1)
        row_pairs.append(np.concatenate((rows[firsts], rows[seconds]), axis=1).T)
        row_valid.append((valid[:, firsts] & valid[:, seconds]).astype(np.float64))
        ends = np.array(np.triu_indices(len(cells) if c > 2 else 0))
        cell_pairs.append(ends)
        pair_within.append((cells[ends[0]] & cells[ends[1]]).astype(np.float64))
    return _SupportLayout(
        subsets=subsets,
        member=member,
        padded=tuple(
            np.array([s + s[:1] * (c - len(s)) for s in subs]) for c, subs in zip(shape, subsets)
        ),
        pairs=tuple(
            (m[:, :, None] & m[:, None, :] & ~np.eye(len(m.T), dtype=bool)).reshape(len(m), -1)
            for m in member
        ),
        others=tuple(others),
        order=np.array(order),
        combos=np.array([grid[f] for f in order]),
        row_pairs=tuple(row_pairs),
        row_valid=tuple(row_valid),
        cell_pairs=tuple(cell_pairs),
        pair_within=tuple(pair_within),
        binary=tuple(_binary_blocks(shape, subsets, grid, k) for k in (2, 3)),
    )


def enumerate_supports(game: NormalFormGame | Sequence[int]) -> list[Support]:
    """All supports in canonical order: ascending total size, then
    lexicographic per-player bitmasks, so pure supports come first and
    run in C order over the cells."""
    shape = game.shape if isinstance(game, NormalFormGame) else tuple(game)
    layout = _support_layout(shape)
    return [layout.support(k) for k in range(len(layout.order))]


def _pure_cells(game: NormalFormGame) -> np.ndarray:
    """Which cells are pure equilibria, as a mask of the game's shape: no
    player's own action is beaten by its best along its own axis. It
    compares the stored utilities, so rational inputs are exact."""
    table = game.utilities
    pure = np.ones(game.shape, dtype=bool)
    for i, c in enumerate(game.shape):
        if c > 1:
            own = table[..., i]
            pure &= ~(own.max(axis=i, keepdims=True) > own)
    return pure


def _welfare_bounds(game: NormalFormGame, layout: _SupportLayout) -> np.ndarray:
    """The best cell welfare of every support, over the support grid, one
    player's axis at a time: the axis's actions become the maxima over
    each of its subsets. Expected welfare under a profile is a convex
    combination of its support's cell welfares, so none exceeds this."""
    bounds = game.float_utilities().sum(axis=-1)
    for axis, padded in enumerate(layout.padded):
        if len(padded) > 1:
            split = bounds.shape[:axis] + padded.shape + bounds.shape[axis + 1 :]
            bounds = bounds.take(padded.ravel(), axis=axis).reshape(split).max(axis=axis + 1)
    return bounds


def _presolve_keep(game: NormalFormGame, layout: _SupportLayout) -> np.ndarray:
    """Presolve's verdict on every support, over the support grid: False
    where some player's conditions cannot hold on the others' support
    cells (see `presolve_support`); pure supports are kept."""
    table = game.utilities
    grid = tuple(len(m) for m in layout.member)
    refuted = np.zeros(grid, dtype=bool)
    for i, c in enumerate(game.shape):
        if c == 1:
            continue
        # Player i's axis first, the others in order, and back.
        first = (i, *range(i), *range(i + 1, len(grid)))
        back = (*range(1, i + 1), 0, *range(i + 1, len(grid)))
        own = table[..., i].transpose(first).reshape(c, -1)
        # undominated[b, w, k]: b fails to give more than w somewhere on
        # the others' k-th combination of subsets.
        fails = ~(own[:, None] > own[None, :]).reshape(c * c, -1)
        undominated = np.matmul(fails, layout.others[i]).reshape(c, c, -1)
        # Two support actions, one beating the other, or an outside action
        # beating every support action: either rules the support out.
        inside = np.matmul(layout.pairs[i], ~undominated.reshape(c * c, -1))
        escapes = np.matmul(layout.member[i], undominated)
        outside = (~escapes & ~layout.member[i].T[:, :, None]).any(axis=0)
        refuted |= (inside | outside).reshape([grid[k] for k in first]).transpose(back)
    keep = ~refuted
    keep.flat[layout.order[: math.prod(game.shape)]] = True
    return keep


def _mixed_refuted(game: NormalFormGame, layout: _SupportLayout) -> np.ndarray:
    """Which supports some player's own conditions refute by a mix of two
    of them, over the support grid.

    On a support, player i's conditions ask that each of its condition
    rows (a - p for every action a != p, and p - b for every support
    action b != p, p being its pivot, in normalised utilities) be at most
    FEASIBILITY_TOL against the others' distribution over their support
    cells. If a convex mix of rows exceeds _REFUTE_LEVEL on every one of
    those cells, the same mix of the conditions exceeds it against every
    distribution there, so no point `accept` could take exists, nor any
    that `relaxation_bound`'s or `_solve_pinned`'s rows admit: a Farkas
    certificate, or conditional dominance by a mixed strategy. The pass
    tries every pair of rows, as a mix alpha * first + (1 - alpha) *
    second. On each cell the alphas in [0, 1] that beat the level form an
    interval, so some alpha beats it on all of a combination's cells
    exactly when the intervals of every pair of them meet (Helly's theorem
    in one dimension): one table over row pairs and cell pairs, then a
    matmul with the cell pairs' membership in each combination and one
    with each subset's valid row pairs. A player with two actions is
    skipped: its rows are +-(u_0 - u_1), so a mix is one row scaled down,
    and presolve's pure dominance decides more."""
    norm = game.normalised_utilities()
    grid = tuple(len(m) for m in layout.member)
    refuted = np.zeros(grid, dtype=bool)
    for i, c in enumerate(game.shape):
        if c < 3:
            continue
        # Player i's axis first, the others in order, and back.
        first = (i, *range(i), *range(i + 1, len(grid)))
        back = (*range(1, i + 1), 0, *range(i + 1, len(grid)))
        own = norm[..., i].transpose(first).reshape(c, -1)
        a1, b1, a2, b2 = own[layout.row_pairs[i]]
        # (row pairs, cells): the mix's value at alpha = 0, its slope in
        # alpha, and the alpha where it meets the level.
        base = a2 - b2
        slope = (a1 - b1) - base
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cut = (_REFUTE_LEVEL - base) / slope
        lo = np.where(slope > 0.0, cut, -np.inf)
        lo[(slope == 0.0) & ~(base > _REFUTE_LEVEL)] = np.inf
        hi = np.where(slope < 0.0, cut, np.inf)
        ends = layout.cell_pairs[i]
        lower = np.maximum(lo[:, ends[0]], lo[:, ends[1]]).clip(min=0.0)
        upper = np.minimum(hi[:, ends[0]], hi[:, ends[1]]).clip(max=1.0)
        # Row pairs with no failing cell pair in a combination refute it.
        failing = np.matmul(~(lower < upper), layout.pair_within[i])
        hits = np.matmul(layout.row_valid[i], failing == 0.0)
        refuted |= (hits > 0.0).reshape([grid[k] for k in first]).transpose(back)
    return refuted


def _two_binary_points(gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The point `_pinned_block` pins on each of S two-binary supports,
    from each mixer's gaps (pivot minus second action) `gaps` (S, 2, 2)
    against the other's pivot and second action: gaps g_a and g_b put
    g_b / (g_b - g_a) on the other's pivot. Returns the points (S, 1, 2)
    as pivot probabilities and the supports (S,) deferred because a gap
    difference is at most _PIN_TOL."""
    g_a, g_b = gaps[..., 0], gaps[..., 1]
    points = (g_b / (g_b - g_a))[:, None, ::-1]
    return points, (np.abs(g_b - g_a) <= _PIN_TOL).any(axis=1)


def _three_binary_points(gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points `_solve_three_binary_mixers` tries on each of S
    three-binary supports, from each mixer's gaps `gaps` (S, 3, 4)
    against the other two mixers' picks, by its arithmetic to the bit:
    the coefficients of `_three_binary_coeffs`, `_chained_quadratic` and
    its two roots. Returns the points (S, 2, 3) as pivot probabilities,
    NaN where the discriminant is negative, and the supports (S,)
    deferred because the quadratic's leading coefficient or its
    discriminant is at most _DEGENERATE_TOL times its scale (squared for
    the discriminant), or a root's substitution denominator is at most
    _DEGENERATE_TOL. The arithmetic runs support by support on floats: a
    game has few such supports, and numpy's cost per call on a few
    numbers is several times the arithmetic's."""
    points, defer = [], []
    for at in gaps.tolist():
        coeffs = []
        for g in at:
            a = g[3]
            b = g[1] - a
            c = g[2] - a
            coeffs.append((a, b, c, g[0] - a - b - c))
        alpha0, alpha1, beta0, beta1, q2, q1, q0 = _chained_quadratic(*coeffs)
        ai, bi, ci, di = coeffs[0]
        scale = max(abs(q0), abs(q1), abs(q2), 1e-30)
        disc = q1 * q1 - 4.0 * q2 * q0
        stuck = abs(q2) <= _DEGENERATE_TOL * scale or abs(disc) <= _DEGENERATE_TOL * scale * scale
        roots = []
        if disc > 0.0 and not stuck:
            sq = math.sqrt(disc)
            for x_j in ((-q1 - sq) / (2 * q2), (-q1 + sq) / (2 * q2)):
                den_i = beta0 + beta1 * x_j
                den_k = ci + di * x_j
                if abs(den_i) <= _DEGENERATE_TOL or abs(den_k) <= _DEGENERATE_TOL:
                    stuck = True
                    break
                roots.append((-(alpha0 + alpha1 * x_j) / den_i, x_j, -(ai + bi * x_j) / den_k))
        points.append(roots if len(roots) == 2 else [(math.nan,) * 3] * 2)
        defer.append(stuck)
    return np.array(points).reshape(-1, 2, 3), np.array(defer, dtype=bool)


def _binary_refuted(game: NormalFormGame, layout: _SupportLayout) -> np.ndarray:
    """Which supports with two or three binary mixers (players keeping two
    actions each, every other player one) have no point `solve_support`
    could accept, by their closed forms, over the support grid.

    On such a support `solve_support` tries at most two points: with two
    mixers, each one's indifference pins the other's pivot probability
    (`_pinned_block`), and with three the chained quadratic of
    `_solve_three_binary_mixers` gives up to two roots. It calls the
    support "infeasible" when every point fails `accept`'s conditions: a
    probability outside [ACCEPT_FLOOR, 1 - ACCEPT_FLOOR], or some player's
    deviation gain above FEASIBILITY_TOL. The pass computes the points of
    every such support at once, with the same arithmetic, and refutes a
    support when every point misses that interval, or has a gain above
    that band, by more than _CLOSED_FORM_MARGIN; a quadratic without a
    real root (NaN points) refutes too. A gain at a point is the block's
    cell differences contracted with the mixers' probabilities, the last
    mixer's axis first, as `reference_binary_refuted` computes it to the
    bit. A support is left to `solve_support` wherever its path might not
    pin it or might call it degenerate: a gap difference, a leading
    coefficient, a discriminant or a substitution denominator near zero
    (`_two_binary_points`, `_three_binary_points`). So every support
    refuted here is one `solve_support` calls "infeasible"."""
    norm = game.normalised_utilities().reshape(-1)
    refuted = np.zeros([len(m) for m in layout.member], dtype=bool)
    low, high = ACCEPT_FLOOR - _CLOSED_FORM_MARGIN, 1.0 - ACCEPT_FLOOR + _CLOSED_FORM_MARGIN
    level = FEASIBILITY_TOL + _CLOSED_FORM_MARGIN
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for blocks, solve in zip(layout.binary, (_two_binary_points, _three_binary_points)):
            if not blocks.positions.size:
                continue
            points, defer = solve(norm[blocks.gaps[0]] - norm[blocks.gaps[1]])
            # gains[:, r, p, a]: player p's gain from action a at point r.
            mixers = points.shape[-1]
            gains = (norm[blocks.deviations] - norm[blocks.pivots])[:, None]
            gains = gains.reshape(gains.shape[:4] + (2,) * mixers)
            for t in range(mixers - 1, -1, -1):
                x = points[..., t].reshape(points.shape[:2] + (1,) * (t + 2))
                gains = x * gains[..., 0] + (1.0 - x) * gains[..., 1]
            # A point passes when it lies in the interval and no gain tops the band.
            inside = ((points >= low) & (points <= high)).all(axis=-1)
            passes = inside & ~(gains > level).any(axis=(-2, -1))
            refuted.flat[blocks.positions] = ~passes.any(axis=1) & ~defer
    return refuted


def check_pure_profile(game: NormalFormGame, joint: Joint) -> tuple[bool, tuple]:
    """Exact unilateral-deviation check for a pure profile, read off the
    game's pure-equilibrium mask (`_pure_cells`).

    Uses the stored utility values directly, so rational inputs are
    compared without rounding. Returns (is_equilibrium, utility vector).
    """
    joint = tuple(joint)
    return bool(_pure_cells(game)[joint]), game.utility_vector(joint)


def presolve_support(game: NormalFormGame, support: Support) -> bool:
    """Sound necessary-condition filter; returns True to keep the support.

    Prunes only when no equilibrium with this support can exist: either
    some in-support action is strictly dominated by another in-support
    action on the opponents' support cells (indifference is impossible),
    or some out-of-support action strictly dominates every in-support
    action there (the no-profitable-deviation condition is impossible).
    Pure supports are always kept; they are checked exactly elsewhere.
    The verdict is read off the game's table of every support's verdict
    (`_presolve_keep`).
    """
    if support.is_pure:
        return True
    keep = _presolve_keep(game, _support_layout(game.shape))
    return bool(keep[tuple(m - 1 for m in support.masks())])


# ---------------------------------------------------------------------------
# Per-support solving


@dataclass
class SupportSolution:
    status: str  # "candidate" | "infeasible" | "inconclusive" | "pruned"
    # Set for "candidate"; an "inconclusive" search keeps its best so far.
    candidate: EquilibriumCandidate | None = None


def _candidate_from_probs(
    game: NormalFormGame, support: Support, probs: Sequence[np.ndarray]
) -> EquilibriumCandidate:
    full = []
    for i, p in enumerate(probs):
        vec = np.zeros(game.shape[i])
        vec[list(support.sets[i])] = np.clip(p, 0.0, None)
        vec /= vec.sum()
        full.append(vec)
    profile = MixedProfile(full)
    values = np.array([expected_utility(game, profile, i) for i in range(game.n_players)])
    return EquilibriumCandidate(profile, values, float(values.sum()), support)


def _solve_pure(game: NormalFormGame, support: Support) -> SupportSolution:
    joint = tuple(s[0] for s in support.sets)
    ok, _values = check_pure_profile(game, joint)
    if not ok:
        return SupportSolution("infeasible")
    values = _pure_values(game, joint)
    profile = MixedProfile([np.eye(c)[a] for c, a in zip(game.shape, joint)])
    candidate = EquilibriumCandidate(profile, values, float(values.sum()), support)
    return SupportSolution("candidate", candidate)


def _restricted(norm: np.ndarray, support: Support, player: int) -> np.ndarray:
    """Player's normalised utilities over the support cells (own axis full)."""
    # Taking along each other axis copies, so the result is a view into a
    # C-contiguous (..., n) block, the layout `np.ix_` gives: the same
    # layout keeps the contractions' rounding.
    table = norm
    for axis, own in enumerate(support.sets):
        if axis != player:
            table = table.take(own, axis=axis)
    return table[..., player]


def _switch_on_support(
    table: np.ndarray, probs: Sequence[np.ndarray], axis: int
) -> np.ndarray:
    """Deviation utilities along `axis`, mixing the other axes with `probs`."""
    return np.asarray(_contract_tensor(table, probs, keep=(axis,)), dtype=np.float64)


def _cross_block(
    table: np.ndarray, probs: Sequence[np.ndarray], i: int, j: int
) -> np.ndarray:
    """d switch_i / d p_j: `table` contracted over every axis but i and j,
    as an (axis i) x (axis j) matrix."""
    mat = _contract_tensor(table, probs, keep=(i, j))
    return mat.T if j < i else mat


def _project_simplex(v: np.ndarray, lo: float) -> np.ndarray:
    """Euclidean projection onto {p : p >= lo, sum p = 1}."""
    k = v.size
    if k == 1:
        return np.array([1.0])
    # Blocks hold a handful of entries, so Python floats beat numpy calls
    # here; the arithmetic is the same as on arrays.
    mass = 1.0 - k * lo
    shifted = [x - lo for x in v.tolist()]
    css, rho, rho_css = 0.0, 0, 0.0
    for jj, u in enumerate(sorted(shifted, reverse=True)):
        css += u
        if jj == 0 or u + (mass - css) / (jj + 1) > 0:
            rho, rho_css = jj, css
    lam = (mass - rho_css) / (rho + 1)
    return np.array([max(x + lam, 0.0) + lo for x in shifted])


class _SupportSystem:
    """The equilibrium conditions of one support, in "support space": one
    probability block per player over its support actions, normalised
    utilities. Equality residuals are the pivot-vs-in-support indifference
    gaps; inequality residuals are the out-of-support deviation gains
    (violated when positive). `solve_support` builds one per mixed support.

    The constructor builds index lists only. Each player's restricted
    table (`table`), the welfare table and the condition tensor
    (`conditions`) are each built on first use, because most supports are
    decided by a family that reads only some of them. Supports that
    `_solve_pinned` decides at a unique point or by the free mixer's own
    conditions read tables only and never the tensor: building it would
    cost them more than their rows. A one-mixer support refuted by its
    mixer's own conditions reads only that mixer's table.

    Everything at a point derives from the cross blocks cross[i, j] =
    d switch_i / d p_j, an (A_i full) x (B_j support) matrix. Player i's
    switch values are multilinear in the other players' blocks, so
    switch_i = cross[i, j] @ p_j for any j != i, and the rows of the cross
    blocks give the Jacobian of the gaps and gains.
    """

    def __init__(self, game: NormalFormGame, support: Support):
        n = self.n = game.n_players
        self.game = game
        self.support = support
        self.sizes = [len(s) for s in support.sets]
        self.offsets = list(itertools.accumulate(self.sizes, initial=0))
        # eq_index[i] lists non-pivot in-support actions, ineq_index[i] the
        # out-of-support actions, both against pivot support.sets[i][0].
        self.pivots = [s[0] for s in support.sets]
        self.eq_index = [list(s[1:]) for s in support.sets]
        self.ineq_index = [
            [a for a in range(c) if a not in s] for c, s in zip(game.shape, support.sets)
        ]
        # Columns of the condition tensor: player i's gaps are
        # cols[i]:cols[i + 1], its gains cols[n + i]:cols[n + i + 1], and
        # the welfare is last, at cols[-1].
        counts = [len(eq) for eq in self.eq_index] + [len(o) for o in self.ineq_index]
        self.cols = list(itertools.accumulate(counts, initial=0))
        # Switch values go through the first other player: the axis that
        # _contract_tensor(keep=(i,)) would contract last.
        self.switch_pairs = [(i, 1 if i == 0 else 0) for i in range(n)]
        self.all_pairs = [(i, j) for i in range(n) for j in range(n) if j != i]
        self._tables: dict[int, np.ndarray] = {}

    def table(self, player: int) -> np.ndarray:
        """The player's restricted table, built on its first use."""
        table = self._tables.get(player)
        if table is None:
            norm = self.game.normalised_utilities()
            table = self._tables[player] = _restricted(norm, self.support, player)
        return table

    @functools.cached_property
    def welfare_table(self) -> np.ndarray:
        block = self.game.normalised_utilities()
        for axis, own in enumerate(self.support.sets):
            block = block.take(own, axis=axis)
        return block.sum(axis=-1)

    @functools.cached_property
    def conditions(self) -> np.ndarray:
        """The condition tensor F over the support cells, shape (*sizes,
        columns): F[..., f] for every indifference gap, then every
        deviation gain, player by player, and, last, the welfare, each a
        multilinear function of all blocks. A gap is pivot minus
        in-support action, a gain outside action minus pivot."""
        gaps, gains = [], []
        for i in range(self.n):
            table = self.table(i)
            pivot = table.take([self.pivots[i]], axis=i)
            gaps += [pivot - table.take([b], axis=i) for b in self.eq_index[i]]
            gains += [table.take([a], axis=i) - pivot for a in self.ineq_index[i]]
        # Player i's conditions depend on the others' blocks only, so each
        # has a length-one axis i; i's block sums to one, so spreading them
        # along that axis keeps their values.
        funcs = [np.broadcast_to(f, self.sizes) for f in gaps + gains]
        funcs.append(self.welfare_table)
        return np.stack(funcs, axis=-1)

    def max_violation(self, probs: Sequence[np.ndarray], players=None) -> float:
        """Largest condition violation of `players` (default all) at a point."""
        worst = 0.0
        for i in range(self.n) if players is None else players:
            vec = _switch_on_support(self.table(i), probs, i)
            pivot = vec[self.pivots[i]]
            gaps = pivot - vec[self.eq_index[i]]
            worst = max(worst, float(np.abs(gaps).max(initial=0.0)))
            worst = max(worst, float((vec[self.ineq_index[i]] - pivot).max(initial=0.0)))
        return worst

    def unpack(self, x: np.ndarray) -> list[np.ndarray]:
        return [x[a:b] for a, b in zip(self.offsets, self.offsets[1:])]

    def pack(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        return np.concatenate(blocks)

    def _cross(self, blocks, pairs) -> dict[tuple[int, int], np.ndarray]:
        return {
            (i, j): _cross_block(self.table(i), blocks, i, j) for i, j in pairs
        }

    def _switch(self, blocks, cross) -> list[np.ndarray]:
        return [cross[i, j] @ blocks[j] for i, j in self.switch_pairs]

    def _violations(self, vecs) -> tuple[np.ndarray, list[list[int]]]:
        """Every indifference gap, then every positive (violated) deviation
        gain, player by player, and per player the outside actions whose
        gains those are."""
        gaps = [vec[p] - vec[eq] for vec, p, eq in zip(vecs, self.pivots, self.eq_index)]
        gains, active = [], []
        for vec, p, out in zip(vecs, self.pivots, self.ineq_index):
            gain = vec[out] - vec[p]
            gains.append(gain[gain > 0])
            active.append([a for a, g in zip(out, gain) if g > 0])
        return np.concatenate(gaps + gains), active

    def residual(self, blocks) -> np.ndarray:
        """The residual half of `residual_system` (for line searches)."""
        vecs = self._switch(blocks, self._cross(blocks, self.switch_pairs))
        return self._violations(vecs)[0]

    def residual_system(self, blocks) -> tuple[np.ndarray, np.ndarray]:
        """Residual vector and Jacobian of the indifference equalities and
        of the deviation gains that are violated at `blocks`."""
        cross = self._cross(blocks, self.all_pairs)
        res, active = self._violations(self._switch(blocks, cross))
        jac = np.zeros((res.size, self.offsets[-1]))
        rows = self.cols
        gain_rows = list(itertools.accumulate(map(len, active), initial=rows[self.n]))
        for (i, j), mat in cross.items():
            cols = slice(self.offsets[j], self.offsets[j + 1])
            pivot = mat[self.pivots[i]]
            jac[rows[i] : rows[i + 1], cols] = pivot - mat[self.eq_index[i]]
            jac[gain_rows[i] : gain_rows[i + 1], cols] = mat[active[i]] - pivot
        return res, jac

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.pack([_project_simplex(b, MIN_SUPPORT_PROB) for b in self.unpack(x)])

    def polish(self, x: np.ndarray) -> np.ndarray:
        """Damped Gauss-Newton from the projection of x on the indifference
        equalities and the violated deviation gains, until the residual
        vanishes or progress stalls. A gain counts only while it is
        positive. On a continuum of equilibria the welfare optimum often
        has a gain at zero, and the equalities alone would leave the point
        just outside, where `accept` rejects it."""
        x = self.project(x)
        stalls = 0
        for it in range(60):
            res, jac = self.residual_system(self.unpack(x))
            if res.size == 0 or np.max(np.abs(res)) < 1e-14:
                break
            step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
            scale = 1.0
            improved = False
            base = np.max(np.abs(res))
            while scale > 1e-6:
                cand = self.project(x + scale * step)
                new_res = self.residual(self.unpack(cand))
                if np.max(np.abs(new_res)) < base:
                    x = cand
                    improved = True
                    stalls = stalls + 1 if np.max(np.abs(new_res)) > 0.5 * base else 0
                    break
                scale *= 0.5
            if not improved or (it >= 6 and stalls >= 4):
                # Slow linear progress after several sweeps means the
                # conditions have no regular solution near this start.
                break
        return x

    def accept(self, x: np.ndarray) -> EquilibriumCandidate | None:
        """The candidate at x if every equilibrium condition holds there to
        FEASIBILITY_TOL and every probability is at least ACCEPT_FLOOR."""
        blocks = self.unpack(x)
        if self.max_violation(blocks) <= FEASIBILITY_TOL and all(
            np.all(b >= ACCEPT_FLOOR) for b in blocks
        ):
            return _candidate_from_probs(self.game, self.support, blocks)
        return None

    def blocks(self, cand: EquilibriumCandidate) -> list[np.ndarray]:
        """A candidate with this support, back in support space."""
        return [cand.profile.probs[i][list(s)] for i, s in enumerate(self.support.sets)]

    def welfare(self, cand: EquilibriumCandidate) -> float:
        """Normalised welfare of a candidate with this support."""
        return float(_contract_tensor(self.welfare_table, self.blocks(cand)))


@functools.cache
def _lp_solver():
    """scipy's HiGHS bindings and the one solver every LP runs on, made
    on the first call with the options `linprog(method="highs")` passes
    (every other option keeps its HiGHS default). The solver is shared,
    so no two LPs may run on it at once."""
    from scipy.optimize._highspy import _core as highs

    options = highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = 1  # dual simplex
    options.log_to_console = False
    options.output_flag = False
    options.highs_debug_level = 0
    solver = highs._Highs()
    solver.passOptions(options)
    return highs, solver


def _solve_lp(
    cost: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray, lower: float, upper: float
) -> tuple[str, np.ndarray | None, float]:
    """Minimise cost @ x subject to a_ub @ x <= b_ub, sum(x) = 1 and
    lower <= x <= upper, with HiGHS.

    Returns (status, x, fun). Status "optimal" comes with the point and its
    objective value; "infeasible" means HiGHS proved that no point exists;
    "failed" stands for any other outcome, which proves nothing. x is None
    and fun NaN unless the status is "optimal".

    This hands HiGHS the model `linprog(method="highs")` builds, so it
    returns the same bits; on programs this small scipy's wrapper (input
    cleaning, sparse conversion, per-call option checks) costs more than
    HiGHS's solve. The matrix is [a_ub; ones], column-wise, nonzeros only,
    rows ascending within a column. An a_ub row has bounds [-inf, b_ub]
    and the sum row [1, 1]; every column is continuous. The program goes
    to `_lp_solver`'s one solver as plain arrays, after `clearSolver`
    drops the last program's basis and solution, so that no LP starts
    from another's state. As `linprog` does, an optimal point is
    rechecked and counts as "failed" unless it holds no NaN, lies within
    _LP_RECHECK_TOL of its bounds, leaves every a_ub row a slack of at
    least -_LP_RECHECK_TOL and sums to 1 within _LP_RECHECK_TOL.
    """
    n, m = cost.size, len(a_ub)
    matrix = np.vstack([a_ub, np.ones((1, n))])
    col, row = np.nonzero(matrix.T)
    rhs = np.append(b_ub, 1.0)
    bindings, highs = _lp_solver()
    failed = ("failed", None, np.nan)
    error = bindings.HighsStatus.kError
    highs.clearSolver()
    passed = highs.passModel(
        n, m + 1, col.size,
        int(bindings.MatrixFormat.kColwise), int(bindings.ObjSense.kMinimize), 0.0,
        cost, np.full(n, lower), np.full(n, upper),
        np.append(np.full(m, -bindings.kHighsInf), 1.0), rhs,
        np.searchsorted(col, np.arange(n + 1)).astype(np.int32), row.astype(np.int32),
        matrix.T[col, row], np.zeros(n, dtype=np.int32),
    )
    if passed == error or highs.run() == error:
        return failed
    status = highs.getModelStatus()
    if status == bindings.HighsModelStatus.kInfeasible:
        return "infeasible", None, np.nan
    if status != bindings.HighsModelStatus.kOptimal:
        return failed
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = highs.getInfo().objective_function_value
    slack = rhs - np.array(solution.row_value)
    tol = _LP_RECHECK_TOL
    if (
        np.isnan(x).any()
        or np.isnan(fun)
        or np.isnan(slack).any()
        or not np.all((x >= lower - tol) & (x <= upper + tol))
        or (slack[:m] < -tol).any()
        or abs(slack[m]) > tol
    ):
        return failed
    return "optimal", x, fun


def _pinned_block(system: _SupportSystem, active: int, other: int) -> np.ndarray | None:
    """Mixer `other`'s block as mixer `active`'s indifference fixes it,
    everyone else on one action, or None when those gaps and the block's
    sum are rank deficient or inconsistent."""
    singles = [np.array([1.0])] * system.n
    # The cross block holds table entries; row b is the pivot's row minus b's.
    cross = _cross_block(system.table(active), singles, active, other)
    rows = cross[system.pivots[active]] - cross[system.eq_index[active]]
    k = system.sizes[other]
    a_mat = np.vstack([rows, np.ones((1, k))])
    b_vec = np.concatenate([np.zeros(len(rows)), [1.0]])
    sol, _res, rank, _sv = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    if rank < k or np.max(np.abs(a_mat @ sol - b_vec)) > 1e-9:
        return None
    return sol


def _solve_pinned(system: _SupportSystem) -> SupportSolution | None:
    """Support with one or two mixers (players who mix): with everyone
    else on one action, each mixer's conditions are linear in the other
    mixer's block (Porter, Nudelman and Shoham, GEB 2008).

    A block is pinned when the other mixer's indifference fixes it
    (`_pinned_block`). With both pinned, the unique point is the candidate
    or the support is "infeasible"; with neither, the result is None.
    Otherwise one LP over the free block (the only block, with one mixer)
    decides: its rows are the condition tensor contracted with the pinned
    block, the other players' gaps are equalities, their gains
    inequalities, and welfare is the objective. The free mixer's own
    conditions do not depend on its block and are checked once, as
    constants, with the pinned block's floor.

    The program banded by FEASIBILITY_TOL, as `accept` is, comes first:
    only HiGHS's proof that it is infeasible refutes the support. If it
    has a point, the program with gaps at 0 and gains at most 0 gives the
    candidate, whose welfare then leans on no slack; no point there, or
    one `accept` rejects (HiGHS's own tolerance is wider than the band),
    gives None. A failed LP leaves the support "inconclusive". The unique
    point and the constants refute too: a pinned block counts as exact.
    """
    n, cols, tol = system.n, system.cols, FEASIBILITY_TOL
    mixers = [m for m, k in enumerate(system.sizes) if k > 1]
    probs = [np.array([1.0])] * n
    free = list(mixers)
    for active, other in itertools.permutations(mixers, 2):
        block = _pinned_block(system, active, other)
        if block is not None:
            probs[other] = block
            free.remove(other)
    if not free:
        cand = system.accept(system.pack(probs))
        return SupportSolution("infeasible" if cand is None else "candidate", cand)
    if len(free) == 2:
        return None
    (m,) = free
    low = min((probs[q].min() for q in mixers if q != m), default=1.0)
    if low < ACCEPT_FLOOR or system.max_violation(probs, (m,)) > tol:
        return SupportSolution("infeasible")
    rows = _contract_tensor(system.conditions, probs, keep=(m,))
    others = [q for q in range(n) if q != m]
    gaps = rows[:, [c for q in others for c in range(cols[q], cols[q + 1])]].T
    gains = rows[:, [c for q in others for c in range(cols[n + q], cols[n + q + 1])]].T
    a_ub, cost = np.vstack([gaps, -gaps, gains]), -rows[:, -1]
    status = _solve_lp(cost, a_ub, np.full(len(a_ub), tol), MIN_SUPPORT_PROB, 1.0)[0]
    if status == "optimal":
        status, x, _fun = _solve_lp(cost, a_ub, np.zeros(len(a_ub)), MIN_SUPPORT_PROB, 1.0)
        if status == "infeasible":
            return None
    if status != "optimal":
        return SupportSolution("infeasible" if status == "infeasible" else "inconclusive")
    probs[m] = x
    cand = system.accept(system.pack(probs))
    return None if cand is None else SupportSolution("candidate", cand)


def _three_binary_coeffs(system: _SupportSystem) -> list[tuple[float, ...]]:
    """Per mixer m, in order, the coefficients of its indifference gap
    g(x, y) = A + B x + C y + D xy, where x and y are the pivot
    probabilities of the other two mixers in order and every non-mixer
    plays its single support action.

    At a 0/1 corner the mixed axes select single support actions (x = 1
    the first, x = 0 the second), so the gap there is one entry of the
    condition tensor: the number the contraction gives, without one.
    """
    mixers = [m for m, k in enumerate(system.sizes) if k > 1]
    cube = system.conditions.reshape(2, 2, 2, -1)
    coeffs = []
    for axis, m in enumerate(mixers):
        # m's gap does not vary along its own axis; at[r][s] is the gap at
        # the other two mixers' support actions r and s (x = 1 - r).
        at = cube[..., system.cols[m]].take(0, axis=axis).tolist()
        a = at[1][1]
        b = at[0][1] - a
        c = at[1][0] - a
        d = at[0][0] - a - b - c
        coeffs.append((a, b, c, d))
    return coeffs


def _chained_quadratic(i, j, k) -> tuple:
    """The chain of three binary mixers' gaps, from their coefficients
    (a, b, c, d) in order (`_three_binary_coeffs`), as floats or as arrays
    of them: (alpha0, alpha1, beta0, beta1, q2, q1, q0), where x_i =
    -(alpha0 + alpha1 x_j) / (beta0 + beta1 x_j) and the roots of q2 x_j^2
    + q1 x_j + q0 give x_j."""
    (ai, bi, ci, di), (aj, bj, cj, dj), (ak, bk, ck, dk) = i, j, k
    # g_i(x_j, x_k) = 0, g_j(x_i, x_k) = 0, g_k(x_i, x_j) = 0.
    # Substitute x_k = -(ai + bi x_j) / (ci + di x_j) into g_j, leaving a
    # bilinear relation between x_i and x_j, then x_i = möbius(x_j); the
    # last equation becomes a quadratic in x_j.
    # g_j: aj + bj x_i + (cj + dj x_i) x_k = 0
    # -> aj (ci + di x_j) - cj (ai + bi x_j)
    #    + x_i [ bj (ci + di x_j) - dj (ai + bi x_j) ] = 0
    alpha0 = aj * ci - cj * ai
    alpha1 = aj * di - cj * bi
    beta0 = bj * ci - dj * ai
    beta1 = bj * di - dj * bi
    # x_i = -(alpha0 + alpha1 x_j) / (beta0 + beta1 x_j)
    # g_k: ak + ck x_j + x_i (bk + dk x_j) = 0
    # -> (ak + ck x_j)(beta0 + beta1 x_j) - (bk + dk x_j)(alpha0 + alpha1 x_j) = 0
    q2 = ck * beta1 - dk * alpha1
    q1 = ak * beta1 + ck * beta0 - bk * alpha1 - dk * alpha0
    q0 = ak * beta0 - bk * alpha0
    return alpha0, alpha1, beta0, beta1, q2, q1, q0


def _solve_three_binary_mixers(system: _SupportSystem) -> SupportSolution | None:
    """Exactly three mixing players with two support actions each.

    Each mixer's indifference gap is bilinear in the other two mixers'
    pivot probabilities, so chaining two substitutions leaves a quadratic
    in one variable: the equilibrium points are available in closed form.
    Returns None on degenerate coefficient patterns (continua etc.).
    """
    i, j, k = [m for m, size in enumerate(system.sizes) if size > 1]
    lo = MIN_SUPPORT_PROB
    coeffs = _three_binary_coeffs(system)
    ai, bi, ci, di = coeffs[0]
    alpha0, alpha1, beta0, beta1, q2, q1, q0 = _chained_quadratic(*coeffs)
    scale = max(abs(q0), abs(q1), abs(q2), 1e-30)
    roots: list[float]
    if abs(q2) / scale < 1e-12:
        if abs(q1) / scale < 1e-12:
            return None  # degenerate: a continuum or inconsistent chain
        roots = [-q0 / q1]
    else:
        disc = q1 * q1 - 4.0 * q2 * q0
        if disc < 0:
            roots = []
        else:
            sq = float(np.sqrt(disc))
            roots = [(-q1 - sq) / (2 * q2), (-q1 + sq) / (2 * q2)]
    best: EquilibriumCandidate | None = None
    degenerate = False
    for x_j in roots:
        den_i = beta0 + beta1 * x_j
        den_k = ci + di * x_j
        if abs(den_i) < 1e-12 or abs(den_k) < 1e-12:
            degenerate = True
            continue
        x_i = -(alpha0 + alpha1 * x_j) / den_i
        x_k = -(ai + bi * x_j) / den_k
        point = (x_i, x_j, x_k)
        if any(not (lo - 1e-12 <= v <= 1.0 - lo + 1e-12) for v in point):
            continue
        blocks = [np.array([1.0])] * system.n
        for m, x in zip((i, j, k), point):
            blocks[m] = np.array([x, 1.0 - x])
        if system.max_violation(blocks) <= FEASIBILITY_TOL:
            cand = _candidate_from_probs(system.game, system.support, blocks)
            if best is None or cand.welfare > best.welfare:
                best = cand
    if best is not None:
        return SupportSolution("candidate", best)
    if degenerate:
        return None
    return SupportSolution("infeasible")


def relaxation_bound(system: _SupportSystem) -> float:
    """Upper bound on the normalised welfare of any equilibrium with this
    support, from one linear program.

    The variable is a distribution x over the support's cells rather than
    a product of per-player blocks. Player i's switch values depend on x
    only through its marginal over the other players, linearly, so the
    indifference (|gap| <= FEASIBILITY_TOL) and no-deviation (gain <=
    FEASIBILITY_TOL) conditions are linear rows: the condition tensor's
    columns over the cells. Each support action's marginal is at least
    ACCEPT_FLOOR. The product of any blocks `_SupportSystem.accept` takes
    is feasible here, so the program is a relaxation. With two players the
    product of a feasible x's marginals is feasible too, so there the
    feasibility test is exact.

    Returns -inf when HiGHS proves the program infeasible (no equilibrium
    has this support), the welfare optimum when it solves it, and +inf on
    any other outcome (no information).
    """
    n, cols = system.n, system.cols
    rows = system.conditions.reshape(-1, cols[-1] + 1).T
    gaps, gains, welfare = rows[: cols[n]], rows[cols[n] : cols[-1]], rows[-1]
    cells = np.indices(system.sizes).reshape(n, -1)
    marginals = np.vstack(
        [cells[i] == np.arange(k)[:, None] for i, k in enumerate(system.sizes)]
    ).astype(np.float64)
    a_ub = np.vstack([gaps, -gaps, gains, -marginals])
    b_ub = np.concatenate(
        [
            np.full(2 * len(gaps) + len(gains), FEASIBILITY_TOL),
            np.full(len(marginals), -ACCEPT_FLOOR),
        ]
    )
    status, _x, fun = _solve_lp(-welfare, a_ub, b_ub, 0.0, np.inf)
    if status == "infeasible":
        return -np.inf
    if status != "optimal":
        return np.inf
    return float(-fun)


def _root_box(
    system: _SupportSystem, mixers: list[int]
) -> tuple[list[np.ndarray], np.ndarray]:
    """The mixers' simplices clipped at ACCEPT_FLOOR, as vertex matrices
    (one vertex per row), and the condition tensor's values at their
    corners: axis m of the result indexes mixer m's vertices."""
    verts = []
    for i in mixers:
        k = system.sizes[i]
        verts.append(np.full((k, k), ACCEPT_FLOOR) + np.eye(k) * (1.0 - k * ACCEPT_FLOOR))
    corners = system.conditions.reshape([system.sizes[i] for i in mixers] + [-1])
    for v in verts:
        # Contract the leading mixer axis with the vertex matrix and rotate
        # the new vertex axis to the back of the mixer axes.
        lead = corners.shape[0]
        corners = (v @ corners.reshape(lead, -1)).reshape(corners.shape)
        corners = np.moveaxis(corners, 0, len(verts) - 1)
    return verts, corners


def _rounding_slack(system: _SupportSystem) -> float:
    """Bound on the rounding gap between a root corner value and the same
    gap or gain as `accept` computes it at a point of the box.

    A corner value is a sum of at most `cells` products of n probabilities
    with utility differences in [-1, 1], so it is off by less than
    gamma = (cells + n) * eps (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 3.1); `accept` takes the difference of two
    switch values, each off by less than gamma, and the differences in the
    tensor add eps. 4 * gamma covers the three and the eps.
    """
    return 4.0 * (system.welfare_table.size + system.n) * np.finfo(np.float64).eps


def _corner_search(system: _SupportSystem, bar: float) -> SupportSolution:
    """Best-first branch and bound over products of sub-simplices, for a
    support with at least one mixer.

    A box is one sub-simplex per mixer, given by its vertices. Every gap,
    gain and the welfare is multilinear in the blocks, so over a box it
    ranges between its values at the box's corners, the products of the
    vertices (Rikun, J. Global Optim. 1997). The search starts from the
    simplices clipped at ACCEPT_FLOOR, which hold every point `accept`
    takes. A box is refuted when some gap's corner range misses
    [-FEASIBILITY_TOL, FEASIBILITY_TOL] or some deviation gain exceeds
    FEASIBILITY_TOL at every corner; the tolerance is widened by
    `_rounding_slack`, and by eps per halving below the root (a mean of
    two values in [-1, 1] is off by at most eps / 2). A box is dropped
    when its corner welfare plus RELAXATION_MARGIN does not exceed `bar`
    (normalised units), or when it cannot beat the best candidate so far
    by more than RELAXATION_MARGIN.

    The box with the highest corner welfare comes first. Once its longest
    edge is at most POLISH_WIDTH, and again whenever that edge has shrunk
    POLISH_STEP-fold, its centre is tried as a candidate, polished by
    Gauss-Newton and as it is (unless it lies within POLISH_STEP widths of
    the best point). Then that edge is halved. The midpoint becomes a
    vertex, and by multilinearity a corner there is the mean of the two
    corners at the edge's ends, so children need no contraction.

    Returns the best candidate found once no remaining box can beat it or
    the bar, "pruned" when boxes were dropped at the bar and no candidate
    was found, "infeasible" when every box was refuted, and "inconclusive"
    (with the best candidate so far, if any) once MAX_BOXES boxes were
    evaluated or a box's vertices can no longer be told apart.
    """
    mixers = [i for i, k in enumerate(system.sizes) if k > 1]
    verts, corners = _root_box(system, mixers)
    n_gaps = system.cols[system.n]
    n_conds = corners.shape[-1] - 1
    eps = np.finfo(np.float64).eps
    top = FEASIBILITY_TOL + _rounding_slack(system)

    def bounds(corners: np.ndarray, depth: int) -> float | None:
        """Upper welfare bound of a box, or None when it is refuted."""
        flat = corners.reshape(-1, n_conds + 1)
        low, high = flat.min(axis=0), flat.max(axis=0)
        limit = top + depth * eps
        if low[:n_conds].max(initial=-np.inf) > limit:
            return None
        if high[:n_gaps].min(initial=np.inf) < -limit:
            return None
        return float(high[-1])

    def longest(v: np.ndarray) -> tuple[float, int, int]:
        """Squared length and ends of a simplex's longest edge."""
        diff = v[:, None, :] - v[None, :, :]
        lengths = np.einsum("rsk,rsk->rs", diff, diff)
        flat = int(lengths.argmax())
        return (float(lengths.flat[flat]),) + divmod(flat, len(v))

    best, best_w, best_x = None, -np.inf, None
    floor = bar - RELAXATION_MARGIN
    dropped = False
    count = 1
    ub = bounds(corners, 0)
    heap: list = []
    if ub is not None:
        edges = [longest(v) for v in verts]
        heap.append((-ub, 0, 0, POLISH_WIDTH, corners, verts, edges))
    while heap:
        neg_ub, _, depth, polish_at, corners, verts, edges = heapq.heappop(heap)
        if -neg_ub <= floor:
            dropped = True
            break
        if count >= MAX_BOXES:
            return SupportSolution("inconclusive", best)
        axis = max(range(len(edges)), key=lambda m: edges[m][0])
        length2, r, s = edges[axis]
        width = float(np.sqrt(length2))
        if width <= polish_at:
            polish_at = width / POLISH_STEP
            centre = [np.array([1.0])] * system.n
            for m, v in zip(mixers, verts):
                centre[m] = v.mean(axis=0)
            point = system.pack(centre)
            # A centre this close to the best point would polish back to it.
            if best_x is None or np.abs(point - best_x).max() > POLISH_STEP * width:
                # Polishing can stall short of a point `accept` takes, or
                # leave the box; the unpolished centre may still pass.
                cand = system.accept(system.polish(point)) or system.accept(point)
                w = -np.inf if cand is None else system.welfare(cand)
                if w > best_w:
                    best, best_w, best_x = cand, w, system.pack(system.blocks(cand))
                    floor = max(floor, best_w + RELAXATION_MARGIN)
        if width == 0.0:
            # The vertices can no longer be told apart: this box is neither
            # refuted nor dropped, and splitting it changes nothing.
            return SupportSolution("inconclusive", best)
        simplex = verts[axis]
        mid = 0.5 * (simplex[r] + simplex[s])
        at_r = (slice(None),) * axis + (r,)
        at_s = (slice(None),) * axis + (s,)
        mean = 0.5 * (corners[at_r] + corners[at_s])
        for replaced, index in ((r, at_r), (s, at_s)):
            child = corners.copy()
            child[index] = mean
            count += 1
            ub = bounds(child, depth + 1)
            if ub is None:
                continue
            if ub <= floor:
                dropped = True
                continue
            split = simplex.copy()
            split[replaced] = mid
            child_verts = verts[:axis] + [split] + verts[axis + 1 :]
            child_edges = edges[:axis] + [longest(split)] + edges[axis + 1 :]
            heapq.heappush(
                heap,
                (-ub, count, depth + 1, polish_at, child, child_verts, child_edges),
            )
    if best is not None:
        return SupportSolution("candidate", best)
    return SupportSolution("pruned" if dropped else "infeasible")


def _polytope_vertices(
    eq_rows: np.ndarray, ineq_rows: np.ndarray, lo: float
) -> list[np.ndarray]:
    """Vertices of {p : eq_rows p = 0, ineq_rows p <= 0, p >= lo, sum p = 1}.

    A vertex is a feasible point where the equalities and enough active
    inequalities have a unique solution, so every choice of as many
    inequalities as the equalities leave free is solved and checked.
    Equalities must hold to 1e-9 (as in `_pinned_block`), inequalities
    to 1e-12.
    """
    k = eq_rows.shape[1]
    a_eq = np.vstack([eq_rows, np.ones((1, k))])
    b_eq = np.concatenate([np.zeros(len(eq_rows)), [1.0]])
    a_in = np.vstack([ineq_rows, -np.eye(k)])
    b_in = np.concatenate([np.zeros(len(ineq_rows)), np.full(k, -lo)])
    free = k - np.linalg.matrix_rank(a_eq)
    vertices = []
    for active in itertools.combinations(range(len(a_in)), free):
        a_mat = np.vstack([a_eq, a_in[list(active)]])
        b_vec = np.concatenate([b_eq, b_in[list(active)]])
        sol, _res, rank, _sv = np.linalg.lstsq(a_mat, b_vec, rcond=None)
        if rank < k or np.max(np.abs(a_mat @ sol - b_vec)) > 1e-9:
            continue
        if np.all(a_in @ sol <= b_in + 1e-12):
            vertices.append(sol)
    return vertices


def _solve_bimatrix(system: _SupportSystem) -> SupportSolution | None:
    """Two players, both mixing, with a rank-deficient indifference system.

    Each player's conditions are linear in the other's block alone, so the
    equilibria on the support form a product P x Q of two polytopes, and
    welfare is bilinear over it: linear in either block with the other
    fixed. Its maximum is therefore at a pair of vertices, and the best
    pair is the support's welfare-optimal equilibrium. Returns None if
    that pair fails the equilibrium check (numerical trouble)."""
    cols = system.cols
    vertex_sets = []
    for i in range(2):
        # Player i's conditions do not vary along its own axis: its plane
        # of the tensor holds them over the other player's support actions.
        plane = system.conditions.take(0, axis=i)
        gaps = plane[:, cols[i] : cols[i + 1]].T
        gains = plane[:, cols[2 + i] : cols[3 + i]].T
        vertex_sets.append(np.array(_polytope_vertices(gaps, gains, MIN_SUPPORT_PROB)))
    q_verts, p_verts = vertex_sets  # player 0's conditions bound player 1's block
    if not len(p_verts) or not len(q_verts):
        return SupportSolution("infeasible")
    pair = int((p_verts @ system.welfare_table @ q_verts.T).argmax())
    probs = [p_verts[pair // len(q_verts)], q_verts[pair % len(q_verts)]]
    if system.max_violation(probs) > FEASIBILITY_TOL:
        return None
    return SupportSolution(
        "candidate", _candidate_from_probs(system.game, system.support, probs)
    )


def solve_support(
    game: NormalFormGame, support: Support, *, bar: float = -np.inf
) -> SupportSolution:
    """Search the given support for an equilibrium, welfare-optimal there.

    Pure supports are checked exactly; supports with one or two mixing
    players reduce to linear algebra and at most one LP (`_solve_pinned`),
    and three binary mixers to a quadratic. Whatever
    those leave (more mixers, two mixers with neither block pinned,
    degenerate systems) meets the linear relaxation (`relaxation_bound`),
    whose infeasibility refutes the support. In `swne`, mixed dominance
    (`_mixed_refuted`) and the closed forms' array pass
    (`_binary_refuted`) refute many supports without an equilibrium
    before this function sees them. Of the rest, a
    two-player support is solved exactly at the vertices of its
    equilibrium polytopes (`_solve_bimatrix`); any other is decided by
    the corner search (`_corner_search`). Only that search's box cap or a
    failed pinned LP ends a support "inconclusive". `bar` is `swne`'s
    running bar in normalised welfare: a support whose relaxation bound
    plus RELAXATION_MARGIN does not exceed it comes back "pruned", as does
    one whose corner search drops boxes at the bar and finds no candidate.
    """
    if support.is_pure:
        return _solve_pure(game, support)
    system = _SupportSystem(game, support)
    mixer_sizes = [k for k in system.sizes if k > 1]
    if len(mixer_sizes) <= 2:
        out = _solve_pinned(system)
        if out is not None:
            return out
    elif mixer_sizes == [2, 2, 2]:
        out = _solve_three_binary_mixers(system)
        if out is not None:
            return out
    bound = relaxation_bound(system)
    if bound == -np.inf:
        return SupportSolution("infeasible")
    if bound + RELAXATION_MARGIN <= bar:
        return SupportSolution("pruned")
    if game.n_players == 2:
        out = _solve_bimatrix(system)
        if out is not None:
            return out
    return _corner_search(system, bar)


# ---------------------------------------------------------------------------
# Top-level search


# The two-binary bound's tolerance and floor, widened as
# `two_binary_bounds` says.
_BAND_TOL = FEASIBILITY_TOL * (1.0 + 2.0 * _LP_RECHECK_TOL) + 64 * np.finfo(np.float64).eps
_BAND_FLOOR = ACCEPT_FLOOR * (1.0 - 2.0 * _LP_RECHECK_TOL)
# The mixed supports of a game where coalitions r and c have two actions
# each: r mixing while c plays its first or its second action, c mixing
# while r plays either, and both mixing. Row 0 is for x, r's probability
# of its first action, and row 1 for y, c's. Per support, the range of the
# probability, and which of the other player's conditions cut it: 0 where
# it keeps its second action alone (its first may beat it by at most the
# tolerance), 1 where it keeps its first alone, 2 where it keeps both.
_MIXES = (_BAND_FLOOR, 1.0 - _BAND_FLOOR)
_SUPPORT_RANGES = np.array([
    [_MIXES, _MIXES, (1.0, 1.0), (0.0, 0.0), _MIXES],
    [(1.0, 1.0), (0.0, 0.0), _MIXES, _MIXES, _MIXES],
])
_SUPPORT_CUTS = np.array([[1, 0, 2, 2, 2], [2, 2, 1, 0, 2]])
_SIDES = np.array([[0], [1]])
# A gap is at most the tolerance, or at least its negative: sign * gap
# is at most the tolerance.
_SIGNS = np.array([1.0, -1.0])


def two_binary_bounds(
    cells: np.ndarray, welfare: np.ndarray, actions: np.ndarray
) -> np.ndarray:
    """An upper bound on the welfare of every candidate `swne` builds on a
    mixed support, for G games in each of which exactly two coalitions
    have two actions and every other has one. Per game, `cells` (G, K,
    players) lists the cells in C order, padded, `welfare` (G, K) their
    welfares and `actions` (G, K, players) each player's own action in
    each: rows of a `StageBlock`. Returns (G,), in welfare units, +inf
    where nothing is proved.

    Let r and c be the two choosers; the other axes have one action, so
    the first four cells are (r, c) = (0, 0), (0, 1), (1, 0), (1, 1). Let
    x be r's probability of its first action and y c's. In `swne`'s
    normalised units, r's gap (first action minus second) is linear in y,
    and c's in x. A support asks each of a player's kept actions to lose
    to the other by at most FEASIBILITY_TOL, so two kept actions tie
    within it, and a mixer to put at least ACCEPT_FLOOR on each action:
    `accept` checks exactly this, and every other route to a candidate at
    least as much. So r's conditions cut y to an interval, c's cut x, a
    player on one action fixes its probability at 1 or 0, and a support's
    candidates lie in the box of the two. Welfare is bilinear in (x, y),
    so its largest value on a box is at a corner. The bound is the
    largest corner welfare over the five mixed supports (an empty box
    adds nothing), plus a rounding slack.

    The box is widened to hold every candidate's probabilities as
    `_candidate_from_probs` rescales them to sum to one: a linear
    program's point sums to one within _LP_RECHECK_TOL, any other within
    1e-9, and the conditions are homogeneous in the probabilities, so the
    rescaled ones hold with the floor and the tolerance moved by less
    than twice that factor. Gaps here and in `accept` round apart by a few
    eps on values in [0, 1], which 64 eps more tolerance covers, as a gap
    slope is at most 2. A candidate's welfare and a corner's round apart
    by a few eps of the table's welfare scale (the sum of each player's
    largest absolute utility): the slack is 4 (players + 4) eps of it.
    The full support's box is in doubt when neither gap varies by more
    than 2 * FEASIBILITY_TOL across the other's actions, as its bands pin
    nothing; such a game bounds nothing. Nor does one with a non-finite
    utility or an overflowing range, which `swne` normalises otherwise."""
    n_games, _k, players = cells.shape
    table = cells[:, :4]
    games = np.arange(n_games)[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scale = (table.max(axis=1) - table.min(axis=1)).max(axis=-1, keepdims=True)
        scale[scale <= 0.0] = 1.0
        # r's action moves the cell by two and c's by one: each chooser's
        # utilities, as (G, action of r, action of c).
        choosers = actions[:, 2:0:-1].argmax(axis=-1)
        r, c = table[games, :, choosers].reshape(n_games, 2, 2, 2).swapaxes(0, 1)
        # The normalised gaps that cut x (c's, against r's first and second
        # action) and y (r's, against c's), at t = 1 and t = 0 (G, [x, y],
        # ends).
        gaps = np.stack((c[..., 0] - c[..., 1], r[:, 0] - r[:, 1]), axis=1)
        gaps /= scale[..., None]
        slope = gaps[..., 0] - gaps[..., 1]
        at_zero = gaps[..., 1:]
        # Per side, the t where the gap is at most tol, and where it is at
        # least -tol (sign * gap <= tol), each a half-line through `cut`;
        # a flat gap holds everywhere or nowhere.
        rising = slope[..., None] * _SIGNS
        cut = (_SIGNS * _BAND_TOL - at_zero) / slope[..., None]
        lo = np.where(rising < 0.0, cut, -np.inf)
        hi = np.where(rising > 0.0, cut, np.inf)
        lo[(rising == 0.0) & (_SIGNS * at_zero > _BAND_TOL)] = np.inf
        # Both at once, then each support's pick of the three, within its
        # range (G, [x, y], supports).
        lo = np.concatenate((lo, lo.max(axis=-1, keepdims=True)), axis=-1)
        hi = np.concatenate((hi, hi.min(axis=-1, keepdims=True)), axis=-1)
        lo = np.maximum(lo[:, _SIDES, _SUPPORT_CUTS], _SUPPORT_RANGES[..., 0])
        hi = np.minimum(hi[:, _SIDES, _SUPPORT_CUTS], _SUPPORT_RANGES[..., 1])
        # Each box's corner welfares (G, supports, x end, y end): the
        # probabilities of the first and second actions at each end.
        ends = np.stack((lo, hi), axis=-1)[..., None]
        p = np.concatenate((ends, 1.0 - ends), axis=-1)
        w = welfare[:, None, :4].reshape(n_games, 1, 2, 2)
        corners = p[:, 0] @ w @ p[:, 1].swapaxes(-1, -2)
        bound = np.where((lo <= hi).all(axis=1), corners.max(axis=(-2, -1)), -np.inf)
        pinned = (np.abs(slope) > 2.0 * FEASIBILITY_TOL).any(axis=-1)
        bound[~pinned, -1] = np.inf
        scale_w = np.abs(table).max(axis=1).sum(axis=-1)
        slack = 4.0 * (players + 4) * np.finfo(np.float64).eps * scale_w
        return np.where(np.isfinite(scale[:, 0]), bound.max(axis=-1) + slack, np.inf)


def pure_answer_picks(
    block: np.ndarray,
    deviations: np.ndarray,
    single: np.ndarray,
    two_binary: np.ndarray,
    welfare_tol: float,
    actions: np.ndarray,
    reducible: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Which of N games have a welfare-optimal equilibrium that is
    provably pure, and that equilibrium. Row q of the (..., N, K, players)
    float `block` lists game q's cells in C order, padded by repeating its
    last cell; leading axes stack blocks of the same games. Per game, cell
    and player, `deviations` (N, K, players, A) lists the cells that
    differ from the cell in that player's action alone, the cell itself
    included, padded by repeating: each as the flat index, in one
    (N, K, players) block, of that player's utility there. `actions`
    (N, K, players) gives each player's own action in each cell, for
    `undominated_cells`. `single` (N,) marks the games in which at most
    one player has more than one action, and `two_binary` (N,) those in
    which exactly two have two and every other has one. `reducible` maps
    the mask (..., N) of the games that the bar and the bound leave open
    to those that iterated strict dominance may settle; it is called only
    when some game is open, so a caller can look the open games up in a
    cache of its own.

    A cell is a pure equilibrium when no deviation gives a player more
    than the cell does, compared exactly as `check_pure_profile`
    compares. Let `best` be a game's best pure-equilibrium welfare (-inf
    without one, which decides nothing). A game is decided when it is
    single, when its largest cell welfare is at most `best + welfare_tol`
    (the bar), when it is two-binary and its mixed supports' bound
    (`two_binary_bounds`) is at most `best`, or, where `reducible`
    allows, when the largest welfare of the cells that survive iterated
    strict dominance (`undominated_cells`) is at most the bar. Its pick
    is the first cell in C order among the pure equilibria with welfare
    at least `best - welfare_tol`, and `swne` answers a decided game with
    exactly that pure profile:
    - strict dominance keeps every pure equilibrium: a removed action
      does worse than its dominator against every surviving choice of the
      others, so it is no best reply to any of them. It adds none: a
      switch that pays to a removed action pays more to the action that
      removed it, and, dominators being removed in turn, to some survivor,
      as `>` is transitive. So `swne`'s reduced game (`filter_dominated`,
      which runs the same `undominated_cells` on the game alone) has
      these pure equilibria, with these welfares, and its pure supports
      run in the original C order;
    - in a single game, every action that maximises the one chooser's
      own utility is an equilibrium, and so is every mixture of them
      (their own utilities are equal); welfare is linear over those
      mixtures, so one of the pure ones is welfare-optimal, and `swne`
      finds no mixed candidate above it;
    - otherwise every mixed support of the reduced game lies within the
      surviving cells, and its welfare bound is one of their welfares,
      none of which exceeds `best + welfare_tol`, so `swne` skips every
      mixed support before solving it;
    - in a two-binary game, if `swne`'s dominance removes an action, its
      reduced game is single, as above. Otherwise `swne` solves this very
      table, and no candidate it builds on a mixed support has welfare
      above the bound, so none above `best`: the maximum over all
      candidates stays `best`, and the tie window with it. A bar of
      `best + welfare_tol` would not do, as a mixed candidate above
      `best` moves the window up and can drop its first pure cell;
    - among the pure candidates, `swne` keeps those within `welfare_tol`
      of the best and takes the first in canonical order, which puts
      every pure support before every mixed one.
    A padding cell repeats a cell and its deviations, and a padding
    action an action, so neither changes a maximum, a removal or the
    first pick. Welfare is the sum over the players' axis, which rounds as
    `swne`'s sums over one cell's utilities. The bound and dominance run
    only on the games the bar leaves open, and dominance only on those
    the bound leaves open, as no other can gain. Returns the decided mask
    (..., N) and each game's pick (..., N) as a C-order cell index,
    meaningful where decided.
    """
    reply = np.take(block.reshape(block.shape[:-3] + (-1,)), deviations, axis=-1)
    pure = (reply <= block[..., None]).all(axis=(-2, -1))
    welfare = block.sum(axis=-1)
    best = welfare.max(axis=-1, where=pure, initial=-np.inf)
    bar = best + welfare_tol
    decided = single | (welfare.max(axis=-1) <= bar)
    pairs = np.nonzero(two_binary & ~decided)
    if pairs[0].size:
        bound = two_binary_bounds(block[pairs], welfare[pairs], actions[pairs[-1]])
        decided[pairs] = (bound <= best[pairs]) & (best[pairs] > -np.inf)
    games = () if decided.all() else np.nonzero(reducible(~decided))
    if games and games[0].size:
        out = undominated_cells(reply[games], actions[games[-1]])
        if out is not None:
            top = welfare[games].max(axis=-1, where=out[0], initial=-np.inf)
            decided[games] = top <= bar[games]
    picks = (pure & (welfare >= best[..., None] - welfare_tol)).argmax(axis=-1)
    return decided, picks


def swne(game: NormalFormGame) -> EquilibriumResult:
    """Social-welfare optimal Nash equilibrium of a finite game.

    Dominated actions are removed first. Then one pass runs over the
    reduced game's supports in canonical order: pure supports (all of
    them first) are checked exactly, and a mixed support is skipped when
    its best cell welfare does not exceed the running bar (the best
    welfare found so far), or when presolve rules it out, before
    `solve_support` sees it with the bar. A support that mixed dominance
    or the closed forms refute is skipped too, as `solve_support`'s
    "infeasible" would be.
    The maximal-welfare candidate wins, with ties inside the welfare
    tolerance broken by canonical support order and then by
    lexicographic profile order. `pruned` counts the skipped supports
    (a refuted one only when the running bar skips it first),
    `inconclusive` those whose corner search reached its box cap (a
    candidate it found by then still counts) or whose pinned LP failed.

    The pure equilibria, every support's best cell welfare and, unless
    the pure bar skips every mixed support, every presolve verdict and
    refutation are decided for all supports at once, in array passes
    over the support grid (`_pure_cells`, `_welfare_bounds`,
    `_presolve_keep`, `_mixed_refuted`, `_binary_refuted`). Only the
    mixed supports that the pure bar and presolve leave open reach the
    loop, where they meet the running bar, then the refutations, then
    `solve_support`.
    Raises NoEquilibriumError when nothing is found, which
    indicates solver failure rather than a game property.
    """
    reduced, kept, removals = filter_dominated(game)
    layout = _support_layout(reduced.shape)
    n_pure = math.prod(reduced.shape)

    # Pure supports come first in canonical order, in C order over the
    # cells, so a cell's flat index is its support's index. The pure
    # candidates stay as their cells and their welfares, each the sum of
    # the cell's values (`_pure_values`).
    pure = np.flatnonzero(_pure_cells(reduced))
    pure_welfare = (reduced.float_utilities() + 0.0).sum(axis=-1).ravel()[pure]
    # The running bar is the best welfare of the candidates so far, all
    # canonically earlier, in original and (once a support needs it)
    # normalised units. The best pure welfare is final before any mixed
    # support is reached. Expected welfare under a mixed profile is a
    # convex combination of its support cells' welfare. A support whose
    # best cell does not beat the bar (the pure bar by more than the tie
    # tolerance) would yield a candidate no better than an earlier one,
    # which then wins the maximum or the tie order; nor would one that
    # presolve rules out. Skipping either changes no answer, and each
    # skipped support counts once in `pruned`.
    best = best_pure = float(pure_welfare.max(initial=-np.inf))
    mixed = layout.order[n_pure:]
    bounds = _welfare_bounds(reduced, layout).ravel()[mixed]
    live = np.ones(len(bounds), dtype=bool)
    if best_pure > -np.inf:
        live = ~(bounds <= best_pure + WELFARE_TOL)
    if live.any():
        live &= _presolve_keep(reduced, layout).ravel()[mixed]
    pruned = len(bounds) - int(live.sum())
    # A support that mixed dominance or the closed forms refute has no
    # candidate, as `solve_support` would find: skipping it counts nowhere.
    refuted = np.zeros(len(bounds), dtype=bool)
    if live.any():
        refuted = _mixed_refuted(reduced, layout) | _binary_refuted(reduced, layout)
        refuted = refuted.ravel()[mixed]
    inconclusive = 0
    candidates: list[EquilibriumCandidate] = []  # the mixed ones
    norm_welfare = best_norm = None

    def normalised(cand: EquilibriumCandidate) -> float:
        return float(_contract_tensor(norm_welfare, cand.profile.probs))

    positions = (n_pure + np.flatnonzero(live)).tolist()
    for idx, upper, dead in zip(positions, bounds[live].tolist(), refuted[live].tolist()):
        if best > -np.inf and upper <= best:
            pruned += 1
            continue
        if dead:
            continue
        if norm_welfare is None:
            norm_welfare = reduced.normalised_utilities().sum(axis=-1)
            best_norm = float(norm_welfare.ravel()[pure].max(initial=-np.inf))
        outcome = solve_support(reduced, layout.support(idx), bar=best_norm)
        if outcome.candidate is not None:
            outcome.candidate.support_index = idx
            candidates.append(outcome.candidate)
            best = max(best, outcome.candidate.welfare)
            best_norm = max(best_norm, normalised(outcome.candidate))
        if outcome.status == "inconclusive":
            inconclusive += 1
        elif outcome.status == "pruned":
            pruned += 1
    if not pure.size and not candidates:
        raise NoEquilibriumError("no equilibrium found: solver failure")
    # Within the tie tolerance of the best, the first pure cell, or else
    # the first mixed candidate in canonical order, lifted back over the
    # removed (dominated) actions.
    tied = pure[pure_welfare >= best - WELFARE_TOL]
    if tied.size:
        cell = np.unravel_index(tied[0], reduced.shape)
        joint = tuple(k[a] for k, a in zip(kept, cell))
        support = Support(tuple((a,) for a in joint))
        profile = MixedProfile([np.eye(c)[a] for c, a in zip(game.shape, joint)])
        values, regrets = _pure_values(game, joint), _pure_regrets(game, joint)
    else:
        chosen = min(
            (c for c in candidates if c.welfare >= best - WELFARE_TOL),
            key=lambda c: (c.support_index, tuple(np.concatenate(c.profile.probs))),
        )
        probs = [np.zeros(c) for c in game.shape]
        for vec, k, p in zip(probs, kept, chosen.profile.probs):
            vec[k] = p
        profile = MixedProfile(probs)
        support = Support(tuple(tuple(k[a] for a in s) for k, s in zip(kept, chosen.support.sets)))
        values = np.array([expected_utility(game, profile, i) for i in range(game.n_players)])
        regrets = np.array([regret(game, profile, i) for i in range(game.n_players)])
    return EquilibriumResult(
        values=values,
        profile=profile,
        welfare=float(values.sum()),
        support=support,
        regrets=regrets,
        removals=removals,
        candidates=len(pure) + len(candidates),
        pruned=pruned,
        inconclusive=inconclusive,
    )


def scne(game: NormalFormGame) -> EquilibriumResult:
    """Social-cost optimal Nash equilibrium: the welfare-optimal
    equilibrium of the negated game, reported in original (cost) units."""
    res = swne(game.negated())
    values = -res.values
    return replace(res, values=values, welfare=float(values.sum()))
