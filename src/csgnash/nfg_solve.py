"""Optimal Nash equilibria of finite normal form games.

The solver enumerates candidate supports (one non-empty action subset per
player), filters them with sound dominance arguments, and solves the
remaining ones: a profile with support B is a Nash equilibrium iff every
in-support action of a player yields the same utility against the others
and no out-of-support action yields more. Among all equilibria found, the
one maximising the sum of utilities (social welfare) is returned; the
social-cost variant negates the game first.

Supports whose feasible profiles are not pinned down by linear algebra or
a closed form first meet a linear relaxation: one LP over distributions on
the support's cells, which every equilibrium with that support satisfies.
An infeasible relaxation proves the support has no equilibrium, and its
optimum bounds the support's welfare. A two-player support that survives
is solved exactly at the vertices of its equilibrium polytopes. Any other
is handled on the product of probability simplices: multistart damped
Gauss-Newton on the indifference equalities finds the generically
isolated equilibrium points, and when it finds none above the running
bar, a best-first corner search (an exclusion method: Berg and Sandholm,
AAAI 2017) decides the support. Only its box cap leaves a support
"inconclusive".

Each mixed support's conditions are built once, in the `_SupportSystem`
that `solve_support` hands to every solver family: one condition tensor
over the support's cells holds every indifference gap (pivot minus
in-support action), then every deviation gain (outside action minus
pivot), player by player, and last the welfare. The relaxation's rows,
the two-player polytopes, the three-binary closed form, the one-mixer LP
and the corner search's root box all read it.

The search is one pass over the supports in canonical order, pure ones
first. It keeps a running bar, the best welfare of the candidates found
so far, and a mixed support meets the cheap sound skips before any
solving: its cell-welfare bound against the bar, then presolve's
dominance test, then (for supports no closed form decides) the
relaxation bound against the bar. A skipped support's candidate could
neither be the maximum nor precede the earlier one among ties.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import zlib
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

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
# Gauss-Newton runs from MULTISTARTS starts. The corner search evaluates
# at most MAX_BOXES boxes, polishes a box once its longest edge is at most
# POLISH_WIDTH, and again each time the edge has shrunk POLISH_STEP-fold.
FEASIBILITY_TOL = 1e-8
WELFARE_TOL = 1e-6
MIN_SUPPORT_PROB = 1e-6
ACCEPT_FLOOR = MIN_SUPPORT_PROB - 1e-12
MULTISTARTS = 6
MAX_BOXES = 20000
POLISH_WIDTH = 1e-2
POLISH_STEP = 16.0
# A relaxation bound is trusted up to this margin, in normalised welfare:
# ten times HiGHS's default feasibility and optimality tolerances.
RELAXATION_MARGIN = 1e-6


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

    def sort_key(self) -> tuple:
        return (sum(self.sizes), self.masks())


@dataclass
class EquilibriumCandidate:
    profile: MixedProfile
    values: np.ndarray
    welfare: float
    support: Support
    support_index: int = -1


@dataclass
class Removal:
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
# Dominance filtering


def _strictly_dominates(
    game: NormalFormGame,
    player: int,
    better: int,
    worse: int,
    kept: Sequence[Sequence[int]],
) -> bool:
    others = [kept[j] for j in range(game.n_players) if j != player]
    for cell in itertools.product(*others):
        joint = list(cell)
        joint.insert(player, 0)
        joint_b = tuple(joint[:player] + [better] + joint[player + 1 :])
        joint_w = tuple(joint[:player] + [worse] + joint[player + 1 :])
        if not (game.utility(joint_b, player) > game.utility(joint_w, player)):
            return False
    return True


def filter_dominated(
    game: NormalFormGame,
) -> tuple[NormalFormGame, list[list[int]], list[Removal]]:
    """Iterated removal of strictly dominated pure actions.

    Returns the reduced game, the surviving original action indices per
    player, and the removal log in elimination order. Removal can never
    empty an action set: a dominated action implies a surviving dominator.
    """
    kept: list[list[int]] = [list(range(c)) for c in game.shape]
    removals: list[Removal] = []
    rnd = 0
    changed = True
    while changed:
        changed = False
        rnd += 1
        for i in range(game.n_players):
            for worse in list(kept[i]):
                dominator = None
                for better in kept[i]:
                    if better == worse:
                        continue
                    if _strictly_dominates(game, i, better, worse, kept):
                        dominator = better
                        break
                if dominator is not None:
                    kept[i].remove(worse)
                    removals.append(Removal(i, worse, dominator, rnd))
                    changed = True
    if not removals:
        return game, kept, removals
    names = [
        tuple(game.action_names[i][a] for a in kept[i]) for i in range(game.n_players)
    ]
    sub = game.utilities[np.ix_(*[kept[i] for i in range(game.n_players)])]
    reduced = NormalFormGame(names, sub)
    return reduced, kept, removals


# ---------------------------------------------------------------------------
# Support enumeration and presolve


def support_count(shape: Sequence[int]) -> int:
    total = 1
    for c in shape:
        total *= (1 << c) - 1
    return total


def enumerate_supports(game: NormalFormGame | Sequence[int]) -> list[Support]:
    """All supports in canonical order: ascending total size, then
    lexicographic per-player bitmasks, so pure supports come first."""
    shape = game.shape if isinstance(game, NormalFormGame) else tuple(game)
    per_player: list[list[tuple[int, ...]]] = []
    for c in shape:
        subsets = []
        for mask in range(1, 1 << c):
            subsets.append(tuple(a for a in range(c) if mask & (1 << a)))
        per_player.append(subsets)
    supports = [Support(combo) for combo in itertools.product(*per_player)]
    supports.sort(key=Support.sort_key)
    return supports


def check_pure_profile(game: NormalFormGame, joint: Joint) -> tuple[bool, tuple]:
    """Exact unilateral-deviation check for a pure profile.

    Uses the stored utility values directly, so rational inputs are
    compared without rounding. Returns (is_equilibrium, utility vector).
    """
    joint = tuple(joint)
    values = game.utility_vector(joint)
    for i in range(game.n_players):
        base = values[i]
        for a in range(game.shape[i]):
            if a == joint[i]:
                continue
            dev = joint[:i] + (a,) + joint[i + 1 :]
            if game.utility(dev, i) > base:
                return False, values
    return True, values


def presolve_support(game: NormalFormGame, support: Support) -> bool:
    """Sound necessary-condition filter; returns True to keep the support.

    Prunes only when no equilibrium with this support can exist: either
    some in-support action is strictly dominated by another in-support
    action on the opponents' support cells (indifference is impossible),
    or some out-of-support action strictly dominates every in-support
    action there (the no-profitable-deviation condition is impossible).
    Pure supports are always kept; they are checked exactly elsewhere.
    """
    if support.is_pure:
        return True
    kept = support.sets
    for i, b_i in enumerate(kept):
        for worse in b_i:
            for better in b_i:
                if better != worse and _strictly_dominates(game, i, better, worse, kept):
                    return False
        for a in range(game.shape[i]):
            if a not in b_i and all(
                _strictly_dominates(game, i, a, b, kept) for b in b_i
            ):
                return False
    return True


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
    if support.is_pure:
        values = _pure_values(game, tuple(s[0] for s in support.sets))
    else:
        values = np.array(
            [expected_utility(game, profile, i) for i in range(game.n_players)]
        )
    return EquilibriumCandidate(
        profile=profile,
        values=values,
        welfare=float(values.sum()),
        support=support,
    )


def _solve_pure(game: NormalFormGame, support: Support) -> SupportSolution:
    joint = tuple(s[0] for s in support.sets)
    ok, _values = check_pure_profile(game, joint)
    if not ok:
        return SupportSolution("infeasible")
    probs = [np.array([1.0]) for _ in support.sets]
    return SupportSolution("candidate", _candidate_from_probs(game, support, probs))


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

    The constructor builds index lists only. The restricted tables, the
    welfare table and the condition tensor (`conditions`) are each built
    on first use, because most supports are decided by a family that
    reads only some of them. Two-mixer supports, which the closed form
    mostly decides, read cross blocks of the tables and never the tensor:
    building it would cost them more than their rows.

    Everything at a point derives from the cross blocks cross[i, j] =
    d switch_i / d p_j, an (A_i full) x (B_j support) matrix. Player i's
    switch values are multilinear in the other players' blocks, so
    switch_i = cross[i, j] @ p_j for any j != i, and the rows of the cross
    blocks give the Jacobian of the gaps.
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

    @functools.cached_property
    def tables(self) -> list[np.ndarray]:
        norm = self.game.normalised_utilities()
        return [_restricted(norm, self.support, i) for i in range(self.n)]

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
        for i, table in enumerate(self.tables):
            pivot = table.take([self.pivots[i]], axis=i)
            gaps += [pivot - table.take([b], axis=i) for b in self.eq_index[i]]
            gains += [table.take([a], axis=i) - pivot for a in self.ineq_index[i]]
        # Player i's conditions depend on the others' blocks only, so each
        # has a length-one axis i; i's block sums to one, so spreading them
        # along that axis keeps their values.
        funcs = [np.broadcast_to(f, self.sizes) for f in gaps + gains]
        funcs.append(self.welfare_table)
        return np.stack(funcs, axis=-1)

    def max_violation(self, probs: Sequence[np.ndarray]) -> float:
        """Largest equilibrium-condition violation at a support-space point."""
        worst = 0.0
        for i, table in enumerate(self.tables):
            vec = _switch_on_support(table, probs, i)
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
            (i, j): _cross_block(self.tables[i], blocks, i, j) for i, j in pairs
        }

    def _switch(self, blocks, cross) -> list[np.ndarray]:
        return [cross[i, j] @ blocks[j] for i, j in self.switch_pairs]

    def _gaps(self, vecs) -> np.ndarray:
        return np.concatenate(
            [vec[p] - vec[eq] for vec, p, eq in zip(vecs, self.pivots, self.eq_index)]
        )

    def equality_residual(self, blocks) -> np.ndarray:
        """The residual half of `equality_system` (for line searches)."""
        return self._gaps(self._switch(blocks, self._cross(blocks, self.switch_pairs)))

    def equality_system(self, blocks) -> tuple[np.ndarray, np.ndarray]:
        """Residual vector and Jacobian of the indifference equalities."""
        cross = self._cross(blocks, self.all_pairs)
        res = self._gaps(self._switch(blocks, cross))
        jac = np.zeros((res.size, self.offsets[-1]))
        rows = self.cols
        for (i, j), mat in cross.items():
            jac[rows[i] : rows[i + 1], self.offsets[j] : self.offsets[j + 1]] = (
                mat[self.pivots[i]] - mat[self.eq_index[i]]
            )
        return res, jac

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.pack([_project_simplex(b, MIN_SUPPORT_PROB) for b in self.unpack(x)])

    def polish(self, x: np.ndarray) -> np.ndarray:
        """Damped Gauss-Newton on the indifference equalities from the
        projection of x, until the residual vanishes or progress stalls."""
        x = self.project(x)
        stalls = 0
        for it in range(60):
            res, jac = self.equality_system(self.unpack(x))
            if res.size == 0 or np.max(np.abs(res)) < 1e-14:
                break
            step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
            scale = 1.0
            improved = False
            base = np.max(np.abs(res))
            while scale > 1e-6:
                cand = self.project(x + scale * step)
                new_res = self.equality_residual(self.unpack(cand))
                if np.max(np.abs(new_res)) < base:
                    x = cand
                    improved = True
                    stalls = stalls + 1 if np.max(np.abs(new_res)) > 0.5 * base else 0
                    break
                scale *= 0.5
            if not improved or (it >= 6 and stalls >= 4):
                # Slow linear progress after several sweeps means the
                # equalities have no regular solution near this start.
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


def _solve_one_mixer(system: _SupportSystem) -> SupportSolution:
    """Support where exactly one player mixes: the equilibrium region is a
    polytope and welfare is linear over it, so this is a linear program."""
    mixer = next(i for i, k in enumerate(system.sizes) if k > 1)
    k = system.sizes[mixer]
    tol = FEASIBILITY_TOL
    # The mixer faces constant utilities, one row of the normalised table
    # at the others' single actions, so indifference and deviation
    # conditions are direct comparisons.
    cell: list = [s[0] for s in system.support.sets]
    cell[mixer] = slice(None)
    own = system.game.normalised_utilities()[tuple(cell) + (mixer,)]
    mix_utils = own[list(system.support.sets[mixer])]
    if mix_utils.max() - mix_utils.min() > tol:
        return SupportSolution("infeasible")
    if np.any(own[system.ineq_index[mixer]] > mix_utils[0] + tol):
        return SupportSolution("infeasible")
    # The other players' deviation gains are linear in the mixer's
    # probabilities, as is welfare: over the mixer's k cells they are the
    # gain and welfare columns of the condition tensor.
    n, cols = system.n, system.cols
    flat = system.conditions.reshape(k, -1)
    gains = np.concatenate(
        [flat[:, cols[n + j] : cols[n + j + 1]] for j in range(n) if j != mixer], axis=1
    ).T
    res = linprog(
        -flat[:, -1],
        A_ub=gains if len(gains) else None,
        b_ub=np.full(len(gains), tol) if len(gains) else None,
        A_eq=np.ones((1, k)),
        b_eq=np.array([1.0]),
        bounds=[(MIN_SUPPORT_PROB, 1.0)] * k,
        method="highs",
    )
    if not res.success:
        return SupportSolution("infeasible")
    probs = [
        np.asarray(res.x, dtype=np.float64) if j == mixer else np.array([1.0])
        for j in range(n)
    ]
    return SupportSolution(
        "candidate", _candidate_from_probs(system.game, system.support, probs)
    )


def _solve_two_mixers(system: _SupportSystem) -> SupportSolution | None:
    """Two mixing players: each one's indifference system is linear in the
    other's probabilities. Unique solutions are verified directly; rank
    deficient systems fall through to the general path (None)."""
    n = system.n
    i, j = [m for m, k in enumerate(system.sizes) if k > 1]
    singles = [np.array([1.0]) for _ in range(n)]

    def solve_block(active: int, other: int) -> np.ndarray | None:
        # Indifference of `active` pins down `other`'s probabilities. Every
        # non-mixer plays its single support action, so the cross block
        # holds table entries; row b is the pivot's row minus b's.
        cross = _cross_block(system.tables[active], singles, active, other)
        rows = cross[system.pivots[active]] - cross[system.eq_index[active]]
        k = system.sizes[other]
        a_mat = np.vstack([rows, np.ones((1, k))])
        b_vec = np.concatenate([np.zeros(len(rows)), [1.0]])
        sol, _res, rank, _sv = np.linalg.lstsq(a_mat, b_vec, rcond=None)
        if rank < k:
            return None
        if np.max(np.abs(a_mat @ sol - b_vec)) > 1e-9:
            return None  # inconsistent system: no indifferent point exists
        return sol

    p_j = solve_block(i, j)
    p_i = solve_block(j, i)
    if p_j is None or p_i is None:
        return None
    if np.any(p_i < MIN_SUPPORT_PROB - 1e-12) or np.any(p_j < MIN_SUPPORT_PROB - 1e-12):
        return SupportSolution("infeasible")
    probs = list(singles)
    probs[i], probs[j] = np.clip(p_i, 0.0, None), np.clip(p_j, 0.0, None)
    if system.max_violation(probs) > FEASIBILITY_TOL:
        # The indifferent point is unique, so its infeasibility rules the
        # support out entirely.
        return SupportSolution("infeasible")
    return SupportSolution(
        "candidate", _candidate_from_probs(system.game, system.support, probs)
    )


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


def _solve_three_binary_mixers(system: _SupportSystem) -> SupportSolution | None:
    """Exactly three mixing players with two support actions each.

    Each mixer's indifference gap is bilinear in the other two mixers'
    pivot probabilities, so chaining two substitutions leaves a quadratic
    in one variable: the equilibrium points are available in closed form.
    Returns None on degenerate coefficient patterns (continua etc.).
    """
    i, j, k = [m for m, size in enumerate(system.sizes) if size > 1]
    lo = MIN_SUPPORT_PROB
    # g_i(x_j, x_k) = 0, g_j(x_i, x_k) = 0, g_k(x_i, x_j) = 0.
    (ai, bi, ci, di), (aj, bj, cj, dj), (ak, bk, ck, dk) = _three_binary_coeffs(system)
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
    res = linprog(
        -welfare,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=np.ones((1, welfare.size)),
        b_eq=np.array([1.0]),
        bounds=(0.0, None),
        method="highs",
    )
    if res.status == 2:
        return -np.inf
    if res.status != 0:
        return np.inf
    return float(-res.fun)


def _gauss_newton(system: _SupportSystem) -> EquilibriumCandidate | None:
    """Best point that damped Gauss-Newton accepts from the support centroid
    and MULTISTARTS - 1 deterministically seeded random starts; it pins
    down the generically isolated equilibrium points in a few steps."""
    sizes = system.sizes
    rng = np.random.default_rng(zlib.crc32(repr(system.support.sets).encode()))
    starts = [system.pack([np.full(k, 1.0 / k) for k in sizes])]
    for _ in range(max(MULTISTARTS - 1, 0)):
        starts.append(system.pack([rng.dirichlet(np.ones(k)) for k in sizes]))
    best: EquilibriumCandidate | None = None
    for x0 in starts:
        cand = system.accept(system.polish(x0))
        if cand is not None and (best is None or cand.welfare > best.welfare):
            best = cand
    return best


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


def _corner_search(
    system: _SupportSystem,
    bar: float,
    incumbent: EquilibriumCandidate | None = None,
) -> SupportSolution:
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

    best = incumbent
    best_w, best_x = -np.inf, None
    if best is not None:
        best_w, best_x = system.welfare(best), system.pack(system.blocks(best))
    floor = max(bar - RELAXATION_MARGIN, best_w + RELAXATION_MARGIN)
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
                # Gauss-Newton ignores the deviation gains, so where one
                # binds at the optimum only the unpolished centre may pass.
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


def _solve_general(system: _SupportSystem, bar: float) -> SupportSolution:
    """Multistart Gauss-Newton, then, unless it found a candidate above
    `bar`, the corner search (`_corner_search`) to decide the support."""
    best = _gauss_newton(system)
    if best is not None and system.welfare(best) > bar:
        return SupportSolution("candidate", best)
    return _corner_search(system, bar, best)


def _polytope_vertices(
    eq_rows: np.ndarray, ineq_rows: np.ndarray, lo: float
) -> list[np.ndarray]:
    """Vertices of {p : eq_rows p = 0, ineq_rows p <= 0, p >= lo, sum p = 1}.

    A vertex is a feasible point where the equalities and enough active
    inequalities have a unique solution, so every choice of as many
    inequalities as the equalities leave free is solved and checked.
    Equalities must hold to 1e-9 (as in `_solve_two_mixers`), inequalities
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
    players reduce to linear algebra, and three binary mixers to a
    quadratic. Whatever those leave (more mixers, rank-deficient or
    degenerate systems) meets the linear relaxation (`relaxation_bound`),
    which proves most such supports infeasible. Of the rest, a
    two-player support is solved exactly at the vertices of its
    equilibrium polytopes (`_solve_bimatrix`); any other runs multistart
    Gauss-Newton and, when that finds no candidate above `bar`, the
    corner search (`_corner_search`), whose box cap alone can end it
    "inconclusive". `bar` is `swne`'s running bar in normalised welfare:
    a support whose relaxation bound plus RELAXATION_MARGIN does not
    exceed it comes back "pruned".
    """
    if support.is_pure:
        return _solve_pure(game, support)
    system = _SupportSystem(game, support)
    mixer_sizes = [k for k in system.sizes if k > 1]
    if len(mixer_sizes) == 1:
        return _solve_one_mixer(system)
    if len(mixer_sizes) == 2:
        out = _solve_two_mixers(system)
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
    return _solve_general(system, bar)


# ---------------------------------------------------------------------------
# Top-level search


def single_chooser_picks(
    block: np.ndarray, chooser: np.ndarray, welfare_tol: float
) -> np.ndarray:
    """Welfare-optimal pure equilibria of n games in which at most one
    player has more than one action, one game per row of `block`.

    Row r of the (n, k, m) block lists game r's cells in the order of the
    chooser's actions, and `chooser[r]` is the chooser's utility column
    (any column when nobody chooses). Every action that maximises the
    chooser's own utility is an equilibrium, and welfare is linear over
    mixtures of them, so a pure one is welfare-optimal. The pick is an
    exact own maximum, then welfare within `welfare_tol` of the best such
    action, then the lowest action index, matching the canonical candidate
    order of the general search. A row padded by repeating its last cell
    picks as it would unpadded. Returns the action index per row.
    """
    own = block[np.arange(block.shape[0]), :, chooser]
    welfare = block.sum(axis=2)
    welfare[own != own.max(axis=1, keepdims=True)] = -np.inf
    return (welfare >= welfare.max(axis=1, keepdims=True) - welfare_tol).argmax(axis=1)


def _single_chooser_fast_path(game: NormalFormGame) -> EquilibriumResult | None:
    """Games where at most one player has more than one action, solved by
    `single_chooser_picks`."""
    choosers = [i for i, c in enumerate(game.shape) if c > 1]
    if len(choosers) > 1:
        return None
    floats = game.float_utilities()
    joint = [0] * game.n_players
    candidates = 1
    if choosers:
        i = choosers[0]
        cells = floats.reshape(-1, game.n_players)
        pick = single_chooser_picks(cells[None], np.array([i]), WELFARE_TOL)
        joint[i] = int(pick[0])
        own = cells[:, i]
        candidates = int(np.count_nonzero(own == own[joint[i]]))
    values = np.array(floats[tuple(joint)], dtype=np.float64)
    probs = []
    for j, a in enumerate(joint):
        vec = np.zeros(game.shape[j])
        vec[a] = 1.0
        probs.append(vec)
    return EquilibriumResult(
        values=values,
        profile=MixedProfile(probs),
        welfare=float(values.sum()),
        support=Support(tuple((a,) for a in joint)),
        # Each player's best switch value is its own value here (the pick
        # is an own maximum), so this is what _pure_regrets computes.
        regrets=values - values,
        removals=[],
        candidates=candidates,
        pruned=0,
        inconclusive=0,
    )


def swne(game: NormalFormGame) -> EquilibriumResult:
    """Social-welfare optimal Nash equilibrium of a finite game.

    Dominated actions are removed first. Then one pass runs over the
    reduced game's supports in canonical order: pure supports (all of
    them first) are checked exactly, and a mixed support is skipped when
    its best cell welfare does not exceed the running bar (the best
    welfare found so far), or when presolve rules it out, before
    `solve_support` sees it with the bar. The maximal-welfare candidate
    wins, with ties inside the welfare tolerance broken by canonical
    support order and then by lexicographic profile order. `pruned`
    counts the skipped supports, `inconclusive` those whose corner search
    reached its box cap (a candidate it found by then still counts).
    Raises NoEquilibriumError when nothing is found, which
    indicates solver failure rather than a game property.
    """
    fast = _single_chooser_fast_path(game)
    if fast is not None:
        return fast
    reduced, kept, removals = filter_dominated(game)
    cell_welfare = reduced.float_utilities().sum(axis=-1)

    def normalised(cand: EquilibriumCandidate) -> float:
        welfare = reduced.normalised_utilities().sum(axis=-1)
        return float(_contract_tensor(welfare, cand.profile.probs))

    # The running bar is the best welfare of the candidates so far, all
    # canonically earlier, in original and (once a support needs it)
    # normalised units. Pure supports come first in canonical order, so
    # the best pure welfare is final before any mixed support is reached.
    candidates: list[EquilibriumCandidate] = []
    pruned = inconclusive = 0
    best_pure = best = -np.inf
    best_norm = None
    for idx, support in enumerate(enumerate_supports(reduced)):
        if support.is_pure:
            outcome = _solve_pure(reduced, support)
            if outcome.status == "candidate":
                best_pure = max(best_pure, outcome.candidate.welfare)
        else:
            # Expected welfare under a mixed profile is a convex combination
            # of its support cells' welfare. A support whose best cell does
            # not beat the bar (the pure bar by more than the tie tolerance)
            # would yield a candidate no better than an earlier one, which
            # then wins the maximum or the tie order; nor would one that
            # presolve rules out. Skipping either changes no answer.
            if best > -np.inf:
                # Cell by cell: supports are small, and fancy indexing
                # costs more than reading their cells.
                upper = max(map(cell_welfare.item, itertools.product(*support.sets)))
                if upper <= best_pure + WELFARE_TOL or upper <= best:
                    pruned += 1
                    continue
            if not presolve_support(reduced, support):
                pruned += 1
                continue
            if best_norm is None:
                best_norm = max(map(normalised, candidates), default=-np.inf)
            outcome = solve_support(reduced, support, bar=best_norm)
            if outcome.candidate is not None:
                best_norm = max(best_norm, normalised(outcome.candidate))
        if outcome.candidate is not None:
            outcome.candidate.support_index = idx
            candidates.append(outcome.candidate)
            best = max(best, outcome.candidate.welfare)
        if outcome.status == "inconclusive":
            inconclusive += 1
        elif outcome.status == "pruned":
            pruned += 1
    if not candidates:
        raise NoEquilibriumError("no equilibrium found: solver failure")
    best_welfare = max(c.welfare for c in candidates)
    tied = [c for c in candidates if c.welfare >= best_welfare - WELFARE_TOL]
    tied.sort(
        key=lambda c: (c.support_index, tuple(np.concatenate(c.profile.probs)))
    )
    chosen = tied[0]
    # Lift the profile back over any removed (dominated) actions.
    probs = []
    for i in range(game.n_players):
        vec = np.zeros(game.shape[i])
        for local, original in enumerate(kept[i]):
            vec[original] = chosen.profile.probs[i][local]
        probs.append(vec)
    profile = MixedProfile(probs)
    support = Support(
        tuple(
            tuple(kept[i][a] for a in chosen.support.sets[i])
            for i in range(game.n_players)
        )
    )
    if support.is_pure:
        joint = tuple(s[0] for s in support.sets)
        values, regrets = _pure_values(game, joint), _pure_regrets(game, joint)
    else:
        n = game.n_players
        values = np.array([expected_utility(game, profile, i) for i in range(n)])
        regrets = np.array([regret(game, profile, i) for i in range(n)])
    return EquilibriumResult(
        values=values,
        profile=profile,
        welfare=float(values.sum()),
        support=support,
        regrets=regrets,
        removals=removals,
        candidates=len(candidates),
        pruned=pruned,
        inconclusive=inconclusive,
    )


def scne(game: NormalFormGame) -> EquilibriumResult:
    """Social-cost optimal Nash equilibrium: the welfare-optimal
    equilibrium of the negated game, reported in original (cost) units."""
    res = swne(game.negated())
    values = -res.values
    return replace(res, values=values, welfare=float(values.sum()))
