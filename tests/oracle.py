"""Brute-force reference computations, used only by tests.

Deliberately independent of the main solver: pure equilibria are found by
exhaustive deviation checking, iterated strict dominance one action pair
at a time, a support's presolve verdict, best cell welfare, mixed
refutation and closed-form refutation by reading its cells one by one, small sequential games by
re-deriving the backward induction with pure-strategy stage solutions, a
fixed bounded profile's values and one coalition's best response against
it by plain recursion over the nodes, and single-agent optimal values by
plain dynamic programming. Mixed equilibria are out of scope by design;
whenever a stage game has none in pure strategies the reference
abstains instead of guessing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from csgnash.games import Csg, NormalFormGame
import math

from csgnash.nfg_solve import (
    _CLOSED_FORM_MARGIN,
    _DEGENERATE_TOL,
    _PIN_TOL,
    _REFUTE_LEVEL,
    ACCEPT_FLOOR,
    FEASIBILITY_TOL,
    Removal,
)
from csgnash.objectives import CompiledObjectives

Joint = tuple[int, ...]


class OracleAbstain(Exception):
    """Raised when the pure-strategy reference cannot decide an instance."""


@dataclass
class OracleResult:
    pure_equilibria: list[tuple[Joint, tuple]]
    best_welfare: float | None

    def joints(self) -> list[Joint]:
        return [j for j, _ in self.pure_equilibria]


def brute_force_pure_ne(game: NormalFormGame) -> OracleResult:
    """Every pure profile with no profitable unilateral pure deviation.

    Comparisons use the stored utility values directly, so integer and
    fractional inputs are decided exactly.
    """
    total = 1
    for c in game.shape:
        total *= c
    if total > 10**6:
        raise ValueError("game too large for exhaustive checking")
    found = [
        (joint, game.utility_vector(joint))
        for joint in game.joint_actions()
        if reference_pure_profile(game, joint)
    ]
    best = max((float(sum(v)) for _, v in found), default=None)
    return OracleResult(found, best)


def reference_pure_profile(game: NormalFormGame, joint: Joint) -> bool:
    """Whether no player gains by a unilateral pure deviation from the
    pure profile `joint`, comparing stored utilities one by one."""
    for i in range(game.n_players):
        base = game.utility(joint, i)
        for a in range(game.shape[i]):
            dev = joint[:i] + (a,) + joint[i + 1 :]
            if a != joint[i] and game.utility(dev, i) > base:
                return False
    return True


def _strictly_dominates(game: NormalFormGame, player, better, worse, sets) -> bool:
    """Whether `better` gives `player` more than `worse` against every
    cell of the other players' action sets in `sets`."""
    others = [sets[j] for j in range(game.n_players) if j != player]
    for cell in itertools.product(*others):
        joint_b = cell[:player] + (better,) + cell[player:]
        joint_w = cell[:player] + (worse,) + cell[player:]
        if not game.utility(joint_b, player) > game.utility(joint_w, player):
            return False
    return True


def reference_filter_dominated(game: NormalFormGame):
    """Iterated removal of strictly dominated actions, one action pair at
    a time: in each round, each player in turn tests its actions in order,
    and an action goes to the first other action still kept that beats it
    against every cell the others keep. Rounds run until one removes
    nothing. Returns the reduced game, the kept actions per player and
    the removal log, as `filter_dominated` does."""
    kept = [list(range(c)) for c in game.shape]
    removals = []
    rnd = 0
    changed = True
    while changed:
        changed = False
        rnd += 1
        for i in range(game.n_players):
            for worse in list(kept[i]):
                for better in kept[i]:
                    if better != worse and _strictly_dominates(game, i, better, worse, kept):
                        kept[i].remove(worse)
                        removals.append(Removal(i, worse, better, rnd))
                        changed = True
                        break
    names = [tuple(game.action_names[i][a] for a in k) for i, k in enumerate(kept)]
    reduced = NormalFormGame(names, game.utilities[np.ix_(*kept)])
    return reduced, kept, removals


def reference_presolve(game: NormalFormGame, sets) -> bool:
    """Presolve's verdict on the support with action sets `sets`, test by
    test: False when some support action is strictly dominated by another
    on the other players' support cells, or some outside action strictly
    dominates every support action there. Pure supports are kept."""
    if all(len(s) == 1 for s in sets):
        return True
    for i, own in enumerate(sets):
        for worse, better in itertools.permutations(own, 2):
            if _strictly_dominates(game, i, better, worse, sets):
                return False
        for a in range(game.shape[i]):
            if a not in own and all(_strictly_dominates(game, i, a, b, sets) for b in own):
                return False
    return True


def reference_mixed_refuted(game: NormalFormGame, sets) -> bool:
    """Whether some player with at least three actions has two condition
    rows of the support with action sets `sets` whose mix beats
    `_REFUTE_LEVEL` on every cell of the others' support. The rows are
    the normalised differences u_a - u_b, in lexicographic order of
    (a, b), that are conditions with pivot p = sets[i][0]: a - p for
    a != p, and p - b for b != p in the support. For every pair of them,
    alpha * first + (1 - alpha) * second, a scalar interval of alphas in
    [0, 1] is narrowed cell by cell to those beating the level there."""
    norm = game.normalised_utilities()
    for i, own in enumerate(sets):
        c = game.shape[i]
        if c < 3:
            continue
        pivot = own[0]
        rows = [(a, b) for a in range(c) for b in range(c) if a != b]
        valid = [(a, b) for a, b in rows if b == pivot or (a == pivot and b in own)]
        others = [sets[j] for j in range(game.n_players) if j != i]

        def diff(row, cell):
            a, b = row
            return norm[cell[:i] + (a,) + cell[i:] + (i,)] - norm[cell[:i] + (b,) + cell[i:] + (i,)]

        for first, second in itertools.combinations(valid, 2):
            lo, hi = 0.0, 1.0
            for cell in itertools.product(*others):
                base = diff(second, cell)
                slope = diff(first, cell) - base
                # A tiny slope puts the cut at +-inf, which is where it is.
                with np.errstate(over="ignore"):
                    if slope > 0.0:
                        lo = max(lo, (_REFUTE_LEVEL - base) / slope)
                    elif slope < 0.0:
                        hi = min(hi, (_REFUTE_LEVEL - base) / slope)
                    elif not base > _REFUTE_LEVEL:
                        lo = np.inf
            if lo < hi:
                return True
    return False


def reference_binary_refuted(game: NormalFormGame, sets) -> bool:
    """Whether the support with action sets `sets`, on which exactly two
    or exactly three players (the mixers) keep two actions each and every
    other player one, has closed-form points that all clearly fail
    `accept`, support by support in scalars.

    A mixer's gap is its pivot's normalised utility minus its second
    action's, at the other mixers' picks (pick 0 is the pivot). With two
    mixers, each one's gaps g_a, g_b against the other's pivot and second
    action pin the other's pivot probability at g_b / (g_b - g_a); a gap
    difference of at most _PIN_TOL abstains (False). With three, the
    points are the roots of `_solve_three_binary_mixers`' chained
    quadratic, by its formulas; a leading coefficient or discriminant of
    at most _DEGENERATE_TOL times the quadratic's scale (squared for the
    discriminant), or a root's substitution denominator of at most
    _DEGENERATE_TOL, abstains, and a negative discriminant leaves no
    point. A point fails when a probability is below ACCEPT_FLOOR or
    above 1 - ACCEPT_FLOOR, or some player's gain from an action outside
    its support exceeds FEASIBILITY_TOL, by more than
    _CLOSED_FORM_MARGIN. A gain is the cell differences over the mixers'
    picks, contracted with the mixers' probabilities one mixer at a time,
    the last first. The support is refuted when every point fails."""
    sizes = [len(s) for s in sets]
    mixers = [i for i, size in enumerate(sizes) if size == 2]
    if len(mixers) not in (2, 3) or sizes.count(1) != len(sets) - len(mixers):
        return False
    norm = game.normalised_utilities()

    def utility(player, actions) -> float:
        joint = tuple(actions.get(p, s[0]) for p, s in enumerate(sets))
        return float(norm[joint + (player,)])

    def gap(m, picks) -> float:
        at = {q: sets[q][r] for q, r in picks.items()}
        return utility(m, {**at, m: sets[m][0]}) - utility(m, {**at, m: sets[m][1]})

    if len(mixers) == 2:
        points = [[]]
        for m, other in (mixers, mixers[::-1]):
            # The other mixer's gaps pin m's pivot probability.
            g_a, g_b = gap(other, {m: 0}), gap(other, {m: 1})
            if abs(g_b - g_a) <= _PIN_TOL:
                return False
            points[0].append(g_b / (g_b - g_a))
    else:
        coeffs = []
        for m in mixers:
            u, v = [q for q in mixers if q != m]
            at = [[gap(m, {u: r, v: t}) for t in (0, 1)] for r in (0, 1)]
            a = at[1][1]
            b = at[0][1] - a
            c = at[1][0] - a
            d = at[0][0] - a - b - c
            coeffs.append((a, b, c, d))
        (ai, bi, ci, di), (aj, bj, cj, dj), (ak, bk, ck, dk) = coeffs
        alpha0 = aj * ci - cj * ai
        alpha1 = aj * di - cj * bi
        beta0 = bj * ci - dj * ai
        beta1 = bj * di - dj * bi
        q2 = ck * beta1 - dk * alpha1
        q1 = ak * beta1 + ck * beta0 - bk * alpha1 - dk * alpha0
        q0 = ak * beta0 - bk * alpha0
        scale = max(abs(q0), abs(q1), abs(q2), 1e-30)
        disc = q1 * q1 - 4.0 * q2 * q0
        if abs(q2) <= _DEGENERATE_TOL * scale or abs(disc) <= _DEGENERATE_TOL * scale * scale:
            return False
        points = []
        if disc >= 0.0:
            sq = math.sqrt(disc)
            for x_j in ((-q1 - sq) / (2 * q2), (-q1 + sq) / (2 * q2)):
                den_i = beta0 + beta1 * x_j
                den_k = ci + di * x_j
                if abs(den_i) <= _DEGENERATE_TOL or abs(den_k) <= _DEGENERATE_TOL:
                    return False
                points.append([-(alpha0 + alpha1 * x_j) / den_i, x_j, -(ai + bi * x_j) / den_k])
    low, high = ACCEPT_FLOOR - _CLOSED_FORM_MARGIN, 1.0 - ACCEPT_FLOOR + _CLOSED_FORM_MARGIN
    level = FEASIBILITY_TOL + _CLOSED_FORM_MARGIN
    for point in points:
        if any(x < low or x > high for x in point):
            continue
        gains = []
        for p, own in enumerate(sets):
            for a in range(game.shape[p]):
                if a in own:
                    continue
                # Cell differences by picks, contracted the last mixer first.
                values = {}
                for pick in itertools.product((0, 1), repeat=len(mixers)):
                    at = {m: sets[m][r] for m, r in zip(mixers, pick)}
                    values[pick] = utility(p, {**at, p: a}) - utility(p, {**at, p: own[0]})
                for x in point[::-1]:
                    values = {
                        head: x * values[head + (0,)] + (1.0 - x) * values[head + (1,)]
                        for head in {pick[:-1] for pick in values}
                    }
                gains.append(values[()])
        if not any(g > level for g in gains):
            return False
    return True


def reference_welfare_bound(game: NormalFormGame, sets) -> float:
    """The largest float cell welfare over the cells of the support with
    action sets `sets`, read cell by cell."""
    welfare = game.float_utilities().sum(axis=-1)
    return max(map(welfare.item, itertools.product(*sets)))


def _stage_pure_optimum(
    names, utilities: dict[Joint, tuple], opt: str
) -> tuple[Joint, tuple]:
    """Welfare-best (or cost-best) pure equilibrium of a one-shot game,
    ties broken lexicographically; abstains when no pure one exists."""
    if opt == "min":
        negated = {j: tuple(-v for v in vec) for j, vec in utilities.items()}
        joint, _ = _stage_pure_optimum(names, negated, "max")
        return joint, utilities[joint]
    game = NormalFormGame(names, utilities)
    result = brute_force_pure_ne(game)
    if not result.pure_equilibria:
        raise OracleAbstain("stage game has no pure equilibrium")
    best = None
    for joint, values in sorted(result.pure_equilibria):
        welfare = float(sum(values))
        if best is None or welfare > best[0]:
            best = (welfare, joint, values)
    return best[1], best[2]


def _bounded_node(game: Csg, compiled: CompiledObjectives, rewards, s, D, E, n):
    """A bounded node entered in state s with satisfied set D and failed
    set E after n steps: its promoted key (s, D, E, n), its value vector
    with every decided component filled in, and its live components.

    Re-derives the bookkeeping from scratch: D and E grow from the
    satisfaction sets, expired bounds contribute nothing, an instantaneous
    reward due now is the state reward. A probability check whose every
    objective is decided has no live component."""
    D, E = set(D), set(E)
    for l, obj in enumerate(compiled.items):
        if l in D or l in E:
            continue
        remaining = (obj.bound or 0) - n
        if obj.kind == "until":
            if s in obj.sat2:
                D.add(l)
            elif s in obj.fail or remaining <= 0:
                E.add(l)
        elif obj.kind == "next" and remaining <= 0:
            (D if s in obj.sat2 else E).add(l)
    key = (s, frozenset(D), frozenset(E), n)
    vec = np.zeros(compiled.m)
    for l in D:
        vec[l] = 1.0
    live = []
    if compiled.kind == "prob" and len(D) + len(E) == compiled.m:
        return key, vec, live
    for l, obj in enumerate(compiled.items):
        if l in D or l in E:
            continue
        remaining = (obj.bound or 0) - n
        if obj.kind in ("until", "next"):
            live.append(l)
        elif obj.kind == "instant":
            if remaining == 0:
                vec[l] = rewards[l].state_reward(s)
            elif remaining > 0:
                live.append(l)
        elif obj.kind == "cumulative" and remaining > 0:
            live.append(l)
    return key, vec, live


def _stage_utility(compiled, rewards, s, joint, l, cont) -> float:
    """Objective l's utility of a joint action at state s, given its
    expected continuation `cont`: a cumulative reward adds the state and
    action rewards."""
    if compiled.items[l].kind == "cumulative":
        return rewards[l].state_reward(s) + rewards[l].action_reward(s, joint) + cont
    return cont


def reference_backward_induction(
    game: Csg, compiled: CompiledObjectives
) -> dict[int, np.ndarray]:
    """Finite-horizon values with every stage solved in pure strategies.

    Re-derives the bookkeeping recursion from scratch (`_bounded_node`):
    live objectives average the next level. Raises OracleAbstain when
    some stage game has no pure equilibrium.
    """
    if compiled.horizon != "finite":
        raise ValueError("reference covers finite horizons only")
    rewards = [game.rewards[o.reward] if o.reward else None for o in compiled.items]
    memo: dict = {}

    def value(s: int, D: frozenset, E: frozenset, n: int) -> np.ndarray:
        key, vec, live = _bounded_node(game, compiled, rewards, s, D, E, n)
        if key in memo:
            return memo[key]
        _, D, E, _ = key
        if not live:
            memo[key] = vec
            return vec
        choice_sets = [game.choices(s, i) for i in range(game.n_players)]
        names = [
            tuple(game.action_name(i, a) for a in acts)
            for i, acts in enumerate(choice_sets)
        ]
        utilities: dict[Joint, tuple] = {}
        for idx, joint in zip(
            itertools.product(*(range(len(c)) for c in choice_sets)),
            itertools.product(*choice_sets),
        ):
            row = vec.copy()
            dist = game.transitions[(s, joint)]
            for l in live:
                cont = sum(p * value(t, D, E, n + 1)[l] for t, p in dist.items())
                row[l] = _stage_utility(compiled, rewards, s, joint, l, cont)
            utilities[idx] = tuple(row)
        _joint, values = _stage_pure_optimum(names, utilities, compiled.opt)
        out = np.array(values, dtype=np.float64)
        memo[key] = out
        return out

    return {
        s: value(s, frozenset(), frozenset(), 0) for s in range(game.n_states)
    }


def reference_profile_values(
    game: Csg, compiled: CompiledObjectives, table, coalition: int | None = None
) -> dict[tuple[int, tuple[frozenset, frozenset]], np.ndarray]:
    """Values of a fixed profile of a bounded check at each state's
    initial mode, keyed (state, (D, E)). `table` maps each node (state, D,
    E, steps taken) to one distribution per coalition over its choices.

    Without `coalition`, the profile's value vector. With it, component
    `coalition` of each vector is that coalition's optimal value of its
    own objective when every other coalition plays the table: the best,
    over its own choices, of the others' weighted utilities. Plain
    recursion over (state, D, E, steps taken), each joint action
    weighted by the product of the other coalitions' probabilities."""
    if compiled.horizon != "finite":
        raise ValueError("reference covers finite horizons only")
    rewards = [game.rewards[o.reward] if o.reward else None for o in compiled.items]
    pick = max if compiled.opt == "max" else min
    memo: dict = {}

    def value(s: int, D: frozenset, E: frozenset, n: int) -> np.ndarray:
        key, vec, live = _bounded_node(game, compiled, rewards, s, D, E, n)
        if key in memo:
            return memo[key]
        _, D, E, _ = key
        if coalition is not None:
            live = [l for l in live if l == coalition]
        if live:
            dists = table[key]
            choice_sets = [game.choices(s, i) for i in range(game.n_players)]
            # Per own choice of the responder (None for the profile), the
            # weighted utilities summed over the others' choices.
            totals: dict = {}
            for idx, joint in zip(
                itertools.product(*(range(len(c)) for c in choice_sets)),
                itertools.product(*choice_sets),
            ):
                weight = 1.0
                for i, a in enumerate(idx):
                    if i != coalition:
                        weight *= float(dists[i][a])
                own = None if coalition is None else idx[coalition]
                total = totals.setdefault(own, np.zeros(compiled.m))
                dist = game.transitions[(s, joint)]
                for l in live:
                    cont = sum(p * value(t, D, E, n + 1)[l] for t, p in dist.items())
                    total[l] += weight * _stage_utility(
                        compiled, rewards, s, joint, l, cont
                    )
            for l in live:
                vec[l] = pick(total[l] for total in totals.values())
        memo[key] = vec
        return vec

    empty = frozenset()
    return {
        (s, _bounded_node(game, compiled, rewards, s, empty, empty, 0)[0][1:3]):
        value(s, empty, empty, 0)
        for s in range(game.n_states)
    }


def _expected(dist, values: np.ndarray) -> float:
    return sum(p * float(values[t]) for t, p in dist.items())


def single_agent_until(
    game: Csg,
    sat1: frozenset[int],
    sat2: frozenset[int],
    opt: str = "max",
    tol: float = 1e-12,
    max_iters: int = 2_000_000,
) -> np.ndarray:
    """Classical optimal until probabilities for one controller that picks
    any enabled joint action."""
    n = game.n_states
    better = max if opt == "max" else min
    fail = set(range(n)) - set(sat1) - set(sat2)
    v = np.zeros(n)
    for s in sat2:
        v[s] = 1.0
    for _ in range(max_iters):
        prev = v.copy()
        for s in range(n):
            if s in sat2 or s in fail:
                continue
            best = None
            for joint in game.enabled_joints(s):
                val = _expected(game.transitions[(s, joint)], prev)
                best = val if best is None else better(best, val)
            v[s] = best
        if np.max(np.abs(v - prev)) < tol:
            break
    return v


def single_agent_reach_reward(
    game: Csg,
    target: frozenset[int],
    state_rewards: np.ndarray,
    action_rewards,
    opt: str = "max",
    tol: float = 1e-12,
    max_iters: int = 2_000_000,
) -> np.ndarray:
    """Classical optimal expected reward accumulated before the target.

    ``action_rewards(s, joint)`` returns the controller's reward for
    taking that joint action in s. Target states contribute nothing.
    """
    n = game.n_states
    better = max if opt == "max" else min
    v = np.zeros(n)
    for _ in range(max_iters):
        prev = v.copy()
        for s in range(n):
            if s in target:
                continue
            best = None
            for joint in game.enabled_joints(s):
                val = (
                    float(state_rewards[s])
                    + float(action_rewards(s, joint))
                    + _expected(game.transitions[(s, joint)], prev)
                )
                best = val if best is None else better(best, val)
            v[s] = best
        if np.max(np.abs(v - prev)) < tol:
            break
    return v
