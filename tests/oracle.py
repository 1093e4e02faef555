"""Brute-force reference computations, used only by tests.

Deliberately independent of the main solver: pure equilibria are found by
exhaustive deviation checking, small sequential games by re-deriving the
backward induction with pure-strategy stage solutions, a fixed bounded
profile's values and one coalition's best response against it by plain
recursion over the nodes, and single-agent optimal values by plain
dynamic programming. Mixed equilibria are out of scope by design;
whenever a stage game has none in pure strategies the reference
abstains instead of guessing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from csgnash.games import Csg, NormalFormGame
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
    found: list[tuple[Joint, tuple]] = []
    for joint in game.joint_actions():
        values = game.utility_vector(joint)
        is_ne = True
        for i in range(game.n_players):
            for a in range(game.shape[i]):
                if a == joint[i]:
                    continue
                dev = joint[:i] + (a,) + joint[i + 1 :]
                if game.utility(dev, i) > values[i]:
                    is_ne = False
                    break
            if not is_ne:
                break
        if is_ne:
            found.append((joint, values))
    best = max((float(sum(v)) for _, v in found), default=None)
    return OracleResult(found, best)


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
