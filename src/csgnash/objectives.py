"""Compiled objectives and the satisfied/failed-set bookkeeping.

During equilibrium iteration each coalition objective is either pending,
already satisfied (its index is in D) or already failed (in E). The
promotion rules below grow D and E from satisfaction sets, and for
unbounded untils also from qualitative sure/never sets, which fixes the
decided components of every value vector at exactly 1 or 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import mdp
from .formulas import (
    Cumulative,
    Instant,
    NashFormula,
    Next,
    ProbObjective,
    ReachReward,
    RewardObjective,
    StateFormula,
    Until,
)
from .games import Csg

SatResolver = Callable[[StateFormula], frozenset[int]]

Mode = tuple[frozenset[int], frozenset[int]]

EMPTY: frozenset[int] = frozenset()


@dataclass(frozen=True)
class CompiledObjective:
    kind: str  # "next" | "until" | "instant" | "cumulative" | "reach"
    bound: int | None = None
    sat2: frozenset[int] | None = None  # target set (phi2 / phi / X operand)
    fail: frozenset[int] | None = None  # states falsifying an until outright
    sure: frozenset[int] | None = None  # value exactly 1 under all profiles
    zero: frozenset[int] | None = None  # value exactly 0 under all profiles
    reward: str | None = None


@dataclass(frozen=True)
class CompiledObjectives:
    opt: str  # "max" | "min"
    kind: str  # "prob" | "reward"
    horizon: str  # "finite" | "infinite"
    items: tuple[CompiledObjective, ...]
    max_bound: int = 0

    @property
    def m(self) -> int:
        return len(self.items)


class UnsupportedFormulaError(ValueError):
    pass


def compile_objectives(
    coalition: Csg, nf: NashFormula, resolve: SatResolver
) -> CompiledObjectives:
    """Resolve satisfaction sets and qualitative sets for every objective.

    `resolve` supplies Sat(phi) for the state subformulas (computed on the
    underlying model; states coincide with the coalition game's).
    """
    from .formulas import classify_horizon

    horizon = classify_horizon(nf)
    if horizon == "mixed":
        raise UnsupportedFormulaError(
            "unsupported-mixed-horizon: objectives mix finite and infinite horizons"
        )
    kind = "prob" if isinstance(nf.objectives[0], ProbObjective) else "reward"
    succ = mdp.successor_sets(coalition) if horizon == "infinite" else None
    all_states = frozenset(range(coalition.n_states))
    items: list[CompiledObjective] = []
    for obj in nf.objectives:
        if isinstance(obj, ProbObjective):
            path = obj.path
            if isinstance(path, Next):
                items.append(
                    CompiledObjective(kind="next", bound=1, sat2=resolve(path.sub))
                )
                continue
            assert isinstance(path, Until)
            sat1 = resolve(path.lhs)
            sat2 = resolve(path.rhs)
            fail = (all_states - sat1) - sat2
            if path.bound is not None:
                items.append(
                    CompiledObjective(
                        kind="until", bound=path.bound, sat2=sat2, fail=fail
                    )
                )
            else:
                sure = mdp.until_sure_states(succ, sat1, sat2)
                zero = mdp.until_zero_states(succ, sat1, sat2)
                items.append(
                    CompiledObjective(
                        kind="until", sat2=sat2, fail=fail, sure=sure, zero=zero
                    )
                )
        else:
            assert isinstance(obj, RewardObjective)
            if obj.structure not in coalition.rewards:
                raise UnsupportedFormulaError(
                    f"unknown reward structure {obj.structure!r}"
                )
            shape = obj.shape
            if isinstance(shape, Instant):
                items.append(
                    CompiledObjective(
                        kind="instant", bound=shape.bound, reward=obj.structure
                    )
                )
            elif isinstance(shape, Cumulative):
                items.append(
                    CompiledObjective(
                        kind="cumulative", bound=shape.bound, reward=obj.structure
                    )
                )
            else:
                assert isinstance(shape, ReachReward)
                items.append(
                    CompiledObjective(
                        kind="reach", sat2=resolve(shape.target), reward=obj.structure
                    )
                )
    bounds = [it.bound for it in items if it.bound is not None]
    return CompiledObjectives(
        opt=nf.opt,
        kind=kind,
        horizon=horizon,
        items=tuple(items),
        max_bound=max(bounds) if bounds else 0,
    )


def promote_finite(obj: CompiledObjective, state: int, remaining: int) -> str | None:
    """Promotion of one pending finite-horizon objective at a state.

    Bounded untils succeed on their target at any remaining bound and fail
    on falsifying states or on expiry; next-objectives are decided exactly
    one step after they start. Reward objectives never promote.
    """
    if obj.kind == "until":
        if state in obj.sat2:
            return "D"
        if state in obj.fail:
            return "E"
        if remaining <= 0:
            return "E"
        return None
    if obj.kind == "next":
        if remaining <= 0:
            return "D" if state in obj.sat2 else "E"
        return None
    return None


def promote_infinite(obj: CompiledObjective, state: int) -> str | None:
    if obj.kind == "until":
        if state in obj.sure:
            return "D"
        if state in obj.zero:
            return "E"
        return None
    if obj.kind == "reach":
        return "D" if state in obj.sat2 else None
    return None


def canonical_mode(
    compiled: CompiledObjectives,
    state: int,
    D: frozenset[int],
    E: frozenset[int],
    step: int | None = None,
) -> Mode:
    """Apply every applicable promotion for pending objectives at a state."""
    new_d = set(D)
    new_e = set(E)
    for l, obj in enumerate(compiled.items):
        if l in new_d or l in new_e:
            continue
        if compiled.horizon == "finite":
            remaining = (obj.bound if obj.bound is not None else 0) - (step or 0)
            verdict = promote_finite(obj, state, remaining)
        else:
            verdict = promote_infinite(obj, state)
        if verdict == "D":
            new_d.add(l)
        elif verdict == "E":
            new_e.add(l)
    return frozenset(new_d), frozenset(new_e)


def mode_decided(compiled: CompiledObjectives, mode: Mode) -> bool:
    """Whether no component of the value vector can change any more."""
    D, E = mode
    if compiled.kind == "prob":
        return len(D) + len(E) == compiled.m
    if compiled.horizon == "infinite":
        return len(D) == compiled.m
    return False


def mode_closure(
    game: Csg, compiled: CompiledObjectives
) -> tuple[list[tuple[int, Mode]], dict[tuple[int, Mode], int]]:
    """All (state, mode) pairs reachable from any state's initial mode,
    in a deterministic order (infinite-horizon bookkeeping only)."""
    seen: set[tuple[int, Mode]] = set()
    stack: list[tuple[int, Mode]] = []
    for s in range(game.n_states):
        pair = (s, canonical_mode(compiled, s, EMPTY, EMPTY))
        if pair not in seen:
            seen.add(pair)
            stack.append(pair)
    while stack:
        s, (D, E) = stack.pop()
        if mode_decided(compiled, (D, E)):
            continue
        for joint in game.enabled_joints(s):
            for t in game.transitions[(s, joint)]:
                pair = (t, canonical_mode(compiled, t, D, E))
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
    pairs = sorted(seen, key=lambda p: (p[0], sorted(p[1][0]), sorted(p[1][1])))
    return pairs, {pair: idx for idx, pair in enumerate(pairs)}


# (state, D, E, level); level is None for unbounded objectives.
Node = tuple[int, frozenset[int], frozenset[int], int | None]


@dataclass
class Core:
    """One check compiled once, read by the engine and by certification.

    Per state: each coalition's enabled actions and their names, the stage
    shape (joint actions run in `itertools.product` order) and the state
    rewards. Nodes are (state, D, E, level) keys. Unbounded objectives use
    the `mode_closure` pairs, with level None. Bounded ones use the
    (state, mode, steps taken) triples reachable from the initial modes,
    numbered level by level, so every successor of a node has a higher
    number and one pass from the last node down is a backward induction.
    `const` holds the value of every decided component and `pending` marks
    the others. A node with a pending component has one row per joint
    action, in joint order: rows `start[p]:start[p + 1]`. Row r's
    successor nodes and probabilities are `succ[ptr[r]:ptr[r + 1]]` and
    `prob[ptr[r]:ptr[r + 1]]`.
    """

    game: Csg
    compiled: CompiledObjectives
    choice_names: list[tuple[tuple[str, ...], ...]]  # per state, per coalition
    shapes: list[tuple[int, ...]]
    state_rewards: np.ndarray  # (states, m)
    nodes: list[Node]
    initial: list[int]  # node of each state's initial mode
    const: np.ndarray  # (nodes, m)
    pending: np.ndarray  # (nodes, m)
    start: list[int]  # (nodes + 1,)
    ptr: list[int]  # (rows + 1,)
    succ: np.ndarray  # successor node of each entry
    prob: np.ndarray  # its probability
    action_rewards: np.ndarray  # (rows, m)

    def row_utilities(
        self, r: int, state: int, values: np.ndarray, live: list[int]
    ) -> list[float]:
        """Each live component's stage utility at row r of `state` on the
        successor `values`: one `np.dot` of the row's probabilities with
        the successors' values, plus the state and action rewards for a
        cumulative reward."""
        probs = self.prob[self.ptr[r] : self.ptr[r + 1]]
        succ = values[self.succ[self.ptr[r] : self.ptr[r + 1]]]
        out = []
        for l in live:
            cont = float(np.dot(probs, succ[:, l]))
            if self.compiled.items[l].kind == "cumulative":
                cont = self.state_rewards[state, l] + self.action_rewards[r, l] + cont
            out.append(cont)
        return out


def bounded_core(game: Csg, compiled: CompiledObjectives) -> Core:
    """The core of a step-bounded check, enumerated forward from level 0."""
    initial = [
        (s, *canonical_mode(compiled, s, EMPTY, EMPTY, step=0), 0)
        for s in range(game.n_states)
    ]
    return _compile_core(game, compiled, list(initial), initial)


def unbounded_core(
    game: Csg,
    compiled: CompiledObjectives,
    pairs: list[tuple[int, Mode]],
) -> Core:
    """The core of an unbounded check over its `mode_closure` pairs."""
    initial = [
        (s, *canonical_mode(compiled, s, EMPTY, EMPTY), None)
        for s in range(game.n_states)
    ]
    nodes = [(s, D, E, None) for s, (D, E) in pairs]
    return _compile_core(game, compiled, nodes, initial)


def _node_status(
    compiled: CompiledObjectives, node: Node, state_rewards: np.ndarray
) -> tuple[list[float], list[bool]]:
    """Pinned values and pending flags of one node's components.

    Satisfied components are worth 1 for probabilities and 0 for rewards,
    failed ones 0. At a bounded level, an instantaneous reward due now is
    the state reward, and an expired instantaneous or cumulative reward 0.
    """
    _s, D, E, level = node
    won = 1.0 if compiled.kind == "prob" else 0.0
    const, pending = [], []
    for l, obj in enumerate(compiled.items):
        value, live = 0.0, False
        if l in D:
            value = won
        elif l in E:
            pass
        elif level is None or obj.kind in ("until", "next"):
            live = True
        else:
            remaining = (obj.bound or 0) - level
            if obj.kind == "instant" and remaining == 0:
                value = float(state_rewards[l])
            else:
                live = remaining > 0
        const.append(value)
        pending.append(live)
    return const, pending


def _compile_core(
    game: Csg, compiled: CompiledObjectives, nodes: list[Node], initial: list[Node]
) -> Core:
    """Rows of every node with a pending component. `nodes` is complete for
    unbounded checks; bounded ones append each new successor, so the list
    grows level by level while it is walked."""
    rewards = [game.rewards.get(obj.reward) for obj in compiled.items]
    choice_names, shapes, tables = [], [], []
    state_rewards = np.zeros((game.n_states, compiled.m))
    for s in range(game.n_states):
        sets = tuple(game.choices(s, i) for i in range(game.n_players))
        choice_names.append(
            tuple(
                tuple(game.action_name(i, a) for a in acts)
                for i, acts in enumerate(sets)
            )
        )
        shapes.append(tuple(len(c) for c in sets))
        state_rewards[s] = [rew.state_reward(s) if rew else 0.0 for rew in rewards]
        joints = []
        for joint in itertools.product(*sets):
            dist = game.transitions[(s, joint)]
            joints.append((
                list(dist.keys()),
                list(dist.values()),
                [rew.action_reward(s, joint) if rew else 0.0 for rew in rewards],
            ))
        tables.append(joints)

    index = {node: p for p, node in enumerate(nodes)}
    # Successor node of (state, the predecessor's D and E, level).
    lookup: dict[Node, int] = {}
    const, pending, start, ptr = [], [], [0], [0]
    succ, prob, action_rewards = [], [], []
    p = 0
    while p < len(nodes):
        s, D, E, level = node = nodes[p]
        values, live = _node_status(compiled, node, state_rewards[s])
        const.append(values)
        pending.append(live)
        if any(live):
            after = None if level is None else level + 1
            for targets, probs, act in tables[s]:
                for t in targets:
                    q = lookup.get((t, D, E, after))
                    if q is None:
                        mode = canonical_mode(compiled, t, D, E, step=after)
                        target = (t, *mode, after)
                        q = index.setdefault(target, len(nodes))
                        if q == len(nodes):
                            nodes.append(target)
                        lookup[(t, D, E, after)] = q
                    succ.append(q)
                prob.extend(probs)
                action_rewards.append(act)
                ptr.append(len(succ))
        start.append(len(ptr) - 1)
        p += 1
    m = compiled.m
    return Core(
        game=game,
        compiled=compiled,
        choice_names=choice_names,
        shapes=shapes,
        state_rewards=state_rewards,
        nodes=nodes,
        initial=[index[node] for node in initial],
        const=np.array(const, dtype=np.float64).reshape(-1, m),
        pending=np.array(pending, dtype=bool).reshape(-1, m),
        start=start,
        ptr=ptr,
        succ=np.array(succ, dtype=np.int64),
        prob=np.array(prob, dtype=np.float64),
        action_rewards=np.array(action_rewards, dtype=np.float64).reshape(-1, m),
    )
