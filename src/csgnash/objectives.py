"""Compiled objectives and the satisfied/failed-set bookkeeping.

During equilibrium iteration each coalition objective is either pending,
already satisfied (its index is in D) or already failed (in E). The
promotion rules below grow D and E from satisfaction sets, and for
unbounded untils also from qualitative sure/never sets, which fixes the
decided components of every value vector at exactly 1 or 0.
"""

from __future__ import annotations

import functools
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

    On first use the core cuts itself into `levels`, the row view that
    both engine loops and certification read: a bounded core into one
    level per step count, an unbounded core into a single level.
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

    @functools.cached_property
    def levels(self) -> list["Level"]:
        """The core's levels, deepest last, built on first use."""
        return _index_levels(self)


@dataclass
class Choosers:
    """Nodes split by who chooses at their stage. Single-chooser nodes (at
    most one coalition with more than one action) are gathered into one
    padded (nodes, k_max) block of rows, the padding repeating the last
    row; the other nodes keep a row slice each."""

    single: np.ndarray  # (P1,) single-chooser nodes
    rows: np.ndarray  # (P1, k_max) their rows, padded
    chooser: np.ndarray  # (P1,) utility column of the chooser
    multi: list[tuple[int, slice]]  # every other node and its rows


@dataclass
class Level:
    """One level of a core: its nodes, their rows and the rows' successor
    entries, each a contiguous range. A bounded core has one level per
    step count, an unbounded core one level of every node. The arrays
    below count nodes and rows from the level's first, and a bounded
    core's rows are also grouped by their exact successor count, for
    `stage_utilities`; an unbounded core's level has no groups.
    The stage split (`split`) lets both engine loops solve the stages
    where at most one coalition chooses in one array pass."""

    nodes: slice
    rows: slice
    entries: slice
    row_nodes: np.ndarray  # (R,) node of each row
    entry_rows: np.ndarray  # (entries,) row of each successor entry
    actions: np.ndarray  # (R, coalitions) each coalition's action in the row
    shapes: np.ndarray  # (N, coalitions) stage shape of each node
    groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]]  # rows, succ, prob
    base: np.ndarray  # (R, m) state plus action reward
    add_base: np.ndarray  # (R, m) pending cumulative or reach components
    pend: np.ndarray  # (R, m) pending components
    const: np.ndarray  # (R, m) pinned values of decided components
    split: Choosers

    def stage_utilities(self, values: np.ndarray) -> np.ndarray:
        """Every row's stage utilities (R, m) on the successor `values`.

        A group of rows with K successors is contracted in one
        `(R, 1, 1, K) @ (R, m, K, 1)` product. Its output is a scalar per
        (row, objective), which numpy computes with one BLAS `ddot` at the
        strides of `np.dot(prob, values[succ][:, l])`, so every row rounds
        as a plain per-row dot product, whatever its length."""
        cont = np.empty(self.base.shape)
        for rows, succ, prob in self.groups:
            cont[rows] = (prob @ values[succ].transpose(0, 2, 1)[..., None])[..., 0, 0]
        return self.finish(cont)

    def finish(self, cont: np.ndarray) -> np.ndarray:
        """Stage utilities (R, m) from the rows' continuations `cont`,
        which are overwritten: the base is added where a reward is
        pending, and decided components take their pinned values."""
        np.add(self.base, cont, out=cont, where=self.add_base)
        return np.where(self.pend, cont, self.const)


def choosers(first: int, start: np.ndarray, shapes: np.ndarray) -> Choosers:
    """`Choosers` of the nodes numbered from `first`, given their stage
    shapes (nodes, coalitions) and row bounds `start` (nodes + 1); rows
    count from `start[0]`."""
    start = start - start[0]
    sizes = np.diff(start)
    choosing = shapes > 1
    single = (sizes > 0) & (choosing.sum(axis=1) <= 1)
    k_max = int(sizes[single].max(initial=1))
    rows = start[:-1, None] + np.minimum(np.arange(k_max), sizes[:, None] - 1)
    return Choosers(
        single=first + np.flatnonzero(single),
        rows=rows[single],
        # The first choosing coalition, or 0 when none chooses.
        chooser=choosing[single].argmax(axis=1),
        multi=[
            (first + q, slice(start[q], start[q + 1]))
            for q in np.flatnonzero((sizes > 0) & ~single).tolist()
        ],
    )


def _index_levels(core: Core) -> list[Level]:
    """Cut a core, whose nodes are numbered level by level, into its
    levels; an unbounded core's level None makes one level."""
    node_level = np.array([level or 0 for *_mode, level in core.nodes])
    # Only backward induction reads `stage_utilities`; value iteration
    # contracts its one level itself (`engine._sweep_utilities`).
    bounded = all(level is not None for *_mode, level in core.nodes)
    node_state = np.array([s for s, *_ in core.nodes], dtype=np.int64)
    start, ptr = np.array(core.start), np.array(core.ptr)
    lengths = np.diff(ptr)
    row_node = np.repeat(np.arange(len(core.nodes)), np.diff(start))
    entry_row = np.repeat(np.arange(len(lengths)), lengths)
    node_shape = np.array(core.shapes, dtype=np.int64)[node_state]
    # Joints run in `itertools.product` order: the last coalition fastest.
    joint = np.arange(len(row_node)) - start[row_node]
    actions = np.empty((len(row_node), node_shape.shape[1]), dtype=np.int64)
    for i in range(actions.shape[1] - 1, -1, -1):
        count = node_shape[row_node, i]
        actions[:, i] = joint % count
        joint //= count
    # Components whose stage utility adds the row's state and action reward.
    kinds = [obj.kind for obj in core.compiled.items]
    rewarded = np.array([kind in ("cumulative", "reach") for kind in kinds])
    base = core.state_rewards[node_state[row_node]] + core.action_rewards
    pend = core.pending[row_node]
    const = core.const[row_node]
    bounds = np.flatnonzero(np.diff(node_level)) + 1
    levels = []
    for n0, n1 in zip([0, *bounds.tolist()], [*bounds.tolist(), len(core.nodes)]):
        r0, r1 = int(start[n0]), int(start[n1])
        e0, e1 = int(ptr[r0]), int(ptr[r1])
        groups = []
        for k in np.unique(lengths[r0:r1]).tolist() if bounded else []:
            rows = np.flatnonzero(lengths[r0:r1] == k)
            entry = ptr[r0 + rows, None] + np.arange(k)
            groups.append((rows, core.succ[entry], core.prob[entry][:, None, None, :]))
        levels.append(Level(
            nodes=slice(n0, n1),
            rows=slice(r0, r1),
            entries=slice(e0, e1),
            row_nodes=row_node[r0:r1] - n0,
            entry_rows=entry_row[e0:e1] - r0,
            actions=actions[r0:r1],
            shapes=node_shape[n0:n1],
            groups=groups,
            base=base[r0:r1],
            add_base=pend[r0:r1] & rewarded,
            pend=pend[r0:r1],
            const=const[r0:r1],
            split=choosers(n0, start[n0 : n1 + 1], node_shape[n0:n1]),
        ))
    return levels


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
