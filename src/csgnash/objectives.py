"""Compiled objectives and the satisfied/failed-set bookkeeping.

During equilibrium iteration each coalition objective is either pending,
already satisfied (its index is in D) or already failed (in E). The
promotion rules below grow D and E from satisfaction sets, and for
unbounded untils also from qualitative sure/never sets, which fixes the
decided components of every value vector at exactly 1 or 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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
from .nfg_solve import StageBlock, stage_block

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
    # The coalition game's positive-probability successor sets, computed
    # once for an infinite horizon's qualitative sets and for
    # `engine.check_stopping_assumption`; None for a finite horizon.
    successors: mdp.Successors | None = field(default=None, compare=False, repr=False)

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
        successors=succ,
    )


def promote_finite(obj: CompiledObjective, state: int, phase: int) -> str | None:
    """Promotion of one pending finite-horizon objective at a state, at
    the `phase` of its bound (`_phase`).

    Bounded untils succeed on their target at any remaining bound and fail
    on falsifying states or on expiry; next-objectives are decided exactly
    one step after they start. Reward objectives never promote.
    """
    if obj.kind == "until":
        if state in obj.sat2:
            return "D"
        if state in obj.fail:
            return "E"
        if phase <= 0:
            return "E"
        return None
    if obj.kind == "next":
        if phase <= 0:
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
    phase: tuple[int, ...] | None = None,
) -> Mode:
    """Apply every applicable promotion for pending objectives at a state,
    at a bounded level of `phase` (`_phase`), or None when unbounded."""
    new_d = set(D)
    new_e = set(E)
    for l, obj in enumerate(compiled.items):
        if l in new_d or l in new_e:
            continue
        if phase is None:
            verdict = promote_infinite(obj, state)
        else:
            verdict = promote_finite(obj, state, phase[l])
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
    the `mode_closure` pairs, with level None, as one level. Bounded ones
    use the (state, mode, steps taken) triples reachable from the initial
    modes, numbered level by level, and every successor of a node lies in
    the next level, so one pass over the levels from the last down is a
    backward induction.

    A bounded level's template is its nodes' (state, D, E), in order, and
    the phase of every bound at the level and at the next one
    (`_phase`), which is all `_compile_level` is given of the level. So
    levels of one template (equal `level_template`) have the same values,
    pending flags, rows and successors, the successors counted from the
    next level's first node, and the same next level's nodes, in order.

    A core stores what the compile produces, one `_Block` per template
    and each level's template, and derives the rest once: its `levels`,
    the row view that the engine and certification read, each template's
    `Level` arrays built once from its block; and flat arrays over all
    nodes. `const` holds the value of every decided component and
    `pending` marks the others. A node with a pending component has one
    row per joint action, in joint order: rows `start[p]:start[p + 1]`.
    Row r's successor nodes and probabilities are `succ[ptr[r]:ptr[r + 1]]`
    and `prob[ptr[r]:ptr[r + 1]]`.
    """

    game: Csg
    compiled: CompiledObjectives
    choice_names: list[tuple[tuple[str, ...], ...]]  # per state, per coalition
    shapes: list[tuple[int, ...]]
    state_rewards: np.ndarray  # (states, m)
    nodes: list[Node]
    initial: list[int]  # node of each state's initial mode
    blocks: list[_Block]  # per template
    level_template: list[int]  # template of each level
    states: np.ndarray = field(init=False)  # (nodes,) state of each node
    const: np.ndarray = field(init=False)  # (nodes, m)
    pending: np.ndarray = field(init=False)  # (nodes, m)
    start: np.ndarray = field(init=False)  # (nodes + 1,)
    ptr: np.ndarray = field(init=False)  # (rows + 1,)
    succ: np.ndarray = field(init=False)  # successor node of each entry
    prob: np.ndarray = field(init=False)  # its probability
    action_rewards: np.ndarray = field(init=False)  # (rows, m)
    levels: list[Level] = field(init=False)  # deepest last

    def __post_init__(self) -> None:
        bounded = self.compiled.horizon == "finite"
        chosen = [self.blocks[t] for t in self.level_template]
        for name in ("states", "const", "pending", "prob", "action_rewards"):
            setattr(self, name, np.concatenate([getattr(b, name) for b in chosen]))
        self.start = _bounds(np.concatenate([b.sizes for b in chosen]))
        self.ptr = _bounds(np.concatenate([b.lengths for b in chosen]))
        # Each level's nodes, rows and entries; `first` where each begins.
        counts = np.array(
            [(len(b.sizes), len(b.lengths), len(b.succ)) for b in self.blocks],
            dtype=np.int64,
        )[self.level_template]
        first = np.vstack(([0, 0, 0], counts.cumsum(axis=0)))
        # A bounded level's successors count from the next level's first
        # node, an unbounded core's from its one level's first, 0.
        offsets = first[1:, 0] if bounded else first[:-1, 0]
        self.succ = np.concatenate([b.succ for b in chosen]) + np.repeat(
            offsets, counts[:, 2]
        )
        arrays = [_level_arrays(self, block) for block in self.blocks]
        nodes, rows, entries = first.T.tolist()
        self.levels = [
            Level(
                nodes=slice(nodes[i], nodes[i + 1]),
                rows=slice(rows[i], rows[i + 1]),
                entries=slice(entries[i], entries[i + 1]),
                template=template,
                **arrays[template],
            )
            for i, template in enumerate(self.level_template)
        ]

    def backward(
        self, values: np.ndarray, compute: Callable[[Level], object],
        todo: np.ndarray | None = None, weights: np.ndarray | None = None,
    ) -> list:
        """A backward pass over this bounded core, from the deepest level:
        `compute(level)` writes the level's `values` (a row per node, any
        number of columns) and returns its output, except where `repeats`
        holds: level i then takes the values and the output object of
        level i + 1. Returns every level's output, in level order."""
        levels = self.levels
        outputs: list = [None] * len(levels)
        for i in reversed(range(len(levels))):
            if self.repeats(i, values, todo, weights):
                values[levels[i].nodes] = values[levels[i + 1].nodes]
                outputs[i] = outputs[i + 1]
            else:
                outputs[i] = compute(levels[i])
        return outputs

    def repeats(
        self,
        i: int,
        values: np.ndarray,
        todo: np.ndarray | None = None,
        weights: np.ndarray | None = None,
    ) -> bool:
        """Whether `backward` may give level i the outputs of level i + 1
        and do no other work. It may when the two levels share a template
        and the `values` (a row per node) over level i + 1 equal, byte for
        byte, those over level i + 2, which the two read as their
        successors' values. Certification also reads which nodes it
        evaluates, `todo` (a row per node), and the row `weights` (a row
        per row): where given, each must be byte-equal over the two
        levels. Each array's rows may stack several columns, as
        certification stacks its coalitions' and the profile's; all of
        them are compared. Every output of level i is then computed from
        the same bits as level i + 1's."""
        levels = self.levels
        if i + 2 >= len(levels) or levels[i + 1].template != levels[i].template:
            return False
        level, above, next_above = levels[i : i + 3]

        def same(array, a, b):
            return array is None or array[a].tobytes() == array[b].tobytes()

        return (
            same(todo, level.nodes, above.nodes)
            and same(weights, level.rows, above.rows)
            and same(values, above.nodes, next_above.nodes)
        )


@dataclass
class Level:
    """One level of a core: its nodes, their rows and the rows' successor
    entries, each a contiguous range. A bounded core has one level per
    step count, an unbounded core one level of every node. The arrays
    below count nodes and rows from the level's first, and a bounded
    level's successors (`groups`) count from the next level's first node,
    `nodes.stop`. So levels of one template (`template`) share every
    array, and only their ranges differ. A bounded level's rows are
    grouped by their exact successor count, for `stage_utilities`; an
    unbounded core's level has no groups.
    The stage block (`block`) lets both engine loops settle every stage
    whose answer is provably pure in one array pass."""

    nodes: slice
    rows: slice
    entries: slice
    template: int
    row_nodes: np.ndarray  # (R,) node of each row
    entry_rows: np.ndarray  # (entries,) row of each successor entry
    actions: np.ndarray  # (R, coalitions) each coalition's action in the row
    shapes: np.ndarray  # (N, coalitions) stage shape of each node
    groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]]  # rows, succ, prob
    base: np.ndarray  # (R, m) state plus action reward
    add_base: np.ndarray  # (R, m) pending cumulative or reach components
    pend: np.ndarray  # (R, m) pending components
    const: np.ndarray  # (R, m) pinned values of decided components
    block: StageBlock

    def stage_utilities(self, values: np.ndarray) -> np.ndarray:
        """Every row's stage utilities (R, m) on the core's `values`,
        read at the next level's nodes.

        A group of rows with K successors is contracted in one
        `(R, 1, 1, K) @ (R, m, K, 1)` product. Its output is a scalar per
        (row, objective), which numpy computes with one BLAS `ddot` at the
        strides of `np.dot(prob, values[succ][:, l])`, so every row rounds
        as a plain per-row dot product, whatever its length."""
        after = values[self.nodes.stop :]
        cont = np.empty(self.base.shape)
        for rows, succ, prob in self.groups:
            cont[rows] = (prob @ after[succ].transpose(0, 2, 1)[..., None])[..., 0, 0]
        return self.finish(cont)

    def finish(self, cont: np.ndarray) -> np.ndarray:
        """Stage utilities (R, m) from the rows' continuations `cont`,
        which are overwritten: the base is added where a reward is
        pending, and decided components take their pinned values."""
        np.add(self.base, cont, out=cont, where=self.add_base)
        return np.where(self.pend, cont, self.const)


def _level_arrays(core: Core, block: _Block) -> dict:
    """The `Level` arrays of one of the core's templates, from its block:
    nodes, rows and entries count from the level's first, and successors
    as the block numbers them. Only bounded levels group their rows, as
    value iteration contracts its one level itself
    (`engine._sweep_utilities`)."""
    # Components whose stage utility adds the row's state and action reward.
    kinds = [obj.kind for obj in core.compiled.items]
    rewarded = np.array([kind in ("cumulative", "reach") for kind in kinds])
    start = _bounds(block.sizes)
    ptr = _bounds(block.lengths)
    node_shape = np.array(core.shapes, dtype=np.int64)[block.states]
    row_nodes = np.repeat(np.arange(len(block.sizes)), block.sizes)
    # Joints run in `itertools.product` order: the last coalition fastest.
    joint = np.arange(len(row_nodes)) - start[row_nodes]
    actions = np.empty((len(row_nodes), node_shape.shape[1]), dtype=np.int64)
    for i in range(actions.shape[1] - 1, -1, -1):
        count = node_shape[row_nodes, i]
        actions[:, i] = joint % count
        joint //= count
    groups = []
    bounded = core.compiled.horizon == "finite"
    for k in np.unique(block.lengths).tolist() if bounded else []:
        rows = np.flatnonzero(block.lengths == k)
        entry = ptr[rows, None] + np.arange(k)
        groups.append((rows, block.succ[entry], block.prob[entry][:, None, None, :]))
    pend = block.pending[row_nodes]
    return dict(
        row_nodes=row_nodes,
        entry_rows=np.repeat(np.arange(len(block.lengths)), block.lengths),
        actions=actions,
        shapes=node_shape,
        groups=groups,
        base=core.state_rewards[block.states[row_nodes]] + block.action_rewards,
        add_base=pend & rewarded,
        pend=pend,
        const=block.const[row_nodes],
        block=stage_block(start, node_shape),
    )


def _phase(compiled: CompiledObjectives, step: int) -> tuple[int, ...]:
    """Per objective, the sign of its bound minus `step`: the one place a
    bounded level's step is read against the bounds."""
    return tuple(
        ((obj.bound or 0) > step) - ((obj.bound or 0) < step)
        for obj in compiled.items
    )


def bounded_core(game: Csg, compiled: CompiledObjectives) -> Core:
    """The core of a step-bounded check, enumerated forward from level 0.

    Each level is keyed by its template (`Core`). The first level of a
    template is compiled node by node (`_compile_level`), and it also
    yields the next level's nodes; a level that repeats a template only
    records it. The core gets the nodes, one block per template and each
    level's template, and derives the rest."""
    choice_names, shapes, state_rewards, stage_rows = _stage_rows(game, compiled)
    current, step, phase = 0, 0, _phase(compiled, 0)
    first = tuple(
        (s, *canonical_mode(compiled, s, EMPTY, EMPTY, phase))
        for s in range(game.n_states)
    )
    # Every distinct node list, numbered, and per template its block and
    # the number of the next level's node list.
    lists, numbers = [first], {first: 0}
    templates: dict[tuple, int] = {}
    blocks: list[_Block] = []
    follows: list[int] = []
    level_template, level_list = [], []
    while lists[current]:
        following = _phase(compiled, step + 1)
        template = templates.setdefault((current, phase, following), len(blocks))
        if template == len(blocks):
            index: dict[tuple, int] = {}
            blocks.append(_compile_level(
                compiled, stage_rows, state_rewards, lists[current],
                (phase, following), index,
            ))
            after = tuple(index)
            follows.append(numbers.setdefault(after, len(lists)))
            if follows[-1] == len(lists):
                lists.append(after)
        level_template.append(template)
        level_list.append(current)
        current, step, phase = follows[template], step + 1, following
    # Each node list's states, Ds and Es, zipped with a level's step.
    columns = [tuple(zip(*nodes)) for nodes in lists]
    return Core(
        game=game,
        compiled=compiled,
        choice_names=choice_names,
        shapes=shapes,
        state_rewards=state_rewards,
        nodes=list(itertools.chain.from_iterable(
            zip(*columns[l], itertools.repeat(step))
            for step, l in enumerate(level_list)
        )),
        initial=list(range(game.n_states)),
        blocks=blocks,
        level_template=level_template,
    )


def unbounded_core(
    game: Csg,
    compiled: CompiledObjectives,
    pairs: list[tuple[int, Mode]],
) -> Core:
    """The core of an unbounded check over its `mode_closure` pairs, one
    level of a single template, whose one block the core gets. The pairs
    are closed under successors, so the compile numbers no new one."""
    choice_names, shapes, state_rewards, stage_rows = _stage_rows(game, compiled)
    index = {(s, D, E): p for p, (s, (D, E)) in enumerate(pairs)}
    block = _compile_level(
        compiled, stage_rows, state_rewards, list(index), None, index
    )
    return Core(
        game=game,
        compiled=compiled,
        choice_names=choice_names,
        shapes=shapes,
        state_rewards=state_rewards,
        nodes=[(s, D, E, None) for s, D, E in index],
        initial=[
            index[(s, *canonical_mode(compiled, s, EMPTY, EMPTY))]
            for s in range(game.n_states)
        ],
        blocks=[block],
        level_template=[0],
    )


def _bounds(counts: np.ndarray) -> np.ndarray:
    """Range bounds (len + 1,) of consecutive runs of `counts` items."""
    return np.concatenate(([0], np.cumsum(counts)))


def _node_status(
    compiled: CompiledObjectives,
    mode: Mode,
    phase: tuple[int, ...] | None,
    state_rewards: np.ndarray,
) -> tuple[list[float], list[bool]]:
    """Pinned values and pending flags of one node's components, at a
    bounded level of `phase` (`_phase`), or None when unbounded.

    Satisfied components are worth 1 for probabilities and 0 for rewards,
    failed ones 0. At a bounded level, an instantaneous reward due now is
    the state reward, and an expired instantaneous or cumulative reward 0.
    """
    D, E = mode
    won = 1.0 if compiled.kind == "prob" else 0.0
    const, pending = [], []
    for l, obj in enumerate(compiled.items):
        value, live = 0.0, False
        if l in D:
            value = won
        elif l in E:
            pass
        elif phase is None or obj.kind in ("until", "next"):
            live = True
        elif obj.kind == "instant" and phase[l] == 0:
            value = float(state_rewards[l])
        else:
            live = phase[l] > 0
        const.append(value)
        pending.append(live)
    return const, pending


def _stage_rows(game: Csg, compiled: CompiledObjectives):
    """Per state: each coalition's action names, the stage shape, the
    state rewards (states, m), and every joint action's successor states,
    their probabilities and the action rewards, in joint order."""
    rewards = [game.rewards.get(obj.reward) for obj in compiled.items]
    choice_names, shapes, stage_rows = [], [], []
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
        stage_rows.append(joints)
    return choice_names, shapes, state_rewards, stage_rows


@dataclass
class _Block:
    """The compiled rows of one level's nodes, counted from its first
    node, row and entry; successors are numbered by the compile's index,
    a bounded level's from the next level's first node. A core keeps one
    block per template and derives its flat arrays and levels from them."""

    states: np.ndarray  # (nodes,) state of each node
    const: np.ndarray  # (nodes, m)
    pending: np.ndarray  # (nodes, m)
    sizes: np.ndarray  # (nodes,) rows of each node
    lengths: np.ndarray  # (rows,) successor entries of each row
    succ: np.ndarray  # successor of each entry
    prob: np.ndarray  # its probability
    action_rewards: np.ndarray  # (rows, m)


def _compile_level(
    compiled: CompiledObjectives,
    stage_rows: list,
    state_rewards: np.ndarray,
    nodes: tuple | list,
    phases: tuple[tuple[int, ...], tuple[int, ...]] | None,
    index: dict[tuple, int],
) -> _Block:
    """Rows of the nodes (state, D, E) of one level: one per joint action
    of every node with a pending component. `phases` is the `_phase` of a
    bounded level and of the next one, None when unbounded. A successor
    (state, D, E) is numbered by `index`, which gains each new one in
    order of discovery; for a bounded level, these are the next level's
    nodes."""
    phase, after = phases or (None, None)
    # Successor number of (state, the predecessor's D and E).
    lookup: dict[tuple, int] = {}
    states, const, pending, sizes, lengths = [], [], [], [], []
    succ, prob, action_rewards = [], [], []
    for s, D, E in nodes:
        states.append(s)
        values, live = _node_status(compiled, (D, E), phase, state_rewards[s])
        const.append(values)
        pending.append(live)
        rows = stage_rows[s] if any(live) else []
        sizes.append(len(rows))
        for targets, probs, act in rows:
            for t in targets:
                q = lookup.get((t, D, E))
                if q is None:
                    target = (t, *canonical_mode(compiled, t, D, E, after))
                    q = lookup[t, D, E] = index.setdefault(target, len(index))
                succ.append(q)
            prob.extend(probs)
            lengths.append(len(targets))
            action_rewards.append(act)
    m = compiled.m
    return _Block(
        states=np.array(states, dtype=np.int64),
        const=np.array(const, dtype=np.float64).reshape(-1, m),
        pending=np.array(pending, dtype=bool).reshape(-1, m),
        sizes=np.array(sizes, dtype=np.int64),
        lengths=np.array(lengths, dtype=np.int64),
        succ=np.array(succ, dtype=np.int64),
        prob=np.array(prob, dtype=np.float64),
        action_rewards=np.array(action_rewards, dtype=np.float64).reshape(-1, m),
    )
