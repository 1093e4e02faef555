"""Synthesised strategy profiles: storage, evaluation and certification.

A synthesised profile assigns, per (state, satisfied set D, failed set E)
and per remaining-step level for finite horizons, one distribution over
each coalition's enabled actions. Evaluation computes the objective values
the profile actually achieves; certification compares them against every
coalition's best response with the others held fixed, which bounds how far
the profile is from an exact equilibrium at every state.

Finite horizons are certified over the levels of the check's core
(`objectives.Core`) in two walks that carry every coalition at once: one
forward walk finds the nodes the profile reaches, and those each
coalition's deviations reach, and weights their rows, a column per
coalition and one for the profile; one backward walk then rolls back the
profile's values and every coalition's best response together, in
stacked columns. Each walk computes a repeated level once: the forward
walk per template, reached nodes and profile objects, the backward walk
copying a level whose inputs repeat the level above's byte for byte
(`Core.backward`, which backward induction runs too). So a long horizon
whose levels repeat costs about as much to certify as a short one, with
the bits of certifying every level and every coalition on its own.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .games import Csg, MixedProfile
from .objectives import (
    CompiledObjectives,
    Core,
    Level,
    Mode,
    Node,
    bounded_core,
    mode_closure,
    unbounded_core,
)

# (state, D, E, step); step is None for memoryless strategies.
StrategyKey = Node


@dataclass
class SynthesizedStrategy:
    kind: str  # "finite" | "memoryless"
    horizon: int | None
    table: dict[StrategyKey, tuple[np.ndarray, ...]]
    choice_names: dict[int, tuple[tuple[str, ...], ...]]
    # The compiled check the strategy was synthesised on, so certification
    # need not compile it again; export and import leave it out.
    core: Core | None = field(default=None, repr=False, compare=False)


@dataclass
class EpsilonCertificate:
    """Per-coalition best-response gaps; `epsilon` is the largest one.

    Gaps are reported unclamped, so tiny negative values (rounding in the
    exact linear solves) are visible. When several equally good
    equilibria exist the certified profile is the canonical one the
    solver picked; others may differ without affecting epsilon.
    """

    gaps: dict[tuple[int, int, Mode], float] = field(default_factory=dict)
    epsilon: float = 0.0
    per_coalition: dict[int, float] = field(default_factory=dict)


def _format_prob(p: float) -> str:
    return f"{p:.17g}"


def export_strategy(strategy: SynthesizedStrategy, destination) -> None:
    """Serialise to JSON; probabilities keep full float precision so an
    export / import / re-export cycle is byte identical."""
    # Each mode's sorted D and E, computed once.
    modes = {
        mode: (sorted(mode[0]), sorted(mode[1]))
        for mode in {key[1:3] for key in strategy.table}
    }
    entries = []
    for key in sorted(
        strategy.table,
        key=lambda k: (k[3] if k[3] is not None else -1, k[0], *modes[k[1:3]]),
    ):
        state, D, E, step = key
        sorted_d, sorted_e = modes[D, E]
        dists = strategy.table[key]
        for coalition, dist in enumerate(dists):
            names = strategy.choice_names[state][coalition]
            entry = {
                "state": state,
                "D": sorted_d,
                "E": sorted_e,
                "coalition": coalition,
                "distribution": {
                    name: _format_prob(float(p)) for name, p in zip(names, dist)
                },
            }
            if step is not None:
                entry["step"] = step
            entries.append(entry)
    doc = {
        "kind": strategy.kind,
        "horizon": strategy.horizon,
        "modes": [{"D": d, "E": e} for d, e in sorted(modes.values())],
        "entries": entries,
    }
    if hasattr(destination, "write"):
        json.dump(doc, destination, indent=1)
        destination.write("\n")
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


def import_strategy(source) -> SynthesizedStrategy:
    """Load a strategy written by export_strategy. Raises ValueError when a
    distribution is not finite, has a negative entry or does not sum to 1."""
    if hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    table: dict[StrategyKey, list] = {}
    names: dict[int, dict[int, tuple[str, ...]]] = {}
    for entry in doc["entries"]:
        state = int(entry["state"])
        key = (
            state,
            frozenset(entry["D"]),
            frozenset(entry["E"]),
            entry.get("step"),
        )
        dist = entry["distribution"]
        names.setdefault(state, {})[entry["coalition"]] = tuple(dist.keys())
        table.setdefault(key, []).append(
            np.array([float(p) for p in dist.values()])
        )
    for (state, D, E, step), dists in table.items():
        try:
            MixedProfile(dists)
        except ValueError as err:
            raise ValueError(
                f"strategy entry at state {state}, D {sorted(D)}, E {sorted(E)}, "
                f"step {step}: {err}"
            ) from None
    choice_names = {
        s: tuple(names[s][i] for i in sorted(names[s])) for s in names
    }
    return SynthesizedStrategy(
        kind=doc["kind"],
        horizon=doc.get("horizon"),
        table={k: tuple(v) for k, v in table.items()},
        choice_names=choice_names,
    )


# ---------------------------------------------------------------------------
# Shared helpers


def _core(
    game: Csg, strategy: SynthesizedStrategy, compiled: CompiledObjectives
) -> Core:
    """The core the strategy carries for this game and these objectives.
    One is compiled, and kept on the strategy, only when it carries none
    for them, as with an imported strategy."""
    core = strategy.core
    if core is None or core.game is not game or core.compiled is not compiled:
        if compiled.horizon == "finite":
            core = bounded_core(game, compiled)
        else:
            core = unbounded_core(game, compiled, mode_closure(game, compiled)[0])
        strategy.core = core
    return core


def _row_weights(
    core: Core, level: Level, strategy: SynthesizedStrategy, here: np.ndarray,
    skips,
) -> np.ndarray:
    """The joint weights (rows, columns) of `level`'s rows: in column j,
    the coalitions' probabilities of the row's actions multiplied in
    coalition order, coalition `skips[j]`'s own left out (none when it is
    not a coalition), at the rows whose node `here[:, j]` marks, and 0 at
    the others. The marked nodes' probabilities are gathered once for
    every column."""
    weights = np.zeros((level.rows.stop - level.rows.start, len(skips)))
    marked = here.any(axis=1)
    if not marked.any():
        return weights
    probs = np.concatenate([
        dist
        for node in itertools.compress(core.nodes[level.nodes], marked)
        for dist in strategy.table[node]
    ])
    # Where each (node, coalition) distribution starts in `probs`.
    sizes = level.shapes * marked[:, None]
    first = (np.cumsum(sizes) - sizes.ravel()).reshape(sizes.shape)
    rows = np.flatnonzero(marked[level.row_nodes])
    x = probs[first[level.row_nodes[rows]] + level.actions[rows]]
    # Per coalition, its factor of each (row, column): 1.0 where it is
    # left out, which leaves every product's bits as they are without it.
    left_out = np.arange(x.shape[1])[:, None] == skips
    factors = np.where(left_out[:, None, :], 1.0, x.T[:, :, None])
    product = functools.reduce(np.multiply, factors)
    weights[rows] = np.where(here[level.row_nodes[rows]], product, 0.0)
    return weights


# ---------------------------------------------------------------------------
# Profile evaluation


def evaluate_profile(
    game: Csg,
    strategy: SynthesizedStrategy,
    compiled: CompiledObjectives,
) -> dict[tuple[int, Mode], np.ndarray]:
    """Objective values achieved by a fixed profile at every (state, mode)
    node of an infinite horizon, where the induced absorbing Markov chain
    is solved exactly, and at every initial mode of a finite one, where the
    levels are rolled back (`_certify_finite`)."""
    core = _core(game, strategy, compiled)
    if compiled.horizon == "infinite":
        return _evaluate_memoryless(core, strategy)
    return _certify_finite(core, strategy)[0]


def _solve_absorbing(chain, reward, pending, boundary):
    """Values of an absorbing chain: x = reward + P x on the pending pairs
    and x = boundary on the others. `chain` holds P as (row pair, column
    pair, probability) arrays, duplicates summed; rows that are not
    pending are ignored. One dense solve over the pending pairs."""
    rows, cols, probs = chain
    values = boundary.copy()
    k = int(np.count_nonzero(pending))
    if not k:
        return values
    pos = np.cumsum(pending) - 1
    keep = pending[rows]
    r, c, w = pos[rows[keep]], cols[keep], probs[keep]
    inside = pending[c]
    a_mat = np.eye(k)
    np.add.at(a_mat, (r[inside], pos[c[inside]]), -w[inside])
    out = ~inside
    b_vec = reward[pending] + np.bincount(
        r[out], weights=w[out] * boundary[c[out]], minlength=k
    )
    values[pending] = np.linalg.solve(a_mat, b_vec)
    return values


def _evaluate_memoryless(core: Core, strategy: SynthesizedStrategy):
    """The chain the profile induces over the undecided pairs (decided
    pairs are never pending, so they have no rows), solved exactly. A
    pair's step reward adds to its state reward weight times action
    reward over its played rows in joint order (`np.add.at` adds in index
    order); its chain entries run row by row, each row's successors in
    order."""
    (level,) = core.levels
    n, m = core.const.shape
    here = core.pending.any(axis=1)[:, None]
    weight = _row_weights(core, level, strategy, here, [-1])[:, 0]
    played = np.flatnonzero(weight)
    step_reward = core.state_rewards[core.states]
    rewards = weight[played, None] * core.action_rewards[played]
    np.add.at(step_reward, level.row_nodes[played], rewards)
    keep = weight[level.entry_rows] != 0.0
    rows = level.entry_rows[keep]
    chain = (level.row_nodes[rows], core.succ[keep], weight[rows] * core.prob[keep])
    values = np.zeros((n, m))
    for l in range(m):
        values[:, l] = _solve_absorbing(
            chain, step_reward[:, l], core.pending[:, l], core.const[:, l]
        )
    return {(s, (D, E)): values[p].copy() for p, (s, D, E, _) in enumerate(core.nodes)}


def evaluate_at_initial_modes(
    game: Csg, strategy: SynthesizedStrategy, compiled: CompiledObjectives
) -> dict[int, np.ndarray]:
    """Per-state value vectors at the empty bookkeeping mode."""
    table = evaluate_profile(game, strategy, compiled)
    core = _core(game, strategy, compiled)
    return {s: table[(s, core.nodes[p][1:3])] for s, p in enumerate(core.initial)}


# ---------------------------------------------------------------------------
# Best responses


def best_response_value(
    game: Csg,
    strategy: SynthesizedStrategy,
    coalition: int,
    compiled: CompiledObjectives,
) -> dict[tuple[int, Mode], float]:
    """Optimal value of one coalition's own objective when every other
    coalition plays the synthesised profile, at the nodes that
    `evaluate_profile` reports.

    Fixing the others yields a single-controller decision process over the
    (state, mode) bookkeeping graph; finite horizons are solved exactly by
    backward induction (`_certify_finite`, for every coalition at once)
    and infinite horizons exactly by policy iteration.
    """
    core = _core(game, strategy, compiled)
    if compiled.horizon == "infinite":
        return _best_response_memoryless(core, strategy, coalition)
    return _certify_finite(core, strategy)[1][coalition]


def _best_response_memoryless(
    core: Core, strategy: SynthesizedStrategy, coalition: int
):
    """Policy iteration over the coalition's open pairs, starting from the
    profile's most likely own action. The stopping assumption makes every
    deterministic deviation settle with probability 1, so each policy's
    chain is solved exactly and the iteration ends at the optimum."""
    nodes = core.nodes
    pairs = [(s, (D, E)) for s, D, E, _ in nodes]
    sign = 1.0 if core.compiled.opt == "max" else -1.0
    boundary = core.const[:, coalition].copy()
    pending = core.pending[:, coalition]
    opened = np.flatnonzero(pending)
    if not len(opened):
        return {pair: float(boundary[p]) for p, pair in enumerate(pairs)}
    (level,) = core.levels
    weight = _row_weights(core, level, strategy, pending[:, None], [coalition])[:, 0]
    played = np.flatnonzero(weight)
    # Choice row o * k + a is own action a at open pair o: its expected
    # immediate reward, the state reward plus weight times action reward
    # over the played rows in joint order, and chain entries (choice row,
    # successor pair, probability) row by row. Rows past a pair's own
    # actions hold -sign * inf, so they never win.
    counts = level.shapes[opened, coalition]
    k = int(counts.max())
    immediate = np.where(
        np.arange(k) < counts[:, None],
        core.state_rewards[core.states[opened], coalition, None],
        -sign * np.inf,
    )
    choice = (np.cumsum(pending) - 1)[level.row_nodes] * k + level.actions[:, coalition]
    rewards = weight[played] * core.action_rewards[played, coalition]
    np.add.at(immediate.reshape(-1), choice[played], rewards)
    keep = weight[level.entry_rows] != 0.0
    rows = choice[level.entry_rows[keep]]
    cols = core.succ[keep]
    probs = weight[level.entry_rows[keep]] * core.prob[keep]
    here = np.arange(len(opened))
    policy = np.array([np.argmax(strategy.table[nodes[p]][coalition]) for p in opened])
    seen = set()
    while True:
        seen.add(policy.tobytes())
        keep = rows % k == policy[rows // k]
        reward = np.zeros(len(pairs))
        reward[opened] = immediate[here, policy]
        chain = (opened[rows[keep] // k], cols[keep], probs[keep])
        values = _solve_absorbing(chain, reward, pending, boundary)
        scores = sign * (immediate + np.bincount(
            rows, weights=probs * values[cols], minlength=immediate.size
        ).reshape(immediate.shape))
        current = scores[here, policy]
        best = scores.argmax(axis=1)
        margin = 1e-12 * np.maximum(1.0, np.abs(current))
        switch = scores[here, best] > current + margin
        if not switch.any():
            return {pair: float(values[p]) for p, pair in enumerate(pairs)}
        policy = np.where(switch, best, policy)
        if policy.tobytes() in seen:
            raise RuntimeError(
                f"policy iteration for coalition {coalition} revisited a policy"
            )


# ---------------------------------------------------------------------------
# Bounded certification: every coalition in one walk each way


def _reached(
    core: Core, strategy: SynthesizedStrategy
) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of a bounded core that play can reach from an initial
    mode and that still need a value, and every row's weights, 0 at the
    other nodes: one column per coalition i, reached with its own mix
    left out and needing a value where its objective is pending, then
    one for the profile, needing a value where any objective is pending
    (`_row_weights`). Returns the mask (nodes, m + 1) and the weights
    (rows, m + 1). Successors lie one level up, so one pass up the levels
    finds every reached node of every column.

    A level's weights, and the successors they reach, are a function of
    its template, its reached mask and the profiles of its reached nodes.
    So they are computed once per combination of the three, the profiles
    known by object: the table holds every profile for the whole call,
    and backward induction gives a copied level the profile objects of
    the level it copies. A table whose nodes share no profile objects,
    as an imported one, is weighted level by level, to the same bits."""
    m = core.const.shape[1]
    expand = np.column_stack([core.pending, core.pending.any(axis=1)])
    reached = np.zeros(expand.shape, dtype=bool)
    reached[core.initial] = True
    todo = np.zeros(expand.shape, dtype=bool)
    weights = np.zeros((len(core.action_rewards), m + 1))
    skips = list(range(m)) + [-1]
    # Per key, a level's weights and its reached successors, counted from
    # the next level's first node, with their columns.
    known: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for level in core.levels:
        todo[level.nodes] = here = reached[level.nodes] & expand[level.nodes]
        nodes = itertools.compress(core.nodes[level.nodes], here.any(axis=1))
        profiles = map(strategy.table.__getitem__, nodes)
        key = (level.template, here.tobytes(), *map(id, profiles))
        hit = known.get(key)
        if hit is None:
            w = _row_weights(core, level, strategy, here, skips)
            entries, columns = np.nonzero(w[level.entry_rows])
            after = core.succ[level.entries][entries] - level.nodes.stop
            hit = known[key] = w, after, columns
        weights[level.rows], after, columns = hit
        reached[level.nodes.stop + after, columns] = True
    return todo, weights


@dataclass
class _Slots:
    """Where `_certify_finite` sums a level's terms, the same for every
    level of its template. Slot (i, node, a) totals coalition i's own
    action a at the node, `size` of them; slot `size` + (node, l) then
    sums the profile's component l; one last slot takes the rewards of
    coalitions whose objective is not cumulative, and is never read."""

    cont: np.ndarray  # (entries * m,) each entry's continuation slot (row, i)
    total: np.ndarray  # (rows, m) each row's total slot per coalition
    reward: np.ndarray  # (rows, m) its reward's slot: `total`, or the last
    profile: np.ndarray  # (rows, m) its profile term's slot per component
    first: np.ndarray  # the total slots of cumulative objectives, which
    start: np.ndarray  # start from these state rewards
    width: int  # own actions per (coalition, node), padded
    size: int  # total slots
    length: int  # all slots


def _slots(core: Core, level: Level) -> _Slots:
    """The `_Slots` of a level's template."""
    m = core.const.shape[1]
    cumulative = np.array([obj.kind == "cumulative" for obj in core.compiled.items])
    count, width = level.shapes.shape[0], int(level.shapes.max())
    size = m * count * width
    own = np.arange(m)
    total = (own * count + level.row_nodes[:, None]) * width + level.actions
    return _Slots(
        cont=(level.entry_rows[:, None] * m + own).ravel(),
        total=total,
        reward=np.where(cumulative, total, size + count * m),
        profile=size + level.row_nodes[:, None] * m + own,
        first=np.arange(size).reshape(m, -1)[cumulative].ravel(),
        start=core.state_rewards[core.states[level.nodes]].T[cumulative].repeat(width),
        width=width,
        size=size,
        length=size + count * m + 1,
    )


def _certify_finite(core: Core, strategy: SynthesizedStrategy):
    """The profile's values at each state's initial mode, as
    `evaluate_profile` reports them, and per coalition its best responses
    there with the others held to the profile, as `best_response_value`
    does. The values (nodes, 2m) hold the profile's in columns 0 to m - 1,
    coalition i's best response in column m + i. Levels are rolled back
    from the deepest, each run or copied by `Core.backward`, every
    coalition in one pass.

    At a node the profile reaches, each pending component sums weight
    times stage utility over the node's played rows in joint order.
    At a node coalition i's deviations reach, each own action's total
    sums, over its played rows in joint order from 0 (the state reward
    first for a cumulative objective), weight times action reward (for
    a cumulative objective) and weight times continuation; the
    continuation sums probability times value over the row's successors
    in order from 0. The best total is kept as `functools.reduce(max or
    min)` keeps it: a later action wins only when strictly better, so a
    leading NaN stays.

    `bincount` adds in index order, so each sum runs in the order above:
    the continuations in one call per level, and the totals and the
    profile's sums in another, each in a slot of its own (`_slots`)."""
    todo, weights = _reached(core, strategy)
    m = core.const.shape[1]
    values = np.hstack([core.const, core.const])
    better = np.greater if core.compiled.opt == "max" else np.less
    layouts: dict[int, _Slots] = {}

    def certify(level: Level) -> None:
        nodes, rows, entries = level.nodes, level.rows, level.entries
        here = todo[nodes]
        if not here.any():
            return
        slots = layouts.get(level.template)
        if slots is None:
            slots = layouts[level.template] = _slots(core, level)
        weight = weights[rows]
        # Each row's continuation (rows, m) on each coalition's responses.
        cont = np.bincount(
            slots.cont,
            weights=(core.prob[entries, None] * values[core.succ[entries], m:]).ravel(),
            minlength=len(weight) * m,
        ).reshape(-1, m)
        row, i = np.nonzero(weight[:, :m])
        w = weight[row, i]
        played = np.flatnonzero(weight[:, m])
        # The profile's sums need stage utilities only where it plays.
        utilities = level.stage_utilities(values[:, :m])[played] if len(played) else 0.0
        sums = np.bincount(
            np.concatenate([
                slots.first,
                np.array([slots.reward[row, i], slots.total[row, i]]).ravel("F"),
                slots.profile[played].ravel(),
            ]),
            weights=np.concatenate([
                slots.start,
                np.array([
                    w * core.action_rewards[rows.start + row, i], w * cont[row, i]
                ]).ravel("F"),
                (weight[played, m, None] * utilities).ravel(),
            ]),
            minlength=slots.length,
        )
        totals = sums[: slots.size].reshape(m, -1, slots.width)
        counts = level.shapes.T
        best = totals[..., 0]
        for a in range(1, slots.width):
            take = (a < counts) & better(totals[..., a], best)
            best = np.where(take, totals[..., a], best)
        profile = sums[slots.size : -1].reshape(-1, m)
        evaluated = here[:, m, None] & core.pending[nodes]
        values[nodes, :m] = np.where(evaluated, profile, values[nodes, :m])
        values[nodes, m:] = np.where(here[:, :m], best.T, values[nodes, m:])

    core.backward(values, certify, todo, weights)
    keys = [(s, core.nodes[p][1:3]) for s, p in enumerate(core.initial)]
    achieved = {key: values[p, :m].copy() for key, p in zip(keys, core.initial)}
    responses = [
        {key: float(values[p, m + i]) for key, p in zip(keys, core.initial)}
        for i in range(m)
    ]
    return achieved, responses


def certify_epsilon(
    game: Csg,
    strategy: SynthesizedStrategy,
    compiled: CompiledObjectives,
) -> EpsilonCertificate:
    """Best-response gap of every coalition at every reachable node.

    The achieved epsilon is the largest amount any coalition could gain
    (or, for cost objectives, save) by unilaterally deviating anywhere. A
    NaN or infinite gap is reported as it is; epsilon is 0 only when there
    are no gaps at all.
    """
    if compiled.horizon == "finite":
        achieved, responses = _certify_finite(_core(game, strategy, compiled), strategy)
    else:
        achieved = evaluate_profile(game, strategy, compiled)
        responses = [
            best_response_value(game, strategy, i, compiled) for i in range(compiled.m)
        ]
    cert = EpsilonCertificate()
    for i, response in enumerate(responses):
        gaps = []
        for (s, mode), br in response.items():
            if (s, mode) not in achieved:
                continue
            got = float(achieved[(s, mode)][i])
            gap = br - got if compiled.opt == "max" else got - br
            cert.gaps[(i, s, mode)] = gap
            gaps.append(gap)
        # np.max, unlike max(), lets a NaN through.
        cert.per_coalition[i] = float(np.max(gaps)) if gaps else -np.inf
    cert.epsilon = float(np.max(list(cert.gaps.values()))) if cert.gaps else 0.0
    return cert
