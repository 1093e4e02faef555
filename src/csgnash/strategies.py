"""Synthesised strategy profiles: storage, evaluation and certification.

A synthesised profile assigns, per (state, satisfied set D, failed set E)
and per remaining-step level for finite horizons, one distribution over
each coalition's enabled actions. Evaluation computes the objective values
the profile actually achieves; certification compares them against every
coalition's best response with the others held fixed, which bounds how far
the profile is from an exact equilibrium at every state.
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
    entries = []
    for key in sorted(
        strategy.table,
        key=lambda k: (k[3] if k[3] is not None else -1, k[0], sorted(k[1]), sorted(k[2])),
    ):
        state, D, E, step = key
        dists = strategy.table[key]
        for coalition, dist in enumerate(dists):
            names = strategy.choice_names[state][coalition]
            entry = {
                "state": state,
                "D": sorted(D),
                "E": sorted(E),
                "coalition": coalition,
                "distribution": {
                    name: _format_prob(float(p)) for name, p in zip(names, dist)
                },
            }
            if step is not None:
                entry["step"] = step
            entries.append(entry)
    modes = sorted(
        {(tuple(sorted(k[1])), tuple(sorted(k[2]))) for k in strategy.table}
    )
    doc = {
        "kind": strategy.kind,
        "horizon": strategy.horizon,
        "modes": [{"D": list(d), "E": list(e)} for d, e in modes],
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
    skip: int = -1,
) -> np.ndarray:
    """The joint weight of every row of `level` whose node `here` marks,
    0 at the others: the coalitions' probabilities of the row's actions
    multiplied in coalition order, coalition `skip`'s own left out."""
    weights = np.zeros(level.rows.stop - level.rows.start)
    if not here.any():
        return weights
    probs = np.concatenate([
        dist
        for node in itertools.compress(core.nodes[level.nodes], here)
        for dist in strategy.table[node]
    ])
    # Where each (node, coalition) distribution starts in `probs`.
    sizes = level.shapes * here[:, None]
    first = (np.cumsum(sizes) - sizes.ravel()).reshape(sizes.shape)
    rows = np.flatnonzero(here[level.row_nodes])
    x = probs[first[level.row_nodes[rows]] + level.actions[rows]]
    columns = [x[:, i] for i in range(x.shape[1]) if i != skip]
    weights[rows] = functools.reduce(np.multiply, columns) if columns else 1.0
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
    levels are rolled back."""
    core = _core(game, strategy, compiled)
    if compiled.horizon == "infinite":
        return _evaluate_memoryless(core, strategy)
    return _evaluate_finite(core, strategy)


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
    weight = _row_weights(core, level, strategy, core.pending.any(axis=1))
    played = np.flatnonzero(weight)
    step_reward = core.state_rewards[[s for s, *_ in core.nodes]]
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


def _reached(
    core: Core, strategy: SynthesizedStrategy, skip: int = -1
) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of a bounded core that play can reach from an initial
    mode and that still need a value: those with a pending component, or
    with coalition `skip`'s objective pending when `skip` picks a best
    responder, whose own mix is then left out. Returns their mask and
    every row's `_row_weights`, 0 at the other nodes. Successors lie one
    level up, so one pass up the levels finds every reached node."""
    weights = np.zeros(len(core.action_rewards))
    reached = np.zeros(len(core.nodes), dtype=bool)
    reached[core.initial] = True
    expand = core.pending[:, skip] if skip >= 0 else core.pending.any(axis=1)
    todo = np.zeros(len(core.nodes), dtype=bool)
    for level in core.levels:
        todo[level.nodes] = here = reached[level.nodes] & expand[level.nodes]
        weights[level.rows] = w = _row_weights(core, level, strategy, here, skip)
        reached[core.succ[level.entries][w[level.entry_rows] != 0.0]] = True
    return todo, weights


def _evaluate_finite(core: Core, strategy: SynthesizedStrategy):
    """Levels rolled back from the deepest: a reached node's pending
    components sum weight times stage utility over its played rows, in
    joint order from 0."""
    todo, weights = _reached(core, strategy)
    values = core.const.copy()
    m = values.shape[1]
    for level in reversed(core.levels):
        nodes = level.nodes
        here = np.flatnonzero(todo[nodes])
        if not len(here):
            continue
        weight = weights[level.rows]
        played = np.flatnonzero(weight)
        utilities = level.stage_utilities(values)
        # bincount adds in index order, so each (node, component) sum
        # runs over the node's rows in joint order.
        slots = level.row_nodes[played, None] * m + np.arange(m)
        sums = np.bincount(
            slots.ravel(),
            weights=(weight[played, None] * utilities[played]).ravel(),
            minlength=(nodes.stop - nodes.start) * m,
        ).reshape(-1, m)
        p = nodes.start + here
        values[p] = np.where(core.pending[p], sums[here], core.const[p])
    return {
        (s, core.nodes[p][1:3]): values[p].copy() for s, p in enumerate(core.initial)
    }


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
    backward induction and infinite horizons exactly by policy iteration.
    """
    core = _core(game, strategy, compiled)
    if compiled.horizon == "infinite":
        return _best_response_memoryless(core, strategy, coalition)
    return _best_response_finite(core, strategy, coalition)


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
    weight = _row_weights(core, level, strategy, pending, coalition)
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
        core.state_rewards[[nodes[p][0] for p in opened], coalition, None],
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


def _best_response_finite(core: Core, strategy: SynthesizedStrategy, coalition: int):
    """Levels rolled back from the deepest. At a reached node each own
    action's total sums, over its played rows in joint order from 0 (the
    state reward first for a cumulative objective), weight times action
    reward and weight times continuation; the continuation sums
    probability times value over the row's successors in order from 0.
    The best total is kept as `functools.reduce(max or min)` keeps it:
    a later action wins only when strictly better, so a leading NaN
    stays."""
    todo, weights = _reached(core, strategy, coalition)
    better = np.greater if core.compiled.opt == "max" else np.less
    cumulative = core.compiled.items[coalition].kind == "cumulative"
    values = core.const[:, coalition].copy()
    state_rewards = core.state_rewards[[s for s, *_ in core.nodes], coalition]
    for level in reversed(core.levels):
        nodes, rows, entries = level.nodes, level.rows, level.entries
        here = np.flatnonzero(todo[nodes])
        if not len(here):
            continue
        weight = weights[rows]
        played = np.flatnonzero(weight)
        # bincount adds in index order: every sum below is sequential.
        cont = np.bincount(
            level.entry_rows,
            weights=core.prob[entries] * values[core.succ[entries]],
            minlength=len(weight),
        )
        counts = level.shapes[:, coalition]
        width = int(counts.max())
        slots = level.row_nodes[played] * width + level.actions[played, coalition]
        adds = weight[played] * cont[played]
        if cumulative:
            reward = core.action_rewards[rows, coalition][played]
            slots = np.concatenate([np.arange(len(counts) * width), slots.repeat(2)])
            adds = np.concatenate([
                state_rewards[nodes].repeat(width),
                np.column_stack([weight[played] * reward, adds]).ravel(),
            ])
        totals = np.bincount(
            slots, weights=adds, minlength=len(counts) * width
        ).reshape(-1, width)
        best = totals[:, 0]
        for a in range(1, width):
            best = np.where((a < counts) & better(totals[:, a], best), totals[:, a], best)
        values[nodes.start + here] = best[here]
    return {
        (s, core.nodes[p][1:3]): float(values[p]) for s, p in enumerate(core.initial)
    }


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
    achieved = evaluate_profile(game, strategy, compiled)
    cert = EpsilonCertificate()
    for i in range(compiled.m):
        responses = best_response_value(game, strategy, i, compiled)
        gaps = []
        for (s, mode), br in responses.items():
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
