"""Synthesised strategy profiles: storage, evaluation and certification.

A synthesised profile assigns, per (state, satisfied set D, failed set E)
and per remaining-step level for finite horizons, one distribution over
each coalition's enabled actions. Evaluation computes the objective values
the profile actually achieves; certification compares them against every
coalition's best response with the others held fixed, which bounds how far
the profile is from an exact equilibrium at every state.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .games import Csg, RewardStructure
from .objectives import (
    EMPTY,
    CompiledObjectives,
    Mode,
    canonical_mode,
    mode_closure,
    mode_decided,
)

# (state, D, E, step); step is None for memoryless strategies.
StrategyKey = tuple[int, frozenset[int], frozenset[int], int | None]


@dataclass
class SynthesizedStrategy:
    kind: str  # "finite" | "memoryless"
    horizon: int | None
    table: dict[StrategyKey, tuple[np.ndarray, ...]]
    choice_names: dict[int, tuple[tuple[str, ...], ...]]

    def distributions(
        self, state: int, D: frozenset[int], E: frozenset[int], step: int | None
    ) -> tuple[np.ndarray, ...]:
        key = (state, D, E, step if self.kind == "finite" else None)
        return self.table[key]


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
    """Load a strategy written by export_strategy."""
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
# Shared stage helpers


class _StageData:
    """Per-state transition and reward tables for profile evaluation."""

    def __init__(self, game: Csg, compiled: CompiledObjectives):
        self.game = game
        self.compiled = compiled
        rewards: list[RewardStructure | None] = []
        for obj in compiled.items:
            rewards.append(game.rewards[obj.reward] if obj.reward else None)
        self.choice_sets = []
        self.joints = []
        self.succs = []
        self.probs = []
        self.action_rewards = []
        self.state_rewards = []
        for s in range(game.n_states):
            sets = tuple(game.choices(s, i) for i in range(game.n_players))
            self.choice_sets.append(sets)
            joints = [tuple(j) for j in itertools.product(*sets)]
            self.joints.append(joints)
            succ_row, prob_row, act_row = [], [], []
            for joint in joints:
                dist = game.transitions[(s, joint)]
                succ_row.append(list(dist.keys()))
                prob_row.append(np.array(list(dist.values())))
                act_row.append(
                    np.array(
                        [r.action_reward(s, joint) if r else 0.0 for r in rewards]
                    )
                )
            self.succs.append(succ_row)
            self.probs.append(prob_row)
            self.action_rewards.append(act_row)
            self.state_rewards.append(
                np.array([r.state_reward(s) if r else 0.0 for r in rewards])
            )

    def joint_probs(self, state: int, dists: tuple[np.ndarray, ...]) -> np.ndarray:
        """Probability of each joint action under per-coalition mixes,
        flattened in the same order as the joints list."""
        weights = np.ones(1)
        for d in dists:
            weights = np.multiply.outer(weights, d)
        return weights.flatten()


# ---------------------------------------------------------------------------
# Profile evaluation


def evaluate_profile(
    game: Csg,
    strategy: SynthesizedStrategy,
    compiled: CompiledObjectives,
) -> dict[tuple[int, Mode], np.ndarray]:
    """Objective values achieved by a fixed profile at every reachable
    (state, mode) node. Infinite horizons solve the induced absorbing
    Markov chain exactly; finite horizons roll the levels back."""
    if compiled.horizon == "infinite":
        return _evaluate_memoryless(game, strategy, compiled)
    return _evaluate_finite(game, strategy, compiled)


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


def _evaluate_memoryless(game, strategy, compiled):
    data = _StageData(game, compiled)
    pairs, index = mode_closure(game, compiled)
    n = len(pairs)
    m = compiled.m
    # Entries of the induced chain over the undecided pairs (decided
    # pairs are never pending, so they need no rows).
    rows, cols, probs = [], [], []
    step_reward = np.zeros((n, m))
    for p, (s, (D, E)) in enumerate(pairs):
        if mode_decided(compiled, (D, E)):
            continue
        dists = strategy.distributions(s, D, E, None)
        weights = data.joint_probs(s, dists)
        step_reward[p] = data.state_rewards[s]
        for j, w in enumerate(weights):
            if w == 0.0:
                continue
            step_reward[p] += w * data.action_rewards[s][j]
            for t, tp in zip(data.succs[s][j], data.probs[s][j]):
                rows.append(p)
                cols.append(index[(int(t), canonical_mode(compiled, int(t), D, E))])
                probs.append(w * tp)
    chain = (np.array(rows), np.array(cols), np.array(probs))
    values = np.zeros((n, m))
    won = 1.0 if compiled.kind == "prob" else 0.0
    for l in range(m):
        pending = np.array([l not in D and l not in E for _s, (D, E) in pairs])
        boundary = np.array([won if l in D else 0.0 for _s, (D, E) in pairs])
        values[:, l] = _solve_absorbing(chain, step_reward[:, l], pending, boundary)
    return {pair: values[p].copy() for p, pair in enumerate(pairs)}


def _evaluate_finite(game, strategy, compiled):
    data = _StageData(game, compiled)
    m = compiled.m
    memo: dict[tuple[int, Mode, int], np.ndarray] = {}

    def indicator(D):
        vec = np.zeros(m)
        for l in D:
            vec[l] = 1.0
        return vec

    def value(s: int, D, E, n: int) -> np.ndarray:
        D, E = canonical_mode(compiled, s, D, E, step=n)
        key = (s, (D, E), n)
        if key in memo:
            return memo[key]
        if compiled.kind == "prob" and len(D) + len(E) == m:
            vec = indicator(D)
            memo[key] = vec
            return vec
        consts = np.zeros(m)
        live = []
        for l, obj in enumerate(compiled.items):
            if l in D:
                consts[l] = 1.0
                continue
            if l in E:
                continue
            remaining = (obj.bound or 0) - n
            if obj.kind in ("until", "next"):
                live.append(l)
            elif obj.kind == "instant":
                if remaining == 0:
                    consts[l] = data.state_rewards[s][l]
                elif remaining > 0:
                    live.append(l)
            elif obj.kind == "cumulative":
                if remaining > 0:
                    live.append(l)
        if not live:
            memo[key] = consts
            return consts
        dists = strategy.distributions(s, D, E, n)
        weights = data.joint_probs(s, dists)
        vec = consts.copy()
        for j, w in enumerate(weights):
            if w == 0.0:
                continue
            succ = np.array(
                [value(int(t), D, E, n + 1) for t in data.succs[s][j]]
            )
            for l in live:
                cont = float(np.dot(data.probs[s][j], succ[:, l]))
                if compiled.items[l].kind == "cumulative":
                    vec[l] += w * (
                        data.state_rewards[s][l]
                        + data.action_rewards[s][j][l]
                        + cont
                    )
                else:
                    vec[l] += w * cont
        memo[key] = vec
        return vec

    out: dict[tuple[int, Mode], np.ndarray] = {}
    for s in range(game.n_states):
        mode = canonical_mode(compiled, s, EMPTY, EMPTY, step=0)
        out[(s, mode)] = value(s, EMPTY, EMPTY, 0)
    return out


def evaluate_at_initial_modes(
    game: Csg, strategy: SynthesizedStrategy, compiled: CompiledObjectives
) -> dict[int, np.ndarray]:
    """Per-state value vectors at the empty bookkeeping mode."""
    table = evaluate_profile(game, strategy, compiled)
    out = {}
    for s in range(game.n_states):
        mode = canonical_mode(
            compiled, s, EMPTY, EMPTY, step=0 if compiled.horizon == "finite" else None
        )
        out[s] = table[(s, mode)]
    return out


# ---------------------------------------------------------------------------
# Best responses


def _deviator_optimum(compiled: CompiledObjectives) -> str:
    # A deviating coalition improves its utility when maximising and its
    # cost when minimising.
    return "max" if compiled.opt == "max" else "min"


def best_response_value(
    game: Csg,
    strategy: SynthesizedStrategy,
    coalition: int,
    compiled: CompiledObjectives,
) -> dict[tuple[int, Mode], float]:
    """Optimal value of one coalition's own objective when every other
    coalition plays the synthesised profile.

    Fixing the others yields a single-controller decision process over the
    (state, mode) bookkeeping graph; finite horizons are solved exactly by
    backward induction and infinite horizons exactly by policy iteration.
    """
    if compiled.horizon == "infinite":
        return _best_response_memoryless(game, strategy, coalition, compiled)
    return _best_response_finite(game, strategy, coalition, compiled)


def _others_weights(
    data: _StageData, s: int, dists, coalition: int
) -> list[tuple[int, float]]:
    """Weight of each joint action given the opponents' mixes, grouped by
    the controller's own action index. Returns (joint index, weight)."""
    sets = data.choice_sets[s]
    out = []
    for j, joint in enumerate(data.joints[s]):
        w = 1.0
        for i in range(len(sets)):
            if i == coalition:
                continue
            local = sets[i].index(joint[i])
            w *= float(dists[i][local])
        out.append((j, w))
    return out


def _best_response_memoryless(game, strategy, coalition, compiled):
    """Policy iteration over the coalition's open pairs, starting from the
    profile's most likely own action. The stopping assumption makes every
    deterministic deviation settle with probability 1, so each policy's
    chain is solved exactly and the iteration ends at the optimum."""
    data = _StageData(game, compiled)
    pairs, index = mode_closure(game, compiled)
    sign = 1.0 if _deviator_optimum(compiled) == "max" else -1.0
    won = 1.0 if compiled.kind == "prob" else 0.0
    boundary = np.array([won if coalition in D else 0.0 for _s, (D, E) in pairs])
    pending = np.array([coalition not in D | E for _s, (D, E) in pairs])
    opened = np.flatnonzero(pending)
    if not len(opened):
        return {pair: float(boundary[p]) for p, pair in enumerate(pairs)}
    # Choice row o * k + a is own action a at open pair o: its expected
    # immediate reward, and chain entries (row, successor pair, probability).
    # Rows past a pair's own actions hold -sign * inf, so they never win.
    k = max(len(data.choice_sets[pairs[p][0]][coalition]) for p in opened)
    immediate = np.full((len(opened), k), -sign * np.inf)
    policy, rows, cols, probs = [], [], [], []
    for o, p in enumerate(opened):
        s, (D, E) = pairs[p]
        dists = strategy.distributions(s, D, E, None)
        own = data.choice_sets[s][coalition]
        immediate[o, : len(own)] = data.state_rewards[s][coalition]
        policy.append(int(np.argmax(dists[coalition])))
        for j, w in _others_weights(data, s, dists, coalition):
            if w == 0.0:
                continue
            a = own.index(data.joints[s][j][coalition])
            immediate[o, a] += w * data.action_rewards[s][j][coalition]
            for t, tp in zip(data.succs[s][j], data.probs[s][j]):
                rows.append(o * k + a)
                cols.append(index[(int(t), canonical_mode(compiled, int(t), D, E))])
                probs.append(w * tp)
    rows, cols, probs = np.array(rows), np.array(cols), np.array(probs)
    here, policy = np.arange(len(opened)), np.array(policy)
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


def _best_response_finite(game, strategy, coalition, compiled):
    data = _StageData(game, compiled)
    better = max if _deviator_optimum(compiled) == "max" else min
    memo: dict[tuple[int, Mode, int], float] = {}
    obj = compiled.items[coalition]

    def value(s: int, D, E, n: int) -> float:
        D, E = canonical_mode(compiled, s, D, E, step=n)
        key = (s, (D, E), n)
        if key in memo:
            return memo[key]
        if coalition in D:
            out = 1.0 if compiled.kind == "prob" else 0.0
            memo[key] = out
            return out
        if coalition in E:
            memo[key] = 0.0
            return 0.0
        remaining = (obj.bound or 0) - n
        if obj.kind == "instant":
            if remaining < 0:
                memo[key] = 0.0
                return 0.0
            if remaining == 0:
                out = float(data.state_rewards[s][coalition])
                memo[key] = out
                return out
        if obj.kind == "cumulative" and remaining <= 0:
            memo[key] = 0.0
            return 0.0
        dists = strategy.distributions(s, D, E, n)
        weights = _others_weights(data, s, dists, coalition)
        own = data.choice_sets[s][coalition]
        best = None
        for a_local, _a in enumerate(own):
            total = 0.0
            if obj.kind == "cumulative":
                total += float(data.state_rewards[s][coalition])
            for j, w in weights:
                joint = data.joints[s][j]
                if own.index(joint[coalition]) != a_local or w == 0.0:
                    continue
                if obj.kind == "cumulative":
                    total += w * float(data.action_rewards[s][j][coalition])
                cont = 0.0
                for t, tp in zip(data.succs[s][j], data.probs[s][j]):
                    cont += tp * value(int(t), D, E, n + 1)
                total += w * cont
            best = total if best is None else better(best, total)
        memo[key] = best
        return best

    out: dict[tuple[int, Mode], float] = {}
    for s in range(game.n_states):
        mode = canonical_mode(compiled, s, EMPTY, EMPTY, step=0)
        out[(s, mode)] = value(s, EMPTY, EMPTY, 0)
    for (s, mode, n), v in list(memo.items()):
        out.setdefault((s, mode), v)
    return out


def certify_epsilon(
    game: Csg,
    strategy: SynthesizedStrategy,
    compiled: CompiledObjectives,
) -> EpsilonCertificate:
    """Best-response gap of every coalition at every reachable node.

    The achieved epsilon is the largest amount any coalition could gain
    (or, for cost objectives, save) by unilaterally deviating anywhere.
    """
    achieved = evaluate_profile(game, strategy, compiled)
    cert = EpsilonCertificate()
    worst = -np.inf
    for i in range(compiled.m):
        responses = best_response_value(game, strategy, i, compiled)
        coalition_worst = -np.inf
        for (s, mode), br in responses.items():
            if (s, mode) not in achieved:
                continue
            got = float(achieved[(s, mode)][i])
            gap = br - got if compiled.opt == "max" else got - br
            cert.gaps[(i, s, mode)] = gap
            coalition_worst = max(coalition_worst, gap)
        cert.per_coalition[i] = coalition_worst
        worst = max(worst, coalition_worst)
    cert.epsilon = float(worst) if np.isfinite(worst) else 0.0
    return cert
