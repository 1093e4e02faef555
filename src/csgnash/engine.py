"""Equilibrium value computation over coalition games.

Finite-horizon objective sums are solved by backward induction on the
remaining step bound; infinite-horizon sums by value iteration. Both
recursions solve, at every reached (state, satisfied-set, failed-set)
triple, the one-shot game whose utilities combine decided components
(exactly 1 or 0 for probabilities, 0 for settled reward objectives) with
successor-weighted continuation values, taking welfare-optimal equilibrium
values (cost-optimal ones when minimising).
"""

from __future__ import annotations

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
import numpy as np

from . import mdp
from .formulas import (
    FormulaError,
    NashFormula,
    StateFormula,
    sat_states,
)
from .games import Csg, NormalFormGame, build_coalition_game, single_controller_view
from .nfg_solve import SolverConfig, scne, single_chooser_picks, swne
from .objectives import (
    CompiledObjectives,
    Mode,
    UnsupportedFormulaError,
    canonical_mode,
    compile_objectives,
    mode_closure,
    mode_decided,
)
from .strategies import StrategyKey, SynthesizedStrategy


class EngineError(RuntimeError):
    pass


class AssumptionViolation(EngineError):
    def __init__(self, report: "AssumptionReport"):
        super().__init__(str(report))
        self.report = report


class NotConverged(EngineError):
    """The stopping rule did not fire: the iteration cap was hit, or the
    value sequence entered a cycle (`period` sweeps long) on which the
    rule can never fire. `period` is None when no cycle was seen."""

    def __init__(self, residual: float, iterations: int, period: int | None = None):
        message = (
            f"not converged: residual {residual:.3e} after {iterations} iterations"
        )
        if period is not None:
            message += f"; the values cycle with period {period}"
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.period = period


@dataclass(frozen=True)
class VIConfig:
    """Stopping rule for value iteration.

    The iteration stops once the sup-norm difference between consecutive
    sweeps stays below `epsilon` for `stability_window` sweeps in a row.
    The residual sequence is convergent but need not shrink monotonically,
    hence the window.
    """

    epsilon: float = 1e-6
    stability_window: int = 2
    max_iters: int = 10_000


@dataclass(frozen=True)
class EngineConfig:
    solver: SolverConfig = field(default_factory=SolverConfig)
    vi: VIConfig = field(default_factory=VIConfig)
    threads: int = 1


@dataclass
class AssumptionReport:
    """Outcome of the objective-settling check for infinite-horizon sums."""

    violations: list[tuple[int, frozenset[int]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "stopping assumption holds"
        parts = []
        for l, states in self.violations:
            parts.append(
                f"objective {l + 1}: settlement not certain from states "
                f"{sorted(states)}"
            )
        return "; ".join(parts)


@dataclass
class ValueTable:
    """Computed equilibrium values per (state, D, E) triple."""

    entries: dict[tuple[int, Mode], np.ndarray]
    initial_mode: dict[int, Mode]
    iterations: int = 0
    converged: bool = True
    residual: float = 0.0

    def at_state(self, state: int) -> np.ndarray:
        return self.entries[(state, self.initial_mode[state])]


# ---------------------------------------------------------------------------
# Precompiled transition tables


@dataclass
class _StateTable:
    choice_sets: tuple[tuple[int, ...], ...]  # per coalition, local action ids
    choice_names: tuple[tuple[str, ...], ...]
    joints: list[tuple[int, ...]]  # joint actions (model action ids)
    shape: tuple[int, ...]
    succs: list[np.ndarray]
    probs: list[np.ndarray]
    action_rewards: list[np.ndarray]  # per joint, vector over objectives
    state_rewards: np.ndarray  # vector over objectives


class _Tables:
    def __init__(self, game: Csg, compiled: CompiledObjectives):
        self.game = game
        self.compiled = compiled
        rewards = []
        for obj in compiled.items:
            rewards.append(game.rewards[obj.reward] if obj.reward else None)
        self.states: list[_StateTable] = []
        for s in range(game.n_states):
            choice_sets = tuple(game.choices(s, i) for i in range(game.n_players))
            choice_names = tuple(
                tuple(game.action_name(i, a) for a in acts)
                for i, acts in enumerate(choice_sets)
            )
            joints = [tuple(j) for j in itertools.product(*choice_sets)]
            succs, probs, acts = [], [], []
            for joint in joints:
                dist = game.transitions[(s, joint)]
                succs.append(np.fromiter(dist.keys(), dtype=np.int64, count=len(dist)))
                probs.append(
                    np.fromiter(dist.values(), dtype=np.float64, count=len(dist))
                )
                acts.append(
                    np.array(
                        [
                            rew.action_reward(s, joint) if rew else 0.0
                            for rew in rewards
                        ]
                    )
                )
            self.states.append(
                _StateTable(
                    choice_sets=choice_sets,
                    choice_names=choice_names,
                    joints=joints,
                    shape=tuple(len(c) for c in choice_sets),
                    succs=succs,
                    probs=probs,
                    action_rewards=acts,
                    state_rewards=np.array(
                        [rew.state_reward(s) if rew else 0.0 for rew in rewards]
                    ),
                )
            )


_StageSolution = tuple[np.ndarray, tuple[np.ndarray, ...]]


class _StageSolver:
    """Equilibrium values and stage distributions of one-shot games, each
    distinct utility table solved once.

    One solver serves one check, so the optimisation direction and the
    solver settings are fixed, and action names do not enter the
    arithmetic: the table's shape and bytes are the whole key. Entries
    live in two generations. Backward induction never ages the cache, so
    it holds one entry per distinct table of the call, at most one per
    memoised value. Value iteration ages it after every sweep, keeping
    what the current and the previous sweep made or used, so memory stays
    proportional to the undecided pairs however many sweeps run. Solutions
    are shared between lookups and therefore read-only. Pool workers share
    the dicts; two workers racing on a new table solve it twice, with the
    same result.
    """

    def __init__(self, opt: str, cfg: SolverConfig):
        self.opt = opt
        self.cfg = cfg
        self.current: dict[tuple, _StageSolution] = {}
        self.previous: dict[tuple, _StageSolution] = {}

    def solve(
        self, utilities: np.ndarray, names: tuple[tuple[str, ...], ...]
    ) -> _StageSolution:
        key = (utilities.shape, utilities.tobytes())
        hit = self.current.get(key)
        if hit is None:
            hit = self.previous.get(key)
            if hit is None:
                # Module attributes, looked up per call, so a tracer that
                # wraps them sees every solve.
                game = NormalFormGame(names, utilities)
                result = (
                    swne(game, self.cfg) if self.opt == "max" else scne(game, self.cfg)
                )
                hit = (result.values, result.profile.probs)
                for arr in (hit[0], *hit[1]):
                    arr.setflags(write=False)
            self.current[key] = hit
        return hit

    def age(self) -> None:
        """Start a new generation, dropping entries unused for two."""
        self.previous = self.current
        self.current = {}


# ---------------------------------------------------------------------------
# Assumption check


def check_stopping_assumption(
    game: Csg, compiled: CompiledObjectives
) -> AssumptionReport:
    """Verify that every objective settles with probability 1 under every
    profile: unbounded untils must reach states that decide them, and
    reachability rewards must reach their target, from all states.

    The check runs on the pooled single-controller view, where it amounts
    to the minimal reachability probability of the settling set being 1.
    """
    pooled = single_controller_view(game)
    report = AssumptionReport()
    for l, obj in enumerate(compiled.items):
        if obj.kind == "until" and obj.bound is None:
            target = obj.sat2 | obj.fail
        elif obj.kind == "reach":
            target = obj.sat2
        else:
            continue
        _certain, violating = mdp.min_reach_certain(pooled, target)
        if violating:
            report.violations.append((l, violating))
    return report


# ---------------------------------------------------------------------------
# Finite horizon: backward induction


def solve_finite_horizon(
    game: Csg, compiled: CompiledObjectives, cfg: EngineConfig | None = None
) -> tuple[ValueTable, SynthesizedStrategy]:
    """Backward induction over the remaining step bound.

    Level n holds the values of the objectives with every bound reduced by
    n; expired bounds contribute 0 (probabilistic expiry goes through the
    failed set E), an instantaneous bound hitting 0 contributes the current
    state reward, and live objectives weight the next level's values by the
    transition probabilities.
    """
    cfg = cfg or EngineConfig()
    tables = _Tables(game, compiled)
    m = compiled.m
    memo: dict[tuple[int, Mode, int], np.ndarray] = {}
    dists: dict[StrategyKey, tuple[np.ndarray, ...]] = {}
    stages = _StageSolver(compiled.opt, cfg.solver)
    depth_needed = compiled.max_bound + 10
    if sys.getrecursionlimit() < depth_needed * 3:
        sys.setrecursionlimit(depth_needed * 3 + 1000)

    def indicator(D: frozenset[int]) -> np.ndarray:
        vec = np.zeros(m)
        for l in D:
            vec[l] = 1.0
        return vec

    def canonical_dists(st: _StateTable) -> tuple[np.ndarray, ...]:
        out = []
        for acts in st.choice_sets:
            vec = np.zeros(len(acts))
            vec[0] = 1.0
            out.append(vec)
        return tuple(out)

    def value(s: int, D: frozenset[int], E: frozenset[int], n: int) -> np.ndarray:
        D, E = canonical_mode(compiled, s, D, E, step=n)
        key = (s, (D, E), n)
        if key in memo:
            return memo[key]
        st = tables.states[s]
        if compiled.kind == "prob" and len(D) + len(E) == m:
            vec = indicator(D)
            memo[key] = vec
            return vec
        live: list[int] = []
        consts = np.zeros(m)
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
                if remaining < 0:
                    consts[l] = 0.0
                elif remaining == 0:
                    consts[l] = st.state_rewards[l]
                else:
                    live.append(l)
            elif obj.kind == "cumulative":
                if remaining > 0:
                    live.append(l)
        if not live:
            vec = consts.copy()
            memo[key] = vec
            dists[(s, D, E, n)] = canonical_dists(st)
            return vec
        n_joints = len(st.joints)
        utilities = np.tile(consts, (n_joints, 1))
        for j in range(n_joints):
            succ_vals = np.array(
                [value(int(t), D, E, n + 1) for t in st.succs[j]]
            )
            for l in live:
                cont = float(np.dot(st.probs[j], succ_vals[:, l]))
                if compiled.items[l].kind == "cumulative":
                    utilities[j, l] = (
                        st.state_rewards[l] + st.action_rewards[j][l] + cont
                    )
                else:
                    utilities[j, l] = cont
        table = utilities.reshape(st.shape + (m,))
        values, profile = stages.solve(table, st.choice_names)
        memo[key] = values
        dists[(s, D, E, n)] = profile
        return values

    entries: dict[tuple[int, Mode], np.ndarray] = {}
    initial_mode: dict[int, Mode] = {}
    for s in range(game.n_states):
        vec = value(s, frozenset(), frozenset(), 0)
        mode = canonical_mode(compiled, s, frozenset(), frozenset(), step=0)
        initial_mode[s] = mode
        entries[(s, mode)] = vec
    strategy = SynthesizedStrategy(
        kind="finite",
        horizon=compiled.max_bound,
        table=dists,
        choice_names={
            s: tables.states[s].choice_names for s in range(game.n_states)
        },
    )
    table = ValueTable(entries=entries, initial_mode=initial_mode)
    # Expose the full per-level memo for cross-checking.
    table.levels = memo  # type: ignore[attr-defined]
    return table, strategy


# ---------------------------------------------------------------------------
# Infinite horizon: value iteration


@dataclass
class _SweepPlan:
    """Value iteration compiled once per check into rows, one row per
    (undecided pair, joint action) in pair order.

    A sweep's stage tables are `where(pend, base + prob @ prev[succ],
    const)` on the reach-reward columns and `where(pend, prob @ prev[succ],
    const)` on the others. `succ` holds successor pair indices padded with
    probability 0. While no row has more than three successors, the batched
    product rounds exactly as one `np.dot` per row and objective; with
    longer rows, sums may differ from it in the last bit. Single-chooser
    pairs are gathered into one padded (pairs, k_max, m) block, the padding
    repeating the last action; the other pairs keep a row slice each.
    """

    succ: np.ndarray  # (R, K) successor pair indices
    prob: np.ndarray  # (R, 1, K) transition probabilities
    base: np.ndarray  # (R, m) state plus action reward
    const: np.ndarray  # (R, m) pinned values of decided components
    pend: np.ndarray  # (R, m) pending components
    add_base: np.ndarray  # (R, m) pending reach-reward components
    single: np.ndarray  # (P1,) single-chooser pair indices
    single_rows: np.ndarray  # (P1, k_max) their rows, padded
    chooser: np.ndarray  # (P1,) utility column of the chooser
    multi: list[tuple[int, slice]]  # multi-chooser pair and its rows

    def stage_tables(self, prev: np.ndarray) -> np.ndarray:
        """Every row's stage utilities (R, m) on the values `prev`."""
        cont = (self.prob @ prev[self.succ])[:, 0, :]
        np.add(self.base, cont, out=cont, where=self.add_base)
        return np.where(self.pend, cont, self.const)


def _compile_sweep(
    tables: _Tables,
    compiled: CompiledObjectives,
    pairs: list[tuple[int, Mode]],
    index: dict[tuple[int, Mode], int],
    undecided: list[int],
) -> _SweepPlan:
    m = compiled.m
    reach = np.array([obj.kind == "reach" for obj in compiled.items])
    succ, prob, base, const, pend = [], [], [], [], []
    single, single_rows, chooser, multi = [], [], [], []
    for p in undecided:
        s, (D, E) = pairs[p]
        st = tables.states[s]
        start = len(succ)
        pinned = np.zeros(m)
        if compiled.kind == "prob":
            pinned[list(D)] = 1.0
        pending = np.array([l not in D and l not in E for l in range(m)])
        for j in range(len(st.joints)):
            succ.append(
                [
                    index[(int(t), canonical_mode(compiled, int(t), D, E))]
                    for t in st.succs[j]
                ]
            )
            prob.append(st.probs[j])
            base.append(st.state_rewards + st.action_rewards[j])
            const.append(pinned)
            pend.append(pending)
        choosers = [i for i, c in enumerate(st.shape) if c > 1]
        if len(choosers) > 1:
            multi.append((p, slice(start, len(succ))))
        else:
            single.append(p)
            single_rows.append(range(start, len(succ)))
            chooser.append(choosers[0] if choosers else 0)
    width = max(map(len, succ), default=1)
    succ_arr = np.zeros((len(succ), width), dtype=np.int64)
    prob_arr = np.zeros((len(succ), 1, width))
    for r, (row, probs) in enumerate(zip(succ, prob)):
        succ_arr[r, : len(row)] = row
        succ_arr[r, len(row) :] = row[-1]
        prob_arr[r, 0, : len(row)] = probs
    k_max = max(map(len, single_rows), default=1)
    rows_arr = np.array(
        [[rows[min(a, len(rows) - 1)] for a in range(k_max)] for rows in single_rows],
        dtype=np.int64,
    ).reshape(len(single_rows), k_max)
    pend_arr = np.array(pend, dtype=bool).reshape(-1, m)
    return _SweepPlan(
        succ=succ_arr,
        prob=prob_arr,
        base=np.array(base).reshape(-1, m),
        const=np.array(const).reshape(-1, m),
        pend=pend_arr,
        add_base=pend_arr & reach,
        single=np.array(single, dtype=np.int64),
        single_rows=rows_arr,
        chooser=np.array(chooser, dtype=np.int64),
        multi=multi,
    )


def solve_value_iteration(
    game: Csg,
    compiled: CompiledObjectives,
    cfg: EngineConfig | None = None,
    check_assumption: bool = True,
) -> tuple[ValueTable, SynthesizedStrategy]:
    """Value iteration for unbounded untils or reachability rewards.

    Decided components are pinned at their exact values; pending ones are
    updated each sweep from the welfare/cost-optimal equilibrium of the
    stage game built on the previous sweep's values. A sweep builds every
    stage table in one contraction, solves the single-chooser stages in
    one array pass and the others through the stage cache. Raises
    NotConverged when the iteration cap is hit before the stopping rule
    fires, or as soon as the values cycle without it firing.
    """
    cfg = cfg or EngineConfig()
    if check_assumption:
        report = check_stopping_assumption(game, compiled)
        if not report.ok:
            raise AssumptionViolation(report)
    tables = _Tables(game, compiled)
    m = compiled.m
    pairs, index = mode_closure(game, compiled)
    n_pairs = len(pairs)
    undecided = [
        p for p, (s, mode) in enumerate(pairs) if not mode_decided(compiled, mode)
    ]
    plan = _compile_sweep(tables, compiled, pairs, index, undecided)

    values = np.zeros((n_pairs, m))
    if compiled.kind == "prob":
        for p, (s, (D, E)) in enumerate(pairs):
            values[p, list(D)] = 1.0

    dists: dict[int, tuple[np.ndarray, ...]] = {}
    stages = _StageSolver(compiled.opt, cfg.solver)
    minimise = compiled.opt == "min"
    single_index = np.arange(len(plan.single))
    picks = np.zeros(len(plan.single), dtype=np.int64)

    pool = (
        ThreadPoolExecutor(max_workers=cfg.threads) if cfg.threads > 1 else None
    )
    run = pool.map if pool is not None else map

    def sweep(prev: np.ndarray) -> None:
        utilities = plan.stage_tables(prev)
        if len(plan.single):
            # The cost-optimal pick is the welfare-optimal pick of the
            # negated block; the values are the block's own cells.
            block = utilities[plan.single_rows]
            picks[:] = single_chooser_picks(
                -block if minimise else block, plan.chooser, cfg.solver.welfare_tol
            )
            values[plan.single] = block[single_index, picks]

        def solve(item):
            p, rows = item
            st = tables.states[pairs[p][0]]
            return stages.solve(
                utilities[rows].reshape(st.shape + (m,)), st.choice_names
            )

        solved = list(run(solve, plan.multi))
        for (p, _rows), (vals, profile) in zip(plan.multi, solved):
            values[p] = vals
            dists[p] = profile
        stages.age()

    try:
        iterations = 0
        stable = 0
        residual = float("inf")
        # Brent's cycle detection: a sweep is a function of the previous
        # values alone, so values equal to the saved vector of `lam` sweeps
        # ago repeat with that period for ever.
        saved, power, lam = values.tobytes(), 1, 1
        period = None
        while iterations < cfg.vi.max_iters:
            iterations += 1
            prev = values.copy()
            sweep(prev)
            residual = float(np.abs(values - prev).max()) if n_pairs else 0.0
            stable = stable + 1 if residual < cfg.vi.epsilon else 0
            if stable >= cfg.vi.stability_window:
                break
            if period is None:
                current = values.tobytes()
                if current == saved:
                    period, deadline = lam, iterations + lam
                else:
                    if lam == power:
                        saved, power, lam = current, power * 2, 0
                    lam += 1
            elif iterations == deadline and stable < period:
                # A whole period has passed with a residual at or above
                # epsilon in it; every later period repeats it.
                raise NotConverged(residual, iterations, period)
        else:
            raise NotConverged(residual, iterations, period)
    finally:
        if pool is not None:
            pool.shutdown()

    def pure(size: int, action: int) -> np.ndarray:
        vec = np.zeros(size)
        vec[action] = 1.0
        vec.setflags(write=False)
        return vec

    for p, i, a in zip(plan.single.tolist(), plan.chooser.tolist(), picks.tolist()):
        shape = tables.states[pairs[p][0]].shape
        dists[p] = tuple(pure(c, a if j == i else 0) for j, c in enumerate(shape))

    entries = {
        (s, mode): values[p].copy() for p, (s, mode) in enumerate(pairs)
    }
    initial_mode = {
        s: canonical_mode(compiled, s, frozenset(), frozenset())
        for s in range(game.n_states)
    }
    strategy_table: dict[StrategyKey, tuple[np.ndarray, ...]] = {}
    for p, (s, mode) in enumerate(pairs):
        if p in dists:
            profile = dists[p]
        else:
            st = tables.states[s]
            profile = tuple(
                np.eye(len(acts))[0] for acts in st.choice_sets
            )
        strategy_table[(s, mode[0], mode[1], None)] = profile
    strategy = SynthesizedStrategy(
        kind="memoryless",
        horizon=None,
        table=strategy_table,
        choice_names={s: tables.states[s].choice_names for s in range(game.n_states)},
    )
    table = ValueTable(
        entries=entries,
        initial_mode=initial_mode,
        iterations=iterations,
        converged=True,
        residual=residual,
    )
    return table, strategy


# ---------------------------------------------------------------------------
# Named entry points per objective family


def _expect_kinds(compiled: CompiledObjectives, kinds: set[str], horizon: str):
    seen = {obj.kind for obj in compiled.items}
    if not seen <= kinds or compiled.horizon != horizon:
        raise UnsupportedFormulaError(
            f"objective kinds {sorted(seen)} not supported by this solver"
        )


def solve_bounded_until(game, compiled, cfg=None):
    """Step-bounded probabilistic objectives (bounded untils and nexts)."""
    _expect_kinds(compiled, {"until", "next"}, "finite")
    return solve_finite_horizon(game, compiled, cfg)


def solve_instantaneous(game, compiled, cfg=None):
    """State rewards read at fixed time points."""
    _expect_kinds(compiled, {"instant"}, "finite")
    return solve_finite_horizon(game, compiled, cfg)


def solve_cumulative(game, compiled, cfg=None):
    """Rewards accumulated over bounded prefixes."""
    _expect_kinds(compiled, {"cumulative"}, "finite")
    return solve_finite_horizon(game, compiled, cfg)


def solve_until_vi(game, compiled, cfg=None, check_assumption=True):
    """Unbounded probabilistic untils via value iteration."""
    _expect_kinds(compiled, {"until"}, "infinite")
    return solve_value_iteration(game, compiled, cfg, check_assumption)


def solve_reach_reward_vi(game, compiled, cfg=None, check_assumption=True):
    """Expected rewards to reach targets via value iteration."""
    _expect_kinds(compiled, {"reach"}, "infinite")
    return solve_value_iteration(game, compiled, cfg, check_assumption)


# ---------------------------------------------------------------------------
# Top-level formula checking


@dataclass
class CheckResult:
    formula: NashFormula
    coalition_game: Csg
    compiled: CompiledObjectives
    table: ValueTable
    strategy: SynthesizedStrategy
    values: dict[int, np.ndarray]
    sums: dict[int, float]
    sat: dict[int, bool] | None

    @property
    def iterations(self) -> int:
        return self.table.iterations


def _compare(total: float, comparator: str, threshold: Fraction) -> bool:
    x = float(threshold)
    if comparator == "<":
        return total < x
    if comparator == "<=":
        return total <= x
    if comparator == ">=":
        return total >= x
    return total > x


def check_nash_formula(
    model: Csg, nf: NashFormula, cfg: EngineConfig | None = None
) -> CheckResult:
    """Evaluate one equilibrium formula at every state of the model.

    Builds the coalition game for the formula's partition, dispatches on
    the horizon class, and reports the per-state value vector, its sum and
    (for threshold queries) the verdict. Nested state formulas, including
    nested Nash formulas, are resolved bottom-up on the base model.
    """
    from .formulas import resolve_coalitions

    cfg = cfg or EngineConfig()
    partition = resolve_coalitions(model, nf)
    coalition = build_coalition_game(model, partition)

    def resolve(phi: StateFormula) -> frozenset[int]:
        return evaluate_state_formula(model, phi, cfg)

    compiled = compile_objectives(coalition, nf, resolve)
    if compiled.horizon == "finite":
        table, strategy = solve_finite_horizon(coalition, compiled, cfg)
    else:
        table, strategy = solve_value_iteration(coalition, compiled, cfg)
    values = {s: table.at_state(s) for s in range(model.n_states)}
    sums = {s: float(values[s].sum()) for s in values}
    sat = None
    if not nf.is_numeric:
        sat = {
            s: _compare(sums[s], nf.comparator, nf.threshold) for s in sums
        }
    return CheckResult(
        formula=nf,
        coalition_game=coalition,
        compiled=compiled,
        table=table,
        strategy=strategy,
        values=values,
        sums=sums,
        sat=sat,
    )


def evaluate_state_formula(
    model: Csg, formula: StateFormula, cfg: EngineConfig | None = None
) -> frozenset[int]:
    """Satisfaction set of a state formula, resolving nested Nash formulas
    with the engine. Nested Nash formulas must be threshold queries."""
    cfg = cfg or EngineConfig()

    def resolver(nf: NashFormula) -> frozenset[int]:
        if nf.is_numeric:
            raise FormulaError(
                "numeric (=?) queries cannot be nested inside state formulas"
            )
        result = check_nash_formula(model, nf, cfg)
        return frozenset(s for s, ok in result.sat.items() if ok)

    return sat_states(model, formula, resolver)
