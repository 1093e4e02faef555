"""Equilibrium value computation over coalition games.

Finite-horizon objective sums are solved by backward induction on the
remaining step bound; infinite-horizon sums by value iteration. Both run
over the rows of the check's compiled core (`objectives.Core`), cut
into levels: one per step count, or a single one for value iteration.
At every reached (state, satisfied-set, failed-set) node, and every
level for finite horizons, they solve the one-shot game whose utilities
combine decided components (exactly 1 or 0 for probabilities, 0 for
settled reward objectives) with successor-weighted continuation values,
taking welfare-optimal equilibrium values (cost-optimal ones when
minimising). The core goes out with the synthesised strategy, so
certification reads the same rows.
"""

from __future__ import annotations

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
from .games import Csg, NormalFormGame, build_coalition_game
from .nfg_solve import WELFARE_TOL, scne, single_chooser_picks, swne
from .objectives import (
    Choosers,
    CompiledObjectives,
    Core,
    Mode,
    bounded_core,
    compile_objectives,
    mode_closure,
    mode_decided,
    unbounded_core,
)
from .strategies import SynthesizedStrategy


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


# Value iteration stops once this many consecutive sweeps each move the
# values by less than epsilon. The residual sequence is convergent but need
# not shrink monotonically, hence more than one.
_STABILITY_WINDOW = 2


@dataclass(frozen=True)
class VIConfig:
    """Stopping rule for value iteration: the sup-norm difference between
    consecutive sweeps is at most `epsilon` for two sweeps in a row, within
    `max_iters` sweeps. Epsilon 0 asks for an exact fixpoint."""

    epsilon: float = 1e-6
    max_iters: int = 10_000

    def __post_init__(self):
        if not 0 <= self.epsilon < float("inf"):
            raise ValueError(
                f"epsilon must be finite and non-negative, got {self.epsilon}"
            )
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


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
    # Supports the stage solves left undecided (see `EquilibriumResult`).
    inconclusive: int = 0

    def at_state(self, state: int) -> np.ndarray:
        return self.entries[(state, self.initial_mode[state])]


_StageSolution = tuple[np.ndarray, tuple[np.ndarray, ...]]


class _StageSolver:
    """Equilibrium values and stage distributions of one-shot games, each
    distinct utility table solved once.

    Only stages where two or more coalitions choose reach the cache:
    backward induction and value iteration both solve the single-chooser
    stages in one array pass (`_solve_stages`). One solver serves one
    check, so the optimisation direction is fixed, and action names do
    not enter the arithmetic: the table's shape and bytes are the whole
    key. Entries live in two generations. Backward
    induction never ages the cache, so it holds one entry per distinct
    table of the call, at most one per node. Value iteration ages it after
    every sweep, keeping what the current and the previous sweep made or
    used, so memory stays proportional to the undecided pairs however many
    sweeps run. Solutions are shared between lookups and therefore
    read-only. `inconclusive` sums the inconclusive supports of every
    solve (cache miss), so a table solved again after it was dropped
    counts again.
    """

    def __init__(self, opt: str):
        self.opt = opt
        self.current: dict[tuple, _StageSolution] = {}
        self.previous: dict[tuple, _StageSolution] = {}
        self.inconclusive = 0

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
                result = swne(game) if self.opt == "max" else scne(game)
                self.inconclusive += result.inconclusive
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

    The check lets one controller pick any enabled joint action, so it
    amounts to the minimal reachability probability of the settling set
    being 1 on the positive-probability successor graph.
    """
    succ = mdp.successor_sets(game)
    report = AssumptionReport()
    for l, obj in enumerate(compiled.items):
        if obj.kind == "until" and obj.bound is None:
            target = obj.sat2 | obj.fail
        elif obj.kind == "reach":
            target = obj.sat2
        else:
            continue
        _certain, violating = mdp.min_reach_certain(succ, target)
        if violating:
            report.violations.append((l, violating))
    return report


# ---------------------------------------------------------------------------
# Finite horizon: backward induction


def solve_finite_horizon(
    game: Csg, compiled: CompiledObjectives
) -> tuple[ValueTable, SynthesizedStrategy]:
    """Backward induction over the remaining step bound.

    Level n holds the values of the objectives with every bound reduced by
    n; expired bounds contribute 0 (probabilistic expiry goes through the
    failed set E), an instantaneous bound hitting 0 contributes the current
    state reward, and live objectives weight the next level's values by the
    transition probabilities. The core numbers its nodes level by level,
    so one pass over its levels from the deepest finds every successor
    solved. Each level builds all its stage tables in one contraction,
    solves the single-chooser stages in one array pass and the others
    through the stage cache.
    """
    core = bounded_core(game, compiled)
    values = core.const.copy()
    dists: dict[int, tuple[np.ndarray, ...]] = {}
    stages = _StageSolver(compiled.opt)
    for level in reversed(core.levels):
        utilities = level.stage_utilities(values)
        picks = _solve_stages(core, level.split, utilities, values, stages, dists)
        dists.update(_pure_dists(core, level.split, picks))
    profiles = {core.nodes[p]: dist for p, dist in dists.items()}
    for p in np.flatnonzero(np.diff(core.start) == 0).tolist():
        node = core.nodes[p]
        if not mode_decided(compiled, node[1:3]):
            profiles[node] = _first_actions(core.shapes[node[0]])
    initial_mode = {s: core.nodes[p][1:3] for s, p in enumerate(core.initial)}
    entries = {
        (s, initial_mode[s]): values[p].copy() for s, p in enumerate(core.initial)
    }
    strategy = SynthesizedStrategy(
        kind="finite",
        horizon=compiled.max_bound,
        table=profiles,
        choice_names=dict(enumerate(core.choice_names)),
        core=core,
    )
    table = ValueTable(
        entries=entries, initial_mode=initial_mode, inconclusive=stages.inconclusive
    )
    return table, strategy


def _first_actions(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The profile stored where no choice matters: every coalition plays
    its first action."""
    return tuple(np.eye(c)[0] for c in shape)


def _solve_stages(
    core: Core,
    split: Choosers,
    utilities: np.ndarray,
    values: np.ndarray,
    stages: _StageSolver,
    dists: dict[int, tuple[np.ndarray, ...]],
) -> np.ndarray:
    """Solve the stage of every node in `split` on its rows of
    `utilities`, writing the equilibrium values into `values`. The
    single-chooser stages are solved in one array pass and never reach
    the stage cache; the others go through it, and their profiles into
    `dists`. Returns the single-chooser picks."""
    picks = np.zeros(0, dtype=np.int64)
    if len(split.single):
        # The cost-optimal pick is the welfare-optimal pick of the negated
        # block; the values are the block's own cells.
        block = utilities[split.rows]
        picks = single_chooser_picks(
            -block if stages.opt == "min" else block, split.chooser, WELFARE_TOL
        )
        values[split.single] = block[np.arange(len(picks)), picks]
    for p, rows in split.multi:
        s = core.nodes[p][0]
        values[p], dists[p] = stages.solve(
            utilities[rows].reshape(core.shapes[s] + (core.compiled.m,)),
            core.choice_names[s],
        )
    return picks


def _pure_dists(core: Core, split: Choosers, picks: np.ndarray):
    """Each single-chooser node's profile: the chooser plays its pick and
    every other coalition its only action, as (node, profile) pairs."""

    def pure(size: int, action: int) -> np.ndarray:
        vec = np.zeros(size)
        vec[action] = 1.0
        vec.setflags(write=False)
        return vec

    for p, i, a in zip(split.single.tolist(), split.chooser.tolist(), picks.tolist()):
        shape = core.shapes[core.nodes[p][0]]
        yield p, tuple(pure(c, a if j == i else 0) for j, c in enumerate(shape))


# ---------------------------------------------------------------------------
# Infinite horizon: value iteration


def _sweep_utilities(core: Core):
    """The function from one sweep's values to every row's stage
    utilities (R, m), over the core's one level.

    The continuations are one `(R, 1, K) @ (R, K, m)` product over rows
    padded to the longest, by repeating the last successor with
    probability 0. While no row has more than three successors, it rounds
    exactly as one `np.dot` per row and objective; with longer rows, sums
    may differ from it in the last bit. Backward induction contracts each
    successor count apart so that it rounds as `np.dot`
    (`Level.stage_utilities`). Value iteration keeps the one padded
    product: its bits are pinned (`PINNED_CHECKS` and the aloha3 min-reach
    values), and a split by successor count would add numpy calls to every
    sweep.
    """
    (level,) = core.levels
    ptr = np.array(core.ptr)
    lengths = np.diff(ptr)
    column = np.arange(int(lengths.max(initial=1)))
    entry = ptr[:-1, None] + np.minimum(column, lengths[:, None] - 1)
    succ = core.succ[entry]
    prob = np.where(column < lengths[:, None], core.prob[entry], 0.0)[:, None, :]
    return lambda prev: level.finish((prob @ prev[succ])[:, 0, :])


def solve_value_iteration(
    game: Csg,
    compiled: CompiledObjectives,
    vi: VIConfig | None = None,
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
    vi = vi or VIConfig()
    report = check_stopping_assumption(game, compiled)
    if not report.ok:
        raise AssumptionViolation(report)
    pairs, _index = mode_closure(game, compiled)
    core = unbounded_core(game, compiled, pairs)
    n_pairs = len(pairs)
    split = core.levels[0].split
    stage_utilities = _sweep_utilities(core)
    values = core.const.copy()

    dists: dict[int, tuple[np.ndarray, ...]] = {}
    stages = _StageSolver(compiled.opt)

    iterations = 0
    stable = 0
    residual = float("inf")
    # Brent's cycle detection: a sweep is a function of the previous
    # values alone, so values equal to the saved vector of `lam` sweeps
    # ago repeat with that period for ever.
    saved, power, lam = values.tobytes(), 1, 1
    period = None
    while iterations < vi.max_iters:
        iterations += 1
        prev = values.copy()
        utilities = stage_utilities(prev)
        picks = _solve_stages(core, split, utilities, values, stages, dists)
        stages.age()
        residual = float(np.abs(values - prev).max()) if n_pairs else 0.0
        stable = stable + 1 if residual <= vi.epsilon else 0
        if stable >= _STABILITY_WINDOW:
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
            # A whole period has passed with a residual above epsilon in
            # it; every later period repeats it.
            raise NotConverged(residual, iterations, period)
    else:
        raise NotConverged(residual, iterations, period)

    dists.update(_pure_dists(core, split, picks))
    entries = {pair: values[p].copy() for p, pair in enumerate(pairs)}
    initial_mode = {s: pairs[p][1] for s, p in enumerate(core.initial)}
    strategy = SynthesizedStrategy(
        kind="memoryless",
        horizon=None,
        table={
            node: dists[p] if p in dists else _first_actions(core.shapes[node[0]])
            for p, node in enumerate(core.nodes)
        },
        choice_names=dict(enumerate(core.choice_names)),
        core=core,
    )
    table = ValueTable(
        entries=entries,
        initial_mode=initial_mode,
        iterations=iterations,
        inconclusive=stages.inconclusive,
    )
    return table, strategy


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

    @property
    def inconclusive(self) -> int:
        """Inconclusive supports summed over the check's stage solves
        (nested formulas not included). When it is 0, every support of
        every stage game solved was decided."""
        return self.table.inconclusive


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
    model: Csg, nf: NashFormula, vi: VIConfig | None = None
) -> CheckResult:
    """Evaluate one equilibrium formula at every state of the model.

    Builds the coalition game for the formula's partition, dispatches on
    the horizon class, and reports the per-state value vector, its sum and
    (for threshold queries) the verdict. Nested state formulas, including
    nested Nash formulas, are resolved bottom-up on the base model.
    """
    from .formulas import resolve_coalitions

    partition = resolve_coalitions(model, nf)
    coalition = build_coalition_game(model, partition)

    def resolve(phi: StateFormula) -> frozenset[int]:
        return evaluate_state_formula(model, phi, vi)

    compiled = compile_objectives(coalition, nf, resolve)
    if compiled.horizon == "finite":
        table, strategy = solve_finite_horizon(coalition, compiled)
    else:
        table, strategy = solve_value_iteration(coalition, compiled, vi)
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
    model: Csg, formula: StateFormula, vi: VIConfig | None = None
) -> frozenset[int]:
    """Satisfaction set of a state formula, resolving nested Nash formulas
    with the engine. Nested Nash formulas must be threshold queries."""

    def resolver(nf: NashFormula) -> frozenset[int]:
        if nf.is_numeric:
            raise FormulaError(
                "numeric (=?) queries cannot be nested inside state formulas"
            )
        result = check_nash_formula(model, nf, vi)
        return frozenset(s for s, ok in result.sat.items() if ok)

    return sat_states(model, formula, resolver)
