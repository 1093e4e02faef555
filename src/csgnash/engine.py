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
minimising). Every level decides in array passes the stages where at
most one coalition chooses, and those where several choose whose answer
is provably pure (`nfg_solve.pure_answer_picks`); only the remaining
tables reach the solver, through a stage cache. Once every stage has a
pure answer and each node keeps choosing the same row, value iteration
runs chunks of speculative sweeps over the chosen rows alone, verifies
each chunk in one batch of array passes, and takes only the sweeps an
exact sweep gives to the bit (`_sweeps`). Backward induction copies a
level instead of solving it when the level above has the same template
(`objectives.Core`) and its values equal, byte for byte, those of the
level above it. So a long horizon whose values settle solves only the
levels before they do. The core goes out with the synthesised strategy,
so certification reads the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
from .nfg_solve import (
    WELFARE_TOL,
    pure_answer_picks,
    scne,
    single_chooser_picks,
    swne,
)
from .objectives import (
    Choosers,
    CompiledObjectives,
    Core,
    Level,
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

# Value iteration's speculative chunks (`_sweeps`) start at `_FIRST_CHUNK`
# sweeps and double up to `_SPECULATION_CHUNK`; 0 turns speculation off,
# so that every sweep runs exact. A chunk's verification gathers every
# row's padded successor values once per sweep, so chunks are also kept
# to about `_SPECULATION_FLOATS` of those: on a core too large for a
# chunk of `_FIRST_CHUNK` sweeps, every sweep runs exact.
_FIRST_CHUNK = 4
_SPECULATION_CHUNK = 32
_SPECULATION_FLOATS = 1 << 20


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
    """Equilibrium values at each state's initial (state, D, E) node."""

    initial: np.ndarray  # (states, m)
    iterations: int = 0
    # Supports the stage solves left undecided (see `EquilibriumResult`).
    inconclusive: int = 0

    def at_state(self, state: int) -> np.ndarray:
        return self.initial[state]


_StageSolution = tuple[np.ndarray, tuple[np.ndarray, ...]]


class _StageSolver:
    """Equilibrium values and stage distributions of one-shot games, each
    distinct utility table solved once.

    Only stages where two or more coalitions choose and whose answer the
    pure-answer pass cannot prove pure reach the cache: backward
    induction and value iteration both settle the others in array passes
    (`_solve_stages`). One solver serves one
    check, so the optimisation direction is fixed, and action names do
    not enter the arithmetic: the table's shape and bytes are the whole
    key. Entries live in two generations. Backward
    induction never ages the cache, so it holds one entry per distinct
    table of the call, at most one per node. Value iteration ages it after
    every sweep, keeping what the current and the previous sweep made or
    used, so memory stays proportional to the undecided pairs however many
    sweeps run. Solutions, and the profiles of pure answers
    (`pure_profile`, kept for the whole check), are shared between
    lookups and therefore read-only. `inconclusive` sums the inconclusive supports of every
    solve (cache miss), so a table solved again after it was dropped
    counts again.
    """

    def __init__(self, opt: str):
        self.opt = opt
        self.current: dict[tuple, _StageSolution] = {}
        self.previous: dict[tuple, _StageSolution] = {}
        self.pure: dict[tuple[tuple[int, ...], int], tuple[np.ndarray, ...]] = {}
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

    def pure_profile(
        self, shape: tuple[int, ...], cell: int
    ) -> tuple[np.ndarray, ...]:
        """The profile playing C-order cell `cell` of a stage of `shape`,
        one read-only vector per coalition, shared by every node of the
        check that plays it."""
        dist = self.pure.get((shape, cell))
        if dist is None:
            joint = np.unravel_index(cell, shape)
            dist = tuple(np.eye(c)[a] for c, a in zip(shape, joint))
            for vec in dist:
                vec.setflags(write=False)
            self.pure[shape, cell] = dist
        return dist

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
    solves the single-chooser stages in one array pass and the stages
    with a provably pure answer in one per stage shape, and sends the
    others through the stage cache.

    The pass runs through `Core.backward`, as certification's do: a
    level copies the values and profiles of the level above it, and
    builds and solves no stage, when the two share a template and the
    values over the level above equal, byte for byte, those over the
    level above that. Its stage tables would then be the same bits as
    the level above's: same template, same rows and successors counted
    from the next level, same successor values. So would every value
    and profile solved from them, and the stage cache, which counts
    `inconclusive` only on a miss and never ages here, would only hit.
    A copied level shares the profile objects of the level it copies,
    which lets certification weight the two levels once.
    """
    core = bounded_core(game, compiled)
    values = core.const.copy()
    stages = _StageSolver(compiled.opt)

    def solve(level: Level) -> dict[int, tuple[np.ndarray, ...]]:
        """The level's nodes' profiles, keyed from its first node."""
        dists: dict[int, tuple[np.ndarray, ...]] = {}
        utilities = level.stage_utilities(values)
        answers = _solve_stages(core, level, utilities, values, stages, dists)
        dists.update(_pure_dists(core, level, stages, answers))
        return dists

    found = core.backward(values, solve)
    profiles = {}
    for level, dists in zip(reversed(core.levels), reversed(found)):
        nodes = core.nodes[level.nodes]
        profiles.update(zip(map(nodes.__getitem__, dists), dists.values()))
    for p in np.flatnonzero(np.diff(core.start) == 0).tolist():
        node = core.nodes[p]
        if not mode_decided(compiled, node[1:3]):
            profiles[node] = stages.pure_profile(core.shapes[node[0]], 0)
    strategy = SynthesizedStrategy(
        kind="finite",
        horizon=compiled.max_bound,
        table=profiles,
        choice_names=dict(enumerate(core.choice_names)),
        core=core,
    )
    table = ValueTable(values[core.initial], inconclusive=stages.inconclusive)
    return table, strategy


def _solve_stages(
    core: Core,
    level: Level,
    utilities: np.ndarray,
    values: np.ndarray,
    stages: _StageSolver,
    dists: dict[int, tuple[np.ndarray, ...]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Solve the stage of every node of `level` on its rows of
    `utilities`, writing the equilibrium values into `values`. The
    single-chooser stages are solved in one array pass, and the others
    whose answer is provably pure (`pure_answer_picks`) in one array pass
    per stage shape (`_array_pass`); neither reaches the stage cache. The
    rest go through it, and their profiles into `dists`, keyed from the
    level's first node. Returns the pure answers for `_pure_dists`: node
    arrays, also counted from the level's first, each with the C-order
    index of every node's chosen cell."""
    states = core.states[level.nodes]
    here = values[level.nodes]
    m = core.compiled.m
    answers = []
    passes = _array_pass(level.split, utilities[None], stages.opt == "min")
    for nodes, rows, decided, picks, cells in passes:
        if decided is None or decided.all():
            here[nodes] = cells
            answers.append((nodes, picks))
            continue
        here[nodes[decided]] = cells[decided]
        answers.append((nodes[decided], picks[decided]))
        undecided = ~decided
        for q, table in zip(nodes[undecided].tolist(), utilities[rows[undecided]]):
            s = states[q]
            table = table.reshape(core.shapes[s] + (m,))
            here[q], dists[q] = stages.solve(table, core.choice_names[s])
    return answers


def _array_pass(split: Choosers, utilities: np.ndarray, negate: bool):
    """The array passes of `_solve_stages`, over the stage utilities
    (B, R, m) of B sweeps stacked. With `negate`, the cost-optimal stages
    are solved as the welfare-optimal stages of the negated tables.
    Yields one group of nodes at a time, the single-chooser nodes first
    and then each stage shape of `split.multi`: its nodes (G,) and their
    rows (G, k); which of its B * G stages, sweep by sweep, have a
    provably pure answer, None when all have; and each stage's pick,
    indexing the node's rows, and values (B * G, m), meaningful where the
    answer is pure. Both pick functions treat each game apart, so every
    sweep gets the bits of a pass over that sweep alone."""
    batch, _, m = utilities.shape
    if len(split.single):
        # Single-chooser values are the block's own cells; a pick indexes
        # the chooser's actions, which are the stage's cells in order.
        block = utilities[:, split.rows].reshape(-1, split.rows.shape[1], m)
        chooser = split.chooser if batch == 1 else np.tile(split.chooser, batch)
        picks = single_chooser_picks(-block if negate else block, chooser, WELFARE_TOL)
        cells = block[np.arange(len(picks)), picks]
        yield split.single, split.rows, None, picks, cells
    for shape, nodes, rows in split.multi:
        block = utilities[:, rows].reshape((-1,) + shape + (m,))
        decided, picks = pure_answer_picks(-block if negate else block, WELFARE_TOL)
        cells = block.reshape(len(picks), -1, m)[np.arange(len(picks)), picks]
        yield nodes, rows, decided, picks, _swne_bits(cells, negate)


def _swne_bits(cells: np.ndarray, negate: bool) -> np.ndarray:
    """Pure-answer values `cells` as `swne` returns them, which adds 0.0
    to a cell and so turns -0.0 into 0.0, or with `negate` as `scne` does,
    negating `swne`'s answer on the negated table."""
    return -(-cells + 0.0) if negate else cells + 0.0


def _pure_dists(
    core: Core,
    level: Level,
    stages: _StageSolver,
    answers: list[tuple[np.ndarray, np.ndarray]],
):
    """Each pure-answer node's profile, as (node, profile) pairs with the
    node counted from the level's first: every coalition plays its action
    in the node's chosen cell."""
    states = core.states[level.nodes].tolist()
    for qs, cells in answers:
        for q, cell in zip(qs.tolist(), cells.tolist()):
            yield q, stages.pure_profile(core.shapes[states[q]], cell)


# ---------------------------------------------------------------------------
# Infinite horizon: value iteration


def _sweep_utilities(core: Core, rows: np.ndarray | None = None):
    """The function from one sweep's values (nodes, m) to every row's stage
    utilities (R, m), over the core's one level; values of B sweeps
    stacked (B, nodes, m) give utilities (B, R, m). Given `rows`, the
    function computes those rows alone, in that order, each to the bits
    of the whole level's product: value iteration's speculative sweeps
    (`_sweeps`).

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
    ptr = core.ptr
    lengths = np.diff(ptr)
    column = np.arange(int(lengths.max(initial=1)))
    ptr = ptr[:-1]
    if rows is not None:
        ptr, lengths = ptr[rows], lengths[rows]
        level = replace(level, **{
            name: getattr(level, name)[rows]
            for name in ("base", "add_base", "pend", "const")
        })
    entry = ptr[:, None] + np.minimum(column, lengths[:, None] - 1)
    succ = core.succ[entry]
    prob = np.where(column < lengths[:, None], core.prob[entry], 0.0)[:, None, :]
    return lambda prev: level.finish((prob @ prev[..., succ, :])[..., 0, :])


def _sweeps(
    core: Core,
    values: np.ndarray,
    stages: _StageSolver,
    dists: dict[int, tuple[np.ndarray, ...]],
):
    """Value iteration's sweeps from `values`, without end: yields each
    sweep's values (nodes, m), its residual (the largest change from the
    values before it) and its pure answers (`_solve_stages`), every one
    the bits of an exact sweep from the values before it.

    A sweep is exact (`_solve_stages`) until two in a row settle every
    node in an array pass and choose the same rows. Then each node holds
    the row it chose, and a chunk of speculative sweeps computes only
    those rows, a few numpy calls where an exact sweep takes about twenty.
    The chunk is then verified in one batch: the array passes run on its
    sweeps' values stacked (`_array_pass`), and each sweep whose stages
    all have a pure answer and whose values equal the speculated ones bit
    for bit (NaN and -0.0 included) is taken. The first that differs ends
    the chunk: it is taken with its true values if its stages all have a
    pure answer, and otherwise runs exact. Chunks start at `_FIRST_CHUNK`
    sweeps and double up to `_SPECULATION_CHUNK` while they are taken
    whole; after a miss, sweeps run exact until the rows hold again, as a
    chunk costs about three exact sweeps besides its sweeps. The stage
    cache ages once per sweep taken, as over exact sweeps: a sweep that
    settles every node uses no entry. This is modified policy iteration's
    held policy (Puterman, *Markov Decision Processes*, 1994, 6.5) with
    every held sweep checked against value iteration's own."""
    (level,) = core.levels
    split = level.split
    negate = stages.opt == "min"
    m = core.compiled.m
    sweep = _sweep_utilities(core)
    group_rows = ([split.rows] if len(split.single) else []) + [
        rows for _shape, _nodes, rows in split.multi
    ]
    lengths = np.diff(core.ptr)
    gathered = len(lengths) * int(lengths.max(initial=1)) * m
    longest = min(_SPECULATION_CHUNK, _SPECULATION_FLOATS // max(1, gathered))
    first = _FIRST_CHUNK if longest >= _FIRST_CHUNK else 0
    single = len(split.single)
    nodes = np.concatenate([split.single, *(q for _, q, _ in split.multi)])
    if len(nodes) and (np.diff(nodes) == 1).all():
        nodes = slice(nodes[0], nodes[-1] + 1)  # assigns faster than an index

    def chosen(answers) -> np.ndarray:
        """The row of every node, in `nodes` order, from the answers of a
        sweep that settled every node in an array pass."""
        return np.concatenate([
            rows[np.arange(len(picks)), picks]
            for rows, (_, picks) in zip(group_rows, answers)
        ])

    # The rows the last sweep chose, when it settled every node in an
    # array pass, and the rows the speculative sweeps hold, with their sweep.
    last = held = sweep_held = None
    chunk = 0
    while True:
        if not chunk:
            new = values.copy()
            answers = _solve_stages(core, level, sweep(values), new, stages, dists)
            settled = first and answers and not stages.current
            stages.age()
            yield new, float(np.abs(new - values).max(initial=0.0)), answers
            values = new
            rows = chosen(answers) if settled else None
            if rows is not None and last is not None and np.array_equal(rows, last):
                chunk = first
            last = rows
            continue
        if held is None or not np.array_equal(held, last):
            held, sweep_held = last, _sweep_utilities(core, last)
        stacked = np.empty((chunk + 1,) + values.shape)
        stacked[:] = values
        for i in range(chunk):
            cells = sweep_held(stacked[i])
            if single < len(held):
                cells[single:] = _swne_bits(cells[single:], negate)
            stacked[i + 1, nodes] = cells
        passes = [
            (group, None if decided is None else decided.reshape(chunk, -1),
             picks.reshape(chunk, -1), cells.reshape(chunk, -1, m))
            for group, _rows, decided, picks, cells
            in _array_pass(split, sweep(stacked[:-1]), negate)
        ]
        pure = np.ones(chunk, dtype=bool)
        same = np.ones(chunk, dtype=bool)
        for group, decided, _picks, cells in passes:
            if decided is not None:
                pure &= decided.all(axis=1)
            speculated = stacked[1:, group].view(np.int64)
            same &= (cells.view(np.int64) == speculated).all(axis=(1, 2))
        ok = pure & same
        taken = chunk if ok.all() else int(np.argmin(ok))
        settled = taken == chunk or pure[taken]
        if taken < chunk and pure[taken]:
            # The first sweep that differs from its speculation settled
            # every node in an array pass: its true values are known.
            for group, _decided, _picks, cells in passes:
                stacked[taken + 1, group] = cells[taken]
            taken += 1
        residuals = np.abs(np.diff(stacked[: taken + 1], axis=0))
        residuals = residuals.max(axis=(1, 2), initial=0.0).tolist()
        for i in range(taken):
            answers = [(group, picks[i]) for group, _, picks, _ in passes]
            stages.age()
            yield stacked[i + 1], residuals[i], answers
        values = stacked[taken]
        # A chunk taken whole is followed by one twice as long; after a
        # miss, exact sweeps run until two in a row choose the same rows.
        chunk = min(2 * chunk, longest) if ok.all() else 0
        last = chosen(answers) if settled else None


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
    one array pass and the stages with a provably pure answer in one per
    stage shape, and sends the others through the stage cache; the pure
    answers' profiles are taken from the last sweep only. While every
    stage has a pure answer, sweeps run speculatively in chunks that hold
    each node's chosen row and are verified in one batch, to the bits of
    the exact sweeps (`_sweeps`); the stopping rule, the cycle detection
    and the cap then count the sweeps one by one. Raises NotConverged
    when the iteration cap is hit before the stopping rule fires, or as
    soon as the values cycle without it firing.
    """
    vi = vi or VIConfig()
    report = check_stopping_assumption(game, compiled)
    if not report.ok:
        raise AssumptionViolation(report)
    pairs, _index = mode_closure(game, compiled)
    core = unbounded_core(game, compiled, pairs)
    (level,) = core.levels
    values = core.const.copy()

    dists: dict[int, tuple[np.ndarray, ...]] = {}
    stages = _StageSolver(compiled.opt)

    stable = 0
    # Brent's cycle detection: a sweep is a function of the previous
    # values alone, so values equal to the saved vector of `lam` sweeps
    # ago repeat with that period for ever.
    saved, power, lam = values.tobytes(), 1, 1
    period = None
    sweeps = _sweeps(core, values, stages, dists)
    for iterations, (values, residual, answers) in enumerate(sweeps, 1):
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
        if iterations == vi.max_iters:
            raise NotConverged(residual, iterations, period)

    dists.update(_pure_dists(core, level, stages, answers))
    strategy = SynthesizedStrategy(
        kind="memoryless",
        horizon=None,
        table={
            node: dists.get(p) or stages.pure_profile(core.shapes[node[0]], 0)
            for p, node in enumerate(core.nodes)
        },
        choice_names=dict(enumerate(core.choice_names)),
        core=core,
    )
    table = ValueTable(values[core.initial], iterations, stages.inconclusive)
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
