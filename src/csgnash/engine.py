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
minimising). Every level decides in one array pass over its stage
block (`nfg_solve.StageBlock`) each stage whose answer is provably
pure (`nfg_solve.pure_answer_picks`): every stage where at most one
coalition chooses, and those where several choose that have such an
answer, by the pure bar, by a closed-form bound on the mixed supports
where two coalitions choose between two actions each, or after
iterated strict dominance. The stages the bar and the bound leave open
look in a stage cache first, dominance runs on the misses alone, and
only the tables it leaves open reach the solver. Once every stage has
a pure answer and each node keeps choosing
the same row, value iteration runs chunks of speculative sweeps over
the chosen rows alone, each sweep three numpy calls written in place
(`_held_sweeps`), verifies each chunk in one batched array pass, up to
the sweep where value iteration would stop, and takes only the sweeps
an exact sweep gives to the bit (`_sweeps`).
Backward induction copies a level instead of solving it when the level
above has the same template (`objectives.Core`) and its values equal,
byte for byte, those of the level above it. So a long horizon whose
values settle solves only the levels before they do. The core goes out
with the synthesised strategy, so certification reads the same rows.
"""

from __future__ import annotations

from collections.abc import Callable
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
from .nfg_solve import (
    WELFARE_TOL,
    StageBlock,
    pure_answer_picks,
    scne,
    swne,
)
from .objectives import (
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
# to about `_SPECULATION_FLOATS` of those, and of the deviation utilities
# its array pass gathers per sweep: on a core too large for a chunk of
# `_FIRST_CHUNK` sweeps, every sweep runs exact.
_FIRST_CHUNK = 4
_SPECULATION_CHUNK = 128
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

    Only stages whose answer the array pass cannot prove pure reach the
    cache, and at each of them two or more coalitions choose: backward
    induction and value iteration both settle the others in one array
    pass per level (`_solve_stages`). A stage the pure bar and the
    two-binary bound leave open looks its table up first (`cached`), as a
    table solved before is one that dominance left open too; only a miss
    is reduced by dominance, and only a miss dominance leaves open is
    solved (`solve`), with `swne`, or `scne` when minimising. One solver
    serves one check, so the optimisation direction is fixed, and action
    names do
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

    def cached(self, utilities: np.ndarray) -> _StageSolution | None:
        """The solution of a table solved in this generation or the last,
        renewed, or None."""
        key = (utilities.shape, utilities.tobytes())
        hit = self.current.get(key)
        if hit is None:
            hit = self.previous.get(key)
            if hit is None:
                return None
            self.current[key] = hit
        return hit

    def solve(
        self, utilities: np.ndarray, names: tuple[tuple[str, ...], ...]
    ) -> _StageSolution:
        hit = self.cached(utilities)
        if hit is None:
            # Module attributes, looked up per call, so a tracer that
            # wraps them sees every solve.
            game = NormalFormGame(names, utilities)
            result = swne(game) if self.opt == "max" else scne(game)
            self.inconclusive += result.inconclusive
            hit = (result.values, result.profile.probs)
            for arr in (hit[0], *hit[1]):
                arr.setflags(write=False)
            self.current[utilities.shape, utilities.tobytes()] = hit
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
    being 1 on the positive-probability successor graph, which
    `compile_objectives` computed from `game` for an infinite horizon
    (`CompiledObjectives.successors`). A finite horizon has no objective
    to check.
    """
    succ = compiled.successors
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
    decides every stage with a provably pure answer in one array pass,
    by the pure bar, the two-binary bound and, on the open tables the
    stage cache has not seen, iterated strict dominance, and sends the
    others to the solver (`_solve_stages`).

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
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the stage of every node of `level` on its rows of
    `utilities`, writing the equilibrium values into `values`. One array
    pass (`_array_pass`) settles every stage whose answer is provably
    pure, without the stage cache: by the pure bar, and where two
    coalitions choose between two actions each, by the bound on their
    mixed supports. A stage both leave open looks in the cache first: a
    table found there was sent to the solver before, so no dominance can
    settle it. Dominance runs on the misses alone, and only those it
    leaves open reach the solver, through the cache. Their profiles, and
    those of cache hits, go into `dists`, keyed from the level's first
    node. Returns the pure answers for
    `_pure_dists`: their nodes, also counted from the level's first, and
    the C-order index of each node's chosen cell."""
    block = level.block
    here = values[level.nodes]
    misses = {}

    def unseen(open: np.ndarray) -> np.ndarray:
        """`open` (1, N) less the stages whose tables the cache holds,
        which take the cached answer."""
        states = core.states[level.nodes]
        m = core.compiled.m
        (found,) = np.nonzero(open[0])
        nodes = block.nodes[found].tolist()
        for g, q, rows in zip(found.tolist(), nodes, block.rows[found]):
            s = states[q]
            shape = core.shapes[s]
            table = utilities[rows[: np.prod(shape)]].reshape(shape + (m,))
            hit = stages.cached(table)
            if hit is None:
                misses[g] = q, table, core.choice_names[s]
            else:
                here[q], dists[q] = hit
                open[0, g] = False
        return open

    (decided,), (picks,), (cells,) = _array_pass(
        block, utilities[None], stages.opt == "min", unseen
    )
    if decided.all():
        here[block.nodes] = cells
        return block.nodes, picks
    for g, (q, table, names) in misses.items():
        if not decided[g]:
            here[q], dists[q] = stages.solve(table, names)
    here[block.nodes[decided]] = cells[decided]
    return block.nodes[decided], picks[decided]


def _array_pass(
    block: StageBlock,
    utilities: np.ndarray,
    negate: bool,
    reducible: Callable[[np.ndarray], np.ndarray],
):
    """The array pass of `_solve_stages`, over the stage utilities
    (B, R, m) of B sweeps stacked. With `negate`, the cost-optimal stages
    are solved as the welfare-optimal stages of the negated tables.
    `reducible` maps the mask (B, N) of the stages the pure bar and the
    two-binary bound leave open to those that iterated strict dominance
    may settle (`pure_answer_picks`). Returns, sweep by sweep, which of
    the block's N stages have a provably pure answer (B, N), each stage's
    pick, indexing its node's rows (B, N), and its values (B, N, m),
    meaningful where the answer is pure (`_stage_bits`).
    `pure_answer_picks` treats each game apart, so every sweep gets the
    bits of a pass over that sweep alone."""
    cells = utilities[:, block.rows]
    decided, picks = pure_answer_picks(
        -cells if negate else cells, block.deviations, block.single,
        block.two_binary, WELFARE_TOL, block.actions, reducible,
    )
    cells = cells[np.arange(len(cells))[:, None], np.arange(len(block.nodes)), picks]
    return decided, picks, _stage_bits(cells, block.single, negate)


def _stage_bits(cells: np.ndarray, single: np.ndarray, negate: bool) -> np.ndarray:
    """Pure-answer values `cells` (..., N, m) as the engine gives them.
    Where `single` holds (N,), a stage keeps its cell's own bits, zero
    signs and all: the engine's own, which the pinned checks hold. The
    others take `swne`'s, which adds 0.0 to a cell and so turns -0.0 into
    0.0, or with `negate` `scne`'s, which negates `swne`'s answer on the
    negated table. The solver gives every pure answer by this one
    zero-sign rule."""
    if single.all():
        return cells
    return np.where(single[:, None], cells, -(-cells + 0.0) if negate else cells + 0.0)


def _pure_dists(
    core: Core,
    level: Level,
    stages: _StageSolver,
    answers: tuple[np.ndarray, np.ndarray],
):
    """Each pure-answer node's profile, as (node, profile) pairs with the
    node counted from the level's first: every coalition plays its action
    in the node's chosen cell."""
    states = core.states[level.nodes].tolist()
    for q, cell in zip(*(a.tolist() for a in answers)):
        yield q, stages.pure_profile(core.shapes[states[q]], cell)


# ---------------------------------------------------------------------------
# Infinite horizon: value iteration


def _padded(core: Core) -> tuple[np.ndarray, np.ndarray]:
    """Every row's successors and their probabilities (R, K) over the
    core's one level, padded to the longest row by repeating the last
    successor with probability 0."""
    lengths = np.diff(core.ptr)
    column = np.arange(int(lengths.max(initial=1)))
    entry = core.ptr[:-1, None] + np.minimum(column, lengths[:, None] - 1)
    prob = np.where(column < lengths[:, None], core.prob[entry], 0.0)
    return core.succ[entry], prob


def _as_range(nodes: np.ndarray) -> np.ndarray | slice:
    """`nodes` as a slice when they are one contiguous range, which
    assigns faster than an index."""
    if len(nodes) and nodes[-1] - nodes[0] == len(nodes) - 1:
        return slice(nodes[0], nodes[-1] + 1)
    return nodes


def _sweep_utilities(core: Core):
    """The function from one sweep's values (nodes, m) to every row's stage
    utilities (R, m), over the core's one level; values of B sweeps
    stacked (B, nodes, m) give utilities (B, R, m).

    The continuations are one `(R, 1, K) @ (R, K, m)` product over rows
    padded to the longest (`_padded`). While no row has more than three
    successors, it rounds exactly as one `np.dot` per row and objective;
    with longer rows, sums may differ from it in the last bit. Stacked
    sweeps are flattened into one `(B·R, 1, K) @ (B·R, K, m)` product,
    which rounds as each sweep's own; a `(R, 1, K) @ (B, R, K, m)`
    product, broadcast over the sweeps, does not once rows have more than
    three successors. Backward induction contracts each successor count
    apart so that it rounds as `np.dot` (`Level.stage_utilities`). Value
    iteration keeps the one padded product: its bits are pinned
    (`PINNED_CHECKS` and the aloha3 min-reach values), and a split by
    successor count would add numpy calls to every sweep.
    """
    (level,) = core.levels
    succ, prob = _padded(core)
    prob = prob[:, None, :]

    tiled = {}  # `prob` repeated for each count of stacked sweeps

    def utilities(prev: np.ndarray) -> np.ndarray:
        if prev.ndim == 2:
            return level.finish((prob @ prev[succ])[:, 0, :])
        sweeps, _nodes, m = prev.shape
        weights = tiled.get(sweeps)
        if weights is None:
            weights = tiled[sweeps] = np.concatenate((prob,) * sweeps)
        cont = weights @ prev[:, succ].reshape((-1,) + succ.shape[1:] + (m,))
        return level.finish(cont.reshape(sweeps, len(prob), m))

    return utilities


def _held_sweeps(core: Core, rows: np.ndarray, negate: bool):
    """The function that runs value iteration's speculative sweeps in place
    on C-contiguous stacked values (T + 1, nodes, m): each of
    `stacked[1:]` becomes the sweep of the values before it in which
    every node of the level's stage block plays its held row (`rows`, one
    per block node), to the bits that `_stage_bits` gives the whole
    level's sweep (`_sweep_utilities`) at those rows. `stacked[1:]` must
    hold the values of `stacked[0]`, as value iteration's own values do:
    every component a sweep leaves alone, its pinned value (`Level.const`
    is each row's node's `Core.const`) with the block's zero signs.

    A sweep is three numpy calls: one gather of the successor values
    through precomputed flat indices, the same `(N, 1, K) @ (N, K, m)`
    product as the whole level's, padded to its K, and one masked add of
    the rows' rewards into the next sweep's values. Where a row adds no
    reward it adds -0.0, which gives every sum back bit for bit, ±0, inf
    and NaN included, and the add runs in `Level.finish`'s operand order.
    When the block has stages where several coalitions choose, or nodes
    that are not one contiguous range, the sum goes through a buffer and
    `_stage_bits` first."""
    (level,) = core.levels
    block = level.block
    m = core.compiled.m
    succ, prob = _padded(core)
    index = succ[rows, :, None] * m + np.arange(m)
    prob = prob[rows, None, :]
    addend = np.where(level.add_base[rows], level.base[rows], -0.0)
    pend = level.pend[rows]
    pend = True if pend.all() else pend
    cont = np.empty((len(rows), 1, m))
    sums = cont[:, 0, :]
    nodes = _as_range(block.nodes)
    direct = isinstance(nodes, slice) and block.single.all()

    def run(stacked: np.ndarray) -> None:
        flat = stacked.reshape(len(stacked), -1)
        out = stacked[0, nodes].copy()
        for i in range(len(stacked) - 1):
            np.matmul(prob, flat[i][index], out=cont)
            if direct:
                np.add(addend, sums, out=stacked[i + 1, nodes], where=pend)
            else:
                np.add(addend, sums, out=out, where=pend)
                stacked[i + 1, nodes] = _stage_bits(out, block.single, negate)

    return run


def _sweeps(
    core: Core,
    values: np.ndarray,
    stages: _StageSolver,
    dists: dict[int, tuple[np.ndarray, ...]],
    limit: Callable[[list[float]], int],
):
    """Value iteration's sweeps from `values`, without end, a chunk at a
    time: yields each chunk's values (T, nodes, m), its residuals (T,
    each the largest change from the values before it), the nodes of its
    pure answers and each sweep's picks there (T, answers)
    (`_solve_stages`), every sweep the bits of an exact sweep from the
    values before it. An exact sweep is a chunk of one. `limit` maps a
    chunk's speculated residuals to how many of its sweeps value
    iteration can take before its stopping rule fires or its cap is
    reached, so that no sweep past either is verified.

    A sweep is exact (`_solve_stages`) until two in a row settle every
    node in the array pass, without the stage cache, and choose the same
    rows. Then each node holds the row it chose, and a chunk of
    speculative sweeps computes only those rows, three numpy calls a sweep
    (`_held_sweeps`) where an exact sweep takes about twenty. The chunk is
    then verified in one batch: the array pass runs once on its sweeps'
    values stacked (`_array_pass`), with dominance on every stage the pure
    bar and the two-binary bound leave open, as no cache is consulted
    there. Each sweep whose stages all have a pure answer and whose values
    equal the speculated ones bit for bit (NaN and -0.0 included) is
    taken. The first that differs ends the chunk: it is taken with its
    true values if its stages all have a pure answer, and otherwise runs
    exact. Chunks start at `_FIRST_CHUNK` sweeps and double up to
    `_SPECULATION_CHUNK` while they are taken whole; after a miss, sweeps
    run exact until the rows hold again, as a chunk costs about three
    exact sweeps besides its sweeps. The stage cache ages once per exact
    sweep. A sweep that settles every node uses no entry, and two ages
    empty the cache, so a chunk ages it at most twice. This is modified
    policy iteration's held policy (Puterman, *Markov Decision Processes*,
    1994, 6.5) with every held sweep checked against value iteration's
    own."""
    (level,) = core.levels
    block = level.block
    negate = stages.opt == "min"
    m = core.compiled.m
    sweep = _sweep_utilities(core)
    lengths = np.diff(core.ptr)
    gathered = max(
        len(lengths) * int(lengths.max(initial=1)) * m, block.deviations.size, 1
    )
    longest = min(_SPECULATION_CHUNK, _SPECULATION_FLOATS // gathered)
    first = _FIRST_CHUNK if longest >= _FIRST_CHUNK else 0
    nodes = _as_range(block.nodes)
    every = np.arange(len(block.nodes))

    # The rows the last sweep chose, when it settled every node in an
    # array pass, and the rows the speculative sweeps hold, with their sweeps.
    last = held = held_sweeps = None
    chunk = 0
    while True:
        if not chunk:
            new = values.copy()
            answered, picks = _solve_stages(
                core, level, sweep(values), new, stages, dists
            )
            settled = first and len(every) and not stages.current
            stages.age()
            residual = float(np.abs(new - values).max(initial=0.0))
            yield new[None], [residual], answered, picks[None]
            values = new
            rows = block.rows[every, picks] if settled else None
            if rows is not None and last is not None and np.array_equal(rows, last):
                chunk = first
            last = rows
            continue
        if held is None or not np.array_equal(held, last):
            held, held_sweeps = last, _held_sweeps(core, last, negate)
        stacked = np.empty((chunk + 1,) + values.shape)
        stacked[:] = values
        held_sweeps(stacked)
        residuals = np.abs(np.diff(stacked, axis=0)).max(axis=(1, 2), initial=0.0)
        cut = limit(residuals.tolist())
        decided, picks, cells = _array_pass(
            block, sweep(stacked[:cut]), negate, lambda open: open
        )
        pure = decided.all(axis=1)
        speculated = stacked[1 : cut + 1, nodes].view(np.int64)
        ok = pure & (cells.view(np.int64) == speculated).all(axis=(1, 2))
        taken = cut if ok.all() else int(np.argmin(ok))
        settled = taken == cut or pure[taken]
        if taken < cut and pure[taken]:
            # The first sweep that differs from its speculation settled
            # every node in an array pass: its true values are known.
            stacked[taken + 1, nodes] = cells[taken]
            residuals[taken] = np.abs(stacked[taken + 1] - stacked[taken]).max(
                initial=0.0
            )
            taken += 1
        for _ in range(min(taken, 2)):
            stages.age()
        if taken:
            yield (
                stacked[1 : taken + 1], residuals[:taken].tolist(), block.nodes,
                picks[:taken],
            )
        values = stacked[taken]
        # A chunk taken whole is followed by one twice as long; after a
        # miss, exact sweeps run until two in a row choose the same rows.
        chunk = min(2 * chunk, longest) if ok.all() else 0
        last = block.rows[every, picks[taken - 1]] if settled else None


def solve_value_iteration(
    game: Csg,
    compiled: CompiledObjectives,
    vi: VIConfig | None = None,
) -> tuple[ValueTable, SynthesizedStrategy]:
    """Value iteration for unbounded untils or reachability rewards.

    Decided components are pinned at their exact values; pending ones are
    updated each sweep from the welfare/cost-optimal equilibrium of the
    stage game built on the previous sweep's values. A sweep builds every
    stage table in one contraction, decides every stage with a provably
    pure answer in one array pass, with dominance only on open tables the
    stage cache has not seen, and sends the others to the solver through
    the cache (`_solve_stages`); the pure answers' profiles are taken
    from the stopping sweep only. While every stage has a pure answer,
    sweeps run speculatively in chunks that hold each node's chosen row
    and are verified in one batch, to the bits of the exact sweeps
    (`_sweeps`). The sweeps come a chunk at a time, an exact sweep as a
    chunk of one, and the stopping rule, the cycle detection and the cap
    count a chunk's sweeps one by one. No chunk is verified past the
    sweep where the rule would fire or the cap would be reached, reckoned
    on its speculated residuals (`limit`). Raises NotConverged when the
    iteration cap is hit before the stopping rule fires, or as soon as
    the values cycle without it firing.
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

    stable = iterations = 0
    # Brent's cycle detection: a sweep is a function of the previous
    # values alone, so values equal to the saved vector of `lam` sweeps
    # ago repeat with that period for ever.
    saved, power, lam = values.tobytes(), 1, 1
    period = None

    def limit(residuals: list[float]) -> int:
        """How many sweeps of a chunk with these residuals the loop below
        can take: up to the first that fires the stopping rule, and no
        more than the cap leaves."""
        count, room = stable, vi.max_iters - iterations
        for taken, residual in enumerate(residuals[:room], 1):
            count = count + 1 if residual <= vi.epsilon else 0
            if count >= _STABILITY_WINDOW:
                return taken
        return min(len(residuals), room)

    for chunk, residuals, answered, picks in _sweeps(
        core, values, stages, dists, limit
    ):
        for t, residual in enumerate(residuals):
            iterations += 1
            stable = stable + 1 if residual <= vi.epsilon else 0
            if stable >= _STABILITY_WINDOW:
                break
            if period is None:
                current = chunk[t].tobytes()
                if current == saved:
                    period, deadline = lam, iterations + lam
                else:
                    if lam == power:
                        saved, power, lam = current, power * 2, 0
                    lam += 1
            elif iterations == deadline and stable < period:
                # A whole period has passed with a residual above epsilon
                # in it; every later period repeats it.
                raise NotConverged(residual, iterations, period)
            if iterations == vi.max_iters:
                raise NotConverged(residual, iterations, period)
        else:
            continue
        break
    # The stopping sweep's values and its own pure answers.
    values, answers = chunk[t], (answered, picks[t])

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
