"""Seeded inputs, the timed call sequence and the output checks of each
workload.

A workload is an endless series of passes (cycles). Every pass has the
same composition: the same kinds of op in the same order, with inputs
drawn afresh from ``(workload, seed, pass index)``. Seeds change inputs
only in ways that keep each op's cost about the same (utility offsets,
narrow parameter bands), so run-to-run figures are steady across seeds.
Every pass has an odd number of ops, so the median op time is the cost
of one kind of op rather than the mean of two neighbours.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from csgnash import engine, formulas, modelio, nfg_solve, strategies
from csgnash.games import NormalFormGame

MODELS = Path(modelio.__file__).resolve().parent / "models"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0

# Tolerances of the output checks.
NASH_TOL = 1e-6  # regret and value error of an NFG answer, utility units
EPSILON_TOL = 1e-6  # certified best-response gap of a CSG answer
REFERENCE_TOL = 1e-6  # distance from the values recorded for the default seed

UTIL_PROP = (
    '<<usr1:usr2:usr3>>max=? (R{"util1"}[F "done"] + R{"util2"}[F "done"]'
    ' + R{"util3"}[F "done"])'
)


@dataclass
class Op:
    """One operation: a single ``swne`` call (kind "nfg") or the call
    sequence of ``csgnash check --certify`` (kind "csg")."""

    kind: str
    label: str
    spec: dict
    expect: list = field(default_factory=list)  # (what, value, tol) checks

    @property
    def key(self) -> str:
        if self.kind == "nfg":
            digest = hashlib.sha1(self.spec["table"].tobytes()).hexdigest()[:16]
            return f"{self.label}|{self.spec['table'].shape}|{digest}"
        params = json.dumps(self.spec["params"], sort_keys=True)
        return f"{self.label}|{params}|{self.spec['prop']}"


# ---------------------------------------------------------------------------
# Timed call sequences


def prepare(op: Op):
    """Untimed input construction: the program receives a game object for
    NFG ops and a model path for CSG ops."""
    if op.kind == "nfg":
        table = op.spec["table"]
        names = [tuple(f"a{k}" for k in range(c)) for c in table.shape[:-1]]
        return NormalFormGame(names, table)
    return None


def run(op: Op, game) -> dict:
    if op.kind == "nfg":
        res = nfg_solve.swne(game)
        return {
            "values": [float(v) for v in res.values],
            "probs": [[float(p) for p in probs] for probs in res.profile.probs],
            "inconclusive": int(res.inconclusive),
        }
    spec = op.spec
    model = modelio.load_model(MODELS / spec["model"], spec["params"])
    nf = formulas.parse_formula(spec["prop"])
    result = engine.check_nash_formula(model, nf)
    cert = strategies.certify_epsilon(
        result.coalition_game, result.strategy, result.compiled
    )
    s0 = model.initial[0]
    return {
        "values": [float(v) for v in result.values[s0]],
        "sum": float(result.sums[s0]),
        "iterations": int(result.iterations),
        "epsilon": float(cert.epsilon),
        "inconclusive": None,  # CheckResult does not report it
    }


# ---------------------------------------------------------------------------
# Output checks (never timed)


def nash_gaps(table: np.ndarray, probs) -> tuple[np.ndarray, np.ndarray]:
    """Expected utility and regret of every player, by contracting the
    utility table with the profile directly (independent of nfg_solve)."""
    n = table.shape[-1]
    values, regrets = np.zeros(n), np.zeros(n)
    for i in range(n):
        u = np.moveaxis(table[..., i].astype(np.float64), i, 0)
        others = np.ones(1)
        for j in range(n):
            if j != i:
                others = np.multiply.outer(others, np.asarray(probs[j]))
        switch = u.reshape(u.shape[0], -1) @ others.reshape(-1)
        values[i] = float(switch @ np.asarray(probs[i]))
        regrets[i] = float(switch.max() - values[i])
    return values, regrets


def check(op: Op, out: dict, reference: dict | None) -> str | None:
    """None when the output is right, else a one-word reason."""
    if op.kind == "nfg":
        table = op.spec["table"]
        probs = out["probs"]
        if [len(p) for p in probs] != list(table.shape[:-1]):
            return "bad_profile_shape"
        for p in probs:
            if min(p) < -1e-12 or abs(sum(p) - 1.0) > 1e-9:
                return "not_a_distribution"
        values, regrets = nash_gaps(table, probs)
        if regrets.max() > NASH_TOL:
            return "nash_regret"
        if np.abs(values - np.asarray(out["values"])).max() > NASH_TOL:
            return "wrong_values"
        if reference is not None and op.key in reference:
            # A later solver may find a better equilibrium, never a worse one.
            if sum(out["values"]) < sum(reference[op.key]) - REFERENCE_TOL:
                return "reference_welfare"
        return None
    if not out["epsilon"] <= EPSILON_TOL:
        return "epsilon"
    if abs(sum(out["values"]) - out["sum"]) > 1e-9:
        return "sum_mismatch"
    for what, value, tol in op.expect:
        got = out["sum"] if what == "sum" else out["values"][what]
        if abs(got - value) > tol:
            return "known_answer"
    if reference is not None and op.key in reference:
        if np.abs(np.asarray(out["values"]) - reference[op.key]).max() > REFERENCE_TOL:
            return "reference_values"
    return None


def load_reference(seed: int) -> dict | None:
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["values"]


# ---------------------------------------------------------------------------
# nfg-mixed


def has_pure_equilibrium(table: np.ndarray) -> bool:
    n = table.shape[-1]
    best = np.ones(table.shape[:-1], dtype=bool)
    for i in range(n):
        u = table[..., i]
        best &= u == u.max(axis=i, keepdims=True)
    return bool(best.any())


def random_game(rng: random.Random, shape) -> np.ndarray:
    """Integer utilities 0..12 drawn cell by cell in joint-action order,
    redrawn until the game has no pure equilibrium."""
    while True:
        table = np.array(
            [
                [rng.randint(0, 12) for _ in shape]
                for _ in itertools.product(*(range(c) for c in shape))
            ],
            dtype=np.int64,
        ).reshape(tuple(shape) + (len(shape),))
        if not has_pure_equilibrium(table):
            return table


def criterion9_game() -> np.ndarray:
    """The hard (3,3,3) game of acceptance criterion 9."""
    rng = random.Random(1)
    cells = [
        [rng.randint(0, 12) for _ in range(3)]
        for _ in itertools.product(range(3), repeat=3)
    ]
    return np.array(cells, dtype=np.int64).reshape(3, 3, 3, 3)


# Shape -> games per pass. Three games of each cheap shape put the median
# op inside a block of several similar ops, so it is not one op's time.
NFG_SHAPES = {(2, 2, 2): 3, (2, 2, 3): 3, (3, 3): 3, (2, 2, 2, 2): 1, (2, 3, 3): 1, (4, 4): 1}
SMALL_SHAPES = {(2, 2, 2): 1, (2, 2, 3): 1, (3, 3): 1}


def nfg_corpus(small: bool) -> list[tuple[str, np.ndarray]]:
    """The criterion-9 game plus fixed random games of each shape."""
    corpus = [] if small else [("criterion9", criterion9_game())]
    for shape, count in (SMALL_SHAPES if small else NFG_SHAPES).items():
        name = "x".join(map(str, shape))
        rng = random.Random(f"corpus:{name}")
        for k in range(count):
            corpus.append((f"random{name}.{k}", random_game(rng, shape)))
    return corpus


def nfg_mixed_pass(seed: int, index: int, small: bool) -> list[Op]:
    """The corpus with a seeded integer offset added to each player's
    utilities. Fresh random games of one shape differ in cost by up to
    10x, and relabelled ones by a third (relabelling moves the multistart
    points of the descent). An offset leaves the normalised game, and so
    the solver's work, unchanged: every table is new to the program, its
    cost is not."""
    rng = random.Random(f"nfg-mixed:{seed}:{index}")
    ops = []
    for label, table in nfg_corpus(small):
        offsets = np.array([rng.randint(0, 12) for _ in range(table.shape[-1])])
        ops.append(Op("nfg", label, {"table": table + offsets}))
    return ops


# ---------------------------------------------------------------------------
# bi-window


def _sum_prop(coalition: str, opt: str, template: str, names) -> str:
    terms = " + ".join(template.replace("#", str(n)) for n in names)
    return f"<<{coalition}>>{opt}=? ({terms})"


def bi_window_pass(seed: int, index: int, small: bool) -> list[Op]:
    rng = random.Random(f"bi-window:{seed}:{index}")
    users, players = "usr1:usr2:usr3", "p1:p2:p3"
    k_mac = rng.randint(14, 16) if small else rng.randint(100, 104)
    # Three short windows put the median op inside a block of three.
    windows = [rng.randint(14, 15) for _ in range(3)] + [rng.randint(29, 31)]
    f = rng.choice((1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5))
    ops = [
        Op("csg", "medium_access3", {
            "model": "medium_access3.json", "params": {},
            "prop": _sum_prop(users, "max", f'R{{"mes#"}}[C<={k_mac}]', (1, 2, 3)),
        }, [("sum", 5.4, 1e-6)]),
    ]
    for k in windows:
        ops.append(Op("csg", "aloha3", {
            "model": "aloha3.json", "params": {},
            "prop": _sum_prop(users, "max", f'P[F<={k} "d#"]', (1, 2, 3)),
        }))
    profit = [("sum", 0.0, 1e-6)] if f in (1.5, 2.0) else []
    ops.append(Op("csg", "public_good_profit", {
        "model": "public_good_profit.json", "params": {"f": f},
        "prop": _sum_prop(players, "max", 'R{"pro#"}[C<=2]', (1, 2, 3)),
    }, profit))
    ops.append(Op("csg", "public_good_capital", {
        "model": "public_good_capital.json", "params": {},
        "prop": _sum_prop(players, "max", 'R{"cap#"}[I=1]', (1, 2, 3)),
    }))
    return ops


# ---------------------------------------------------------------------------
# vi-sweep


def eq8_cheat_value(alpha: float) -> float:
    """Closed-form value of the lone withholder in the raa variant."""
    return 2.0 * alpha**2 / (alpha**2 + (1 - alpha) ** 2)


def raa_expect(alpha: float) -> list:
    """The criterion-4 answers for the rational agent of raa."""
    if alpha < 0.41:
        return [(0, 1.0, 1e-3)]
    if alpha >= 0.6:
        return [(0, eq8_cheat_value(alpha), 1e-2)]
    return []


def _sharing(model: str, alpha: float, expect=()) -> Op:
    return Op("csg", model, {
        "model": f"secret_sharing_{model}.json", "params": {"alpha": alpha},
        "prop": UTIL_PROP,
    }, list(expect))


def vi_sweep_pass(seed: int, index: int, small: bool) -> list[Op]:
    rng = random.Random(f"vi-sweep:{seed}:{index}")
    first = 3 if small else 1

    def grid():
        # Points sit at the top of each tenth so that no point falls below
        # 0.1, where the VI sweep count grows fastest.
        return [round(k / 10 + rng.uniform(0.0, 0.001), 4) for k in range(first, 10)]

    ops = [_sharing("raa", a, raa_expect(a)) for a in grid()]
    ops += [_sharing("rba", a) for a in grid()]
    ops += [_sharing("rra_rmax5", a) for a in grid()]
    if not small:
        ops.append(_sharing("rrr_rmax5", round(rng.uniform(0.49, 0.51), 4)))
    ops.append(Op("csg", "aloha3_min", {
        "model": "aloha3.json", "params": {},
        "prop": _sum_prop("usr1:usr2:usr3", "min", 'R{"time#"}[F "d#"]', (1, 2, 3)),
    }))
    if len(ops) % 2 == 0:  # the reduced pass drops aloha3 to stay odd
        ops.pop()
    return ops


# ---------------------------------------------------------------------------
# known-defect: not in BENCHMARK.json (every op there must succeed)


def known_defect_pass(seed: int, index: int, small: bool) -> list[Op]:
    """rra at alpha=0.3: VI alternates between tied equilibria, runs to
    the 10 000-sweep cap and raises NotConverged. Fixed input."""
    return [_sharing("rra", 0.3)]


WORKLOADS = {
    "nfg-mixed": nfg_mixed_pass,
    "bi-window": bi_window_pass,
    "vi-sweep": vi_sweep_pass,
    "known-defect": known_defect_pass,
}
