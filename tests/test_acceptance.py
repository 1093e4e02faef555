"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s to see them inline)."""

import itertools
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

import csgnash
from csgnash.engine import check_nash_formula
from csgnash.formulas import (
    Atom,
    Cumulative,
    Instant,
    NashFormula,
    Next,
    ProbObjective,
    RewardObjective,
    TrueFormula,
    Until,
    parse_formula,
)
from csgnash.games import Csg, RewardStructure
from csgnash.modelio import load_model
from csgnash.nfg_solve import (
    Support,
    enumerate_supports,
    presolve_support,
    regret,
    solve_support,
    support_count,
    swne,
)
from csgnash.oracle import (
    OracleAbstain,
    brute_force_pure_ne,
    reference_backward_induction,
    single_agent_reach_reward,
    single_agent_until,
)
from csgnash.strategies import certify_epsilon

from conftest import (
    MODELS,
    eq8_cheat_value,
    hard_333_game,
    public_good_nfg,
    three_player_dilemma,
)


def report(criterion: int, name: str, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion} {name}: PASS"
    if detail:
        line += f" ({detail})"
    print(line)


UTIL_PROP = (
    '<<usr1:usr2:usr3>>max=? (R{"util1"}[F "done"] + R{"util2"}[F "done"]'
    ' + R{"util3"}[F "done"])'
)


# ---------------------------------------------------------------------------
# Criterion 1: one-shot public good exactness


def test_criterion_1_public_good_nfg():
    t0 = time.perf_counter()
    res2 = swne(public_good_nfg(2))
    assert np.allclose(res2.values, [0.0, 0.0, 0.0], atol=1e-6)
    res3 = swne(public_good_nfg(3))
    assert np.allclose(res3.values, [20.0, 20.0, 20.0], atol=1e-6)

    oracle2 = brute_force_pure_ne(public_good_nfg(2))
    assert oracle2.joints() == [(0, 0, 0)]
    oracle3 = brute_force_pure_ne(public_good_nfg(3))
    # With the factor exactly 3, a player's own investment cancels out of
    # its utility, so the no-investment and full-investment profiles are
    # both equilibria; full investment is welfare-maximal at 60.
    joints3 = oracle3.joints()
    assert (0, 0, 0) in joints3 and (2, 2, 2) in joints3
    by_joint = dict(oracle3.pure_equilibria)
    assert sum(by_joint[(0, 0, 0)]) == 0
    assert by_joint[(2, 2, 2)] == (20, 20, 20)
    assert oracle3.best_welfare == 60.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "public good one-shot", f"{elapsed:.3f}s")


# ---------------------------------------------------------------------------
# Criterion 2: prisoner's dilemma


def test_criterion_2_prisoners_dilemma():
    t0 = time.perf_counter()
    game = three_player_dilemma()
    res = swne(game)
    assert np.allclose(res.values, [1.0, 1.0, 1.0], atol=1e-9)
    # Dominance alone reduces the game to the all-defect profile.
    assert sorted((r.player, r.action) for r in res.removals) == [
        (0, 0),
        (1, 0),
        (2, 0),
    ]
    assert res.support.sets == ((1,), (1,), (1,))
    # The full support is refuted both by the presolve filter and by the
    # per-support program itself.
    full = Support(((0, 1), (0, 1), (0, 1)))
    assert presolve_support(game, full) is False
    assert solve_support(game, full).status == "infeasible"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, "three-player dilemma", f"{elapsed:.3f}s")


# ---------------------------------------------------------------------------
# Criterion 3: support counts


def test_criterion_3_support_counts():
    expectations = {
        (3, 3, 3): 343,
        (4, 4, 4): 3375,
        (2, 2, 2, 2): 81,
        (2, 2, 2, 2, 2): 243,
    }
    for shape, count in expectations.items():
        assert support_count(shape) == count
        assert len(enumerate_supports(shape)) == count
    report(3, "support counts", "343 / 3375 / 81 / 243")


# ---------------------------------------------------------------------------
# Criterion 4: secret sharing sweep (values cached for criterion 7)


_SWEEP_CACHE: dict = {}


def run_sharing_sweep():
    if _SWEEP_CACHE:
        return _SWEEP_CACHE
    nf = parse_formula(UTIL_PROP)
    t0 = time.perf_counter()
    for alpha in [round(0.1 * k, 1) for k in range(1, 10)]:
        model = load_model(MODELS / "secret_sharing_raa.json", {"alpha": alpha})
        result = check_nash_formula(model, nf)
        cert = certify_epsilon(
            result.coalition_game, result.strategy, result.compiled
        )
        _SWEEP_CACHE[alpha] = (result, cert)
    _SWEEP_CACHE["elapsed"] = time.perf_counter() - t0
    return _SWEEP_CACHE


def test_criterion_4_secret_sharing_threshold():
    cache = run_sharing_sweep()
    rational = {}
    for alpha in [round(0.1 * k, 1) for k in range(1, 10)]:
        result, _cert = cache[alpha]
        s0 = 0
        rational[alpha] = float(result.values[s0][0])
    for alpha in (0.1, 0.2, 0.3, 0.4):
        assert rational[alpha] == pytest.approx(1.0, abs=1e-3), alpha
    for alpha in (0.6, 0.7, 0.8, 0.9):
        assert rational[alpha] == pytest.approx(
            eq8_cheat_value(alpha), abs=1e-2
        ), alpha
    # Crossover of the withholding incentive lies in (0.5, 0.6]: at 0.5
    # the value still sits at 1, at 0.6 it exceeds it.
    assert rational[0.5] <= 1.0 + 1e-6
    assert rational[0.6] > 1.0 + 1e-3
    elapsed = cache["elapsed"]
    assert elapsed < 300.0
    report(4, "secret sharing sweep", f"9 points in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 5: public good no-investment regime


_PG_CACHE: dict = {}


def run_public_good():
    if _PG_CACHE:
        return _PG_CACHE
    nf = parse_formula(
        '<<p1:p2:p3>>max=? (R{"pro1"}[C<=2] + R{"pro2"}[C<=2] + R{"pro3"}[C<=2])'
    )
    for f in (1.5, 2.0):
        model = load_model(MODELS / "public_good_profit.json", {"f": f})
        result = check_nash_formula(model, nf)
        cert = certify_epsilon(
            result.coalition_game, result.strategy, result.compiled
        )
        _PG_CACHE[f] = (result, cert)
    return _PG_CACHE


def test_criterion_5_public_good_no_investment():
    cache = run_public_good()
    for f in (1.5, 2.0):
        result, _cert = cache[f]
        assert result.sums[0] == pytest.approx(0.0, abs=1e-6), f
    report(5, "no-investment regime", "f=1.5 and f=2.0 give sum 0")


# ---------------------------------------------------------------------------
# Criterion 6: oracle equivalence on random games


DYADIC = [(1.0,), (0.5, 0.5), (0.75, 0.25), (0.5, 0.25, 0.25)]


def random_turn_based_csg(rng: random.Random) -> tuple[Csg, int]:
    """Random game with one active coalition per state.

    Single-chooser stage games always admit pure equilibria whose best
    welfare is the optimum over all equilibria, so the pure-strategy
    reference is exact on this class. Probabilities are dyadic and
    rewards integer, keeping both pipelines bit-comparable.
    """
    m = rng.randint(1, 3)
    n_states = rng.randint(2, 5)
    avail = []
    for s in range(n_states):
        if s == n_states - 1:
            avail.append(tuple((0,) for _ in range(m)))
            continue
        active = rng.randrange(m)
        avail.append(
            tuple((0, 1) if i == active else (0,) for i in range(m))
        )
    labels = []
    for s in range(n_states):
        ls = {f"g{g + 1}" for g in range(m) if rng.random() < 0.3}
        labels.append(frozenset(ls))
    for g in range(m):
        prop = f"g{g + 1}"
        if not any(prop in ls for ls in labels):
            labels[-1] = labels[-1] | {prop}
    transitions = {}
    action_rewards: dict[int, dict] = {i: {} for i in range(m)}
    for s in range(n_states):
        for joint in itertools.product(*avail[s]):
            shape = rng.choice(DYADIC)
            succs = rng.sample(range(n_states), min(len(shape), n_states))
            dist: dict[int, float] = {}
            for t, p in zip(succs, shape):
                dist[t] = dist.get(t, 0.0) + p
            missing = 1.0 - sum(dist.values())
            if missing > 0:
                dist[s] = dist.get(s, 0.0) + missing
            transitions[(s, joint)] = dist
            for i in range(m):
                if rng.random() < 0.5:
                    action_rewards[i][(s, joint)] = float(rng.randint(0, 4))
    rewards = {
        f"r{i + 1}": RewardStructure(
            {
                s: float(rng.randint(0, 3))
                for s in range(n_states)
                if rng.random() < 0.5
            },
            action_rewards[i],
        )
        for i in range(m)
    }
    model = Csg(
        players=tuple(f"p{i + 1}" for i in range(m)),
        actions=tuple(("a", "b") for _ in range(m)),
        state_names=tuple(f"s{k}" for k in range(n_states)),
        initial=(0,),
        availability=tuple(avail),
        transitions=transitions,
        labels=tuple(labels),
        rewards=rewards,
    )
    return model, m


def random_bounded_formula(rng: random.Random, m: int) -> NashFormula:
    kind = rng.choice(["prob", "rew"])
    objectives = []
    for i in range(m):
        if kind == "prob":
            if rng.random() < 0.25:
                objectives.append(ProbObjective(Next(Atom(f"g{i + 1}"))))
            else:
                lhs = (
                    TrueFormula()
                    if rng.random() < 0.7
                    else Atom(f"g{((i + 1) % m) + 1}")
                )
                objectives.append(
                    ProbObjective(Until(lhs, Atom(f"g{i + 1}"), rng.randint(0, 3)))
                )
        else:
            shape = (
                Instant(rng.randint(0, 3))
                if rng.random() < 0.5
                else Cumulative(rng.randint(0, 3))
            )
            objectives.append(RewardObjective(f"r{i + 1}", shape))
    return NashFormula(
        coalitions=tuple((f"p{i + 1}",) for i in range(m)),
        opt=rng.choice(["max", "min"]),
        comparator=None,
        threshold=None,
        objectives=tuple(objectives),
    )


_ORACLE_CACHE: dict = {}


def run_oracle_corpus():
    if _ORACLE_CACHE:
        return _ORACLE_CACHE
    rng = random.Random(20240614)
    compared = []
    abstained = 0
    attempts = 0
    while len(compared) < 200 and attempts < 400:
        attempts += 1
        model, m = random_turn_based_csg(rng)
        nf = random_bounded_formula(rng, m)
        result = check_nash_formula(model, nf)
        try:
            reference = reference_backward_induction(
                result.coalition_game, result.compiled
            )
        except OracleAbstain:
            abstained += 1
            continue
        worst = max(
            float(np.max(np.abs(reference[s] - result.values[s])))
            for s in range(model.n_states)
        )
        compared.append((result, worst))
    _ORACLE_CACHE["compared"] = compared
    _ORACLE_CACHE["abstained"] = abstained
    return _ORACLE_CACHE


def test_criterion_6_oracle_equivalence():
    cache = run_oracle_corpus()
    compared = cache["compared"]
    assert len(compared) >= 200
    worst = max(w for _r, w in compared)
    assert worst <= 1e-6
    report(
        6,
        "oracle equivalence",
        f"{len(compared)} games, worst gap {worst:.2e}, "
        f"{cache['abstained']} abstentions",
    )


# ---------------------------------------------------------------------------
# Criterion 7: certificates


def test_criterion_7_epsilon_certification():
    worst = -np.inf
    cache4 = run_sharing_sweep()
    for alpha in [round(0.1 * k, 1) for k in range(1, 10)]:
        _result, cert = cache4[alpha]
        worst = max(worst, cert.epsilon)
    for f, (result, cert) in run_public_good().items():
        worst = max(worst, cert.epsilon)
    corpus = run_oracle_corpus()["compared"]
    for result, _gap in corpus:
        cert = certify_epsilon(
            result.coalition_game, result.strategy, result.compiled
        )
        worst = max(worst, cert.epsilon)
    assert worst <= 1e-4

    # Injected-gap detection: shifting 10% of the mass to an action worth
    # 0.5 less costs exactly 0.05.
    model = Csg(
        players=("p1",),
        actions=(("top", "bottom"),),
        state_names=("s0", "end"),
        initial=(0,),
        availability=(((0, 1),), ((),)),
        transitions={
            (0, (0,)): {1: 1.0},
            (0, (1,)): {1: 1.0},
            (1, (-1,)): {1: 1.0},
        },
        labels=(frozenset(), frozenset({"end"})),
        rewards={"pay": RewardStructure({}, {(0, (0,)): 1.0, (0, (1,)): 0.5})},
    )
    result = check_nash_formula(model, parse_formula('<<p1>>max=? (R{"pay"}[F "end"])'))
    key = next(k for k in result.strategy.table if k[0] == 0)
    result.strategy.table[key] = (np.array([0.9, 0.1]),)
    cert = certify_epsilon(result.coalition_game, result.strategy, result.compiled)
    assert cert.epsilon == pytest.approx(0.05, abs=1e-3)
    report(7, "epsilon certificates", f"worst synthesized eps {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 8: single-coalition degeneration


def random_single_agent_model(rng: random.Random, reward_kind: bool) -> Csg:
    """One controller; at least 60% of every distribution goes straight to
    absorbing states so value iteration tails stay below the tolerance.
    Reward models absorb only into the goal, which keeps the expected
    reward settling from every state under every strategy."""
    n_transient = rng.randint(2, 4)
    goal = n_transient
    n_absorbing = 1 if reward_kind else 2
    sink = n_transient + 1
    n_states = n_transient + n_absorbing
    avail = tuple(
        (tuple(range(rng.randint(1, 3))),) for _ in range(n_transient)
    ) + (((),),) * n_absorbing
    actions = (("a", "b", "c"),)
    transitions = {}
    for s in range(n_transient):
        for joint in itertools.product(*avail[s]):
            if reward_kind:
                heavy = [(goal, 0.6)]
            else:
                split = rng.choice([(0.6, 0.0), (0.3, 0.3), (0.0, 0.6)])
                heavy = [(goal, split[0]), (sink, split[1])]
            rest = 0.4
            others = rng.sample(range(n_transient), min(2, n_transient))
            dist: dict[int, float] = {}
            for t, p in heavy:
                if p > 0:
                    dist[t] = dist.get(t, 0.0) + p
            share = rest / len(others)
            for t in others:
                dist[t] = dist.get(t, 0.0) + share
            transitions[(s, joint)] = dist
    transitions[(goal, (-1,))] = {goal: 1.0}
    labels = [frozenset() for _ in range(n_transient)] + [frozenset({"goal"})]
    if not reward_kind:
        transitions[(sink, (-1,))] = {sink: 1.0}
        labels.append(frozenset({"sink"}))
    rewards = {
        "r": RewardStructure(
            {s: float(rng.randint(0, 3)) for s in range(n_transient)}, {}
        )
    }
    return Csg(
        players=("p1",),
        actions=actions,
        state_names=tuple(f"s{k}" for k in range(n_states)),
        initial=(0,),
        availability=avail,
        transitions=transitions,
        labels=tuple(labels),
        rewards=rewards,
    )


_SINGLE_CACHE: dict = {}


def run_single_agent_corpus():
    if _SINGLE_CACHE:
        return _SINGLE_CACHE
    rng = random.Random(915)
    runs = []
    for k in range(50):
        reward_kind = k % 2 == 0
        opt = "max" if (k // 2) % 2 == 0 else "min"
        model = random_single_agent_model(rng, reward_kind)
        if reward_kind:
            text = f'<<p1>>{opt}=? (R{{"r"}}[F "goal"])'
        else:
            text = f'<<p1>>{opt}=? (P[ !"sink" U "goal" ])'
        result = check_nash_formula(model, parse_formula(text))
        goal = model.n_states - (1 if reward_kind else 2)
        if reward_kind:
            state_rewards = np.array(
                [model.rewards["r"].state_reward(s) for s in range(model.n_states)]
            )
            classical = single_agent_reach_reward(
                result.coalition_game,
                frozenset({goal}),
                state_rewards,
                lambda s, joint: 0.0,
                opt,
            )
        else:
            sat1 = frozenset(range(model.n_states)) - {model.n_states - 1}
            classical = single_agent_until(
                result.coalition_game, sat1, frozenset({goal}), opt
            )
        worst = max(
            abs(float(result.values[s][0]) - float(classical[s]))
            for s in range(model.n_states)
        )
        runs.append((result, worst))
    _SINGLE_CACHE["runs"] = runs
    return _SINGLE_CACHE


def test_criterion_8_single_coalition_degeneration():
    runs = run_single_agent_corpus()["runs"]
    assert len(runs) == 50
    worst = max(w for _r, w in runs)
    assert worst <= 1e-6
    report(8, "single-coalition degeneration", f"50 models, worst gap {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 9: desk-scale performance


def test_criterion_9_performance_envelope():
    game = hard_333_game()
    assert not brute_force_pure_ne(game).pure_equilibria
    t0 = time.perf_counter()
    result = swne(game)
    nfg_elapsed = time.perf_counter() - t0
    assert nfg_elapsed < 60.0
    assert max(regret(game, result.profile, i) for i in range(3)) <= 1e-6

    t0 = time.perf_counter()
    model = load_model(MODELS / "medium_access3.json")
    nf = parse_formula(
        '<<usr1:usr2:usr3>>max=? (R{"mes1"}[C<=6] + R{"mes2"}[C<=6] + R{"mes3"}[C<=6])'
    )
    check_nash_formula(model, nf)
    model = load_model(MODELS / "aloha3.json")
    nf = parse_formula(
        '<<usr1:usr2:usr3>>min=? (R{"time1"}[F "d1"] + R{"time2"}[F "d2"]'
        ' + R{"time3"}[F "d3"])'
    )
    check_nash_formula(model, nf)
    csg_elapsed = time.perf_counter() - t0
    assert csg_elapsed < 1800.0
    report(
        9,
        "performance envelope",
        f"(3,3,3) in {nfg_elapsed:.1f}s, bundled checks in {csg_elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 10: determinism across interpreters


def _portray(values) -> str:
    return " ".join(f"{float(v):.17g}" for v in np.atleast_1d(values))


def representative_outputs() -> str:
    lines = []
    for f in (2, 3):
        lines.append(f"pg{f} " + _portray(swne(public_good_nfg(f)).values))
    lines.append("pd " + _portray(swne(three_player_dilemma()).values))
    lines.append("hard " + _portray(swne(hard_333_game()).values))
    nf = parse_formula(UTIL_PROP)
    for alpha in (0.4, 0.7):
        model = load_model(MODELS / "secret_sharing_raa.json", {"alpha": alpha})
        result = check_nash_formula(model, nf)
        cert = certify_epsilon(
            result.coalition_game, result.strategy, result.compiled
        )
        lines.append(
            f"raa{alpha} "
            + _portray(result.values[0])
            + f" iters={result.iterations} eps={cert.epsilon:.17g}"
        )
    pg = parse_formula(
        '<<p1:p2:p3>>max=? (R{"pro1"}[C<=2] + R{"pro2"}[C<=2] + R{"pro3"}[C<=2])'
    )
    model = load_model(MODELS / "public_good_profit.json", {"f": 2.0})
    lines.append("pgc " + _portray(check_nash_formula(model, pg).values[0]))
    rng = random.Random(42)
    for _ in range(10):
        model, m = random_turn_based_csg(rng)
        nfr = random_bounded_formula(rng, m)
        result = check_nash_formula(model, nfr)
        lines.append("csg " + " | ".join(_portray(v) for v in result.values.values()))
    rng = random.Random(77)
    for k in range(3):
        model = random_single_agent_model(rng, reward_kind=k % 2 == 0)
        if k % 2 == 0:
            text = '<<p1>>max=? (R{"r"}[F "goal"])'
        else:
            text = '<<p1>>min=? (P[ !"sink" U "goal" ])'
        result = check_nash_formula(model, parse_formula(text))
        lines.append("mdp " + " | ".join(_portray(v) for v in result.values.values()))
    return "\n".join(lines)


def test_criterion_10_determinism_across_interpreters():
    # Set iteration order follows the hash seed, so fresh interpreters with
    # different seeds would expose output that depends on it.
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(csgnash.__file__))
    path = [src, tests, os.environ.get("PYTHONPATH", "")]
    script = (
        "import test_acceptance\n"
        "print(test_acceptance.representative_outputs(), end='')\n"
    )
    baseline = representative_outputs()
    for hash_seed in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, path)),
            PYTHONHASHSEED=hash_seed,
        )
        run = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == baseline
    report(10, "determinism", "this and two fresh interpreters byte-identical")
