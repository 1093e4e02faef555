import io
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import csgnash
from csgnash import engine, strategies
from csgnash.engine import check_nash_formula
from csgnash.formulas import parse_formula, resolve_coalitions
from csgnash.games import Csg, RewardStructure, build_coalition_game
from csgnash.modelio import load_model
from csgnash.objectives import (
    EMPTY,
    bounded_core,
    compile_objectives,
    mode_closure,
    unbounded_core,
)
from csgnash.oracle import single_agent_reach_reward, single_agent_until
from csgnash.strategies import (
    SynthesizedStrategy,
    best_response_value,
    certify_epsilon,
    evaluate_at_initial_modes,
    evaluate_profile,
    export_strategy,
    import_strategy,
)

from conftest import (
    LONG_WINDOW_PROP,
    MODELS,
    ladder_csg,
    secret_sharing_raa_csg,
    two_coalition_goal_csg,
)

UTIL_PROP = (
    '<<usr1:usr2:usr3>>max=? (R{"util1"}[ F "done" ] + R{"util2"}[ F "done" ]'
    ' + R{"util3"}[ F "done" ])'
)


def coin_flip_model(p: float = 0.5) -> Csg:
    """One player, one action: reach the goal with probability p per step."""
    return Csg(
        players=("p1",),
        actions=(("flip",),),
        state_names=("s0", "goal"),
        initial=(0,),
        availability=(((0,),), ((),)),
        transitions={
            (0, (0,)): {1: p, 0: 1 - p},
            (1, (-1,)): {1: 1.0},
        },
        labels=(frozenset(), frozenset({"goal"})),
        rewards={"steps": RewardStructure({0: 1.0}, {})},
    )


def checked(model, text):
    return check_nash_formula(model, parse_formula(text))


# ---------------------------------------------------------------------------
# Evaluation


def test_evaluate_deterministic_chain_exact():
    model = two_coalition_goal_csg()
    result = checked(model, '<<p1:p2>>max=? (P[ !"g2" U "g1" ] + P[ !"g1" U "g2" ])')
    values = evaluate_at_initial_modes(
        result.coalition_game, result.strategy, result.compiled
    )
    assert np.allclose(values[0], result.values[0], atol=1e-12)
    assert np.allclose(values[0], [1.0, 0.0])


def test_evaluate_matches_engine_on_secret_sharing():
    model = secret_sharing_raa_csg(0.7)
    result = checked(
        model,
        '<<usr1:usr2:usr3>>max=? (R{"util1"}[ F "done" ] + R{"util2"}[ F "done" ]'
        ' + R{"util3"}[ F "done" ])',
    )
    values = evaluate_at_initial_modes(
        result.coalition_game, result.strategy, result.compiled
    )
    for s in range(model.n_states):
        assert np.allclose(values[s], result.values[s], atol=1e-5)


def test_evaluate_uniform_coin_flip_geometric():
    model = coin_flip_model(0.5)
    result = checked(model, '<<p1>>max=? (R{"steps"}[ F "goal" ])')
    values = evaluate_at_initial_modes(
        result.coalition_game, result.strategy, result.compiled
    )
    # Expected steps before absorption of a geometric(1/2): exactly 2.
    assert values[0][0] == pytest.approx(2.0, abs=1e-9)


def test_evaluate_finite_horizon_profile():
    model = two_coalition_goal_csg()
    result = checked(model, '<<p1:p2>>max=? (P[ true U<=2 "g1" ] + P[ true U<=2 "g2" ])')
    values = evaluate_at_initial_modes(
        result.coalition_game, result.strategy, result.compiled
    )
    assert np.allclose(values[0], result.values[0], atol=1e-12)


# ---------------------------------------------------------------------------
# Best responses


def test_best_response_single_coalition_equals_own_value():
    model = coin_flip_model(0.5)
    result = checked(model, '<<p1>>min=? (R{"steps"}[ F "goal" ])')
    responses = best_response_value(
        result.coalition_game, result.strategy, 0, result.compiled
    )
    values = evaluate_profile(result.coalition_game, result.strategy, result.compiled)
    for key, br in responses.items():
        assert br == pytest.approx(values[key][0], abs=1e-6)


def test_best_response_on_stage_equilibrium_embedding():
    # The one-shot dilemma embedded as a single-step game: from the
    # equilibrium profile nobody gains more than numerical noise.
    table = {
        (0, 0, 0): (7, 7, 7), (0, 0, 1): (3, 3, 9), (0, 1, 0): (3, 9, 3),
        (0, 1, 1): (0, 5, 5), (1, 0, 0): (9, 3, 3), (1, 0, 1): (5, 0, 5),
        (1, 1, 0): (5, 5, 0), (1, 1, 1): (1, 1, 1),
    }
    transitions = {(0, joint): {1: 1.0} for joint in table}
    transitions[(1, (-1, -1, -1))] = {1: 1.0}
    rewards = {
        f"u{i + 1}": RewardStructure(
            {}, {(0, joint): float(table[joint][i]) for joint in table}
        )
        for i in range(3)
    }
    model = Csg(
        players=("p1", "p2", "p3"),
        actions=(("c", "d"),) * 3,
        state_names=("s0", "end"),
        initial=(0,),
        availability=(((0, 1),) * 3, ((), (), ())),
        transitions=transitions,
        labels=(frozenset(), frozenset({"end"})),
        rewards=rewards,
    )
    result = checked(
        model,
        '<<p1:p2:p3>>max=? (R{"u1"}[ C<=1 ] + R{"u2"}[ C<=1 ] + R{"u3"}[ C<=1 ])',
    )
    assert np.allclose(result.values[0], [1, 1, 1])
    cert = certify_epsilon(result.coalition_game, result.strategy, result.compiled)
    assert cert.epsilon <= 1e-8


def test_perturbed_profile_detects_injected_gap():
    # Two actions from the start state: top pays 1, bottom pays 0.5.
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
        rewards={
            "pay": RewardStructure({}, {(0, (0,)): 1.0, (0, (1,)): 0.5})
        },
    )
    result = checked(model, '<<p1>>max=? (R{"pay"}[ F "end" ])')
    strategy = result.strategy
    key = next(k for k in strategy.table if k[0] == 0)
    # Move 10% of the mass to the inferior action: value drops by 0.05.
    strategy.table[key] = (np.array([0.9, 0.1]),)
    cert = certify_epsilon(result.coalition_game, strategy, result.compiled)
    assert cert.epsilon == pytest.approx(0.05, abs=1e-6)


@pytest.mark.parametrize("reward_kind", [False, True])
@pytest.mark.parametrize("opt", ["max", "min"])
def test_policy_iteration_from_wrong_profile_matches_classical(
    monkeypatch, opt, reward_kind
):
    # Start from "bail" at s0 and the action the other direction prefers
    # at s1: the first improvement fixes s1 only, and s0 turns to "go"
    # only once s1's improved value is evaluated.
    model = ladder_csg()
    text = (
        f'<<p1>>{opt}=? (R{{"pay"}}[ F "done" ])'
        if reward_kind
        else f'<<p1>>{opt}=? (P[ "safe" U "goal" ])'
    )
    result = checked(model, text)
    strategy = result.strategy
    strategy.table[(0, EMPTY, EMPTY, None)] = (np.array([0.0, 1.0]),)
    wrong_s1 = [0.0, 1.0] if opt == "max" else [1.0, 0.0]
    strategy.table[(1, EMPTY, EMPTY, None)] = (np.array(wrong_s1),)
    solves = []
    solve = strategies._solve_absorbing

    def counted(*args):
        solves.append(1)
        return solve(*args)

    monkeypatch.setattr(strategies, "_solve_absorbing", counted)
    responses = best_response_value(
        result.coalition_game, strategy, 0, result.compiled
    )
    assert len(solves) >= 3  # two improving rounds, then the check
    if reward_kind:
        classical = single_agent_reach_reward(
            result.coalition_game,
            frozenset({2, 3}),
            np.zeros(4),
            model.rewards["pay"].action_reward,
            opt,
        )
    else:
        classical = single_agent_until(
            result.coalition_game, frozenset({0, 1, 2}), frozenset({2}), opt
        )
    for s in (0, 1):
        assert responses[(s, (EMPTY, EMPTY))] == pytest.approx(classical[s], abs=1e-9)
    expected = {"max": 4.0, "min": 1.0} if reward_kind else {"max": 0.9, "min": 0.0}
    assert classical[0] == pytest.approx(expected[opt], abs=1e-12)


def test_certificate_reports_tiny_deviation():
    # Moving 1e-7 of the first user's mass at the start to the other action
    # costs about 8e-5 at alpha=0.1; the certificate must show that loss.
    model = load_model(MODELS / "secret_sharing_raa.json", {"alpha": 0.1})
    result = checked(model, UTIL_PROP)
    game, strategy, compiled = result.coalition_game, result.strategy, result.compiled
    before = evaluate_at_initial_modes(game, strategy, compiled)[0][0]
    key = (0, EMPTY, EMPTY, None)
    first, *rest = strategy.table[key]
    moved = first.copy()
    top = int(np.argmax(moved))
    moved[top] -= 1e-7
    moved[1 - top] += 1e-7
    strategy.table[key] = (moved, *rest)
    loss = before - evaluate_at_initial_modes(game, strategy, compiled)[0][0]
    assert loss > 7e-5
    cert = certify_epsilon(game, strategy, compiled)
    assert cert.epsilon == pytest.approx(loss, abs=1e-9)


@pytest.mark.parametrize("variant", ["raa", "rba"])
def test_certificate_gaps_not_negative_at_low_alpha(variant):
    model = load_model(MODELS / f"secret_sharing_{variant}.json", {"alpha": 0.1})
    result = checked(model, UTIL_PROP)
    cert = certify_epsilon(result.coalition_game, result.strategy, result.compiled)
    assert cert.gaps
    assert min(cert.gaps.values()) >= -1e-12


# ---------------------------------------------------------------------------
# Certification


def test_exact_tree_certificate_is_tight():
    model = two_coalition_goal_csg()
    result = checked(model, '<<p1:p2>>max=? (P[ true U<=1 "g1" ] + P[ true U<=1 "g2" ])')
    cert = certify_epsilon(result.coalition_game, result.strategy, result.compiled)
    assert cert.epsilon <= 1e-9


def test_secret_sharing_certificate():
    model = secret_sharing_raa_csg(0.8)
    result = checked(
        model,
        '<<usr1:usr2:usr3>>max=? (R{"util1"}[ F "done" ] + R{"util2"}[ F "done" ]'
        ' + R{"util3"}[ F "done" ])',
    )
    cert = certify_epsilon(result.coalition_game, result.strategy, result.compiled)
    assert cert.epsilon <= 1e-4
    assert set(cert.per_coalition) == {0, 1, 2}


# ---------------------------------------------------------------------------
# Export / import


def test_export_round_trip_is_byte_identical(tmp_path):
    model = secret_sharing_raa_csg(0.6)
    result = checked(
        model,
        '<<usr1:usr2:usr3>>max=? (R{"util1"}[ F "done" ] + R{"util2"}[ F "done" ]'
        ' + R{"util3"}[ F "done" ])',
    )
    first = tmp_path / "strategy.json"
    export_strategy(result.strategy, first)
    loaded = import_strategy(first)
    second = tmp_path / "again.json"
    export_strategy(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_export_finite_horizon_includes_step():
    model = two_coalition_goal_csg()
    result = checked(model, '<<p1:p2>>max=? (P[ true U<=1 "g1" ] + P[ true U<=1 "g2" ])')
    buf = io.StringIO()
    export_strategy(result.strategy, buf)
    text = buf.getvalue()
    assert '"step"' in text
    assert '"kind": "finite"' in text


def test_memoryless_strategy_entry_counts():
    model = coin_flip_model(0.5)
    result = checked(model, '<<p1>>max=? (P[ F "goal" ])')
    strategy = result.strategy
    assert strategy.kind == "memoryless"
    # One entry per reachable (state, mode) pair: s0 pending and the goal
    # with its objective satisfied.
    states_modes = {(k[0], k[1], k[2]) for k in strategy.table}
    assert len(states_modes) == 2
    buf = io.StringIO()
    export_strategy(result.strategy, buf)
    loaded = import_strategy(io.StringIO(buf.getvalue()))
    assert loaded.kind == "memoryless"
    assert len(loaded.table) == len(strategy.table)


def test_best_response_never_below_profile_value():
    model = secret_sharing_raa_csg(0.4)
    result = checked(
        model,
        '<<usr1:usr2:usr3>>max=? (R{"util1"}[ F "done" ] + R{"util2"}[ F "done" ]'
        ' + R{"util3"}[ F "done" ])',
    )
    values = evaluate_profile(result.coalition_game, result.strategy, result.compiled)
    for i in range(3):
        responses = best_response_value(
            result.coalition_game, result.strategy, i, result.compiled
        )
        for key, br in responses.items():
            assert br >= values[key][i] - 1e-5


# ---------------------------------------------------------------------------
# One compiled core per check


@pytest.mark.parametrize(
    "name,params,prop,built",
    [
        ("secret_sharing_raa.json", {"alpha": 0.5}, UTIL_PROP, "unbounded_core"),
        (
            "medium_access3.json",
            {},
            '<<usr1:usr2:usr3>>max=? (R{"mes1"}[C<=20] + R{"mes2"}[C<=20]'
            ' + R{"mes3"}[C<=20])',
            "bounded_core",
        ),
    ],
)
def test_check_and_certify_compile_one_core(monkeypatch, name, params, prop, built):
    # Certification reads the core the engine hands over with the strategy.
    calls = Counter()

    def count(module, attr):
        original = getattr(module, attr)

        def counted(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    for module in (engine, strategies):
        for attr in ("mode_closure", "bounded_core", "unbounded_core"):
            count(module, attr)
    result = checked(load_model(MODELS / name, params), prop)
    certify_epsilon(result.coalition_game, result.strategy, result.compiled)
    closures = 1 if built == "unbounded_core" else 0
    assert calls == Counter({built: 1, "mode_closure": closures})


def test_finite_best_response_reports_the_evaluated_nodes():
    model = two_coalition_goal_csg()
    result = checked(
        model, '<<p1:p2>>max=? (P[ true U<=2 "g1" ] + P[ true U<=2 "g2" ])'
    )
    game, strategy, compiled = result.coalition_game, result.strategy, result.compiled
    nodes = set(evaluate_profile(game, strategy, compiled))
    for i in range(compiled.m):
        assert set(best_response_value(game, strategy, i, compiled)) == nodes


def random_reward_csg(rng, limits=(3, 3, 3)) -> Csg:
    """Three players over four states, one to `limits[i]` actions for
    player i, float state and action rewards `r1`..`r3`, and an absorbing
    target `t` that every joint action reaches with positive probability,
    among one to three successors."""
    n = 4
    availability = tuple(
        tuple(tuple(range(rng.integers(1, c + 1))) for c in limits) for _ in range(n)
    ) + (((), (), ()),)
    transitions = {(n, (-1, -1, -1)): {n: 1.0}}
    rewards = {f"r{k}": ({}, {}) for k in (1, 2, 3)}
    for s in range(n):
        for state, _ in rewards.values():
            state[s] = float(rng.uniform(-5, 5))
        for joint in itertools.product(*availability[s]):
            others = rng.choice(n, size=rng.integers(0, 3), replace=False)
            targets = np.append(others, n)
            probs = rng.random(len(targets))
            transitions[(s, joint)] = dict(zip(targets.tolist(), probs / probs.sum()))
            for _, action in rewards.values():
                action[(s, joint)] = float(rng.uniform(-5, 5))
    return Csg(
        players=("p1", "p2", "p3"),
        actions=(("a", "b", "c"),) * 3,
        state_names=tuple(f"s{s}" for s in range(n)) + ("t",),
        initial=(0,),
        availability=availability,
        transitions=transitions,
        labels=(frozenset(),) * n + (frozenset({"t"}),),
        rewards={name: RewardStructure(*maps) for name, maps in rewards.items()},
    )


def _random_profile(rng, core):
    """A mixed profile at every node with rows, some entries zero."""
    table = {}
    for p in np.flatnonzero(np.diff(core.start)).tolist():
        mixed = []
        for c in core.shapes[core.nodes[p][0]]:
            x = rng.random(c) * (rng.random(c) > 0.25)
            x[rng.integers(c)] += 0.5
            mixed.append(x / x.sum())
        table[core.nodes[p]] = tuple(mixed)
    return table


def _reference_best_response(core, strategy, coalition):
    """Per-node best response: at each node, each own action's total adds
    the state reward, then over the played rows in joint order weight
    times action reward and weight times continuation; a later action
    wins only when strictly better."""
    better = float.__gt__ if core.compiled.opt == "max" else float.__lt__
    memo = {}

    def value(p):
        if p not in memo:
            memo[p] = float(core.const[p, coalition])
            if core.pending[p, coalition]:
                memo[p] = solve(p)
        return memo[p]

    def solve(p):
        s = core.nodes[p][0]
        dists = strategy.table[core.nodes[p]]
        shape = core.shapes[s]
        totals = [0.0 + float(core.state_rewards[s, coalition])] * shape[coalition]
        for j, joint in enumerate(itertools.product(*map(range, shape))):
            w = 1.0
            for i, a in enumerate(joint):
                if i != coalition:
                    w *= float(dists[i][a])
            if w == 0.0:
                continue
            r = core.start[p] + j
            cont = 0.0
            for e in range(core.ptr[r], core.ptr[r + 1]):
                cont += float(core.prob[e]) * value(int(core.succ[e]))
            totals[joint[coalition]] += w * float(core.action_rewards[r, coalition])
            totals[joint[coalition]] += w * cont
        best = totals[0]
        for total in totals[1:]:
            if better(total, best):
                best = total
        return best

    return {(s, core.nodes[p][1:3]): value(p) for s, p in enumerate(core.initial)}


@pytest.mark.parametrize("opt", ["max", "min"])
def test_finite_best_response_adds_in_the_reference_order(opt):
    # Float rewards and random mixed profiles, some with zero entries, so
    # that adding a row's two terms in the other order, or a skipped row,
    # moves a last bit.
    nf = parse_formula(
        f'<<p1:p2:p3>>{opt}=? (R{{"r1"}}[C<=3] + R{{"r2"}}[C<=2] + R{{"r3"}}[C<=3])'
    )
    for seed in range(12):
        rng = np.random.default_rng(seed)
        model = random_reward_csg(rng)
        game = build_coalition_game(model, resolve_coalitions(model, nf))
        compiled = compile_objectives(game, nf, None)
        core = bounded_core(game, compiled)
        strategy = SynthesizedStrategy(
            "finite", 3, _random_profile(rng, core), {}, core=core
        )
        for i in range(3):
            got = best_response_value(game, strategy, i, compiled)
            want = _reference_best_response(core, strategy, i)
            assert {k: v.hex() for k, v in got.items()} == {
                k: v.hex() for k, v in want.items()
            }


def _reference_evaluation(core, strategy):
    """Per-pair evaluation of a memoryless profile: a pair's step reward
    is its state reward, then weight times action reward over its played
    rows in joint order; chain entries run row by row, each row's
    successors in order."""
    n, m = core.const.shape
    step = np.zeros((n, m))
    rows, cols, probs = [], [], []
    for p, node in enumerate(core.nodes):
        if core.start[p] == core.start[p + 1]:
            continue
        dists = strategy.table[node]
        shape = core.shapes[node[0]]
        step[p] = core.state_rewards[node[0]]
        for j, joint in enumerate(itertools.product(*map(range, shape))):
            w = 1.0
            for i, a in enumerate(joint):
                w *= float(dists[i][a])
            if w == 0.0:
                continue
            r = core.start[p] + j
            step[p] += w * core.action_rewards[r]
            for e in range(core.ptr[r], core.ptr[r + 1]):
                rows.append(p)
                cols.append(int(core.succ[e]))
                probs.append(w * float(core.prob[e]))
    chain = (np.array(rows), np.array(cols), np.array(probs))
    values = np.column_stack([
        strategies._solve_absorbing(chain, step[:, l], pending, const)
        for l, (pending, const) in enumerate(zip(core.pending.T, core.const.T))
    ])
    return {(s, (D, E)): values[p] for p, (s, D, E, _) in enumerate(core.nodes)}


@pytest.mark.parametrize("limits", [(3, 3, 3), (1, 3, 3)])
def test_memoryless_certification_adds_in_the_reference_order(limits):
    # Float rewards and random mixed profiles, some with zero entries, so
    # that another order of a pair's step-reward terms, a skipped row or
    # a reordered chain entry moves a last bit. Where p1 has one action
    # everywhere, its best response is the profile's own value, reached
    # by the same sums, so it must match the reference bit for bit too.
    nf = parse_formula(
        '<<p1:p2:p3>>max=? (R{"r1"}[F "t"] + R{"r2"}[F "t"] + R{"r3"}[F "t"])'
    )
    for seed in range(12):
        rng = np.random.default_rng(seed)
        model = random_reward_csg(rng, limits)
        game = build_coalition_game(model, resolve_coalitions(model, nf))
        compiled = compile_objectives(game, nf, lambda phi: game.states_with_label("t"))
        core = unbounded_core(game, compiled, mode_closure(game, compiled)[0])
        strategy = SynthesizedStrategy(
            "memoryless", None, _random_profile(rng, core), {}, core=core
        )
        got = evaluate_profile(game, strategy, compiled)
        want = _reference_evaluation(core, strategy)
        assert {k: [x.hex() for x in v.tolist()] for k, v in got.items()} == {
            k: [x.hex() for x in v.tolist()] for k, v in want.items()
        }
        if limits[0] == 1:
            responses = best_response_value(game, strategy, 0, compiled)
            assert {k: v.hex() for k, v in responses.items()} == {
                k: float(v[0]).hex() for k, v in want.items()
            }


CERTIFY_IMPORTED = """
import sys
from csgnash.engine import evaluate_state_formula
from csgnash.formulas import parse_formula, resolve_coalitions
from csgnash.games import build_coalition_game
from csgnash.modelio import load_model
from csgnash.objectives import compile_objectives
from csgnash.strategies import certify_epsilon, import_strategy

model = load_model(sys.argv[1], {})
nf = parse_formula(sys.argv[2])
coalition = build_coalition_game(model, resolve_coalitions(model, nf))
compiled = compile_objectives(
    coalition, nf, lambda phi: evaluate_state_formula(model, phi)
)
print(certify_epsilon(coalition, import_strategy(sys.argv[3]), compiled).epsilon)
"""


def test_imported_long_strategy_certifies_in_fresh_interpreter(
    long_window_check, tmp_path
):
    # A fresh interpreter has the default recursion limit, and certifying
    # 1,500 levels compiles its own core from the imported strategy.
    _before, _after, result = long_window_check
    path = tmp_path / "strategy.json"
    export_strategy(result.strategy, path)
    src = os.path.dirname(os.path.dirname(csgnash.__file__))
    path_entries = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    run = subprocess.run(
        [
            sys.executable, "-c", CERTIFY_IMPORTED,
            str(MODELS / "medium_access3.json"), LONG_WINDOW_PROP, str(path),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert run.returncode == 0, run.stderr
    assert 0.0 <= float(run.stdout) <= 1e-9


def _public_good_check():
    model = load_model(MODELS / "public_good_profit.json", {"f": 2.0})
    return checked(
        model,
        '<<p1:p2:p3>>max=? (R{"pro1"}[C<=2] + R{"pro2"}[C<=2] + R{"pro3"}[C<=2])',
    )


@pytest.mark.parametrize("bad", ["nan", "inf", "-1", "0.5"])
def test_import_rejects_a_bad_distribution(bad):
    buf = io.StringIO()
    export_strategy(_public_good_check().strategy, buf)
    doc = json.loads(buf.getvalue())
    dist = next(
        e["distribution"] for e in doc["entries"] if "1" in e["distribution"].values()
    )
    action = next(a for a, p in dist.items() if p == "1")
    dist[action] = bad
    with pytest.raises(ValueError, match="state"):
        import_strategy(io.StringIO(json.dumps(doc)))


def test_certificate_reports_a_nan_gap():
    # max(-inf, nan) is -inf, so a NaN gap used to read as epsilon 0.
    result = _public_good_check()
    strategy = result.strategy
    key = (result.coalition_game.initial[0], EMPTY, EMPTY, 0)
    first, *rest = strategy.table[key]
    strategy.table[key] = (np.full_like(first, np.nan), *rest)
    cert = certify_epsilon(result.coalition_game, strategy, result.compiled)
    assert any(math.isnan(gap) for gap in cert.gaps.values())
    assert math.isnan(cert.epsilon)
