import io

import numpy as np
import pytest

from csgnash import strategies
from csgnash.engine import EngineConfig, check_nash_formula
from csgnash.formulas import parse_formula
from csgnash.games import Csg, RewardStructure, single_controller_view
from csgnash.modelio import load_model
from csgnash.objectives import EMPTY
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


def checked(model, text, cfg=None):
    return check_nash_formula(model, parse_formula(text), cfg or EngineConfig())


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
    pooled = single_controller_view(result.coalition_game)
    if reward_kind:
        pay = model.rewards["pay"]
        classical = single_agent_reach_reward(
            pooled,
            frozenset({2, 3}),
            np.zeros(4),
            lambda s, k: pay.action_reward(s, pooled.choices[s][k][0]),
            opt,
        )
    else:
        classical = single_agent_until(
            pooled, frozenset({0, 1, 2}), frozenset({2}), opt
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
