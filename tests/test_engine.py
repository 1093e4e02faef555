import dataclasses
import hashlib
import itertools
import time

import numpy as np
import pytest

from csgnash.engine import (
    AssumptionViolation,
    NotConverged,
    VIConfig,
    check_nash_formula,
    check_stopping_assumption,
    evaluate_state_formula,
    solve_finite_horizon,
    solve_value_iteration,
)
from csgnash.formulas import classify_horizon, parse_formula, resolve_coalitions
from csgnash.games import (
    Csg,
    CoalitionPartition,
    RewardStructure,
    build_coalition_game,
)
from csgnash.modelio import load_model_dict
from csgnash.objectives import UnsupportedFormulaError, compile_objectives
from csgnash import casestudies

from oracle import (
    reference_backward_induction,
    single_agent_reach_reward,
    single_agent_until,
)
from conftest import (
    chain_csg,
    eq8_cheat_value,
    secret_sharing_raa_csg,
    trap_chain_csg,
    two_coalition_goal_csg,
)


def compile_for(model, text):
    nf = parse_formula(text)
    partition = resolve_coalitions(model, nf)
    coalition = build_coalition_game(model, partition)
    from csgnash.formulas import sat_states

    compiled = compile_objectives(coalition, nf, lambda phi: sat_states(model, phi))
    return coalition, compiled


# ---------------------------------------------------------------------------
# Assumption check


def test_assumption_passes_with_reachable_absorbing_target():
    model = chain_csg()
    coalition, compiled = compile_for(model, '<<p1>>max=? (P[ F "goal" ])')
    report = check_stopping_assumption(coalition, compiled)
    assert report.ok


def test_assumption_fails_on_target_free_cycle():
    # Action b closes a target-free cycle at s0, so settling is not
    # certain under every profile.
    model = Csg(
        players=("p1",),
        actions=(("a", "b"),),
        state_names=("s0", "goal"),
        initial=(0,),
        availability=(((0, 1),), ((),)),
        transitions={
            (0, (0,)): {1: 1.0},
            (0, (1,)): {0: 1.0},
            (1, (-1,)): {1: 1.0},
        },
        labels=(frozenset(), frozenset({"goal"})),
        rewards={"r": RewardStructure({0: 1.0}, {})},
    )
    coalition, compiled = compile_for(model, '<<p1>>max=? (R{"r"}[ F "goal" ])')
    report = check_stopping_assumption(coalition, compiled)
    assert not report.ok
    _l, states = report.violations[0]
    assert 0 in states
    with pytest.raises(AssumptionViolation):
        check_nash_formula(model, parse_formula('<<p1>>max=? (R{"r"}[ F "goal" ])'))


def test_assumption_passes_on_secret_sharing():
    model = secret_sharing_raa_csg(0.3)
    coalition, compiled = compile_for(
        model,
        '<<usr1:usr2:usr3>>max=? (R{"util1"}[ F "done" ] + R{"util2"}[ F "done" ]'
        ' + R{"util3"}[ F "done" ])',
    )
    assert check_stopping_assumption(coalition, compiled).ok


def test_zero_probability_successors_do_not_count():
    # State 0 lists the trap as a successor with probability 0, so the
    # until still holds surely from state 0.
    model = Csg(
        players=("p1",),
        actions=(("go",),),
        state_names=("s0", "goal", "trap"),
        initial=(0,),
        availability=(((0,),), ((),), ((),)),
        transitions={
            (0, (0,)): {1: 1.0, 2: 0.0},
            (1, (-1,)): {1: 1.0},
            (2, (-1,)): {2: 1.0},
        },
        labels=(frozenset({"safe"}), frozenset({"safe", "goal"}), frozenset()),
    )
    coalition, compiled = compile_for(model, '<<p1>>max=? (P["safe" U "goal"])')
    objective = compiled.items[0]
    assert 0 in objective.sure
    assert 2 in objective.zero
    assert check_stopping_assumption(coalition, compiled).ok


# ---------------------------------------------------------------------------
# Bounded until


def test_bounded_until_all_targets_satisfied():
    model = two_coalition_goal_csg()
    coalition, compiled = compile_for(
        model, '<<p1:p2>>max=? (P[ true U<=3 true ] + P[ true U<=2 true ])'
    )
    table, _ = solve_finite_horizon(coalition, compiled)
    for s in range(model.n_states):
        assert np.allclose(table.at_state(s), [1.0, 1.0])


def test_bounded_until_zero_bound_gives_indicator():
    model = two_coalition_goal_csg()
    coalition, compiled = compile_for(
        model, '<<p1:p2>>max=? (P[ true U<=0 "g1" ] + P[ true U<=0 "g2" ])'
    )
    table, _ = solve_finite_horizon(coalition, compiled)
    assert np.allclose(table.at_state(0), [0.0, 0.0])
    assert np.allclose(table.at_state(1), [1.0, 0.0])
    assert np.allclose(table.at_state(2), [0.0, 1.0])


def test_bounded_until_matches_reference_on_goal_game():
    model = two_coalition_goal_csg()
    coalition, compiled = compile_for(
        model, '<<p1:p2>>max=? (P[ true U<=1 "g1" ] + P[ true U<=1 "g2" ])'
    )
    table, _ = solve_finite_horizon(coalition, compiled)
    reference = reference_backward_induction(coalition, compiled)
    for s in range(model.n_states):
        assert np.allclose(table.at_state(s), reference[s], atol=1e-12)
    # Coalition 1 steers the play to its own goal.
    assert np.allclose(table.at_state(0), [1.0, 0.0])


def test_next_objective_is_one_step():
    model = two_coalition_goal_csg()
    coalition, compiled = compile_for(
        model, '<<p1:p2>>max=? (P[ X "g1" ] + P[ X "g2" ])'
    )
    table, _ = solve_finite_horizon(coalition, compiled)
    assert np.allclose(table.at_state(0), [1.0, 0.0])
    # From g1 the play stays at g1: next-g1 is 1 and next-g2 is 0.
    assert np.allclose(table.at_state(1), [1.0, 0.0])


# ---------------------------------------------------------------------------
# Instantaneous and cumulative rewards


def reward_chain() -> Csg:
    return Csg(
        players=("p1",),
        actions=(("go",),),
        state_names=("s0", "s1"),
        initial=(0,),
        availability=(((0,),), ((0,),)),
        transitions={(0, (0,)): {1: 1.0}, (1, (0,)): {1: 1.0}},
        labels=(frozenset(), frozenset()),
        rewards={
            "r": RewardStructure({0: 5.0, 1: 7.0}, {}),
            "c": RewardStructure({0: 1.0, 1: 1.0}, {}),
        },
    )


def test_instantaneous_zero_bound_reads_current_state():
    model = reward_chain()
    coalition, compiled = compile_for(model, '<<p1>>max=? (R{"r"}[ I=0 ])')
    table, _ = solve_finite_horizon(coalition, compiled)
    assert table.at_state(0)[0] == pytest.approx(5.0)
    assert table.at_state(1)[0] == pytest.approx(7.0)


def test_instantaneous_constant_rewards_invariant():
    model = reward_chain()
    coalition, compiled = compile_for(model, '<<p1>>max=? (R{"c"}[ I=3 ])')
    table, _ = solve_finite_horizon(coalition, compiled)
    assert table.at_state(0)[0] == pytest.approx(1.0)


def test_instantaneous_on_capital_model():
    model = load_model_dict(casestudies.public_good_capital(months=1))
    nf = parse_formula(
        '<<p1:p2:p3>>max=? (R{"cap1"}[ I=1 ] + R{"cap2"}[ I=1 ] + R{"cap3"}[ I=1 ])'
    )
    result = check_nash_formula(model, nf)
    s0 = model.initial[0]
    assert np.allclose(result.values[s0], [10.0, 10.0, 10.0], atol=1e-9)


def test_cumulative_zero_bound_and_zero_rewards():
    model = reward_chain()
    coalition, compiled = compile_for(model, '<<p1>>max=? (R{"r"}[ C<=0 ])')
    table, _ = solve_finite_horizon(coalition, compiled)
    assert table.at_state(0)[0] == 0.0

    zero = Csg(
        players=("p1",),
        actions=(("go",),),
        state_names=("s0",),
        initial=(0,),
        availability=(((0,),),),
        transitions={(0, (0,)): {0: 1.0}},
        labels=(frozenset(),),
        rewards={"z": RewardStructure({}, {})},
    )
    coalition, compiled = compile_for(zero, '<<p1>>max=? (R{"z"}[ C<=4 ])')
    table, _ = solve_finite_horizon(coalition, compiled)
    assert table.at_state(0)[0] == 0.0


def test_cumulative_self_loop_telescopes():
    model = Csg(
        players=("p1",),
        actions=(("stay",),),
        state_names=("s0",),
        initial=(0,),
        availability=(((0,),),),
        transitions={(0, (0,)): {0: 1.0}},
        labels=(frozenset(),),
        rewards={"one": RewardStructure({0: 1.0}, {})},
    )
    coalition, compiled = compile_for(model, '<<p1>>max=? (R{"one"}[ C<=5 ])')
    table, _ = solve_finite_horizon(coalition, compiled)
    assert table.at_state(0)[0] == pytest.approx(5.0)


def test_finite_mixed_shapes_in_one_sum():
    # One next plus one bounded until in the same probabilistic sum.
    model = two_coalition_goal_csg()
    coalition, compiled = compile_for(
        model, '<<p1:p2>>max=? (P[ X "g1" ] + P[ true U<=2 "g2" ])'
    )
    table, _ = solve_finite_horizon(coalition, compiled)
    vec = table.at_state(0)
    assert vec[0] == pytest.approx(1.0)
    assert vec[1] == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Value iteration: until


def test_until_vi_trivial_targets():
    model = two_coalition_goal_csg()
    coalition, compiled = compile_for(
        model, '<<p1:p2>>max=? (P[ true U true ] + P[ true U true ])'
    )
    table, _ = solve_value_iteration(coalition, compiled)
    for s in range(3):
        assert np.allclose(table.at_state(s), [1.0, 1.0])
    assert table.iterations <= 2


def test_until_vi_single_coalition_matches_markov_chain():
    # Single player with a genuine choice: rushing risks the trap while
    # idling leaks forward safely. Compare against the independent
    # dynamic-programming solver over the coalition game's joint actions.
    model = trap_chain_csg()
    coalition, compiled = compile_for(model, '<<p1>>max=? (P[ "safe" U "goal" ])')
    table, _ = solve_value_iteration(coalition, compiled)
    classical = single_agent_until(
        coalition, frozenset({0, 1, 2}), frozenset({2}), "max"
    )
    for s in range(4):
        assert table.at_state(s)[0] == pytest.approx(classical[s], abs=1e-6)
    assert table.at_state(0)[0] == pytest.approx(0.75, abs=1e-6)


def test_secret_sharing_values_across_alpha():
    nf = parse_formula(
        '<<usr1:usr2:usr3>>max=? (R{"util1"}[ F "done" ] + R{"util2"}[ F "done" ]'
        ' + R{"util3"}[ F "done" ])'
    )
    for alpha in (0.1, 0.2, 0.3, 0.4):
        model = secret_sharing_raa_csg(alpha)
        result = check_nash_formula(model, nf)
        assert result.values[0] == pytest.approx([1.0, 1.0, 1.0], abs=1e-3)
    for alpha in (0.6, 0.7, 0.8, 0.9):
        model = secret_sharing_raa_csg(alpha)
        result = check_nash_formula(model, nf)
        assert result.values[0][0] == pytest.approx(
            eq8_cheat_value(alpha), abs=1e-2
        )
        assert result.values[0][1] == pytest.approx(0.0, abs=1e-2)


def test_until_vi_iteration_cap_raises():
    model = secret_sharing_raa_csg(0.1)
    nf = parse_formula(
        '<<usr1:usr2:usr3>>max=? (R{"util1"}[ F "done" ] + R{"util2"}[ F "done" ]'
        ' + R{"util3"}[ F "done" ])'
    )
    with pytest.raises(NotConverged) as err:
        check_nash_formula(model, nf, VIConfig(max_iters=25))
    assert err.value.iterations == 25
    assert err.value.residual > 0


@pytest.mark.parametrize(
    "settings",
    [{"epsilon": float("nan")}, {"epsilon": float("inf")}, {"epsilon": -1e-9},
     {"max_iters": 0}],
)
def test_vi_config_rejects_bad_settings(settings):
    with pytest.raises(ValueError):
        VIConfig(**settings)


# ---------------------------------------------------------------------------
# Value iteration: reachability rewards


def test_reach_reward_target_states_are_zero():
    model = chain_csg()
    coalition, compiled = compile_for(model, '<<p1>>min=? (R{"steps"}[ F "goal" ])')
    table, _ = solve_value_iteration(coalition, compiled)
    assert table.at_state(2)[0] == 0.0


def test_reach_reward_two_step_chain_excludes_target():
    model = Csg(
        players=("p1",),
        actions=(("go",),),
        state_names=("s0", "s1", "goal"),
        initial=(0,),
        availability=(((0,),), ((0,),), ((),)),
        transitions={
            (0, (0,)): {1: 1.0},
            (1, (0,)): {2: 1.0},
            (2, (-1,)): {2: 1.0},
        },
        labels=(frozenset(), frozenset(), frozenset({"goal"})),
        rewards={"one": RewardStructure({0: 1.0, 1: 1.0, 2: 1.0}, {})},
    )
    coalition, compiled = compile_for(model, '<<p1>>max=? (R{"one"}[ F "goal" ])')
    table, _ = solve_value_iteration(coalition, compiled)
    # Rewards collected at s0 and s1 only; the target state pays nothing.
    assert table.at_state(0)[0] == pytest.approx(2.0, abs=1e-6)


def test_reach_reward_single_coalition_matches_classical():
    model = chain_csg()
    coalition, compiled = compile_for(model, '<<p1>>min=? (R{"steps"}[ F "goal" ])')
    table, _ = solve_value_iteration(coalition, compiled)
    rewards = np.array([1.0, 1.0, 0.0])
    classical = single_agent_reach_reward(
        coalition, frozenset({2}), rewards, lambda s, joint: 0.0, "min"
    )
    for s in range(3):
        assert table.at_state(s)[0] == pytest.approx(classical[s], abs=1e-6)


# ---------------------------------------------------------------------------
# Top-level checking


def test_threshold_query_on_secret_sharing():
    model = secret_sharing_raa_csg(0.3)
    nf = parse_formula(
        '<<usr1:usr2:usr3>>max>=3 (P[ F "done" ] + P[ F "done" ] + P[ F "done" ])'
    )
    result = check_nash_formula(model, nf)
    assert result.sums[0] == pytest.approx(3.0)
    assert result.sat[0] is True


def test_trivially_negative_threshold_sat_everywhere():
    model = two_coalition_goal_csg()
    nf = parse_formula('<<p1:p2>>max>=-1 (P[ !"g2" U "g1" ] + P[ !"g1" U "g2" ])')
    result = check_nash_formula(model, nf)
    assert all(result.sat.values())


def test_public_good_no_investment_regime():
    doc = casestudies.public_good_profit(months=2)
    nf = parse_formula(
        '<<p1:p2:p3>>max=? (R{"pro1"}[ C<=2 ] + R{"pro2"}[ C<=2 ] + R{"pro3"}[ C<=2 ])'
    )
    for f in (1.5, 2.0):
        model = load_model_dict(doc, {"f": f})
        result = check_nash_formula(model, nf)
        assert result.sums[model.initial[0]] == pytest.approx(0.0, abs=1e-9)


def test_mixed_horizon_rejected():
    model = two_coalition_goal_csg()
    nf = parse_formula('<<p1:p2>>max=? (P[ F "g1" ] + P[ true U<=2 "g2" ])')
    with pytest.raises(UnsupportedFormulaError, match="mixed"):
        check_nash_formula(model, nf)


def test_probabilistic_values_stay_in_unit_interval():
    model = secret_sharing_raa_csg(0.5)
    nf = parse_formula(
        '<<usr1:usr2:usr3>>max=? (P[ F "done" ] + P[ !"done" U "learned_all" ]'
        ' + P[ !"done" U "learned_none" ])'
    )
    result = check_nash_formula(model, nf)
    for vec in result.values.values():
        assert np.all(vec >= -1e-12) and np.all(vec <= 1 + 1e-12)


def test_nested_nash_formula_resolution():
    model = two_coalition_goal_csg()
    inner_text = '<<p1:p2>>max>=1 (P[ !"g2" U "g1" ] + P[ !"g1" U "g2" ])'
    out = evaluate_state_formula(model, parse_formula(f"!{inner_text}"))
    inner = evaluate_state_formula(model, parse_formula(inner_text))
    assert out == frozenset(range(3)) - inner
    assert inner  # the inner formula holds somewhere


def test_capped_sharing_variants_solve_exactly():
    from conftest import MODELS
    from csgnash.modelio import load_model
    from csgnash.strategies import certify_epsilon

    nf = parse_formula(
        '<<usr1:usr2:usr3>>max=? (R{"util1"}[F "done"] + R{"util2"}[F "done"]'
        ' + R{"util3"}[F "done"])'
    )
    for name in ("secret_sharing_rra_rmax5.json", "secret_sharing_rrr_rmax5.json"):
        model = load_model(MODELS / name, {"alpha": 0.8})
        result = check_nash_formula(model, nf)
        cert = certify_epsilon(
            result.coalition_game, result.strategy, result.compiled
        )
        # Acyclic round structure: value iteration settles in depth sweeps
        # and the synthesized profile is an exact equilibrium.
        assert result.iterations <= 12
        assert cert.epsilon <= 1e-9


def test_unbounded_two_rational_variant_reports_nonconvergence():
    # With two rational agents the stage games at low continuation values
    # admit equally good asymmetric equilibria; welfare-optimal selection
    # alternates between them and the value sequence cycles. The engine
    # must report that honestly instead of returning a wrong fixpoint.
    from conftest import MODELS
    from csgnash.modelio import load_model

    nf = parse_formula(
        '<<usr1:usr2:usr3>>max=? (R{"util1"}[F "done"] + R{"util2"}[F "done"]'
        ' + R{"util3"}[F "done"])'
    )
    model = load_model(MODELS / "secret_sharing_rra.json", {"alpha": 0.3})
    with pytest.raises(NotConverged):
        check_nash_formula(model, nf)


def test_merged_coalition_full_pipeline():
    from conftest import MODELS
    from csgnash.modelio import load_model

    model = load_model(MODELS / "secret_sharing_rra.json", {"alpha": 0.8})
    nf = parse_formula(
        '<<usr1,usr2:usr3>>max=? (R{"util1"}[F "done"] + R{"util3"}[F "done"])'
    )
    result = check_nash_formula(model, nf)
    assert result.coalition_game.n_players == 2
    assert result.coalition_game.players == ("usr1+usr2", "usr3")
    # The merged rationals coordinate: exactly one withholds and wins.
    assert result.values[model.initial[0]][0] == pytest.approx(
        eq8_cheat_value(0.8), abs=1e-4
    )


def test_min_query_uses_cost_equilibria():
    # One player, two routes: expensive (cost 5) or cheap (cost 1).
    model = Csg(
        players=("p1",),
        actions=(("cheap", "dear"),),
        state_names=("s0", "goal"),
        initial=(0,),
        availability=(((0, 1),), ((),)),
        transitions={
            (0, (0,)): {1: 1.0},
            (0, (1,)): {1: 1.0},
            (1, (-1,)): {1: 1.0},
        },
        labels=(frozenset(), frozenset({"goal"})),
        rewards={
            "cost": RewardStructure(
                {}, {(0, (0,)): 1.0, (0, (1,)): 5.0}
            )
        },
    )
    nf = parse_formula('<<p1>>min=? (R{"cost"}[ F "goal" ])')
    result = check_nash_formula(model, nf)
    assert result.values[0][0] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Stage cache: each distinct stage table is solved once per check

UTIL_PROP = (
    '<<usr1:usr2:usr3>>max=? (R{"util1"}[F "done"] + R{"util2"}[F "done"]'
    ' + R{"util3"}[F "done"])'
)


def _sum_prop(template: str, opt: str = "max", players: str = "usr") -> str:
    terms = " + ".join(template.replace("#", str(k)) for k in (1, 2, 3))
    coalitions = ":".join(f"{players}{k}" for k in (1, 2, 3))
    return f"<<{coalitions}>>{opt}=? ({terms})"


ALOHA_MIN_COST = _sum_prop('R{"time#"}[C<=6]', "min")
ALOHA_MIN_REACH = _sum_prop('R{"time#"}[F "d#"]', "min")
PROFIT_PROP = _sum_prop('R{"pro#"}[C<=2]', players="p")
CAPITAL_PROP = _sum_prop('R{"cap#"}[I=1]', players="p")


def _check_bundled(name, params, prop):
    from conftest import MODELS
    from csgnash.modelio import load_model

    model = load_model(MODELS / name, params)
    return check_nash_formula(model, parse_formula(prop))


def _result_digest(result) -> str:
    """SHA-256 over the exact bits of every state's values and sum and of
    every strategy table entry, in a fixed key order."""
    h = hashlib.sha256()
    for s in sorted(result.values):
        bits = [float(v).hex() for v in result.values[s]]
        h.update(repr((s, bits, float(result.sums[s]).hex())).encode())

    def order(key):
        s, D, E, n = key
        return (s, sorted(D), sorted(E), -1 if n is None else n)

    for key in sorted(result.strategy.table, key=order):
        dists = [[float(p).hex() for p in vec] for vec in result.strategy.table[key]]
        h.update(repr((order(key), dists)).encode())
    return h.hexdigest()


# Digests recorded with the engine that solved every stage table afresh;
# solving each distinct table once must not change a single bit.
PINNED_CHECKS = [
    ("medium_access3.json", {}, _sum_prop('R{"mes#"}[C<=20]'),
     "dfed29349d14dcb0f51cb9ef6caf39f99f9de5b46acccd165effaf04f58f75f2"),
    ("aloha3.json", {}, _sum_prop('P[F<=15 "d#"]'),
     "8fd59d1858862d36ca7b4ef0118923c1ab4727ff91abafbd7c1f13ecdc272810"),
    ("secret_sharing_raa.json", {"alpha": 0.5}, UTIL_PROP,
     "d42ca2215b4f4d798a764b71173d9fd5ba8fc79e0ef906247160820921039dc9"),
    ("secret_sharing_rrr_rmax5.json", {"alpha": 0.5}, UTIL_PROP,
     "1e83e4b6965ebbbc6c701dee1b9acb7cdb5531df6199c1d1b9037836d98ebcb5"),
    # Recorded with the engine that built and solved each value-iteration
    # stage table one pair at a time; batching the sweep changes no bit.
    ("secret_sharing_rba.json", {"alpha": 0.1}, UTIL_PROP,
     "f96ecf70e5a1a56a2907dbb2f805b4c65bace3436fdba7f138402e969d322048"),
    ("secret_sharing_rra_rmax5.json", {"alpha": 0.5}, UTIL_PROP,
     "cf35893cd602ea2bbc72561ff5016a55888eaccddf8b8995fa9808d5fae7f635"),
    # Recorded with backward induction that built each stage table row by
    # row with one np.dot per (row, objective). The first covers
    # cumulative costs, rows of 1 to 8 successors and single-chooser
    # stages under min.
    ("aloha3.json", {}, ALOHA_MIN_COST,
     "1c06d43895788be7023a8fee2618da86ba5ca0f3a47730843e851a7b2d891009"),
    ("aloha3.json", {}, _sum_prop('P[F<=31 "d#"]'),
     "5a7c5a0e6519e56e009798c9049d6666844f5680d901ef7fa2aefd53fa0d17a5"),
    ("public_good_profit.json", {"f": 1.75}, PROFIT_PROP,
     "938889a5695114cbaad9a202c9de02e1d5b49634a877cd3ad1bd315e12779f0a"),
    ("public_good_capital.json", {}, CAPITAL_PROP,
     "5aacb0260160be97ab871f27bc5cd13af942f7c42faff116ca3588527e81836b"),
]


@pytest.mark.parametrize("name,params,prop,digest", PINNED_CHECKS)
def test_stage_cache_keeps_results_bit_identical(name, params, prop, digest):
    assert _result_digest(_check_bundled(name, params, prop)) == digest


def _certificate_digest(checks) -> tuple[str, list[float]]:
    """SHA-256 over every certificate gap (key, `float.hex`) of the
    checks, in a fixed key order, and each check's epsilon."""
    from csgnash.strategies import certify_epsilon

    h = hashlib.sha256()
    epsilons = []
    for name, params, prop in checks:
        result = _check_bundled(name, params, prop)
        cert = certify_epsilon(result.coalition_game, result.strategy, result.compiled)
        for (i, s, (D, E)), gap in sorted(
            cert.gaps.items(),
            key=lambda kv: (kv[0][0], kv[0][1], sorted(kv[0][2][0]), sorted(kv[0][2][1])),
        ):
            h.update(repr((i, s, sorted(D), sorted(E), float(gap).hex())).encode())
        epsilons.append(cert.epsilon)
    return h.hexdigest(), epsilons


def _pinned(horizon: str) -> list[tuple]:
    return [
        (name, params, prop)
        for name, params, prop, _digest in PINNED_CHECKS
        if classify_horizon(parse_formula(prop)) == horizon
    ]


def test_finite_certificate_gaps_stay_bit_identical():
    # Every gap of every finite pinned check, recorded with best responses
    # and profile evaluation that walked the nodes one at a time. The
    # best response sums without FMA and the check with ddot, so aloha3
    # F<=31 certifies one rounding step away from 0.
    digest, epsilons = _certificate_digest(_pinned("finite"))
    assert epsilons[3] == 2.220446049250313e-16
    assert digest == "229b27061bb278555a03b37c654379a64f7bf33cbff4cdd691765b1db8c877d7"


def test_memoryless_certificate_gaps_stay_bit_identical():
    # Every gap of every unbounded pinned check, of aloha3's min reach
    # (rows of 4 and 8 successors, stages where several coalitions
    # choose) and of raa at alpha=0.1, recorded with evaluation and best
    # responses that walked each pair's joint actions one at a time.
    digest, _epsilons = _certificate_digest(_pinned("infinite") + [
        ("aloha3.json", {}, ALOHA_MIN_REACH),
        ("secret_sharing_raa.json", {"alpha": 0.1}, UTIL_PROP),
    ])
    assert digest == "d7e9ec9244664a97a3bd8e49a5af10999ed96f4681bbe71ac3629bc1efb0d757"


@pytest.fixture
def stage_solves(monkeypatch):
    """Counts the stage games the engine hands to the solver."""
    from csgnash import engine

    calls = []
    solve = engine.swne

    def counting(game):
        calls.append(game.shape)
        return solve(game)

    monkeypatch.setattr(engine, "swne", counting)
    return calls


def test_repeating_levels_solve_no_new_stage(stage_solves):
    # The aloha3 stages that the array pass leaves to the solver repeat
    # long before the bound, so a twice as long horizon sends it no table
    # that the shorter one did not.
    _check_bundled("aloha3.json", {}, _sum_prop('P[F<=15 "d#"]'))
    short = len(stage_solves)
    stage_solves.clear()
    _check_bundled("aloha3.json", {}, _sum_prop('P[F<=31 "d#"]'))
    assert short > 0
    assert len(stage_solves) == short


def test_pure_answer_stages_skip_the_solver(stage_solves):
    # The array pass settles every stage of medium_access3 where several
    # coalitions choose, and all but 3 distinct tables of aloha3's: the
    # pure bar all but 19, and dominance 16 of those. Each table went to
    # the solver before: 76 and 208 solves.
    _check_bundled("medium_access3.json", {}, _sum_prop('R{"mes#"}[C<=20]'))
    assert len(stage_solves) == 0
    _check_bundled("aloha3.json", {}, _sum_prop('P[F<=31 "d#"]'))
    assert 0 < len(stage_solves) <= 3


def test_value_iteration_solves_repeated_stages_once(stage_solves):
    # Solving afresh every sweep made 80 stage solves here.
    _check_bundled("secret_sharing_rrr_rmax5.json", {"alpha": 0.5}, UTIL_PROP)
    assert 0 < len(stage_solves) <= 11


@pytest.mark.parametrize(
    "name,params,prop",
    [
        ("aloha3.json", {}, _sum_prop('P[F<=15 "d#"]')),
        ("secret_sharing_rrr_rmax5.json", {"alpha": 0.5}, UTIL_PROP),
    ],
)
def test_check_result_sums_inconclusive_supports(monkeypatch, name, params, prop):
    # Every stage solve (cache miss) reports two undecided supports, in
    # backward induction and in value iteration alike. aloha3 within 15
    # steps keeps three stages, of shapes (2, 2, 2) and (1, 2, 2), that
    # neither the pure bar nor dominance settles; within 3 steps, the
    # array pass settles every stage.
    from dataclasses import replace

    from csgnash import engine

    solves = []
    solve = engine.swne

    def undecided(game):
        solves.append(game.shape)
        return replace(solve(game), inconclusive=2)

    assert _check_bundled(name, params, prop).inconclusive == 0
    monkeypatch.setattr(engine, "swne", undecided)
    result = _check_bundled(name, params, prop)
    assert solves
    assert result.inconclusive == 2 * len(solves)


def test_stage_solver_generations(stage_solves):
    from csgnash.engine import _StageSolver

    stages = _StageSolver("max")
    # Prisoner's dilemma; action names do not enter the key.
    table = np.array([[[3.0, 3.0], [0.0, 5.0]], [[5.0, 0.0], [1.0, 1.0]]])
    first = stages.solve(table, (("c", "d"), ("c", "d")))
    assert stages.solve(table.copy(), (("x", "y"), ("x", "y"))) is first
    values, probs = first
    for arr in (values, *probs):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    # A table used in the previous sweep survives one ageing, and using
    # it renews it; one unused for two sweeps is dropped.
    stages.age()
    assert stages.solve(table, (("c", "d"), ("c", "d"))) is first
    assert len(stage_solves) == 1
    stages.age()
    stages.age()
    stages.solve(table, (("c", "d"), ("c", "d")))
    assert len(stage_solves) == 2


def test_backward_induction_leaves_recursion_limit(long_window_check):
    # Levels are solved in one loop from the deepest up, so a long horizon
    # needs no deeper interpreter stack.
    before, after, result = long_window_check
    assert after == before
    assert result.sums[result.coalition_game.initial[0]] == pytest.approx(5.4, abs=1e-9)


# ---------------------------------------------------------------------------
# Batched value-iteration sweeps


def test_aloha3_min_reach_stays_at_recorded_values():
    # aloha3 has rows of four and eight successors, so its rows are padded
    # to eight, and sums that wide round differently from one np.dot per
    # row: 8 of these values move by an ulp. Recorded with the engine that
    # built each stage table per pair.
    a, b = 2.7207678730016305, 2.720767873001631
    c, d = 2.0312499947783422, 1.2499999999999867
    recorded = {
        0: (a, b, a), 1: (a, b, a), 2: (c, c, 0), 3: (a, b, a), 4: (a, b, a),
        5: (c, c, 0), 6: (c, 0, c), 7: (c, 0, c), 8: (d, 0, 0), 9: (a, b, a),
        10: (a, b, a), 11: (c, c, 0), 12: (a, b, a), 13: (a, b, a),
        14: (c, c, 0), 15: (c, 0, c), 16: (c, 0, c), 17: (d, 0, 0),
        18: (0, c, c), 19: (0, c, c), 20: (0, d, 0), 21: (0, c, c),
        22: (0, c, c), 23: (0, d, 0), 24: (0, 0, d), 25: (0, 0, d),
        26: (0, 0, 0),
    }
    result = _check_bundled("aloha3.json", {}, ALOHA_MIN_REACH)
    assert result.iterations == 20
    assert sorted(result.values) == sorted(recorded)
    for s, want in recorded.items():
        assert np.abs(result.values[s] - np.array(want)).max() <= 1e-12


def test_value_iteration_stops_at_a_cycle():
    # rra at alpha=0.3 first repeats a value vector at sweep 60 and then
    # cycles with period 7; the 10 000-sweep cap took seconds to reach.
    start = time.perf_counter()
    with pytest.raises(NotConverged) as err:
        _check_bundled("secret_sharing_rra.json", {"alpha": 0.3}, UTIL_PROP)
    assert time.perf_counter() - start < 1.0
    assert err.value.period == 7
    assert err.value.iterations < 100
    assert "period 7" in str(err.value)


def _vi_outcome(check) -> tuple:
    """What a value-iteration check ends with, to the bit: the result's
    digest, sweep count and inconclusive supports, or the `NotConverged`
    fields."""
    try:
        result = check()
    except NotConverged as error:
        return ("not converged", float(error.residual).hex(), error.iterations,
                error.period)
    return (_result_digest(result), result.iterations, result.inconclusive)


def assert_speculation_changes_nothing(check) -> None:
    """`check` ends the same with value iteration's speculative sweeps on
    and off (every sweep exact)."""
    from csgnash import engine

    outcome = _vi_outcome(check)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_SPECULATION_CHUNK", 0)
        assert _vi_outcome(check) == outcome


@pytest.mark.parametrize(
    "name,params,prop,vi",
    [(name, params, prop, None) for name, params, prop in _pinned("infinite")] + [
        ("secret_sharing_raa.json", {"alpha": 0.1005}, UTIL_PROP, None),
        ("secret_sharing_rba.json", {"alpha": 0.1002}, UTIL_PROP, None),
        ("aloha3.json", {}, ALOHA_MIN_REACH, None),
        # `test_until_vi_iteration_cap_raises`: the cap ends it mid-chunk.
        ("secret_sharing_raa.json", {"alpha": 0.1}, UTIL_PROP, VIConfig(max_iters=25)),
        # `test_value_iteration_stops_at_a_cycle`: period 7 after 77 sweeps.
        ("secret_sharing_rra.json", {"alpha": 0.3}, UTIL_PROP, None),
    ] + [
        # raa at 0.1005 runs chunks of 4, 8, 16, 32, 64 and then 128
        # sweeps from sweep 6 on, after a chunk of 4 at sweep 4 whose second
        # sweep misses. The stopping rule fires at offsets 2 (sweep 20), 52
        # and 73 of their chunks; the cap ends sweeps 4 and 34 (the first
        # of a chunk), 9 (the last), 12 and 4,550 (offset 68).
        ("secret_sharing_raa.json", {"alpha": 0.1005}, UTIL_PROP, vi)
        for vi in (
            VIConfig(epsilon=1e-3),
            VIConfig(epsilon=3e-4),
            VIConfig(epsilon=1e-5),
            VIConfig(max_iters=4),
            VIConfig(max_iters=9),
            VIConfig(max_iters=12),
            VIConfig(max_iters=34),
            VIConfig(epsilon=1e-5, max_iters=4550),
        )
    ],
)
def test_speculative_sweeps_change_no_bit(name, params, prop, vi):
    from conftest import MODELS
    from csgnash.modelio import load_model

    model = load_model(MODELS / name, params)
    nf = parse_formula(prop)
    assert_speculation_changes_nothing(lambda: check_nash_formula(model, nf, vi))


def test_speculative_sweeps_are_taken(monkeypatch):
    # A stage is picked once per exact sweep and once per verified chunk.
    # If the held rows' products rounded otherwise than the whole level's
    # (a BLAS build could), every chunk would miss and run exact.
    from csgnash import engine

    passes = []
    array_pass = engine._array_pass

    def counting(block, utilities, *rest):
        passes.append(len(utilities))
        return array_pass(block, utilities, *rest)

    monkeypatch.setattr(engine, "_array_pass", counting)
    result = _check_bundled("secret_sharing_rba.json", {"alpha": 0.1002}, UTIL_PROP)
    # Thousands of sweeps, nearly all verified in chunks of 128.
    assert len(passes) < result.iterations / 8
    # No sweep past the stopping sweep is verified. Only the first chunk,
    # of four sweeps from sweep 4, misses: its second sweep leaves a stage
    # open and runs exact, so its last three are the only sweeps verified
    # and not taken.
    assert sum(passes) == result.iterations + 3
    # A core whose chunk of four sweeps would gather more floats than the
    # bound runs every sweep exact: raa's gathers 45 a sweep (5 rows of 3
    # successors, 3 objectives).
    passes.clear()
    monkeypatch.setattr(engine, "_SPECULATION_FLOATS", 4 * 45 - 1)
    result = _check_bundled("secret_sharing_raa.json", {"alpha": 0.5}, UTIL_PROP)
    assert passes == [1] * result.iterations


@pytest.mark.parametrize("core", ["aloha3 min-reach", "wide random"])
def test_stacked_sweeps_round_as_each_sweep(core):
    # A speculative chunk is verified by one sweep over its values stacked,
    # which must give each sweep's bits. Rows of more than three successors
    # rounded otherwise when the product broadcast over the stack.
    from csgnash.engine import _sweep_utilities
    from csgnash.objectives import mode_closure, unbounded_core
    from test_strategies import random_reward_csg

    rng = np.random.default_rng(7)
    if core == "aloha3 min-reach":
        model, prop = _bundled("aloha3.json")(), ALOHA_MIN_REACH
    else:
        # Nine states, each joint action reaching four to eight of them.
        model = random_reward_csg(rng, (2, 2, 2), n=9, others=(3, 8))
        prop = '<<p1:p2:p3>>max=? (R{"r1"}[F "t"] + R{"r2"}[F "t"] + R{"r3"}[F "t"])'
    coalition, compiled = compile_for(model, prop)
    core = unbounded_core(coalition, compiled, mode_closure(coalition, compiled)[0])
    lengths = np.diff(core.ptr)
    assert lengths.max() == 8 and (lengths >= 4).any()
    sweep = _sweep_utilities(core)
    for sweeps in (2, 3, 5) * 20:
        stacked = rng.uniform(-10, 10, (sweeps,) + core.const.shape)
        each = np.stack([sweep(values) for values in stacked])
        assert sweep(stacked).tobytes() == each.tobytes()


def _bundled(name, params=None):
    from conftest import MODELS
    from csgnash.modelio import load_model

    return lambda: load_model(MODELS / name, params or {})


@pytest.mark.parametrize(
    "model,prop",
    [
        # Rewards added on every row, every component pending, stages where
        # one coalition chooses, block nodes one range: the direct add.
        (_bundled("secret_sharing_raa.json", {"alpha": 0.1005}), UTIL_PROP),
        # Min, stages where several coalitions choose, rows of 4 to 8
        # successors, decided components.
        (_bundled("aloha3.json"), ALOHA_MIN_REACH),
        # Min with rewards of 0 on most rows, where several coalitions
        # choose: a pending sum of +0.0 takes `scne`'s zero sign.
        (_bundled("secret_sharing_rra_rmax5.json", {"alpha": 0.5}),
         UTIL_PROP.replace("max=?", "min=?")),
        # Min with no reward added, decided modes, block nodes not one range.
        (_bundled("aloha3.json"), '<<usr1:usr2:usr3>>min=? (P[!"d2" U "d1"]'
         ' + P[!"d3" U "d2"] + P[!"d1" U "d3"])'),
        # One coalition, so every stage is single; block nodes not one range.
        (_bundled("aloha3.json"), '<<usr1,usr2,usr3>>max=? (P[!"d2" U "d1"])'),
    ],
)
def test_held_sweeps_match_the_whole_level_sweep(model, prop):
    # A speculative chunk runs each sweep over the held rows alone, in
    # place, with three numpy calls. Every sweep must be the bits of the
    # whole level's sweep at those rows, with the engine's zero signs,
    # from values that hold, as value iteration's do, the pinned values of
    # the decided components.
    from csgnash.engine import _held_sweeps, _stage_bits, _sweep_utilities
    from csgnash.objectives import mode_closure, unbounded_core

    coalition, compiled = compile_for(model(), prop)
    core = unbounded_core(coalition, compiled, mode_closure(coalition, compiled)[0])
    (level,) = core.levels
    block = level.block
    negate = compiled.opt == "min"
    sweep = _sweep_utilities(core)
    rng = np.random.default_rng(11)
    pinned = _stage_bits(core.const[block.nodes], block.single, negate)
    for _ in range(30):
        # A random cell per node, its padding included.
        n, k = block.rows.shape
        rows = block.rows[np.arange(n), rng.integers(0, k, n)]
        values = rng.uniform(-10, 10, core.const.shape)
        zeros = rng.random(values.shape) < 0.3
        values[zeros] = rng.choice([0.0, -0.0], zeros.sum())
        here = values[block.nodes]
        values[block.nodes] = np.where(core.pending[block.nodes], here, pinned)
        stacked = np.empty((4,) + values.shape)
        stacked[:] = values
        _held_sweeps(core, rows, negate)(stacked)
        for before, after in zip(stacked[:-1], stacked[1:]):
            want = before.copy()
            want[block.nodes] = _stage_bits(sweep(before)[rows], block.single, negate)
            assert after.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "model,prop",
    [
        (_bundled("secret_sharing_rrr_rmax5.json", {"alpha": 0.5}), UTIL_PROP),
        (_bundled("secret_sharing_rba.json", {"alpha": 0.1}), UTIL_PROP),
        (_bundled("aloha3.json"), ALOHA_MIN_REACH),
        (_bundled("aloha3.json"), '<<usr1:usr2:usr3>>max=? (P[!"d2" U "d1"]'
         ' + P[!"d3" U "d2"] + P[!"d1" U "d3"])'),
        (trap_chain_csg, '<<p1>>max=? (P[ "safe" U "goal" ])'),
    ],
)
def test_sweep_plan_builds_the_per_pair_stage_tables(model, prop):
    # Reference: one np.dot per (pair, joint action, pending objective), as
    # value iteration built its stage tables before the sweep was batched.
    # Rows padded to at most three successors round the same way; wider
    # padding (aloha3 has rows of 4 and 8) may move the last bit.
    from csgnash.engine import _sweep_utilities
    from csgnash.objectives import (
        canonical_mode,
        mode_closure,
        mode_decided,
        unbounded_core,
    )

    coalition, compiled = compile_for(model(), prop)
    pairs, index = mode_closure(coalition, compiled)
    core = unbounded_core(coalition, compiled, pairs)
    width = int(np.diff(core.ptr).max())
    prev = np.random.default_rng(0).random((len(pairs), compiled.m))
    utilities = _sweep_utilities(core)(prev)
    eps = np.finfo(np.float64).eps
    rewards = [coalition.rewards.get(obj.reward) for obj in compiled.items]
    r = 0
    for s, (D, E) in pairs:
        if mode_decided(compiled, (D, E)):
            continue
        sets = [coalition.choices(s, i) for i in range(coalition.n_players)]
        for joint in itertools.product(*sets):
            dist = coalition.transitions[(s, joint)]
            succ = [index[(t, canonical_mode(compiled, t, D, E))] for t in dist]
            probs = np.array(list(dist.values()))
            for l, obj in enumerate(compiled.items):
                if l in D:
                    want = 1.0 if compiled.kind == "prob" else 0.0
                elif l in E:
                    want = 0.0
                else:
                    want = float(np.dot(probs, prev[succ][:, l]))
                    if obj.kind == "reach":
                        rew = rewards[l]
                        want = rew.state_reward(s) + rew.action_reward(s, joint) + want
                got = utilities[r, l]
                if width <= 3:
                    assert float(got).hex() == float(want).hex()
                else:
                    assert abs(got - want) <= 4 * eps * abs(want)
            r += 1
    assert r == len(utilities) > 0


def test_an_unbounded_level_holds_no_successor_groups():
    # Value iteration contracts its one level itself (`_sweep_utilities`),
    # so only bounded levels group their rows for `stage_utilities`.
    from csgnash.objectives import mode_closure, unbounded_core

    model = _bundled("secret_sharing_raa.json", {"alpha": 0.5})()
    coalition, compiled = compile_for(model, UTIL_PROP)
    core = unbounded_core(coalition, compiled, mode_closure(coalition, compiled)[0])
    (level,) = core.levels
    assert level.rows.stop > level.rows.start
    assert level.groups == []


# ---------------------------------------------------------------------------
# Backward induction by levels


@pytest.mark.parametrize(
    "model,prop,widths",
    [
        (_bundled("medium_access3.json"), _sum_prop('R{"mes#"}[C<=20]'), {1}),
        (_bundled("aloha3.json"), _sum_prop('P[F<=15 "d#"]'), {1, 2, 4, 8}),
        (_bundled("aloha3.json"), ALOHA_MIN_COST, {1, 2, 4, 8}),
        (_bundled("public_good_profit.json", {"f": 1.75}), PROFIT_PROP, {1}),
        (_bundled("public_good_capital.json"), CAPITAL_PROP, {1, 3}),
        # One objective: the successor column is contiguous.
        (trap_chain_csg, '<<p1>>max=? (P[ "safe" U<=3 "goal" ])', {2}),
    ],
)
def test_level_contraction_rounds_as_one_dot_per_row(model, prop, widths):
    # Reference: one np.dot per (row, pending objective), as backward
    # induction built its stage tables before levels were contracted.
    # Every row must match to the bit, whatever its successor count.
    from csgnash.objectives import _phase, bounded_core, canonical_mode

    coalition, compiled = compile_for(model(), prop)
    core = bounded_core(coalition, compiled)
    index = {node: p for p, node in enumerate(core.nodes)}
    values = np.random.default_rng(0).standard_normal(core.const.shape)
    rewards = [coalition.rewards.get(obj.reward) for obj in compiled.items]
    got = np.concatenate([level.stage_utilities(values) for level in core.levels])
    lengths = set()
    r = 0
    for p, (s, D, E, level) in enumerate(core.nodes):
        if not core.pending[p].any():
            continue
        sets = [coalition.choices(s, i) for i in range(coalition.n_players)]
        after = _phase(compiled, level + 1)
        for joint in itertools.product(*sets):
            dist = coalition.transitions[(s, joint)]
            succ = [
                index[(t, *canonical_mode(compiled, t, D, E, after), level + 1)]
                for t in dist
            ]
            probs = np.array(list(dist.values()))
            lengths.add(len(succ))
            for l, obj in enumerate(compiled.items):
                want = core.const[p, l]
                if core.pending[p, l]:
                    want = float(np.dot(probs, values[succ][:, l]))
                    if obj.kind == "cumulative":
                        rew = rewards[l]
                        want = rew.state_reward(s) + rew.action_reward(s, joint) + want
                assert float(got[r, l]).hex() == float(want).hex()
            r += 1
    assert r == len(got) > 0
    assert lengths == widths


# ---------------------------------------------------------------------------
# The row view of a core, pinned


def _absolute_level(level) -> list:
    """A level's ranges and arrays with every node and row counted from
    the core's first: what a level means, whatever it stores relative.
    Its stage block is read as a split: the single-chooser nodes, their
    rows padded to the longest of them and each one's chooser (the first
    coalition that chooses, or 0), then the other nodes grouped by stage
    shape in order of first appearance, each group's rows unpadded."""
    n0, r0 = level.nodes.start, level.rows.start
    block = level.block
    shapes = level.shapes[block.nodes]
    sizes = shapes.prod(axis=1)
    single = block.single
    width = int(sizes[single].max(initial=1))
    parts = [
        (level.nodes.start, level.nodes.stop),
        (level.rows.start, level.rows.stop),
        (level.entries.start, level.entries.stop),
        n0 + level.row_nodes,
        r0 + level.entry_rows,
        level.actions,
        level.shapes,
        level.base,
        level.add_base,
        level.pend,
        level.const,
        n0 + block.nodes[single],
        r0 + block.rows[single, :width],
        (shapes[single] > 1).argmax(axis=1),
    ]
    groups = {}
    for j in np.flatnonzero(~single).tolist():
        groups.setdefault(tuple(shapes[j].tolist()), []).append(j)
    for shape, members in groups.items():
        parts += [shape, n0 + block.nodes[members],
                  r0 + block.rows[members, : int(np.prod(shape))]]
    for rows, succ, prob in level.groups:
        parts += [r0 + rows, level.nodes.stop + succ, prob]
    return parts


def _row_view_digest(core) -> str:
    """SHA-256 over a core's nodes and flat arrays and over every level
    in absolute numbers. Integer arrays are hashed as int64, so a change
    of their storage type alone does not move the digest."""
    h = hashlib.sha256()

    def put(a):
        if isinstance(a, tuple):
            h.update(repr(a).encode())
            return
        a = np.asarray(a)
        if a.dtype.kind in "iu":
            a = a.astype(np.int64)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())

    h.update(repr([(s, sorted(D), sorted(E), n) for s, D, E, n in core.nodes]).encode())
    for a in (core.initial, core.start, core.ptr, core.succ, core.prob,
              core.action_rewards, core.const, core.pending):
        put(a)
    for level in core.levels:
        for part in _absolute_level(level):
            put(part)
    return h.hexdigest()


# Recorded with the compile that walked every node of every level and the
# index that cut the flat arrays level by level.
ROW_VIEW_PINS = [
    ("medium_access3.json", {}, _sum_prop('R{"mes#"}[C<=20]'),
     "0ef1efe6ee7f8b0a20655a63760602312879b0ad4b30e9a8939b0d0ce5ed2a54"),
    ("medium_access3.json", {}, _sum_prop('R{"mes#"}[C<=103]'),
     "bbbf6748650b0984f3b74e9bcd35421b8b010b11dd30a9677151af27d4918c97"),
    ("aloha3.json", {}, _sum_prop('P[F<=15 "d#"]'),
     "82bfe81f75d03f880a839dda005631264a55bc0a9be8c5914b9716e212af37b9"),
    ("aloha3.json", {}, _sum_prop('P[F<=31 "d#"]'),
     "ba161a18f972095c0fca9dee341e53c74a280862ae52112c7d5e3095fd994123"),
    ("public_good_profit.json", {"f": 1.75}, PROFIT_PROP,
     "70f9daf35aa529630c73c1caad1900f3196390d0e2689d7000400970627728bb"),
    ("secret_sharing_raa.json", {"alpha": 0.5}, UTIL_PROP,
     "6ccc501b0afb68fbda1beafed76180af267037ebfe6b65331307d484b18c8794"),
]


def _core_for(name, params, prop):
    from csgnash.objectives import bounded_core, mode_closure, unbounded_core

    coalition, compiled = compile_for(_bundled(name, params)(), prop)
    if compiled.horizon == "finite":
        return bounded_core(coalition, compiled)
    return unbounded_core(coalition, compiled, mode_closure(coalition, compiled)[0])


@pytest.mark.parametrize("name,params,prop,digest", ROW_VIEW_PINS)
def test_row_view_stays_bit_identical(name, params, prop, digest):
    assert _row_view_digest(_core_for(name, params, prop)) == digest


# ---------------------------------------------------------------------------
# Levels that repeat are compiled, indexed and solved once


def _replay(coalition, compiled):
    """Backward induction without level reuse: every level's stage
    utilities, then its stages. Returns the values at every node, the
    profile of every node the stages solved, and the inconclusive count."""
    from csgnash.engine import _pure_dists, _solve_stages, _StageSolver
    from csgnash.objectives import bounded_core

    core = bounded_core(coalition, compiled)
    values = core.const.copy()
    stages = _StageSolver(compiled.opt)
    table = {}
    for level in reversed(core.levels):
        dists = {}
        utilities = level.stage_utilities(values)
        answers = _solve_stages(core, level, utilities, values, stages, dists)
        dists.update(_pure_dists(core, level, stages, answers))
        nodes = core.nodes[level.nodes]
        table.update((nodes[q], dist) for q, dist in dists.items())
    return core, values, table, stages.inconclusive


def _swapping_csg() -> Csg:
    """One player and two states that swap every step, with two actions at
    one and three at the other and no reward, so that every level's
    values are 0 while its node order alternates between two templates."""
    return Csg(
        players=("p1",),
        actions=(("x", "y", "z"),),
        state_names=("a", "b"),
        initial=(0,),
        availability=(((0, 1),), ((0, 1, 2),)),
        transitions={
            (0, (0,)): {1: 1.0},
            (0, (1,)): {1: 1.0},
            (1, (0,)): {0: 1.0},
            (1, (1,)): {0: 1.0},
            (1, (2,)): {0: 1.0},
        },
        labels=(frozenset(), frozenset()),
        rewards={"r": RewardStructure({}, {})},
    )


@pytest.mark.parametrize(
    "model,prop",
    [
        (_bundled("medium_access3.json"), _sum_prop('R{"mes#"}[C<=40]')),
        (_bundled("aloha3.json"), _sum_prop('P[F<=15 "d#"]')),
        (_bundled("public_good_profit.json", {"f": 1.75}), PROFIT_PROP),
        # Equal values over levels of different templates: a copy would
        # give state a the profile of state b.
        (_swapping_csg, '<<p1>>max=? (R{"r"}[C<=6])'),
    ],
)
def test_level_reuse_matches_a_replay_of_every_level(model, prop):
    assert_reuse_matches_replay(*compile_for(model(), prop))


def assert_reuse_matches_replay(coalition, compiled):
    """Reuse compares value bytes, so it must give the bits of solving
    every level. Every solve (cache miss) reports one undecided support,
    so the counts differ if reuse skips a miss or adds one."""
    from dataclasses import replace

    from csgnash import engine

    solve = engine.swne
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "swne", lambda game: replace(solve(game), inconclusive=1))
        core, values, replayed, inconclusive = _replay(coalition, compiled)
        table, strategy = solve_finite_horizon(coalition, compiled)
    assert table.inconclusive == inconclusive
    for s, p in enumerate(core.initial):
        assert table.at_state(s).tobytes() == values[p].tobytes()
    assert len(replayed) > 0
    for node, dist in replayed.items():
        got = strategy.table[node]
        assert [v.tobytes() for v in got] == [v.tobytes() for v in dist]
    # The engine's other entries are the nodes without rows.
    for node in strategy.table.keys() - replayed.keys():
        p = core.nodes.index(node)
        assert core.start[p] == core.start[p + 1]


@pytest.fixture
def solved_levels(monkeypatch):
    """Counts the levels whose stages backward induction builds."""
    from csgnash.objectives import Level

    calls = []
    build = Level.stage_utilities

    def counting(level, values):
        calls.append(level.nodes)
        return build(level, values)

    monkeypatch.setattr(Level, "stage_utilities", counting)
    return calls


def test_repeating_levels_are_solved_once(solved_levels):
    # medium_access3 repeats one template from its third level on, and
    # its values settle after a few levels, so a longer horizon solves no
    # more levels: 8 at every bound here.
    model = _bundled("medium_access3.json")()
    counts = []
    for k in (20, 200, 2000):
        coalition, compiled = compile_for(model, _sum_prop(f'R{{"mes#"}}[C<={k}]'))
        solved_levels.clear()
        table, _strategy = solve_finite_horizon(coalition, compiled)
        total = table.at_state(coalition.initial[0]).sum()
        assert total == pytest.approx(5.4, abs=1e-9)
        counts.append(len(solved_levels))
    assert counts == [8, 8, 8]


def test_repeating_levels_are_compiled_once(monkeypatch):
    # Each template is compiled once, so the per-node helpers run as often
    # for a horizon ten or a hundred times as long.
    from csgnash import objectives

    calls = {"canonical_mode": 0, "_node_status": 0}
    for attr in calls:
        original = getattr(objectives, attr)

        def counting(*args, _original=original, _attr=attr, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(objectives, attr, counting)
    model = _bundled("medium_access3.json")()
    ranges = ("nodes", "rows", "entries", "template")
    shared = [
        f.name for f in dataclasses.fields(objectives.Level) if f.name not in ranges
    ]
    seen = []
    for k in (20, 200, 2000):
        coalition, compiled = compile_for(model, _sum_prop(f'R{{"mes#"}}[C<={k}]'))
        for attr in calls:
            calls[attr] = 0
        core = objectives.bounded_core(coalition, compiled)
        assert len(core.levels) == k + 1
        seen.append(dict(calls))
        # The core keeps one block per template, and every level of a
        # template holds that template's own Level arrays, not copies.
        assert len(core.blocks) == 3
        firsts = {}
        for level in core.levels:
            first = firsts.setdefault(level.template, level)
            assert all(getattr(level, f) is getattr(first, f) for f in shared)
        assert len(firsts) == 3
    assert seen[0] == seen[1] == seen[2]
    assert all(count > 0 for count in seen[0].values())
