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
from csgnash.oracle import (
    reference_backward_induction,
    single_agent_reach_reward,
    single_agent_until,
)
from csgnash import casestudies

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
    # medium_access3's levels repeat long before the bound, so a ten times
    # longer horizon meets no table that the shorter one did not.
    _check_bundled("medium_access3.json", {}, _sum_prop('R{"mes#"}[C<=20]'))
    short = len(stage_solves)
    stage_solves.clear()
    _check_bundled("medium_access3.json", {}, _sum_prop('R{"mes#"}[C<=200]'))
    assert len(stage_solves) == short


def test_value_iteration_solves_repeated_stages_once(stage_solves):
    # Solving afresh every sweep made 80 stage solves here.
    _check_bundled("secret_sharing_rrr_rmax5.json", {"alpha": 0.5}, UTIL_PROP)
    assert 0 < len(stage_solves) <= 11


@pytest.mark.parametrize(
    "name,params,prop",
    [
        ("medium_access3.json", {}, _sum_prop('R{"mes#"}[C<=6]')),
        ("secret_sharing_rrr_rmax5.json", {"alpha": 0.5}, UTIL_PROP),
    ],
)
def test_check_result_sums_inconclusive_supports(monkeypatch, name, params, prop):
    # Every stage solve (cache miss) reports two undecided supports, in
    # backward induction and in value iteration alike.
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


def _bundled(name, params=None):
    from conftest import MODELS
    from csgnash.modelio import load_model

    return lambda: load_model(MODELS / name, params or {})


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
    from csgnash.objectives import bounded_core, canonical_mode

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
        for joint in itertools.product(*sets):
            dist = coalition.transitions[(s, joint)]
            succ = [
                index[(t, *canonical_mode(compiled, t, D, E, step=level + 1), level + 1)]
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
