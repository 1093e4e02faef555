import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from csgnash.engine import check_nash_formula
from csgnash.formulas import parse_formula
from csgnash.games import NormalFormGame

from oracle import (
    OracleAbstain,
    brute_force_pure_ne,
    reference_backward_induction,
)
from conftest import public_good_nfg, three_player_dilemma, two_coalition_goal_csg


def test_brute_force_dilemma():
    result = brute_force_pure_ne(three_player_dilemma())
    assert result.joints() == [(1, 1, 1)]
    assert result.pure_equilibria[0][1] == (1, 1, 1)
    assert result.best_welfare == 3.0


def test_brute_force_public_good_f2():
    result = brute_force_pure_ne(public_good_nfg(2))
    assert result.joints() == [(0, 0, 0)]
    assert result.pure_equilibria[0][1] == (0, 0, 0)


def test_brute_force_public_good_f3():
    # With the factor exactly 3 a player's own investment cancels out of
    # its utility, so deviations never help anybody: which makes all-none
    # and all-invest equilibria, with welfare 0 and 60.
    result = brute_force_pure_ne(public_good_nfg(3))
    joints = result.joints()
    assert (0, 0, 0) in joints
    assert (2, 2, 2) in joints
    by_joint = dict(result.pure_equilibria)
    assert sum(by_joint[(0, 0, 0)]) == 0
    assert sum(by_joint[(2, 2, 2)]) == 60
    assert result.best_welfare == 60.0
    assert by_joint[(2, 2, 2)] == (20, 20, 20)


def test_brute_force_exact_fractions():
    game = NormalFormGame(
        [("a", "b")],
        {(0,): (Fraction(1, 3),), (1,): (Fraction(1, 3),)},
    )
    result = brute_force_pure_ne(game)
    assert len(result.pure_equilibria) == 2  # exact tie, both equilibria


def _random_game(rng, shape):
    table = {
        j: tuple(rng.randint(-5, 9) for _ in shape)
        for j in itertools.product(*(range(c) for c in shape))
    }
    return NormalFormGame(
        [tuple(f"a{i}{k}" for k in range(c)) for i, c in enumerate(shape)], table
    )


def test_pure_equilibria_invariant_under_affine_rescaling():
    rng = random.Random(42)
    for _ in range(25):
        game = _random_game(rng, rng.choice([(2, 2), (2, 3), (2, 2, 2)]))
        base = {j for j, _ in brute_force_pure_ne(game).pure_equilibria}
        table = {}
        for j in game.joint_actions():
            vec = list(game.utility_vector(j))
            vec[0] = 3 * vec[0] + 11  # positive scaling plus translation
            if len(vec) > 1:
                vec[1] = 2 * vec[1] - 4
            table[j] = tuple(vec)
        rescaled = NormalFormGame(game.action_names, table)
        assert {j for j, _ in brute_force_pure_ne(rescaled).pure_equilibria} == base


def test_reference_single_coalition_is_classical_dp():
    # Deterministic two-step chain: the reference reduces to a plain
    # finite-horizon dynamic program.
    model = two_coalition_goal_csg()
    result = check_nash_formula(
        model, parse_formula('<<p1:p2>>max=? (P[ true U<=2 "g1" ] + P[ true U<=2 "g2" ])')
    )
    reference = reference_backward_induction(result.coalition_game, result.compiled)
    for s in range(3):
        assert np.allclose(reference[s], result.values[s], atol=1e-12)


def test_reference_abstains_on_mixed_only_stage():
    # Matching pennies as the one-shot stage: no pure equilibrium exists,
    # so the reference must abstain rather than guess.
    from csgnash.games import Csg, RewardStructure

    table = {
        (0, 0): (1.0, 0.0), (0, 1): (0.0, 1.0),
        (1, 0): (0.0, 1.0), (1, 1): (1.0, 0.0),
    }
    transitions = {(0, joint): {1: 1.0} for joint in table}
    transitions[(1, (-1, -1))] = {1: 1.0}
    model = Csg(
        players=("p1", "p2"),
        actions=(("h", "t"), ("h", "t")),
        state_names=("s0", "end"),
        initial=(0,),
        availability=(((0, 1), (0, 1)), ((), ())),
        transitions=transitions,
        labels=(frozenset(), frozenset({"end"})),
        rewards={
            "u1": RewardStructure({}, {(0, j): table[j][0] for j in table}),
            "u2": RewardStructure({}, {(0, j): table[j][1] for j in table}),
        },
    )
    result = check_nash_formula(
        model,
        parse_formula('<<p1:p2>>max=? (R{"u1"}[ C<=1 ] + R{"u2"}[ C<=1 ])'),
    )
    with pytest.raises(OracleAbstain):
        reference_backward_induction(result.coalition_game, result.compiled)


def test_reference_requires_finite_horizon():
    model = two_coalition_goal_csg()
    result = check_nash_formula(
        model,
        parse_formula('<<p1:p2>>max=? (P[ !"g2" U "g1" ] + P[ !"g1" U "g2" ])'),
    )
    with pytest.raises(ValueError):
        reference_backward_induction(result.coalition_game, result.compiled)
