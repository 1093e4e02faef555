import itertools

import pytest

from csgnash.games import (
    IDLE,
    CoalitionPartition,
    Csg,
    MixedProfile,
    NormalFormGame,
    RewardStructure,
    build_coalition_game,
    validate_csg,
)

from conftest import two_coalition_goal_csg


def one_state_game() -> Csg:
    return Csg(
        players=("p1",),
        actions=(("a",),),
        state_names=("s0",),
        initial=(0,),
        availability=(((0,),),),
        transitions={(0, (0,)): {0: 1.0}},
        labels=(frozenset({"here"}),),
    )


def test_validate_identity_case():
    assert validate_csg(one_state_game()).ok


def test_validate_distribution_sum_violation():
    model = Csg(
        players=("p1",),
        actions=(("a",),),
        state_names=("s0",),
        initial=(0,),
        availability=(((0,),),),
        transitions={(0, (0,)): {0: 0.9}},
        labels=(frozenset(),),
    )
    report = validate_csg(model)
    assert not report.ok
    assert any(issue.kind == "distribution sum" for issue in report.issues)
    bad = next(i for i in report.issues if i.kind == "distribution sum")
    assert bad.state == 0 and bad.joint == (0,)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_validate_non_finite_probability(bad):
    # NaN passes both the sign check and the sum check (every comparison
    # with it is false), so a model built in code would validate.
    model = Csg(
        players=("p1",),
        actions=(("a",),),
        state_names=("s0", "s1"),
        initial=(0,),
        availability=(((0,),), ((0,),)),
        transitions={(0, (0,)): {0: bad, 1: 1.0}, (1, (0,)): {1: 1.0}},
        labels=(frozenset(), frozenset()),
    )
    report = validate_csg(model)
    assert [(i.kind, i.state, i.joint) for i in report.issues] == [
        ("non-finite probability", 0, (0,))
    ]


def test_validate_undefined_availability():
    # Two states; the second declares a transition for an action that is
    # not available there.
    model = Csg(
        players=("p1",),
        actions=(("a", "b"),),
        state_names=("s0", "s1"),
        initial=(0,),
        availability=(((0, 1),), ((0,),)),
        transitions={
            (0, (0,)): {1: 1.0},
            (0, (1,)): {0: 1.0},
            (1, (0,)): {1: 1.0},
            (1, (1,)): {0: 1.0},
        },
        labels=(frozenset(), frozenset()),
    )
    report = validate_csg(model)
    assert any(issue.kind == "undefined availability" for issue in report.issues)


def test_validate_missing_transition():
    model = Csg(
        players=("p1",),
        actions=(("a", "b"),),
        state_names=("s0",),
        initial=(0,),
        availability=(((0, 1),),),
        transitions={(0, (0,)): {0: 1.0}},
        labels=(frozenset(),),
    )
    report = validate_csg(model)
    assert any(issue.kind == "missing transition" for issue in report.issues)


def test_validate_idle_never_available():
    model = Csg(
        players=("p1",),
        actions=(("a",),),
        state_names=("s0",),
        initial=(0,),
        availability=(((0, IDLE),),),
        transitions={(0, (0,)): {0: 1.0}},
        labels=(frozenset(),),
    )
    report = validate_csg(model)
    assert any("idle" in issue.detail for issue in report.issues)


# ---------------------------------------------------------------------------
# Coalition games


def three_player_model() -> Csg:
    # Two states; player 3 has no action in s1.
    trans = {}
    for joint in itertools.product((0, 1), (0, 1), (0, 1)):
        trans[(0, joint)] = {1: 1.0} if joint[0] == 0 else {0: 1.0}
    for joint in itertools.product((0, 1), (0, 1), (IDLE,)):
        trans[(1, joint)] = {1: 0.5, 0: 0.5}
    return Csg(
        players=("p1", "p2", "p3"),
        actions=(("a1", "b1"), ("a2", "b2"), ("a3", "b3")),
        state_names=("s0", "s1"),
        initial=(0,),
        availability=(
            ((0, 1), (0, 1), (0, 1)),
            ((0, 1), (0, 1), ()),
        ),
        labels=(frozenset(), frozenset()),
        transitions=trans,
        rewards={
            "r": RewardStructure(
                {0: 2.0},
                {(0, (0, 0, 0)): 5.0, (1, (1, 0, IDLE)): 7.0},
            )
        },
    )


def test_singleton_partition_is_isomorphic():
    model = three_player_model()
    partition = CoalitionPartition.singletons(3)
    lifted = build_coalition_game(model, partition)
    assert lifted.n_players == 3
    for s in range(model.n_states):
        original = model.enabled_joints(s)
        new = lifted.enabled_joints(s)
        assert len(original) == len(new)
        # Transition distributions correspond joint-for-joint.
        for o_joint, n_joint in zip(original, new):
            assert model.transitions[(s, o_joint)] == lifted.transitions[(s, n_joint)]


def test_pair_partition_action_counts_and_transitions():
    model = three_player_model()
    partition = CoalitionPartition(((0,), (1, 2)))
    lifted = build_coalition_game(model, partition)
    assert lifted.n_players == 2
    # At s0 both members of coalition 2 have two actions: 2*2 tuples.
    assert len(lifted.availability[0][1]) == 4
    # At s1 player 3 idles, so coalition 2 has the two (b, ~) style tuples.
    assert len(lifted.availability[1][1]) == 2
    names = [lifted.actions[1][a] for a in lifted.availability[1][1]]
    assert names == ["a2,~", "b2,~"]
    # Hand expansion: coalition joint ((a1), (a2, a3)) maps to (a1, a2, a3).
    for cjoint in lifted.enabled_joints(0):
        a1 = lifted.actions[0][cjoint[0]]
        pair = lifted.actions[1][cjoint[1]].split(",")
        orig = (
            model.actions[0].index(a1.split(",")[0]),
            model.actions[1].index(pair[0]),
            model.actions[2].index(pair[1]),
        )
        assert lifted.transitions[(0, cjoint)] == model.transitions[(0, orig)]


def test_transition_preservation_exhaustive():
    model = three_player_model()
    for partition in (
        CoalitionPartition(((0, 1), (2,))),
        CoalitionPartition(((0, 1, 2),)),
    ):
        lifted = build_coalition_game(model, partition)
        total_original = {
            s: len(model.enabled_joints(s)) for s in range(model.n_states)
        }
        total_lifted = {
            s: len(lifted.enabled_joints(s)) for s in range(model.n_states)
        }
        assert total_original == total_lifted


def test_reward_lift_equality():
    model = three_player_model()
    lifted = build_coalition_game(model, CoalitionPartition(((0,), (1, 2))))
    assert lifted.rewards["r"].state_reward(0) == 2.0
    # Action reward carried over under the member mapping.
    found = [
        v for (s, joint), v in lifted.rewards["r"].action_rewards.items() if s == 0
    ]
    assert found == [5.0]
    found1 = [
        v for (s, joint), v in lifted.rewards["r"].action_rewards.items() if s == 1
    ]
    assert found1 == [7.0]


def test_partition_validation_errors():
    with pytest.raises(ValueError):
        CoalitionPartition(((0,), (0, 1))).validate(2)
    with pytest.raises(ValueError):
        CoalitionPartition(((0,),)).validate(2)
    with pytest.raises(ValueError):
        CoalitionPartition(()).validate(0)


# ---------------------------------------------------------------------------
# Enabled joint actions


def test_single_controller_counts():
    model = two_coalition_goal_csg()
    assert len(model.enabled_joints(0)) == 2
    assert len(model.enabled_joints(1)) == 1

    two_by_two = Csg(
        players=("p1", "p2"),
        actions=(("a", "b"), ("x", "y")),
        state_names=("s0",),
        initial=(0,),
        availability=(((0, 1), (0, 1)),),
        transitions={
            (0, (i, j)): {0: 1.0} for i in (0, 1) for j in (0, 1)
        },
        labels=(frozenset(),),
    )
    assert len(two_by_two.enabled_joints(0)) == 4


def test_mixed_profile_validation():
    MixedProfile([[0.5, 0.5], [1.0]])
    with pytest.raises(ValueError):
        MixedProfile([[0.7, 0.7]])
    with pytest.raises(ValueError):
        MixedProfile([[-0.2, 1.2]])
    # Every comparison with NaN is false, so only an explicit check
    # rejects it.
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            MixedProfile([[bad, 1.0]])
    assert MixedProfile([[0.0, 1.0]]).support(0) == (1,)


def test_utilities_must_be_total():
    with pytest.raises(ValueError):
        NormalFormGame([("a", "b")], {(0,): (1.0,)})
