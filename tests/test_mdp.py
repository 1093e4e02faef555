from csgnash.games import IDLE, Csg
from csgnash.mdp import (
    max_reach_zero,
    min_reach_certain,
    successor_sets,
    until_sure_states,
    until_zero_states,
)


def branching_csg() -> Csg:
    """Two players, six states. In s0 the first player goes to s1 or
    gambles between the trap and the loop. From s1 the goal comes surely,
    whatever the second player does. In the loop the second player may
    stay forever or move to the goal. The dead state is safe but never
    reaches the goal; the trap is not safe."""
    return Csg(
        players=("p1", "p2"),
        actions=(("a", "b"), ("c", "d")),
        state_names=("s0", "s1", "goal", "trap", "loop", "dead"),
        initial=(0,),
        availability=(
            ((0, 1), (0,)),
            ((), (0, 1)),
            ((), ()),
            ((), ()),
            ((0,), (0, 1)),
            ((), ()),
        ),
        transitions={
            (0, (0, 0)): {1: 1.0},
            (0, (1, 0)): {3: 0.5, 4: 0.5},
            (1, (IDLE, 0)): {2: 1.0},
            (1, (IDLE, 1)): {2: 0.5, 1: 0.5},
            (2, (IDLE, IDLE)): {2: 1.0},
            (3, (IDLE, IDLE)): {3: 1.0},
            (4, (0, 0)): {4: 1.0, 2: 0.0},
            (4, (0, 1)): {2: 1.0},
            (5, (IDLE, IDLE)): {5: 1.0},
        },
        labels=(
            frozenset({"safe"}),
            frozenset({"safe"}),
            frozenset({"goal"}),
            frozenset(),
            frozenset({"safe"}),
            frozenset({"safe"}),
        ),
    )


SAFE = frozenset({0, 1, 4, 5})
GOAL = frozenset({2})


def test_successor_sets_keep_positive_probabilities_only():
    succ = successor_sets(branching_csg())
    assert succ[0] == (frozenset({1}), frozenset({3, 4}))
    assert succ[1] == (frozenset({2}), frozenset({1, 2}))
    assert succ[4] == (frozenset({4}), frozenset({2}))


def test_until_sure_states():
    # s1 reaches the goal with probability 1 under every profile, even
    # when the second player keeps choosing the self-loop; s0 may gamble,
    # and the loop may stay forever.
    succ = successor_sets(branching_csg())
    assert until_sure_states(succ, SAFE, GOAL) == {1, 2}


def test_until_zero_states():
    # The trap breaks `safe` and the dead state never reaches the goal;
    # every other state reaches it under some profile.
    succ = successor_sets(branching_csg())
    assert until_zero_states(succ, SAFE, GOAL) == {3, 5}
    assert max_reach_zero(succ, GOAL) == {3, 5}


def test_min_reach_certain():
    succ = successor_sets(branching_csg())
    assert min_reach_certain(succ, GOAL) == ({1, 2}, {0, 3, 4, 5})
    # With the trap a target too, only the loop and the dead state avoid
    # the targets forever, and s0 can still move into the loop.
    assert min_reach_certain(succ, GOAL | {3}) == ({1, 2, 3}, {0, 4, 5})
    # A bad state absorbs: s1 no longer reaches the goal, nor does s0.
    assert min_reach_certain(succ, GOAL, frozenset({1})) == ({2}, {0, 1, 3, 4, 5})
