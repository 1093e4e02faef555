import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from csgnash.games import Csg, NormalFormGame, RewardStructure

MODELS = Path(__file__).resolve().parents[1] / "src" / "csgnash" / "models"


def three_player_dilemma() -> NormalFormGame:
    """Three-player prisoner's dilemma; c=index 0, d=index 1."""
    return NormalFormGame(
        [("c1", "d1"), ("c2", "d2"), ("c3", "d3")],
        {
            (0, 0, 0): (7, 7, 7),
            (0, 0, 1): (3, 3, 9),
            (0, 1, 0): (3, 9, 3),
            (0, 1, 1): (0, 5, 5),
            (1, 0, 0): (9, 3, 3),
            (1, 0, 1): (5, 0, 5),
            (1, 1, 0): (5, 5, 0),
            (1, 1, 1): (1, 1, 1),
        },
    )


def public_good_nfg(f) -> NormalFormGame:
    """One-shot public good game with exact rational utilities."""
    f = Fraction(f)
    amounts = [0, 5, 10]
    table = {}
    for joint in itertools.product(range(3), repeat=3):
        ks = [amounts[a] for a in joint]
        total = sum(ks)
        table[joint] = tuple(f * total / 3 - k for k in ks)
    return NormalFormGame([("in0", "in5", "in10")] * 3, table)


def hard_333_game() -> NormalFormGame:
    """Criterion 9's (3,3,3) game of random integer utilities."""
    rng = random.Random(1)  # no pure equilibrium: full mixed search runs
    table = {
        j: tuple(rng.randint(0, 12) for _ in range(3))
        for j in itertools.product(range(3), repeat=3)
    }
    return NormalFormGame([("a", "b", "c")] * 3, table)


def matching_pennies_dummy() -> NormalFormGame:
    """Players 1 and 2 play matching pennies; player 3 has one action."""
    return NormalFormGame(
        [("h", "t"), ("h", "t"), ("z",)],
        {
            (0, 0, 0): (1, 0, 0),
            (0, 1, 0): (0, 1, 0),
            (1, 0, 0): (0, 1, 0),
            (1, 1, 0): (1, 0, 0),
        },
    )


def chain_csg() -> Csg:
    """One player, three states, goal reached almost surely under every
    strategy (the lazy action still leaks forward)."""
    return Csg(
        players=("p1",),
        actions=(("go", "stay"),),
        state_names=("s0", "s1", "goal"),
        initial=(0,),
        availability=(((0, 1),), ((0,),), ((),)),
        transitions={
            (0, (0,)): {1: 1.0},
            (0, (1,)): {0: 0.8, 1: 0.2},
            (1, (0,)): {2: 0.75, 0: 0.25},
            (2, (-1,)): {2: 1.0},
        },
        labels=(frozenset(), frozenset(), frozenset({"goal"})),
        rewards={
            "steps": RewardStructure({0: 1.0, 1: 1.0}, {}),
        },
    )


def trap_chain_csg() -> Csg:
    """One player; play settles almost surely in goal or the trap."""
    return Csg(
        players=("p1",),
        actions=(("go", "stay"),),
        state_names=("s0", "s1", "goal", "trap"),
        initial=(0,),
        availability=(((0, 1),), ((0,),), ((),), ((),)),
        transitions={
            (0, (0,)): {1: 0.5, 3: 0.5},
            (0, (1,)): {0: 0.4, 1: 0.6},
            (1, (0,)): {2: 0.75, 3: 0.25},
            (2, (-1,)): {2: 1.0},
            (3, (-1,)): {3: 1.0},
        },
        labels=(
            frozenset({"safe"}),
            frozenset({"safe"}),
            frozenset({"goal", "safe"}),
            frozenset(),
        ),
        rewards={},
    )


def ladder_csg() -> Csg:
    """One player, two chained choices. From s0, "go" leads to s1 and
    "bail" gambles on the goal; from s1, "go" mostly reaches the goal and
    "drop" falls into the trap. Play settles within two steps."""
    return Csg(
        players=("p1",),
        actions=(("go", "bail", "drop"),),
        state_names=("s0", "s1", "goal", "trap"),
        initial=(0,),
        availability=(((0, 1),), ((0, 2),), ((),), ((),)),
        transitions={
            (0, (0,)): {1: 1.0},
            (0, (1,)): {2: 0.5, 3: 0.5},
            (1, (0,)): {2: 0.9, 3: 0.1},
            (1, (2,)): {3: 1.0},
            (2, (-1,)): {2: 1.0},
            (3, (-1,)): {3: 1.0},
        },
        labels=(
            frozenset({"safe"}),
            frozenset({"safe"}),
            frozenset({"goal", "safe", "done"}),
            frozenset({"done"}),
        ),
        rewards={
            "pay": RewardStructure(
                {}, {(0, (0,)): 1.0, (0, (1,)): 2.0, (1, (0,)): 3.0}
            ),
        },
    )


def two_coalition_goal_csg() -> Csg:
    """Coalition 1 picks which absorbing goal the play reaches."""
    return Csg(
        players=("p1", "p2"),
        actions=(("a", "b"), ("z",)),
        state_names=("s0", "g1", "g2"),
        initial=(0,),
        availability=(((0, 1), (0,)), ((), ()), ((), ())),
        transitions={
            (0, (0, 0)): {1: 1.0},
            (0, (1, 0)): {2: 1.0},
            (1, (-1, -1)): {1: 1.0},
            (2, (-1, -1)): {2: 1.0},
        },
        labels=(frozenset(), frozenset({"g1"}), frozenset({"g2"})),
        rewards={},
    )


def secret_sharing_raa_csg(alpha: float) -> Csg:
    """Direct in-memory build of the round/win/lose/done structure."""
    a3 = alpha**3
    a2 = alpha**2
    t2 = (1 - alpha) ** 2
    mid = 2 * alpha * (1 - alpha)
    return Csg(
        players=("usr1", "usr2", "usr3"),
        actions=(("follow", "cheat"), (), ()),
        state_names=("round", "win_all", "win_cheater", "lose", "done"),
        initial=(0,),
        availability=(
            ((0, 1), (), ()),
            ((), (), ()),
            ((), (), ()),
            ((), (), ()),
            ((), (), ()),
        ),
        transitions={
            (0, (0, -1, -1)): {1: a3, 0: 1 - a3},
            (0, (1, -1, -1)): {2: a2, 3: t2, 0: mid},
            (1, (-1, -1, -1)): {4: 1.0},
            (2, (-1, -1, -1)): {4: 1.0},
            (3, (-1, -1, -1)): {4: 1.0},
            (4, (-1, -1, -1)): {4: 1.0},
        },
        labels=(
            frozenset(),
            frozenset({"learned_all"}),
            frozenset({"learned_1"}),
            frozenset({"learned_none"}),
            frozenset({"done"}),
        ),
        rewards={
            "util1": RewardStructure({1: 1.0, 2: 2.0}, {}),
            "util2": RewardStructure({1: 1.0}, {}),
            "util3": RewardStructure({1: 1.0}, {}),
        },
    )


def eq8_cheat_value(alpha: float, u1: float = 2.0, u0: float = 0.0) -> float:
    """Closed form for the lone-withholder value of the sharing protocol."""
    return (u1 * alpha**2 + u0 * (1 - alpha) ** 2) / (
        alpha**2 + (1 - alpha) ** 2
    )


@pytest.fixture
def pd():
    return three_player_dilemma()


@pytest.fixture
def pennies():
    return matching_pennies_dummy()


LONG_WINDOW_PROP = "<<usr1:usr2:usr3>>max=? (%s)" % " + ".join(
    f'R{{"mes{i}"}}[C<=1500]' for i in (1, 2, 3)
)


@pytest.fixture(scope="session")
def long_window_check():
    """medium_access3 over 1,500 levels of backward induction, with the
    interpreter's recursion limit read before and after the check."""
    from csgnash.engine import check_nash_formula
    from csgnash.formulas import parse_formula
    from csgnash.modelio import load_model

    model = load_model(MODELS / "medium_access3.json", {})
    before = sys.getrecursionlimit()
    result = check_nash_formula(model, parse_formula(LONG_WINDOW_PROP))
    return before, sys.getrecursionlimit(), result
