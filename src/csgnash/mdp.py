"""Qualitative reachability analyses that hold under every strategy profile.

These graph fixpoints answer sure/never reachability questions. They read
only which successors each enabled joint action reaches with positive
probability, and let one controller pick any joint action: that is exact
for such qualitative queries because a deterministic choice of joint
action is itself a product of per-player deterministic choices.
"""

from __future__ import annotations

from .games import Csg

# Per state, the positive-probability successors of each enabled joint action.
Successors = tuple[tuple[frozenset[int], ...], ...]


def successor_sets(game: Csg) -> Successors:
    return tuple(
        tuple(
            frozenset(t for t, p in game.transitions[(s, joint)].items() if p > 0)
            for joint in game.enabled_joints(s)
        )
        for s in range(game.n_states)
    )


def _backward_reach(
    succ: Successors, target: set[int] | frozenset[int], blocked: frozenset[int]
) -> frozenset[int]:
    """Least fixpoint: `target` and every state outside `blocked` with a
    joint action that moves into the set with positive probability."""
    reach = set(target)
    grew = True
    while grew:
        grew = False
        for s in range(len(succ)):
            if s in reach or s in blocked:
                continue
            if any(not a.isdisjoint(reach) for a in succ[s]):
                reach.add(s)
                grew = True
    return frozenset(reach)


def min_reach_certain(
    succ: Successors, good: frozenset[int], bad: frozenset[int] = frozenset()
) -> tuple[frozenset[int], frozenset[int]]:
    """States from which `good` is reached with probability 1 no matter how
    the controller plays, treating `bad` states as absorbing failures.

    Returns (certain states, violating states). A state violates exactly
    when some choice sequence reaches, with positive probability while
    avoiding `good`, a region the controller can keep forever good-free
    (the union of end components avoiding the target).
    """
    n = len(succ)
    # Greatest fixpoint: states where the controller can avoid `good` forever.
    z = set(range(n)) - set(good)
    while True:
        keep = {s for s in z if s in bad or any(a <= z for a in succ[s])}
        if keep == z:
            break
        z = keep
    # Least fixpoint: states that can reach that region while avoiding good.
    y = _backward_reach(succ, z, good)
    return frozenset(range(n)) - y, y


def max_reach_zero(
    succ: Successors, good: frozenset[int], bad: frozenset[int] = frozenset()
) -> frozenset[int]:
    """States from which no strategy reaches `good` with positive
    probability, with `bad` states absorbing."""
    return frozenset(range(len(succ))) - _backward_reach(succ, good, bad)


def until_sure_states(
    succ: Successors, sat1: frozenset[int], sat2: frozenset[int]
) -> frozenset[int]:
    """States whose until value is exactly 1 under every profile."""
    bad = frozenset(range(len(succ))) - sat1 - sat2
    certain, _ = min_reach_certain(succ, sat2, bad)
    return certain


def until_zero_states(
    succ: Successors, sat1: frozenset[int], sat2: frozenset[int]
) -> frozenset[int]:
    """States whose until value is exactly 0 under every profile."""
    bad = frozenset(range(len(succ))) - sat1 - sat2
    return max_reach_zero(succ, sat2, bad)
