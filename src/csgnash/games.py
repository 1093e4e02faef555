"""Core game models: one-shot matrix games and concurrent stochastic games.

A concurrent stochastic game (CSG) has n players that simultaneously pick
actions in every state; the joint action selects a probability distribution
over successor states. Players with no available action in a state play the
implicit idle action, written ``~`` in files and represented here by the
sentinel ``IDLE``. A normal form game (NFG) is the one-shot game solved at
each state during equilibrium computation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

# Tolerance for probability distributions summing to one. File-format
# probabilities may be decimal approximations of rationals.
TAU_PROB = 1e-9

# Index used in joint-action tuples for a player whose action set is empty
# in the current state (the idle action). Never a member of any action set.
IDLE = -1

Joint = tuple[int, ...]


def _as_number(x):
    if isinstance(x, np.floating):
        x = float(x)
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"utility entries must be finite, got {x!r}")
    if isinstance(x, (int, float, Fraction)):
        return x
    if isinstance(x, np.integer):
        return int(x)
    raise TypeError(f"utility entries must be numeric, got {type(x)!r}")


class NormalFormGame:
    """Finite n-player game in normal form.

    Parameters
    ----------
    action_names : sequence of per-player action-name sequences
        Every player must have at least one action.
    utilities : mapping or array
        Either a dict mapping each joint action (tuple of per-player action
        indices) to a length-n sequence of utilities, or an ndarray of
        shape ``(*counts, n)``. The table must be total: one entry per joint
        action. A float64 array is kept as one read-only float table.
        Other inputs may hold ints, Fractions or floats and are kept as an
        exact object table for exact pure-profile checks. A NaN or infinite
        entry raises ValueError.
    """

    def __init__(self, action_names: Sequence[Sequence[str]], utilities):
        self.action_names: tuple[tuple[str, ...], ...] = tuple(
            tuple(names) for names in action_names
        )
        if not self.action_names:
            raise ValueError("game needs at least one player")
        for i, names in enumerate(self.action_names):
            if not names:
                raise ValueError(f"player {i} has an empty action set")
        self.shape: tuple[int, ...] = tuple(len(a) for a in self.action_names)
        n = self.n_players
        self._float_cache: np.ndarray | None = None
        self._norm_cache: np.ndarray | None = None
        table = np.empty(self.shape + (n,), dtype=object)
        if isinstance(utilities, np.ndarray):
            if utilities.shape != table.shape:
                raise ValueError(
                    f"utility array shape {utilities.shape} does not match "
                    f"{table.shape}"
                )
            if utilities.dtype == np.float64:
                # Float input has nothing exact to keep: one read-only copy
                # serves as both the exact and the float table.
                if not np.isfinite(utilities).all():
                    raise ValueError("utility entries must be finite")
                table = utilities.copy()
                table.setflags(write=False)
                self._float_cache = table
            else:
                for idx, v in np.ndenumerate(utilities):
                    table[idx] = _as_number(v)
        else:
            seen = 0
            for joint, vec in utilities.items():
                joint = tuple(joint)
                vec = tuple(vec)
                if len(vec) != n:
                    raise ValueError(f"utility vector for {joint} has wrong length")
                for i in range(n):
                    table[joint + (i,)] = _as_number(vec[i])
                seen += 1
            expected = int(np.prod(self.shape))
            if seen != expected or any(v is None for v in table.flat):
                raise ValueError(
                    f"utilities must cover all {expected} joint actions exactly"
                )
        self.utilities = table

    @property
    def n_players(self) -> int:
        return len(self.action_names)

    def utility(self, joint: Joint, player: int):
        """Exact utility of `player` under the pure joint action."""
        return self.utilities[tuple(joint) + (player,)]

    def utility_vector(self, joint: Joint) -> tuple:
        return tuple(self.utilities[tuple(joint) + (i,)] for i in range(self.n_players))

    def float_utilities(self) -> np.ndarray:
        """Utility table as a read-only float64 array of shape (*shape, n)."""
        if self._float_cache is None:
            floats = self.utilities.astype(np.float64)
            floats.setflags(write=False)
            self._float_cache = floats
        return self._float_cache

    def normalised_utilities(self) -> np.ndarray:
        """Float utilities shifted per player to a zero minimum and divided
        by one common positive scale, so every entry lies in [0, 1].

        The shift and the common scale keep the equilibrium set and the
        welfare ordering intact, so solver tolerances can be absolute.
        Computed once per game and returned read-only.
        """
        if self._norm_cache is None:
            floats = self.float_utilities()
            axes = tuple(range(floats.ndim - 1))
            mins = floats.min(axis=axes)
            with np.errstate(over="ignore"):
                scale = float((floats.max(axis=axes) - mins).max())
            if scale == np.inf:
                # A range of finite utilities can overflow float64. Halving
                # is exact away from subnormals and leaves the quotient as
                # it is, so only such games take this path.
                floats = floats * 0.5
                mins = floats.min(axis=axes)
                scale = float((floats.max(axis=axes) - mins).max())
            if scale <= 0.0:
                scale = 1.0
            norm = (floats - mins) / scale
            norm.setflags(write=False)
            self._norm_cache = norm
        return self._norm_cache

    def joint_actions(self) -> Iterable[Joint]:
        return itertools.product(*(range(c) for c in self.shape))

    def negated(self) -> "NormalFormGame":
        """The game with all utilities negated (cost view)."""
        return NormalFormGame(self.action_names, -self.utilities)

    def __repr__(self) -> str:
        return f"NormalFormGame(shape={self.shape})"


class MixedProfile:
    """A mixed strategy per player: probability vectors over action sets."""

    def __init__(self, probs: Sequence[Sequence[float]]):
        self.probs: tuple[np.ndarray, ...] = tuple(
            np.asarray(p, dtype=np.float64) for p in probs
        )
        # The checks run on Python floats: the vectors are short, and four
        # numpy reductions per vector cost more than the arithmetic.
        for i, p in enumerate(self.probs):
            if p.ndim != 1 or p.size == 0:
                raise ValueError(f"player {i} strategy must be a non-empty vector")
            vals = p.tolist()
            if not all(map(math.isfinite, vals)):
                raise ValueError(f"player {i} strategy has non-finite entries")
            if min(vals) < -TAU_PROB:
                raise ValueError(f"player {i} strategy has negative entries")
            total = math.fsum(vals)
            if abs(total - 1.0) > 1e-6:
                raise ValueError(f"player {i} strategy sums to {total}, not 1")
            if max(vals) <= 0.0:
                raise ValueError(f"player {i} strategy has empty support")

    def support(self, player: int) -> tuple[int, ...]:
        return tuple(int(a) for a in np.nonzero(self.probs[player] > 0)[0])

    def __iter__(self):
        return iter(self.probs)

    def __len__(self):
        return len(self.probs)


@dataclass(frozen=True)
class RewardStructure:
    """State and action rewards attached to a CSG under one name."""

    state_rewards: Mapping[int, float] = field(default_factory=dict)
    action_rewards: Mapping[tuple[int, Joint], float] = field(default_factory=dict)

    def state_reward(self, state: int) -> float:
        return float(self.state_rewards.get(state, 0.0))

    def action_reward(self, state: int, joint: Joint) -> float:
        return float(self.action_rewards.get((state, tuple(joint)), 0.0))


@dataclass(frozen=True)
class Csg:
    """Concurrent stochastic multi-player game.

    All fields are fixed after construction. ``availability[s][i]`` lists
    the action indices of player i available in state s; an empty tuple
    means the player idles there. ``transitions`` maps (state, joint
    action) to a distribution over successor states and must be defined
    exactly for the joint actions enabled by availability (with IDLE
    filling idle slots).
    """

    players: tuple[str, ...]
    actions: tuple[tuple[str, ...], ...]
    state_names: tuple[str, ...]
    initial: tuple[int, ...]
    availability: tuple[tuple[tuple[int, ...], ...], ...]
    transitions: Mapping[tuple[int, Joint], Mapping[int, float]]
    labels: tuple[frozenset[str], ...]
    rewards: Mapping[str, RewardStructure] = field(default_factory=dict)

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    def choices(self, state: int, player: int) -> tuple[int, ...]:
        """Effective choice set of a player in a state (IDLE when none)."""
        avail = self.availability[state][player]
        return avail if avail else (IDLE,)

    def enabled_joints(self, state: int) -> list[Joint]:
        """All joint actions enabled in `state`, in lexicographic order."""
        return [
            joint
            for joint in itertools.product(
                *(self.choices(state, i) for i in range(self.n_players))
            )
        ]

    def action_name(self, player: int, action: int) -> str:
        return "~" if action == IDLE else self.actions[player][action]

    def joint_name(self, joint: Joint) -> str:
        return ",".join(self.action_name(i, a) for i, a in enumerate(joint))

    def states_with_label(self, prop: str) -> frozenset[int]:
        return frozenset(s for s in range(self.n_states) if prop in self.labels[s])


@dataclass(frozen=True)
class CoalitionPartition:
    """Ordered partition of the player set into disjoint coalitions."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "groups", tuple(tuple(sorted(g)) for g in self.groups)
        )

    @property
    def size(self) -> int:
        return len(self.groups)

    def validate(self, n_players: int) -> None:
        if not self.groups:
            raise ValueError("partition must have at least one coalition")
        seen: set[int] = set()
        for g in self.groups:
            if not g:
                raise ValueError("empty coalition in partition")
            for p in g:
                if p < 0 or p >= n_players:
                    raise ValueError(f"player index {p} out of range")
                if p in seen:
                    raise ValueError(f"player {p} appears in two coalitions")
                seen.add(p)
        if len(seen) != n_players:
            missing = sorted(set(range(n_players)) - seen)
            raise ValueError(f"partition does not cover players {missing}")

    @staticmethod
    def singletons(n_players: int) -> "CoalitionPartition":
        return CoalitionPartition(tuple((i,) for i in range(n_players)))


@dataclass
class ValidationIssue:
    kind: str
    detail: str
    state: int | None = None
    joint: Joint | None = None


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, kind: str, detail: str, state=None, joint=None) -> None:
        self.issues.append(ValidationIssue(kind, detail, state, joint))

    def __str__(self) -> str:
        if self.ok:
            return "model valid"
        return "\n".join(f"{i.kind}: {i.detail}" for i in self.issues)


def validate_csg(model: Csg) -> ValidationReport:
    """Check structural invariants of a CSG and report every violation.

    Verified: shapes of availability, initial states non-empty and in
    range, transitions defined for exactly the enabled joint actions,
    distributions summing to one within TAU_PROB with finite, non-negative
    entries over valid states, and reward references in range.
    """
    report = ValidationReport()
    n, ns = model.n_players, model.n_states
    if ns == 0:
        report.add("states", "model has no states")
        return report
    if not model.initial:
        report.add("initial", "no initial state")
    for s0 in model.initial:
        if not (0 <= s0 < ns):
            report.add("initial", f"initial state id {s0} out of range")
    if len(model.availability) != ns:
        report.add("availability", "availability not defined for every state")
        return report
    for s in range(ns):
        if len(model.availability[s]) != n:
            report.add("availability", f"state {s} misses per-player entries", state=s)
            continue
        for i in range(n):
            for a in model.availability[s][i]:
                if a == IDLE:
                    report.add(
                        "availability",
                        f"idle action listed as available for player {i}",
                        state=s,
                    )
                elif not (0 <= a < len(model.actions[i])):
                    report.add(
                        "availability",
                        f"action id {a} of player {i} out of range",
                        state=s,
                    )
    expected: set[tuple[int, Joint]] = set()
    for s in range(ns):
        for joint in model.enabled_joints(s):
            expected.add((s, joint))
    for key in expected:
        if key not in model.transitions:
            s, joint = key
            report.add(
                "missing transition",
                f"no distribution for state {s} joint {model.joint_name(joint)}",
                state=s,
                joint=joint,
            )
    for (s, joint), dist in model.transitions.items():
        if (s, joint) not in expected:
            report.add(
                "undefined availability",
                f"transition defined for disabled joint {model.joint_name(joint)} "
                f"in state {s}",
                state=s,
                joint=joint,
            )
            continue
        total = 0.0
        for t, p in dist.items():
            if not (0 <= t < ns):
                report.add(
                    "dangling state",
                    f"successor id {t} out of range at state {s}",
                    state=s,
                    joint=joint,
                )
            if not math.isfinite(p):
                report.add(
                    "non-finite probability",
                    f"p={p} at state {s} joint {model.joint_name(joint)}",
                    state=s,
                    joint=joint,
                )
            elif p < 0:
                report.add(
                    "negative probability",
                    f"p={p} at state {s} joint {model.joint_name(joint)}",
                    state=s,
                    joint=joint,
                )
            total += p
        # A non-finite entry is reported above; its sum says nothing more.
        if math.isfinite(total) and abs(total - 1.0) > TAU_PROB:
            report.add(
                "distribution sum",
                f"distribution sums to {total!r} at state {s} "
                f"joint {model.joint_name(joint)}",
                state=s,
                joint=joint,
            )
    for name, rew in model.rewards.items():
        for s in rew.state_rewards:
            if not (0 <= s < ns):
                report.add("reward", f"structure {name!r} rewards unknown state {s}")
        for (s, joint) in rew.action_rewards:
            if (s, tuple(joint)) not in expected:
                report.add(
                    "reward",
                    f"structure {name!r} rewards disabled joint "
                    f"{joint} in state {s}",
                    state=s,
                )
    return report


def _member_combos(per_member: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Every tuple of one choice per member, in `itertools.product` order,
    except the one where every member idles."""
    return [c for c in itertools.product(*per_member) if any(a != IDLE for a in c)]


def build_coalition_game(model: Csg, partition: CoalitionPartition) -> Csg:
    """Merge players into coalitions, producing an m-player CSG.

    Each coalition acts as one composite player whose actions are tuples
    of member actions (idle fillers for members with no available action).
    A coalition's action space orders the tuples lexicographically by
    member, each member's real actions in order before the idle filler,
    so enumeration is stable. A coalition whose members all idle in a
    state idles there. Transitions, action rewards and labels carry over
    unchanged under the member mapping; state rewards and initial states
    are untouched.
    """
    partition.validate(model.n_players)
    groups = partition.groups
    spaces = [
        _member_combos([tuple(range(len(model.actions[j]))) + (IDLE,) for j in g])
        for g in groups
    ]
    action_index = [{combo: k for k, combo in enumerate(space)} for space in spaces]
    # Where each player's action sits in the coalitions' member tuples
    # laid end to end.
    members = [j for g in groups for j in g]
    slot = sorted(range(model.n_players), key=members.__getitem__)
    availability = []
    transitions: dict[tuple[int, Joint], Mapping[int, float]] = {}
    action_rewards: dict[str, dict[tuple[int, Joint], float]] = {
        name: {} for name in model.rewards
    }
    for s in range(model.n_states):
        # Per coalition, its (action, member tuple) choices at s by action.
        choices = [
            sorted(
                (index[combo], combo)
                for combo in _member_combos([model.choices(s, j) for j in g])
            )
            for g, index in zip(groups, action_index)
        ]
        availability.append(tuple(tuple(a for a, _ in c) for c in choices))
        for picks in itertools.product(
            *(c or [(IDLE, (IDLE,) * len(g))] for c, g in zip(choices, groups))
        ):
            cjoint = tuple(a for a, _ in picks)
            flat = tuple(itertools.chain.from_iterable(combo for _, combo in picks))
            joint = tuple(flat[k] for k in slot)
            transitions[(s, cjoint)] = model.transitions[(s, joint)]
            for name, rew in model.rewards.items():
                if (s, joint) in rew.action_rewards:
                    action_rewards[name][(s, cjoint)] = rew.action_rewards[(s, joint)]
    return Csg(
        players=tuple("+".join(model.players[j] for j in g) for g in groups),
        actions=tuple(
            tuple(
                ",".join(model.action_name(j, a) for j, a in zip(g, combo))
                for combo in space
            )
            for g, space in zip(groups, spaces)
        ),
        state_names=model.state_names,
        initial=model.initial,
        availability=tuple(availability),
        transitions=transitions,
        labels=model.labels,
        rewards={
            name: RewardStructure(dict(rew.state_rewards), action_rewards[name])
            for name, rew in model.rewards.items()
        },
    )
