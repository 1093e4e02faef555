"""Model, matrix-game and strategy file handling.

Models are JSON documents listing players with their global action sets,
states with labels, per-state action availability, joint-action transition
distributions and named reward structures. Numeric fields may be plain
numbers or arithmetic expressions over declared parameters, which lets one
file serve a whole parameter sweep. The idle action is written "~".
"""

from __future__ import annotations

import ast
import functools
import json
import math
import operator
from fractions import Fraction
from typing import Mapping

from .games import Csg, NormalFormGame, RewardStructure, validate_csg

IDLE_NAME = "~"


class ModelError(ValueError):
    pass


def _power(base, exponent) -> float:
    """`**` on floats, so an overflow raises at once: on ints, 10**10**8
    would build a 100-million-digit integer before any check saw it. A
    complex power (negative base, fractional exponent) is not a real
    number and becomes NaN, which the finiteness check rejects."""
    value = float(base) ** float(exponent)
    return value if isinstance(value, float) else math.nan


_BIN_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: _power,
}
_UNARY_OPS = {ast.USub: operator.neg, ast.UAdd: operator.pos}


@functools.lru_cache(maxsize=1024)
def _parse_expression(text: str) -> ast.Expression:
    """The syntax tree of an expression string, parsed once per distinct
    string: a model repeats a few expressions in many fields. The tree is
    only read, never changed."""
    try:
        return ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ModelError(f"bad expression {text!r}: {exc}") from None


def eval_expression(text: str, params: Mapping[str, float]) -> float:
    """Evaluate an arithmetic expression over the declared parameters.

    Only numbers, parameter names, + - * / ** and parentheses are allowed.
    Division by zero and overflow raise ModelError.
    """
    tree = _parse_expression(text)

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return node.value
        if isinstance(node, ast.Name):
            if node.id not in params:
                raise ModelError(f"unknown parameter {node.id!r} in {text!r}")
            return params[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
            return _BIN_OPS[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
            return _UNARY_OPS[type(node.op)](walk(node.operand))
        raise ModelError(f"disallowed construct in expression {text!r}")

    try:
        return walk(tree)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ModelError(f"cannot evaluate {text!r}: {exc}") from None


def _finite(value, where: str) -> float:
    """`value` as a float; ModelError unless it is a finite real number."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan  # complex, non-numeric or too large for a float
    if not math.isfinite(number):
        raise ModelError(f"{where} is not a finite real number")
    return number


def _number(value, params: Mapping[str, float], where: str) -> float:
    if isinstance(value, (int, float)):
        return _finite(value, f"{value!r} at {where}")
    if isinstance(value, str):
        return _finite(eval_expression(value, params), f"{value!r} at {where}")
    raise ModelError(f"expected number or expression at {where}, got {value!r}")


def _field(entry, key: str, where: str):
    """`entry[key]`; ModelError unless `entry` is an object holding `key`."""
    if not isinstance(entry, dict) or key not in entry:
        raise ModelError(f"{where} needs a {key!r} field")
    return entry[key]


def _object(value, what: str) -> dict:
    """`value`; ModelError unless it is a JSON object."""
    if not isinstance(value, dict):
        raise ModelError(f"{what} is a JSON object, not a {type(value).__name__}")
    return value


def _array(value, what: str) -> list:
    """`value`; ModelError unless it is a JSON array."""
    if not isinstance(value, list):
        raise ModelError(f"{what} is a JSON array, not a {type(value).__name__}")
    return value


def _parameters(doc, params: Mapping[str, float] | None = None) -> dict[str, float]:
    """A model document's declared parameters, `params` overriding the
    defaults, each a finite float; ModelError unless the document and its
    `params` are JSON objects."""
    declared = _object(_object(doc, "a model").get("params", {}), "'params'")
    for name in params or {}:
        if name not in declared:
            raise ModelError(f"model declares no parameter {name!r}")
    declared = {**declared, **(params or {})}
    return {k: _finite(v, f"parameter {k}={v!r}") for k, v in declared.items()}


def load_model_dict(
    doc: dict, params: Mapping[str, float] | None = None
) -> Csg:
    """Build and validate a game from a parsed model document.

    `params` overrides the file's declared parameter defaults. States,
    players and actions are interned to dense indices in file order.
    """
    declared = _parameters(doc, params)

    player_docs = _array(doc.get("players", []), "'players'")
    players = [_field(p, "name", "player") for p in player_docs]
    if not players:
        raise ModelError("model has no players")
    if len(set(players)) != len(players):
        raise ModelError("duplicate player names")
    actions = [
        tuple(_array(p.get("actions", []), f"'actions' of player {name!r}"))
        for name, p in zip(players, player_docs)
    ]
    action_index = [
        {name: k for k, name in enumerate(acts)} for acts in actions
    ]
    state_docs = _array(doc.get("states", []), "'states'")
    states = [_field(s, "id", "state") for s in state_docs]
    if len(set(states)) != len(states):
        raise ModelError("duplicate state ids")
    state_index = {name: k for k, name in enumerate(states)}
    labels = [
        frozenset(_array(s.get("labels", []), f"'labels' of state {name!r}"))
        for name, s in zip(states, state_docs)
    ]

    def state_id(name, where: str) -> int:
        if name not in state_index:
            raise ModelError(f"unknown state id {name!r} at {where}")
        return state_index[name]

    initial = tuple(
        state_id(s, "initial") for s in _array(doc.get("initial", []), "'initial'")
    )

    availability = []
    avail_doc = _object(doc.get("availability", {}), "'availability'")
    for s_name in states:
        row = []
        per_state = _object(
            avail_doc.get(s_name, {}), f"'availability' of {s_name!r}"
        )
        for p_idx, p_name in enumerate(players):
            listed = _array(
                per_state.get(p_name, []),
                f"'availability' of {p_name!r} in state {s_name!r}",
            )
            ids = []
            for a in listed:
                if a not in action_index[p_idx]:
                    raise ModelError(
                        f"unknown action {a!r} of player {p_name!r} "
                        f"in state {s_name!r}"
                    )
                ids.append(action_index[p_idx][a])
            row.append(tuple(ids))
        availability.append(tuple(row))

    def parse_joint(names, where: str):
        if len(_array(names, f"'joint' at {where}")) != len(players):
            raise ModelError(f"joint action arity mismatch at {where}")
        joint = []
        for p_idx, a in enumerate(names):
            if a == IDLE_NAME:
                joint.append(-1)
            elif a in action_index[p_idx]:
                joint.append(action_index[p_idx][a])
            else:
                raise ModelError(
                    f"unknown action {a!r} for player {players[p_idx]!r} at {where}"
                )
        return tuple(joint)

    transitions = {}
    for entry in _array(doc.get("transitions", []), "'transitions'"):
        s = state_id(_field(entry, "state", "transition"), "transitions")
        where = f"transitions of {entry['state']!r}"
        joint = parse_joint(_field(entry, "joint", "transition"), where)
        dist = {}
        dist_doc = _field(entry, "dist", "transition")
        for t_name, p in _object(dist_doc, f"'dist' of {entry['state']!r}").items():
            t = state_id(t_name, f"dist of {entry['state']!r}")
            dist[t] = _number(p, declared, f"dist of {entry['state']!r}")
        transitions[(s, joint)] = dist

    rewards = {}
    for name, spec in _object(doc.get("rewards", {}), "'rewards'").items():
        where = f"rewards {name!r}"
        state_doc = _object(spec, where).get("state", {})
        state_rewards = {
            state_id(k, where): _number(v, declared, where)
            for k, v in _object(state_doc, f"'state' of {where}").items()
        }
        action_rewards = {}
        for entry in _array(spec.get("action", []), f"'action' of {where}"):
            s = state_id(_field(entry, "state", where), where)
            joint = parse_joint(_field(entry, "joint", where), where)
            v = _field(entry, "v", where)
            action_rewards[(s, joint)] = _number(v, declared, where)
        rewards[name] = RewardStructure(state_rewards, action_rewards)

    model = Csg(
        players=tuple(players),
        actions=tuple(actions),
        state_names=tuple(states),
        initial=initial,
        availability=tuple(availability),
        transitions=transitions,
        labels=tuple(labels),
        rewards=rewards,
    )
    report = validate_csg(model)
    if not report.ok:
        raise ModelError(f"model validation failed: {report}")
    return model


def _read_document(path):
    """The parsed JSON of a model file; ModelError when it is not JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"{path}: {exc}") from None


def load_model(path, params: Mapping[str, float] | None = None) -> Csg:
    """Load and validate a model file; `params` overrides declared defaults."""
    return load_model_dict(_read_document(path), params)


def model_params(path) -> dict[str, float]:
    """A model file's declared parameters and their defaults."""
    return _parameters(_read_document(path))


# ---------------------------------------------------------------------------
# Matrix-game files


def _parse_value(text: str):
    """A utility: exact for an integer or a fraction a/b, else a float;
    ModelError unless it is a finite real number."""
    for parse in (Fraction,) if "/" in text else (int, float):
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError):
            continue
        _finite(value, f"utility {text!r}")
        return value
    raise ModelError(f"utility {text!r} is not a number")


def _count_field(parts: list[str], line: str) -> int:
    """The second field of a split line as a positive integer."""
    try:
        count = int(parts[1])
    except (IndexError, ValueError):
        count = 0
    if count < 1:
        raise ModelError(f"expected a positive integer after {parts[0]!r}: {line!r}")
    return count


def load_nfg(path) -> NormalFormGame:
    """Read a one-shot game file.

    Format: a `players n` line, one `actions i a b c` line per player
    (1-based), then one `u a_1 .. a_n v_1 .. v_n` line per joint action.
    Every joint action must appear exactly once.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [
            line.strip()
            for line in fh
            if line.strip() and not line.strip().startswith("#")
        ]
    if not lines or lines[0].split()[0] != "players":
        raise ModelError("matrix game file must start with a players line")
    n = _count_field(lines[0].split(), lines[0])
    names: list[tuple[str, ...] | None] = [None] * n
    rows = []
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "actions":
            idx = _count_field(parts, line) - 1
            if idx >= n:
                raise ModelError(f"player index out of range: {line!r}")
            names[idx] = tuple(parts[2:])
        elif parts[0] == "u":
            rows.append(parts[1:])
        else:
            raise ModelError(f"unrecognised line: {line!r}")
    if any(v is None or not v for v in names):
        raise ModelError("every player needs an actions line")
    index = [{a: k for k, a in enumerate(acts)} for acts in names]
    utilities = {}
    for parts in rows:
        if len(parts) != 2 * n:
            raise ModelError(f"utility line needs {n} actions and {n} values")
        joint = []
        for i in range(n):
            if parts[i] not in index[i]:
                raise ModelError(f"unknown action {parts[i]!r} for player {i + 1}")
            joint.append(index[i][parts[i]])
        joint = tuple(joint)
        if joint in utilities:
            raise ModelError(f"duplicate utility line for joint {parts[:n]}")
        utilities[joint] = tuple(_parse_value(v) for v in parts[n:])
    expected = 1
    for acts in names:
        expected *= len(acts)
    if len(utilities) != expected:
        raise ModelError(
            f"utilities cover {len(utilities)} of {expected} joint actions"
        )
    return NormalFormGame(names, utilities)
