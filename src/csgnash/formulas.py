"""Temporal-logic formulas over CSGs: parsing, printing and satisfaction.

State formulas combine atomic propositions with boolean connectives and
equilibrium ("Nash") formulas of the form::

    <<c1:c2:...:cm>> max|min (=? | ~ x) ( obj_1 + ... + obj_m )

where each coalition is a player name, a 1-based player index, or a
comma-separated list, and each objective is either a probability term
``P[ path ]`` or a reward term ``R{"name"}[ rew ]``. Path shapes are
``X phi``, ``phi U phi``, ``phi U<=k phi``, ``F phi`` and ``F<=k phi``
(the F forms are expanded to untils at parse time); reward shapes are
``I=k``, ``C<=k`` and ``F phi``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .games import CoalitionPartition, Csg

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class TrueFormula:
    pass


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    sub: "StateFormula"


@dataclass(frozen=True)
class And:
    lhs: "StateFormula"
    rhs: "StateFormula"


@dataclass(frozen=True)
class Next:
    sub: "StateFormula"


@dataclass(frozen=True)
class Until:
    lhs: "StateFormula"
    rhs: "StateFormula"
    bound: int | None  # None for the unbounded until


@dataclass(frozen=True)
class Instant:
    bound: int


@dataclass(frozen=True)
class Cumulative:
    bound: int


@dataclass(frozen=True)
class ReachReward:
    target: "StateFormula"


@dataclass(frozen=True)
class ProbObjective:
    path: Union[Next, Until]


@dataclass(frozen=True)
class RewardObjective:
    structure: str
    shape: Union[Instant, Cumulative, ReachReward]


Objective = Union[ProbObjective, RewardObjective]


@dataclass(frozen=True)
class NashFormula:
    coalitions: tuple[tuple[str, ...], ...]
    opt: str  # "max" or "min"
    comparator: str | None  # one of < <= >= > or None for =?
    threshold: Fraction | None
    objectives: tuple[Objective, ...]

    @property
    def is_numeric(self) -> bool:
        return self.comparator is None


StateFormula = Union[TrueFormula, Atom, Not, And, NashFormula]


class FormulaError(ValueError):
    """Raised on syntactically or semantically invalid formulas."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


# ---------------------------------------------------------------------------
# Tokenizer

_PUNCT = ("<<", ">>", "<=", ">=", "=?", "U<=", "F<=", "I=", "C<=")
_SINGLE = "!&()[]{}+:,<>=/"


@dataclass
class _Token:
    kind: str  # punct | ident | number | string
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        matched = False
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(_Token("punct", p, i))
                i += len(p)
                matched = True
                break
        if matched:
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise FormulaError("unterminated string literal", i)
            tokens.append(_Token("string", text[i + 1 : j], i))
            i = j + 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(_Token("number", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if c == "-":
            tokens.append(_Token("punct", "-", i))
            i += 1
            continue
        if c in _SINGLE:
            tokens.append(_Token("punct", c, i))
            i += 1
            continue
        raise FormulaError(f"unexpected character {c!r}", i)
    return tokens


def _fraction(tok: _Token) -> Fraction:
    try:
        return Fraction(tok.text)
    except ValueError:
        raise FormulaError(f"malformed number {tok.text!r}", tok.pos) from None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of formula", len(self.text))
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise FormulaError(f"expected {text!r}, found {tok.text!r}", tok.pos)
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    # state := conjunction of unary formulas
    def parse_state(self) -> StateFormula:
        node = self.parse_unary()
        while self.at("&"):
            self.next()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> StateFormula:
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of formula", len(self.text))
        if tok.text == "!":
            self.next()
            return Not(self.parse_unary())
        if tok.text == "(":
            self.next()
            node = self.parse_state()
            self.expect(")")
            return node
        if tok.text == "<<":
            return self.parse_nash()
        if tok.kind == "ident" and tok.text == "true":
            self.next()
            return TrueFormula()
        if tok.kind == "string":
            self.next()
            return Atom(tok.text)
        raise FormulaError(f"unexpected token {tok.text!r}", tok.pos)

    def parse_nash(self) -> NashFormula:
        self.expect("<<")
        coalitions = [self.parse_coalition()]
        while self.at(":"):
            self.next()
            coalitions.append(self.parse_coalition())
        self.expect(">>")
        opt_tok = self.next()
        if opt_tok.text not in ("max", "min"):
            raise FormulaError(
                f"expected max or min, found {opt_tok.text!r}", opt_tok.pos
            )
        comparator: str | None
        threshold: Fraction | None
        if self.at("=?"):
            self.next()
            comparator, threshold = None, None
        else:
            cmp_tok = self.next()
            if cmp_tok.text not in ("<", "<=", ">=", ">"):
                raise FormulaError(
                    f"expected threshold comparison or =?, found {cmp_tok.text!r}",
                    cmp_tok.pos,
                )
            comparator = cmp_tok.text
            threshold = self.parse_number()
        self.expect("(")
        objectives = [self.parse_objective()]
        while self.at("+"):
            self.next()
            objectives.append(self.parse_objective())
        self.expect(")")
        nf = NashFormula(
            coalitions=tuple(coalitions),
            opt=opt_tok.text,
            comparator=comparator,
            threshold=threshold,
            objectives=tuple(objectives),
        )
        _validate_nash(nf)
        return nf

    def parse_coalition(self) -> tuple[str, ...]:
        names = [self.parse_name()]
        while self.at(","):
            self.next()
            names.append(self.parse_name())
        return tuple(names)

    def parse_name(self) -> str:
        tok = self.next()
        if tok.kind not in ("ident", "number"):
            raise FormulaError(f"expected player name, found {tok.text!r}", tok.pos)
        return tok.text

    def parse_number(self) -> Fraction:
        sign = 1
        if self.at("-"):
            self.next()
            sign = -1
        tok = self.next()
        if tok.kind != "number":
            raise FormulaError(f"expected number, found {tok.text!r}", tok.pos)
        value = _fraction(tok)
        if self.at("/"):
            self.next()
            denom = self.next()
            if denom.kind != "number":
                raise FormulaError("expected denominator", denom.pos)
            divisor = _fraction(denom)
            if divisor == 0:
                raise FormulaError("division by zero", denom.pos)
            value = value / divisor
        return sign * value

    def parse_nat(self) -> int:
        tok = self.next()
        if tok.kind != "number" or "." in tok.text:
            raise FormulaError(f"expected a natural number, found {tok.text!r}", tok.pos)
        return int(tok.text)

    def parse_objective(self) -> Objective:
        tok = self.next()
        if tok.text == "P":
            self.expect("[")
            path = self.parse_path()
            self.expect("]")
            return ProbObjective(path)
        if tok.text == "R":
            self.expect("{")
            name_tok = self.next()
            if name_tok.kind != "string":
                raise FormulaError("expected reward structure name", name_tok.pos)
            self.expect("}")
            self.expect("[")
            shape = self.parse_reward_shape()
            self.expect("]")
            return RewardObjective(name_tok.text, shape)
        raise FormulaError(f"expected P or R objective, found {tok.text!r}", tok.pos)

    def parse_path(self) -> Union[Next, Until]:
        tok = self.peek()
        if tok is not None and tok.kind == "ident" and tok.text == "X":
            self.next()
            return Next(self.parse_state())
        if tok is not None and tok.kind == "ident" and tok.text == "F":
            self.next()
            return Until(TrueFormula(), self.parse_state(), None)
        if tok is not None and tok.text == "F<=":
            self.next()
            bound = self.parse_nat()
            return Until(TrueFormula(), self.parse_state(), bound)
        lhs = self.parse_state()
        tok = self.peek()
        if tok is not None and tok.text == "U<=":
            self.next()
            bound = self.parse_nat()
            return Until(lhs, self.parse_state(), bound)
        if tok is not None and tok.kind == "ident" and tok.text == "U":
            self.next()
            return Until(lhs, self.parse_state(), None)
        raise FormulaError(
            "expected U after left operand of a path formula",
            tok.pos if tok else len(self.text),
        )

    def parse_reward_shape(self) -> Union[Instant, Cumulative, ReachReward]:
        tok = self.next()
        if tok.text == "I=":
            return Instant(self.parse_nat())
        if tok.text == "C<=":
            return Cumulative(self.parse_nat())
        if tok.kind == "ident" and tok.text == "F":
            return ReachReward(self.parse_state())
        raise FormulaError(f"expected I=, C<= or F, found {tok.text!r}", tok.pos)


def _validate_nash(nf: NashFormula) -> None:
    seen: set[str] = set()
    for group in nf.coalitions:
        for name in group:
            if name in seen:
                raise FormulaError(f"player {name!r} appears in two coalitions")
            seen.add(name)
    if len(nf.objectives) != len(nf.coalitions):
        raise FormulaError(
            f"{len(nf.coalitions)} coalitions but {len(nf.objectives)} objectives"
        )
    kinds = {type(obj) for obj in nf.objectives}
    if len(kinds) > 1:
        raise FormulaError("objectives must be all probabilistic or all reward")


def parse_formula(text: str) -> StateFormula:
    """Parse a state formula; raises FormulaError with a position on failure."""
    parser = _Parser(text)
    node = parser.parse_state()
    tok = parser.peek()
    if tok is not None:
        raise FormulaError(f"trailing input {tok.text!r}", tok.pos)
    return node


# ---------------------------------------------------------------------------
# Printing


def _fmt_number(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_formula(node) -> str:
    """Canonical text form; parse(format(ast)) returns an equal AST."""
    if isinstance(node, TrueFormula):
        return "true"
    if isinstance(node, Atom):
        return f'"{node.name}"'
    if isinstance(node, Not):
        return f"!{_wrap(node.sub)}"
    if isinstance(node, And):
        return f"{_wrap(node.lhs)} & {_wrap(node.rhs)}"
    if isinstance(node, NashFormula):
        coalitions = ":".join(",".join(g) for g in node.coalitions)
        if node.is_numeric:
            query = "=?"
        else:
            query = f"{node.comparator}{_fmt_number(node.threshold)}"
        body = " + ".join(_format_objective(o) for o in node.objectives)
        return f"<<{coalitions}>>{node.opt}{query} ({body})"
    raise TypeError(f"not a state formula: {node!r}")


def _wrap(node) -> str:
    text = format_formula(node)
    if isinstance(node, (And, NashFormula)):
        return f"({text})"
    return text


def _format_objective(obj: Objective) -> str:
    if isinstance(obj, ProbObjective):
        return f"P[ {_format_path(obj.path)} ]"
    return f'R{{"{obj.structure}"}}[ {_format_shape(obj.shape)} ]'


def _format_path(path) -> str:
    if isinstance(path, Next):
        return f"X {_wrap(path.sub)}"
    if path.bound is None:
        return f"{_wrap(path.lhs)} U {_wrap(path.rhs)}"
    return f"{_wrap(path.lhs)} U<={path.bound} {_wrap(path.rhs)}"


def _format_shape(shape) -> str:
    if isinstance(shape, Instant):
        return f"I={shape.bound}"
    if isinstance(shape, Cumulative):
        return f"C<={shape.bound}"
    return f"F {_wrap(shape.target)}"


# ---------------------------------------------------------------------------
# Semantics helpers


def classify_horizon(nf: NashFormula) -> str:
    """'finite' when every objective is step-bounded, 'infinite' when every
    objective is an unbounded until or reachability reward, else 'mixed'."""
    finite = 0
    infinite = 0
    for obj in nf.objectives:
        if isinstance(obj, ProbObjective):
            path = obj.path
            if isinstance(path, Next) or path.bound is not None:
                finite += 1
            else:
                infinite += 1
        else:
            if isinstance(obj.shape, ReachReward):
                infinite += 1
            else:
                finite += 1
    if infinite == 0:
        return "finite"
    if finite == 0:
        return "infinite"
    return "mixed"


NashResolver = Callable[[NashFormula], frozenset[int]]


def sat_states(
    model: Csg, formula: StateFormula, nash_values: NashResolver | None = None
) -> frozenset[int]:
    """Exact satisfaction set of a state formula.

    Propositional cases are computed by set operations over the model's
    labels; embedded Nash formulas are delegated to the resolver.
    """
    all_states = frozenset(range(model.n_states))
    if isinstance(formula, TrueFormula):
        return all_states
    if isinstance(formula, Atom):
        known = set().union(*model.labels) if model.labels else set()
        if formula.name not in known:
            raise FormulaError(f"unknown atomic proposition {formula.name!r}")
        return model.states_with_label(formula.name)
    if isinstance(formula, Not):
        return all_states - sat_states(model, formula.sub, nash_values)
    if isinstance(formula, And):
        return sat_states(model, formula.lhs, nash_values) & sat_states(
            model, formula.rhs, nash_values
        )
    if isinstance(formula, NashFormula):
        if nash_values is None:
            raise FormulaError("no resolver supplied for a nested Nash formula")
        return frozenset(nash_values(formula))
    raise TypeError(f"not a state formula: {formula!r}")


def resolve_coalitions(model: Csg, nf: NashFormula) -> CoalitionPartition:
    """Map coalition member names (or 1-based indices) to player indices."""
    index = {name: i for i, name in enumerate(model.players)}
    groups = []
    for group in nf.coalitions:
        members = []
        for name in group:
            if name in index:
                members.append(index[name])
            elif name.isdigit() and 1 <= int(name) <= model.n_players:
                members.append(int(name) - 1)
            else:
                raise FormulaError(f"unknown player {name!r}")
        groups.append(tuple(members))
    partition = CoalitionPartition(tuple(groups))
    partition.validate(model.n_players)
    return partition
