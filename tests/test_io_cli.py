import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import csgnash
from csgnash import casestudies, modelio
from csgnash.cli import main as cli_main
from csgnash.modelio import (
    ModelError,
    eval_expression,
    load_model,
    load_model_dict,
    load_nfg,
)
from csgnash.nfg_solve import swne

from conftest import MODELS

BUNDLED = [
    "secret_sharing_raa.json",
    "secret_sharing_rba.json",
    "secret_sharing_rra.json",
    "secret_sharing_rra_rmax5.json",
    "secret_sharing_rrr_rmax5.json",
    "public_good_profit.json",
    "public_good_capital.json",
    "aloha3.json",
    "medium_access3.json",
]


# ---------------------------------------------------------------------------
# Expressions


def test_eval_expression_arithmetic():
    assert eval_expression("1 - alpha*alpha", {"alpha": 0.3}) == pytest.approx(0.91)
    assert eval_expression("2*(1-q)/4", {"q": 0.5}) == pytest.approx(0.25)
    assert eval_expression("alpha**3", {"alpha": 0.5}) == pytest.approx(0.125)


def test_eval_expression_rejects_unknowns_and_calls():
    with pytest.raises(ModelError):
        eval_expression("beta + 1", {"alpha": 1.0})
    with pytest.raises(ModelError):
        eval_expression("__import__('os')", {})
    with pytest.raises(ModelError):
        eval_expression("alpha(2)", {"alpha": 1.0})


def test_eval_expression_maps_arithmetic_errors():
    with pytest.raises(ModelError, match="cannot evaluate"):
        eval_expression("1/x", {"x": 0.0})
    with pytest.raises(ModelError, match="cannot evaluate"):
        eval_expression("10.0**400", {})


def test_a_load_parses_each_expression_string_once(monkeypatch):
    # aloha3 writes 15 distinct expression strings in 216 fields.
    parsed = []
    parse = ast.parse

    def counting(text, **kwargs):
        parsed.append(text)
        return parse(text, **kwargs)

    monkeypatch.setattr(ast, "parse", counting)
    modelio._parse_expression.cache_clear()
    first = load_model(MODELS / "aloha3.json")
    assert len(parsed) == len(set(parsed)) == 15
    again = load_model(MODELS / "aloha3.json")
    other = load_model(MODELS / "aloha3.json", {"q": 0.5})
    assert len(parsed) == 15
    assert again.transitions == first.transitions != other.transitions
    # A bad expression is not cached: each evaluation raises the same error.
    messages = []
    for _ in range(2):
        with pytest.raises(ModelError) as caught:
            eval_expression("1 +", {})
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("bad expression '1 +': ")


def _number_digest(model) -> str:
    """SHA-256 over every probability and reward of a model, each as
    `float.hex`, with the state, joint action and successor it belongs to."""
    h = hashlib.sha256()
    for (s, joint), dist in sorted(model.transitions.items()):
        for t, p in dist.items():
            h.update(f"{s} {joint} {t} {p.hex()}\n".encode())
    for name, rewards in sorted(model.rewards.items()):
        for s, v in sorted(rewards.state_rewards.items()):
            h.update(f"{name} {s} {v.hex()}\n".encode())
        for (s, joint), v in sorted(rewards.action_rewards.items()):
            h.update(f"{name} {s} {joint} {v.hex()}\n".encode())
    return h.hexdigest()


# Recorded when every expression field was evaluated on its own.
LOAD_DIGESTS = [
    ("secret_sharing_raa.json", {},
     "5943cb27215548ce28454f4298764699cfaa982fa111627446c5b907786bf9a1"),
    ("secret_sharing_rba.json", {},
     "9c59b0d01bcfe40f7c7cbad95f56dce6c3afd4ebb914a94e9ebf07abb4d322a4"),
    ("secret_sharing_rra.json", {},
     "89d1b6432cb14b73c90164c01e5b9cff4c6227b2d959b246e3b1875445ea0208"),
    ("secret_sharing_rra_rmax5.json", {},
     "19d8df9e5b204afb665527e502ffba75e66e695838e10616d1dd69f331e93f20"),
    ("secret_sharing_rrr_rmax5.json", {},
     "744a1a6be1dacfbfc1a3428b7db6493e58f5334baf8a447c199b2127059697d1"),
    ("public_good_profit.json", {},
     "3707ad62b41635542b2218da89a86254d6679631841ace50f179942e4ba02e4a"),
    ("public_good_capital.json", {},
     "61e23e801a8f4534f3495f55eeca6d1775405edf548c0079a7497134cc3675fb"),
    ("aloha3.json", {},
     "5c59653fc01a999ddcface1e7c53ef5e8b1fdf425b62b4410bfb3e6ff5a8cae2"),
    ("medium_access3.json", {},
     "4fd66f04dc03deae66e1933e0b7aebd7bbfc7bc650122505aa62121ca9bfc9b8"),
    ("aloha3.json", {"q": 0.65},
     "dfb77278f53eec35d25e84041d71935b094a5cbc8b05c448c7c9b161253feada"),
    ("secret_sharing_rba.json", {"alpha": 0.45, "p_fail": 0.1},
     "e592e1f831d64922489b7ba570b7af2f637f49428e785a95a3aa0850f069db0c"),
    ("public_good_profit.json", {"f": 2.5},
     "a10c3e752e9bf12a6be5e329617edaa2b66bbda2c64cd25648b40aad52644f26"),
]


@pytest.mark.parametrize("name,params,digest", LOAD_DIGESTS)
def test_a_load_keeps_the_recorded_bits_of_every_number(name, params, digest):
    # A load evaluates each distinct expression string once.
    assert _number_digest(load_model(MODELS / name, params)) == digest


@pytest.mark.parametrize("expr,message", [
    ("1e308 * 10", "'1e308 * 10' at dist of 's0' is not a finite real number"),
    ("x / 0", "cannot evaluate 'x / 0': float division by zero"),
    ("y + 1", "unknown parameter 'y' in 'y + 1'"),
])
def test_a_repeated_bad_expression_fails_at_its_first_field(expr, message):
    doc = {
        "params": {"x": 1.0},
        "players": [{"name": "p1", "actions": ["a"]}],
        "states": [{"id": "s0", "labels": []}],
        "initial": ["s0"],
        "availability": {"s0": {"p1": ["a"]}},
        "transitions": [{"state": "s0", "joint": ["a"], "dist": {"s0": expr}}],
        "rewards": {"r": {"state": {"s0": expr}}},
    }
    with pytest.raises(ModelError) as caught:
        load_model_dict(doc)
    assert str(caught.value) == message


def test_eval_expression_power_overflows_at_once():
    # On Python ints this builds a 100-million-digit integer first.
    t0 = time.perf_counter()
    with pytest.raises(ModelError, match="cannot evaluate"):
        eval_expression("10**10**8", {})
    assert time.perf_counter() - t0 < 5.0
    assert eval_expression("2**10", {}) == 1024.0


# ---------------------------------------------------------------------------
# Model loading


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_models_load_and_validate(name):
    model = load_model(MODELS / name)
    assert model.n_states > 0
    assert model.initial


def test_public_good_profit_has_27_joint_actions_per_month():
    model = load_model(MODELS / "public_good_profit.json")
    assert model.n_players == 3
    interior = [s for s in range(model.n_states) if model.availability[s][0]]
    for s in interior:
        assert len(model.enabled_joints(s)) == 27


def test_load_error_dangling_state():
    doc = {
        "players": [{"name": "p1", "actions": ["a"]}],
        "states": [{"id": "s0", "labels": []}],
        "initial": ["s0"],
        "availability": {"s0": {"p1": ["a"]}},
        "transitions": [
            {"state": "s0", "joint": ["a"], "dist": {"missing": 1.0}}
        ],
    }
    with pytest.raises(ModelError, match="missing"):
        load_model_dict(doc)


def test_load_error_unknown_action():
    doc = {
        "players": [{"name": "p1", "actions": ["a"]}],
        "states": [{"id": "s0", "labels": []}],
        "initial": ["s0"],
        "availability": {"s0": {"p1": ["zz"]}},
        "transitions": [{"state": "s0", "joint": ["a"], "dist": {"s0": 1.0}}],
    }
    with pytest.raises(ModelError, match="zz"):
        load_model_dict(doc)


def test_load_rejects_unknown_parameter_override():
    with pytest.raises(ModelError, match="declares no parameter"):
        load_model(MODELS / "secret_sharing_raa.json", {"beta": 0.4})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_load_rejects_non_finite_parameter_override(value):
    with pytest.raises(ModelError, match="not a finite real number"):
        load_model(MODELS / "secret_sharing_raa.json", {"alpha": value})


@pytest.mark.parametrize("expr", ["1e308 * 10", "(0 - 1) ** 0.5", "x - x / 0"])
def test_load_rejects_non_finite_expression(expr):
    doc = {
        "params": {"x": 1.0},
        "players": [{"name": "p1", "actions": ["a"]}],
        "states": [{"id": "s0", "labels": []}],
        "initial": ["s0"],
        "availability": {"s0": {"p1": ["a"]}},
        "transitions": [{"state": "s0", "joint": ["a"], "dist": {"s0": 1.0}}],
        "rewards": {"r": {"state": {"s0": expr}}},
    }
    with pytest.raises(ModelError):
        load_model_dict(doc)


def test_parameter_override_changes_probabilities():
    m1 = load_model(MODELS / "secret_sharing_raa.json", {"alpha": 0.5})
    dist = m1.transitions[(0, (0, -1, -1))]
    win_all = m1.state_names.index("win_all")
    assert dist[win_all] == pytest.approx(0.125)


# ---------------------------------------------------------------------------
# Matrix-game files


def test_load_nfg_table1_and_solve():
    game = load_nfg(MODELS / "dilemma3.nfg")
    assert game.shape == (2, 2, 2)
    assert game.utility((0, 0, 0), 0) == 7
    result = swne(game)
    assert np.allclose(result.values, [1, 1, 1])


def test_load_nfg_public_good_fractions():
    game = load_nfg(MODELS / "public_good.nfg")
    assert game.utility((0, 0, 1), 2) == Fraction(-5, 3)
    result = swne(game)
    assert np.allclose(result.values, [0, 0, 0], atol=1e-12)


def test_load_nfg_missing_cells(tmp_path):
    path = tmp_path / "bad.nfg"
    path.write_text("players 2\nactions 1 a b\nactions 2 x\nu a x 1 1\n")
    with pytest.raises(ModelError, match="cover"):
        load_nfg(path)


def test_load_nfg_duplicate_cells(tmp_path):
    path = tmp_path / "dup.nfg"
    path.write_text(
        "players 1\nactions 1 a\nu a 1\nu a 2\n"
    )
    with pytest.raises(ModelError, match="duplicate"):
        load_nfg(path)


# ---------------------------------------------------------------------------
# CLI


def run_cli(*argv) -> tuple[int, str]:
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def test_cli_solve_nfg_swne():
    code, out = run_cli("solve-nfg", str(MODELS / "dilemma3.nfg"), "--mode", "swne")
    assert code == 0
    assert "values 1 1 1" in out
    assert "regrets 0 0 0" in out


def test_cli_solve_nfg_scne():
    # Read as costs, mutual cooperation is the cheapest equilibrium of
    # the negated dilemma.
    code, out = run_cli("solve-nfg", str(MODELS / "dilemma3.nfg"), "--mode", "scne")
    assert code == 0
    assert "mode scne" in out
    assert "values 7 7 7" in out


def test_cli_solve_nfg_prints_a_zero_cost_as_0(tmp_path):
    # The cheapest equilibrium costs 0 to each player; the negated game's
    # answer negated is -0.0, printed as 0.
    path = tmp_path / "zero.nfg"
    path.write_text("players 2\nactions 1 a b\nactions 2 x\nu a x 0 0\nu b x 1 1\n")
    code, out = run_cli("solve-nfg", str(path), "--mode", "scne")
    assert code == 0
    assert "values 0 0\n" in out
    assert "-0" not in out


BIG_PENNIES = """players 2
actions 1 h t
actions 2 h t
u h h 1e308 -1e308
u h t -1e308 1e308
u t h -1e308 1e308
u t t 1e308 -1e308
"""


def test_cli_solve_nfg_survives_an_overflowing_utility_range(tmp_path, capsys):
    # Each player's utilities are finite, but their range is 2e308, which
    # overflows float64: the game is matching pennies all the same.
    path = tmp_path / "pennies.nfg"
    path.write_text(BIG_PENNIES)
    code, out = run_cli("solve-nfg", str(path))
    assert code == 0
    assert "welfare 0\n" in out
    assert "profile player 1: h=0.5 t=0.5\n" in out
    assert capsys.readouterr().err == ""


def corpus_nfg(path):
    """Writes the benchmark game random2x2x2x2.0 as a .nfg file: its full
    support passes the relaxation, and only the corner search decides it."""
    cells = [
        3, 12, 4, 9, 10, 9, 6, 12, 5, 1, 11, 1, 10, 4, 11, 1, 3, 1, 3, 2, 3, 1,
        5, 5, 3, 2, 3, 11, 12, 11, 12, 5, 5, 3, 3, 4, 1, 11, 6, 3, 1, 5, 0, 10,
        7, 7, 2, 8, 7, 9, 2, 12, 12, 4, 4, 9, 5, 2, 3, 2, 9, 4, 1, 7,
    ]
    lines = ["players 4"]
    lines += [f"actions {i + 1} a{i + 1}0 a{i + 1}1" for i in range(4)]
    for cell in range(16):
        joint = [cell >> (3 - i) & 1 for i in range(4)]
        names = " ".join(f"a{i + 1}{a}" for i, a in enumerate(joint))
        values = " ".join(map(str, cells[4 * cell : 4 * cell + 4]))
        lines.append(f"u {names} {values}")
    path.write_text("\n".join(lines) + "\n")
    return path


def test_cli_solve_nfg_prints_inconclusive_supports_only_when_some(
    tmp_path, monkeypatch
):
    from csgnash import nfg_solve

    argv = ("solve-nfg", str(corpus_nfg(tmp_path / "corpus.nfg")))
    code, plain = run_cli(*argv)
    assert code == 0 and "inconclusive" not in plain
    assert "welfare 23.9375\n" in plain
    # A box cap of one leaves the full support undecided; the answer comes
    # from another support and does not change.
    monkeypatch.setattr(nfg_solve, "MAX_BOXES", 1)
    code, out = run_cli(*argv)
    assert code == 0
    assert out == plain + "inconclusive-supports 1\n"


def test_cli_check_public_good_zero_sum():
    code, out = run_cli(
        "check",
        str(MODELS / "public_good_profit.json"),
        "--prop",
        '<<p1:p2:p3>>max=? (R{"pro1"}[C<=2] + R{"pro2"}[C<=2] + R{"pro3"}[C<=2])',
    )
    assert code == 0
    assert "sum 0" in out


def test_cli_check_prints_a_zero_cost_as_0():
    # The cost-optimal equilibrium from rrr delivers nothing within one
    # step; the engine holds each 0 as -0.0, printed as 0.
    code, out = run_cli(
        "check",
        str(MODELS / "aloha3.json"),
        "--prop",
        '<<usr1:usr2:usr3>>min=? (P[F<=1 "d1"] + P[F<=1 "d2"] + P[F<=1 "d3"])',
    )
    assert code == 0
    assert "state rrr: values 0 0 0 sum 0\n" in out
    assert "-0" not in out


def test_cli_check_prints_inconclusive_supports_only_when_some(monkeypatch):
    from dataclasses import replace

    from csgnash import engine

    argv = (
        "check",
        str(MODELS / "aloha3.json"),
        "--prop",
        '<<usr1:usr2:usr3>>max=? (P[F<=15 "d1"] + P[F<=15 "d2"] + P[F<=15 "d3"])',
    )
    code, plain = run_cli(*argv)
    assert code == 0 and "inconclusive" not in plain
    solves = []
    solve = engine.swne

    def undecided(game):
        solves.append(game.shape)
        return replace(solve(game), inconclusive=1)

    monkeypatch.setattr(engine, "swne", undecided)
    code, out = run_cli(*argv)
    assert code == 0
    assert solves
    assert out == plain + f"inconclusive-supports {len(solves)}\n"


def test_cli_check_threshold_exit_codes():
    prop = '<<usr1:usr2:usr3>>max>=3 (P[ F "done" ] + P[ F "done" ] + P[ F "done" ])'
    code, out = run_cli(
        "check", str(MODELS / "secret_sharing_raa.json"), "--prop", prop
    )
    assert code == 0 and "sat yes" in out
    hard = '<<usr1:usr2:usr3>>max>3 (P[ F "done" ] + P[ F "done" ] + P[ F "done" ])'
    code, out = run_cli(
        "check", str(MODELS / "secret_sharing_raa.json"), "--prop", hard
    )
    assert code == 2 and "sat no" in out


def test_cli_check_not_converged_exit_code():
    prop = (
        '<<usr1:usr2:usr3>>max=? (R{"util1"}[F "done"] + R{"util2"}[F "done"]'
        ' + R{"util3"}[F "done"])'
    )
    code, _ = run_cli(
        "check",
        str(MODELS / "secret_sharing_raa.json"),
        "--const",
        "alpha=0.1",
        "--max-iters",
        "20",
        "--prop",
        prop,
    )
    assert code == 3


@pytest.mark.parametrize("const", ["alpha=nan", "alpha=inf", "alpha=half"])
def test_cli_rejects_bad_constant_with_exit_1(const):
    code, _ = run_cli(
        "check",
        str(MODELS / "secret_sharing_raa.json"),
        "--const",
        const,
        "--prop",
        '<<usr1:usr2:usr3>>max=? (P[ F "done" ] + P[ F "done" ] + P[ F "done" ])',
    )
    assert code == 1


def test_cli_info_counts():
    code, out = run_cli("info", str(MODELS / "aloha3.json"))
    assert code == 0
    assert "states 27" in out
    assert "max-actions 2 2 2" in out
    assert "valid yes" in out


def test_cli_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli("info", str(bad))
    assert code == 1


def test_cli_sweep_csv_format(tmp_path):
    out_csv = tmp_path / "sweep.csv"
    prop = (
        '<<usr1:usr2:usr3>>max=? (R{"util1"}[F "done"] + R{"util2"}[F "done"]'
        ' + R{"util3"}[F "done"])'
    )
    code, _ = run_cli(
        "sweep",
        str(MODELS / "secret_sharing_raa.json"),
        "--prop",
        prop,
        "--param",
        "alpha",
        "--from",
        "0.3",
        "--to",
        "0.7",
        "--step",
        "0.2",
        "--csv",
        str(out_csv),
    )
    assert code == 0
    raw = out_csv.read_bytes()
    assert b"\r\n" in raw  # RFC 4180 line endings
    lines = raw.decode().strip().splitlines()
    assert lines[0] == "alpha,v1,v2,v3,sum,iterations,epsilon"
    assert len(lines) == 4


def test_cli_sweep_prints_inconclusive_supports_only_when_some(tmp_path, monkeypatch):
    from dataclasses import replace

    from csgnash import engine

    out_csv = tmp_path / "sweep.csv"
    argv = (
        "sweep", str(MODELS / "secret_sharing_rrr_rmax5.json"), "--prop", RAA_PROP,
        "--param", "alpha", "--from", "0.5", "--to", "0.7", "--step", "0.2",
        "--csv", str(out_csv),
    )
    code, plain = run_cli(*argv)
    assert code == 0 and "inconclusive" not in plain
    csv = out_csv.read_bytes()
    solves = []
    solve = engine.swne

    def undecided(game):
        # Only the first stage solve, at alpha=0.5, leaves a support
        # undecided, so alpha=0.7 ends with none.
        solves.append(game.shape)
        return replace(solve(game), inconclusive=int(len(solves) == 1))

    monkeypatch.setattr(engine, "swne", undecided)
    code, out = run_cli(*argv)
    assert code == 0 and len(solves) > 1
    assert out == "inconclusive-supports 1 at alpha=0.5\n" + plain
    assert out_csv.read_bytes() == csv


@pytest.mark.parametrize(
    "start,stop,step",
    [
        ("0.9", "0.1", "0.1"),  # empty range
        ("0.1", "0.9", "0"),
        ("0.1", "0.9", "-0.1"),
        ("0.1", "0.9", "nan"),
        ("0.1", "0.9", "inf"),
        ("nan", "0.9", "0.1"),
        ("0.1", "inf", "0.1"),
        ("1e20", "2e20", "1"),  # a step that does not move the point
    ],
)
def test_cli_sweep_rejects_bad_range(tmp_path, capsys, start, stop, step):
    out_csv = tmp_path / "sweep.csv"
    prop = (
        '<<usr1:usr2:usr3>>max=? (R{"util1"}[F "done"] + R{"util2"}[F "done"]'
        ' + R{"util3"}[F "done"])'
    )
    code, _ = run_cli(
        "sweep",
        str(MODELS / "secret_sharing_raa.json"),
        "--prop",
        prop,
        "--param",
        "alpha",
        "--from",
        start,
        "--to",
        stop,
        "--step",
        step,
        "--csv",
        str(out_csv),
    )
    assert code == 1
    assert "sweep" in capsys.readouterr().err
    assert not out_csv.exists()


RAA_PROP = (
    '<<usr1:usr2:usr3>>max=? (R{"util1"}[F "done"] + R{"util2"}[F "done"]'
    ' + R{"util3"}[F "done"])'
)


def _truncated(doc):
    text = json.dumps(doc)
    return text[: len(text) // 2]


def _default_not_a_number(doc):
    return json.dumps(dict(doc, params={"alpha": "half"}))


def _player_without_name(doc):
    players = [dict(p) for p in doc["players"]]
    del players[0]["name"]
    return json.dumps(dict(doc, players=players))


def _first_transition(doc, **fields):
    transitions = [dict(doc["transitions"][0], **fields), *doc["transitions"][1:]]
    return json.dumps(dict(doc, transitions=transitions))


def _first_state(doc, **fields):
    states = [dict(doc["states"][0], **fields), *doc["states"][1:]]
    return json.dumps(dict(doc, states=states))


def _first_player(doc, **fields):
    players = [dict(doc["players"][0], **fields), *doc["players"][1:]]
    return json.dumps(dict(doc, players=players))


def _labels_string(doc):
    # Iterated as it was, "done" would have read as the labels d, o, n, e.
    return _first_state(doc, labels="done")


@pytest.mark.parametrize(
    "command,malform,message",
    [
        ("sweep", _truncated, "error: bad.json: Expecting"),
        ("sweep", _default_not_a_number, "error: parameter alpha='half' is not a finite"),
        ("sweep", lambda doc: json.dumps([doc]), "error: a model is a JSON object"),
        ("sweep", lambda doc: json.dumps(dict(doc, params=[1])),
         "error: 'params' is a JSON object, not a list"),
        ("check", lambda doc: json.dumps([doc]), "error: a model is a JSON object"),
        ("info", lambda doc: json.dumps([doc]), "error: a model is a JSON object"),
        ("check", _player_without_name, "error: player needs a 'name' field"),
        ("info", lambda doc: _first_transition(doc, dist=[1]),
         "error: 'dist' of 'round' is a JSON object, not a list"),
        ("info", lambda doc: json.dumps(dict(doc, availability=[])),
         "error: 'availability' is a JSON object, not a list"),
        ("info", lambda doc: _first_transition(doc, joint=5),
         "error: 'joint' at transitions of 'round' is a JSON array, not a int"),
        ("info", _labels_string,
         "error: 'labels' of state 'round' is a JSON array, not a str"),
        # Arrays and objects are unhashable: they cannot name anything.
        ("info", lambda doc: _first_state(doc, id=[1]),
         "error: a state's 'id' is a JSON array, not a name"),
        ("check", lambda doc: _first_player(doc, name={}),
         "error: a player's 'name' is a JSON object, not a name"),
        ("info", lambda doc: _first_player(doc, actions=[["x"], "cheat"]),
         "error: an action of player 'usr1' is a JSON array, not a name"),
        ("info", lambda doc: _first_state(doc, labels=[{}]),
         "error: a label of state 'round' is a JSON object, not a name"),
        ("info", lambda doc: json.dumps(dict(doc, initial=[["round"]])),
         "error: unknown state id ['round'] at initial"),
        ("info", lambda doc: _first_transition(doc, joint=[["follow"], "~", "~"]),
         "error: unknown action ['follow'] for player 'usr1' at transitions of 'round'"),
    ],
    ids=["sweep-truncated", "sweep-default", "sweep-list", "sweep-params-list",
         "check-list", "info-list", "check-nameless-player", "info-dist-list",
         "info-availability-list", "info-joint-number", "info-labels-string",
         "info-state-id-array", "check-player-name-object", "info-action-name-array",
         "info-label-object", "info-initial-array", "info-joint-action-array"],
)
def test_cli_reports_a_malformed_model_in_one_line(
    tmp_path, monkeypatch, capsys, command, malform, message
):
    doc = json.loads((MODELS / "secret_sharing_raa.json").read_text())
    (tmp_path / "bad.json").write_text(malform(doc))
    monkeypatch.chdir(tmp_path)
    argv = {
        "sweep": ["--prop", RAA_PROP, "--param", "alpha", "--from", "0.3", "--to",
                  "0.5", "--step", "0.2", "--csv", "out.csv"],
        "check": ["--prop", RAA_PROP],
        "info": [],
    }[command]
    code, out = run_cli(command, "bad.json", *argv)
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def test_cli_export_strategy(tmp_path):
    out_file = tmp_path / "strategy.json"
    prop = (
        '<<usr1:usr2:usr3>>max=? (R{"util1"}[F "done"] + R{"util2"}[F "done"]'
        ' + R{"util3"}[F "done"])'
    )
    code, out = run_cli(
        "check",
        str(MODELS / "secret_sharing_raa.json"),
        "--const",
        "alpha=0.8",
        "--certify",
        "--export-strategy",
        str(out_file),
        "--prop",
        prop,
    )
    assert code == 0
    assert "achieved-epsilon" in out
    doc = json.loads(out_file.read_text())
    assert doc["kind"] == "memoryless"
    assert doc["entries"]


def test_cli_generate_round_trips(tmp_path):
    out_file = tmp_path / "raa.json"
    code, _ = run_cli(
        "generate", "secret-sharing", "-o", str(out_file), "--set", "variant=raa"
    )
    assert code == 0
    model = load_model(out_file)
    assert model.n_players == 3


def test_bundled_files_match_builders():
    fresh = casestudies.secret_sharing("raa")
    fresh.pop("name", None)
    bundled = json.loads((MODELS / "secret_sharing_raa.json").read_text())
    assert fresh == bundled


RAA_UTIL = (
    '<<usr1:usr2:usr3>>max=? (R{"util1"}[F "done"] + R{"util2"}[F "done"]'
    ' + R{"util3"}[F "done"])'
)


def _check_raa(*flags, alpha="0.5"):
    return run_cli(
        "check",
        str(MODELS / "secret_sharing_raa.json"),
        "--const",
        f"alpha={alpha}",
        *flags,
        "--prop",
        RAA_UTIL,
    )


def _printed_values(out: str) -> list[float]:
    line = out.splitlines()[0]
    return [float(v) for v in line.split(" values ")[1].split(" sum ")[0].split()]


def test_cli_epsilon_zero_stops_at_an_exact_fixpoint():
    # A strict `residual < epsilon` never held at 0, so reaching the exact
    # fixpoint at alpha=0.5 was reported as a period-1 cycle (exit 3).
    code, out = _check_raa("--epsilon", "0")
    assert code == 0
    assert _printed_values(out) == [1.0, 1.0, 1.0]
    # Away from alpha=0.5's tie, and where sweeps of 1e-6 stop near the
    # limit, both stopping rules print the same values.
    code, exact = _check_raa("--epsilon", "0", alpha="0.7")
    assert code == 0
    code, default = _check_raa(alpha="0.7")
    assert code == 0
    assert _printed_values(exact) == pytest.approx(_printed_values(default), abs=1e-6)


@pytest.mark.parametrize(
    "flag,value",
    [("--epsilon", "nan"), ("--epsilon", "inf"), ("--epsilon", "-1"),
     ("--max-iters", "0")],
)
def test_cli_rejects_bad_vi_settings_with_exit_1(capsys, flag, value):
    code, _ = _check_raa(flag, value)
    assert code == 1
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", str(MODELS / "aloha3.json")],
        ["check", str(MODELS / "aloha3.json"), "--prop", RAA_UTIL, "--threads", "2"],
    ],
    ids=["missing-prop", "removed-threads"],
)
def test_cli_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        cli_main(argv)
    assert stop.value.code == 1
    assert "usage: csgnash" in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        cli_main(["check", "--help"])
    assert stop.value.code == 0
    assert "--epsilon" in capsys.readouterr().out


@pytest.mark.parametrize("pair", ["variant", "bogus=1"])
def test_cli_generate_rejects_a_bad_set(tmp_path, capsys, pair):
    out_file = tmp_path / "model.json"
    code, _ = run_cli("generate", "secret-sharing", "-o", str(out_file), "--set", pair)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_file.exists()


def test_cli_generate_reports_a_builder_error_in_one_line(tmp_path, capsys):
    out_file = tmp_path / "model.json"
    code, _ = run_cli(
        "generate", "secret-sharing", "-o", str(out_file), "--set", "variant=xyz"
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "error: variant must be three of r/a/b, e.g. 'raa'\n"
    )
    assert not out_file.exists()


GAME_2X2 = "players 2\nactions 1 a b\nactions 2 c d\n"
CELLS_2X2 = "u a c {} 1\nu a d 0 0\nu b c 0 0\nu b d 1 1\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ("players two\n", "error: expected a positive integer after 'players'"),
        ("players 2\nactions\n", "error: expected a positive integer after 'actions'"),
        ("players 2\nactions x a b\n", "error: expected a positive integer after 'actions'"),
        (GAME_2X2 + CELLS_2X2.format("x"), "error: utility 'x' is not a number"),
        (GAME_2X2 + CELLS_2X2.format("1/0"), "error: utility '1/0' is not a number"),
        (GAME_2X2 + CELLS_2X2.format("nan"), "error: utility 'nan' is not a finite"),
        (GAME_2X2 + CELLS_2X2.format("inf"), "error: utility 'inf' is not a finite"),
    ],
    ids=["players", "actions-missing", "actions-index", "x", "1/0", "nan", "inf"],
)
def test_cli_solve_nfg_reports_bad_input_in_one_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.nfg"
    path.write_text(text)
    code, out = run_cli("solve-nfg", str(path))
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize(
    "threshold,message,offset",
    [("1.2.3", "malformed number '1.2.3'", 0), ("1/0", "division by zero", 2)],
)
def test_cli_check_reports_a_bad_threshold_with_its_position(
    capsys, threshold, message, offset
):
    prop = f'<<usr1:usr2:usr3>>max>={threshold} (P[ F "done" ])'
    code, _ = run_cli("check", str(MODELS / "secret_sharing_raa.json"), "--prop", prop)
    assert code == 1
    position = prop.index(threshold) + offset
    assert capsys.readouterr().err == f"error: {message} (at position {position})\n"


def test_cli_entry_point_via_subprocess():
    # The console entry point works end to end in a fresh interpreter.
    result = subprocess.run(
        [sys.executable, "-m", "csgnash.cli", "info", str(MODELS / "aloha3.json")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "states 27" in result.stdout


LAZY_START = """
import sys
import csgnash, csgnash.cli
csgnash.cli.main(["check", sys.argv[1], "--certify", "--prop", sys.argv[2]])
print("scipy.optimize after the check", "scipy.optimize" in sys.modules)
from conftest import hard_333_game
from csgnash.nfg_solve import swne
result = swne(hard_333_game())
print("scipy.optimize after swne", "scipy.optimize" in sys.modules)
print(f"welfare {result.welfare:.9f} inconclusive {result.inconclusive}")
"""


def test_a_check_without_an_lp_never_imports_scipy_optimize():
    # Importing scipy.optimize is most of a fresh process's start, and only
    # an LP needs it: the HiGHS bindings load on the first one.
    src = os.path.dirname(os.path.dirname(csgnash.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    path = [src, tests, os.environ.get("PYTHONPATH", "")]
    prop = (
        '<<usr1:usr2:usr3>>max=? (R{"mes1"}[C<=20] + R{"mes2"}[C<=20]'
        ' + R{"mes3"}[C<=20])'
    )
    run = subprocess.run(
        [sys.executable, "-c", LAZY_START, str(MODELS / "medium_access3.json"), prop],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-5:] == [
        "state e222: values 1.8 1.8 1.8 sum 5.4",
        "achieved-epsilon 0",
        "scipy.optimize after the check False",
        "scipy.optimize after swne True",
        "welfare 25.089285714 inconclusive 0",
    ]


@pytest.mark.parametrize(
    "prop,message",
    [
        (
            '<<usr1:usr2:usr3>>max=? (P[F<=3 "d1"] + P[F "d2"] + P[F "d3"])',
            "error: unsupported-mixed-horizon: objectives mix finite and infinite"
            " horizons\n",
        ),
        (
            '<<usr1:usr2:usr3>>min=? (R{"nope"}[C<=3] + R{"time2"}[C<=3]'
            ' + R{"time3"}[C<=3])',
            "error: unknown reward structure 'nope'\n",
        ),
    ],
)
def test_cli_check_reports_an_unsupported_formula_in_one_line(capsys, prop, message):
    code, out = run_cli("check", str(MODELS / "aloha3.json"), "--prop", prop)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == message
