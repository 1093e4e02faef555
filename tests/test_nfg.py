import hashlib
import itertools
import math
import random
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csgnash import nfg_solve
from csgnash.games import MixedProfile, NormalFormGame
from csgnash.nfg_solve import (
    ACCEPT_FLOOR,
    FEASIBILITY_TOL,
    RELAXATION_MARGIN,
    WELFARE_TOL,
    Support,
    _contract_tensor,
    _SupportSystem,
    _binary_refuted,
    _corner_search,
    _pinned_block,
    _mixed_refuted,
    _presolve_keep,
    _project_simplex,
    _pure_cells,
    _root_box,
    _rounding_slack,
    _solve_bimatrix,
    _solve_pinned,
    _support_layout,
    _switch_on_support,
    _three_binary_coeffs,
    _welfare_bounds,
    check_pure_profile,
    enumerate_supports,
    expected_utility,
    filter_dominated,
    presolve_support,
    regret,
    relaxation_bound,
    scne,
    solve_support,
    stage_block,
    support_count,
    swne,
    undominated_cells,
)

from oracle import (
    brute_force_pure_ne,
    reference_binary_refuted,
    reference_filter_dominated,
    reference_mixed_refuted,
    reference_presolve,
    reference_pure_profile,
    reference_welfare_bound,
)
from conftest import hard_333_game, public_good_nfg


def brute_force_expected(game, profile, player):
    """Independent expectation: direct sum over every joint action."""
    total = 0.0
    for joint in game.joint_actions():
        weight = 1.0
        for j, a in enumerate(joint):
            weight *= float(profile.probs[j][a])
        total += weight * float(game.utility(joint, player))
    return total


# ---------------------------------------------------------------------------
# Expected utility and regret


def test_expected_utility_pure_profile(pd):
    profile = MixedProfile([[1, 0], [1, 0], [1, 0]])
    assert expected_utility(pd, profile, 0) == 7.0


def test_expected_utility_concentrated_is_exact(pd):
    profile = MixedProfile([[0, 1], [1, 0], [0, 1]])
    assert expected_utility(pd, profile, 0) == 5.0  # u1(d1, c2, d3)


def test_expected_utility_uniform_matches_brute_force(pd):
    profile = MixedProfile([[0.5, 0.5]] * 3)
    for i in range(3):
        assert expected_utility(pd, profile, i) == pytest.approx(
            brute_force_expected(pd, profile, i)
        )
    assert expected_utility(pd, profile, 0) == pytest.approx(33 / 8)


def test_regret_zero_at_equilibrium(pd):
    profile = MixedProfile([[0, 1], [0, 1], [0, 1]])
    for i in range(3):
        assert regret(pd, profile, i) == pytest.approx(0.0, abs=1e-12)


def test_regret_all_cooperate(pd):
    profile = MixedProfile([[1, 0], [1, 0], [1, 0]])
    assert regret(pd, profile, 0) == pytest.approx(2.0)  # 9 - 7


def test_regret_uniform_matching_pennies(pennies):
    profile = MixedProfile([[0.5, 0.5], [0.5, 0.5], [1.0]])
    for i in range(3):
        assert regret(pennies, profile, i) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Contraction kernel


@st.composite
def contraction_cases(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    n = len(shape)
    keep = tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=2))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.uniform(-1.0, 1.0, size=shape)
    probs = [rng.uniform(0.0, 1.0, size=c) for c in shape]
    return table, probs, keep


@settings(max_examples=200, deadline=None, derandomize=True)
@given(contraction_cases())
def test_contract_tensor_matches_einsum(case):
    table, probs, keep = case
    letters = "abcd"[: table.ndim]
    operands = [table] + [p for axis, p in enumerate(probs) if axis not in keep]
    spec = (
        letters
        + "".join("," + letters[axis] for axis in range(table.ndim) if axis not in keep)
        + "->"
        + "".join(letters[axis] for axis in keep)
    )
    expected = np.einsum(spec, *operands)
    got = _contract_tensor(table, probs, keep=keep)
    assert np.shape(got) == expected.shape
    assert np.allclose(got, expected, rtol=0.0, atol=1e-12)


def _random_support_system(seed, shape, support_sets):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 13, size=shape + (len(shape),))
    names = [tuple(f"a{k}" for k in range(c)) for c in shape]
    game = NormalFormGame(names, table)
    support = Support(support_sets)
    problem = _SupportSystem(game, support)
    return problem, rng


SUPPORT_CASES = [
    # (2,3,3) support sizes; player 3 keeps one action out of support.
    ((2, 3, 4), ((0, 1), (0, 1, 2), (0, 2, 3))),
    ((2, 2, 3, 2), ((0, 1), (0, 1), (1, 2), (0, 1))),
]


def _central_difference(fn, x, h=1e-6):
    cols = []
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        cols.append((fn(x + step) - fn(x - step)) / (2 * h))
    return np.array(cols).T


@pytest.mark.parametrize("shape, sets", SUPPORT_CASES)
def test_equality_jacobian_matches_finite_differences(shape, sets):
    problem, rng = _random_support_system(8, shape, sets)
    for _ in range(5):
        x = problem.pack([rng.dirichlet(np.ones(k)) for k in problem.sizes])
        res, jac = problem.residual_system(problem.unpack(x))
        assert np.array_equal(res, problem.residual(problem.unpack(x)))
        numeric = _central_difference(
            lambda y: problem.residual(problem.unpack(y)), x
        )
        assert np.allclose(jac, numeric, rtol=1e-7, atol=1e-8)


def test_project_simplex_matches_sort_reference():
    rng = np.random.default_rng(3)
    lo = 1e-6
    for k in (1, 2, 3, 4):
        for _ in range(200):
            v = rng.normal(1.0 / k, 0.6, size=k)
            p = _project_simplex(v, lo)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p >= lo - 1e-15)
            # Optimality of the projection: every coordinate above the
            # floor shares one shift of v.
            free = p > lo + 1e-12
            if free.any():
                shift = (p - v)[free]
                assert np.ptp(shift) < 1e-12


@st.composite
def three_binary_cases(draw):
    """A random (2,2,2) or (2,2,2,2) game and a support with three binary
    mixers; in four players the fourth plays one drawn action."""
    n = draw(st.sampled_from((3, 4)))
    sets = [(0, 1)] * n
    if n == 4:
        sets[draw(st.integers(0, 3))] = (draw(st.integers(0, 1)),)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.uniform(0.0, 1.0, size=(2,) * n + (n,))
    return NormalFormGame([("a", "b")] * n, table), Support(tuple(sets))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(three_binary_cases())
def test_bilinear_gap_coeffs_equal_corner_contractions(case):
    game, support = case
    system = _SupportSystem(game, support)
    n = len(support.sets)
    mixers = [i for i in range(n) if len(support.sets[i]) > 1]
    for m, coeffs in zip(mixers, _three_binary_coeffs(system)):
        var1, var2 = [v for v in mixers if v != m]
        table = system.table(m)

        def gap(x, y):
            # The contraction the coefficients replace: mixers var1 and
            # var2 at pivot probabilities x and y, m's own axis kept.
            blocks = [np.array([1.0]) for _ in range(n)]
            blocks[m] = np.array([0.0, 1.0])
            blocks[var1] = np.array([x, 1.0 - x])
            blocks[var2] = np.array([y, 1.0 - y])
            vec = _switch_on_support(table, blocks, m)
            b = support.sets[m]
            return float(vec[b[0]] - vec[b[1]])

        a = gap(0.0, 0.0)
        b = gap(1.0, 0.0) - a
        c = gap(0.0, 1.0) - a
        d = gap(1.0, 1.0) - a - b - c
        assert coeffs == (a, b, c, d)


def test_swne_pins_criterion_9_welfare():
    # Welfare as computed by the tensordot kernel that preceded the matmul
    # one. That kernel left 6 supports inconclusive; the relaxation
    # decides all of them.
    result = swne(hard_333_game())
    assert result.welfare == pytest.approx(25.089285714285715, abs=1e-9)
    assert result.inconclusive == 0


def test_mixed_refutation_skips_the_solver_on_criterion_9(monkeypatch):
    # Without mixed dominance, 66 supports reached `solve_support` and 30
    # the relaxation LP; the pass refutes 32 of them first. Some still
    # reach the relaxation, so these tests keep exercising it.
    game = hard_333_game()
    calls = {"solve_support": 0, "relaxation_bound": 0}
    for name in calls:
        original = getattr(nfg_solve, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(nfg_solve, name, counting)
    got = swne(game)
    assert calls["solve_support"] <= 34
    assert 1 <= calls["relaxation_bound"] <= 17

    def unrefuted(game, layout):
        return np.zeros([len(m) for m in layout.member], dtype=bool)

    monkeypatch.setattr(nfg_solve, "_mixed_refuted", unrefuted)
    want = swne(game)
    _same_answer(got, want)
    assert (got.candidates, got.pruned, got.inconclusive) == (
        want.candidates, want.pruned, want.inconclusive,
    )


def test_binary_refutation_skips_the_solver_on_criterion_9(monkeypatch):
    # Without the closed-form pass, 34 supports reached `solve_support`,
    # and 4 with two binary mixers and 6 with three ended "infeasible";
    # the pass refutes all 10 first. The closed forms still run on the
    # supports it leaves, which hold candidates.
    game = hard_333_game()
    calls = dict.fromkeys(("solve_support", "_solve_pinned", "_solve_three_binary_mixers"), 0)
    for name in calls:
        original = getattr(nfg_solve, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(nfg_solve, name, counting)
    got = swne(game)
    assert calls["solve_support"] <= 24
    assert calls["_solve_pinned"] >= 1
    assert calls["_solve_three_binary_mixers"] >= 1

    def unrefuted(game, layout):
        return np.zeros([len(m) for m in layout.member], dtype=bool)

    monkeypatch.setattr(nfg_solve, "_binary_refuted", unrefuted)
    want = swne(game)
    _same_answer(got, want)
    assert (got.candidates, got.pruned, got.inconclusive) == (
        want.candidates, want.pruned, want.inconclusive,
    )


# ---------------------------------------------------------------------------
# Dominance filtering


def test_filter_dominated_dilemma(pd):
    reduced, kept, removals = filter_dominated(pd)
    assert reduced.shape == (1, 1, 1)
    assert [k for k in kept] == [[1], [1], [1]]
    assert sorted((r.player, r.action) for r in removals) == [(0, 0), (1, 0), (2, 0)]


def test_filter_dominated_identical_rows_removes_nothing():
    game = NormalFormGame(
        [("a", "b"), ("x", "y")],
        {
            (0, 0): (1, 1),
            (0, 1): (2, 2),
            (1, 0): (1, 3),
            (1, 1): (2, 0),
        },
    )
    _reduced, kept, removals = filter_dominated(game)
    assert not removals
    assert kept == [[0, 1], [0, 1]]


def test_filter_dominated_two_rounds():
    # Row c is strictly dominated by a; once c is gone, column z is
    # strictly dominated by x.
    game = NormalFormGame(
        [("a", "b", "c"), ("x", "y", "z")],
        {
            (0, 0): (5, 5), (0, 1): (4, 4), (0, 2): (3, 0),
            (1, 0): (4, 2), (1, 1): (5, 3), (1, 2): (3, 1),
            (2, 0): (1, 0), (2, 1): (2, 1), (2, 2): (0, 9),
        },
    )
    _reduced, kept, removals = filter_dominated(game)
    assert 2 not in kept[0]
    assert 2 not in kept[1]
    order = [(r.player, r.action) for r in removals]
    assert order.index((0, 2)) < order.index((1, 2))
    # Exhaustive deviation check: the removed column was only dominated
    # conditionally on the removed row being gone.
    assert game.utility((2, 2), 1) > game.utility((2, 0), 1)


# Entries per kind: small integers tie often, Fractions are compared as
# object arrays, and floats hold both signed zeros, which tie.
_DOMINANCE_ENTRIES = {
    "int": st.integers(0, 3),
    "fraction": st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    "float": st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]),
}


@st.composite
def dominance_games(draw):
    """Games of one to four players with one to three actions each, with
    integer, Fraction or float utilities; a draw may plant up to two
    strictly dominated actions, so that removals, and chains of them, are
    common."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    kind = draw(st.sampled_from(sorted(_DOMINANCE_ENTRIES)))
    size = math.prod(shape) * len(shape)
    cells = draw(st.lists(_DOMINANCE_ENTRIES[kind], min_size=size, max_size=size))
    table = np.array(cells, dtype=np.float64 if kind == "float" else object)
    table = table.reshape(shape + (len(shape),))
    choosers = [i for i, c in enumerate(shape) if c > 1]
    for _ in range(draw(st.integers(0, 2)) if choosers else 0):
        player = draw(st.sampled_from(choosers))
        worse, better = draw(st.permutations(range(shape[player])))[:2]
        _plant(table, player, worse, better, 1)
    return NormalFormGame([("a",) * c for c in shape], table)


def _table_bits(game):
    table = game.utilities
    if table.dtype == np.float64:
        return table.shape, table.tobytes()
    return table.shape, [(type(v), v) for v in table.flat]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(dominance_games())
# Action 1 beats 0, and 0 beats 2: when 2's turn comes, 0 is gone, so 1
# removes it.
@example(NormalFormGame([("a",) * 3, ("a",)], np.array([[[1, 0]], [[2, 0]], [[0, 0]]])))
# Row 2 goes first; only then is column 2 dominated, in the same round.
@example(NormalFormGame([("a",) * 3] * 2, np.array([
    [[5, 5], [4, 4], [3, 0]], [[4, 2], [5, 3], [3, 1]], [[1, 0], [2, 1], [0, 9]],
])))
def test_filter_dominated_matches_the_oracle(game):
    reduced, kept, removals = filter_dominated(game)
    want_reduced, want_kept, want_removals = reference_filter_dominated(game)
    assert _table_bits(reduced) == _table_bits(want_reduced)
    assert reduced.action_names == want_reduced.action_names
    assert kept == want_kept
    assert removals == want_removals


# ---------------------------------------------------------------------------
# Support enumeration


def test_support_counts_match_formula():
    assert support_count((3, 3, 3)) == 343
    assert support_count((4, 4, 4)) == 3375
    assert support_count((2, 2, 2, 2)) == 81
    assert support_count((2, 2, 2, 2, 2)) == 243
    assert support_count((1, 1)) == 1
    for shape in [(2, 2), (3, 2), (2, 2, 2), (3, 3, 3)]:
        assert len(enumerate_supports(shape)) == support_count(shape)


def test_supports_canonical_order():
    supports = enumerate_supports((2, 2))
    # Singletons first (total size 2), lexicographic by bitmasks.
    assert supports[0].sets == ((0,), (0,))
    assert supports[1].sets == ((0,), (1,))
    assert supports[2].sets == ((1,), (0,))
    assert supports[3].sets == ((1,), (1,))
    sizes = [sum(s.sizes) for s in supports]
    assert sizes == sorted(sizes)
    assert supports[-1].sets == ((0, 1), (0, 1))


# ---------------------------------------------------------------------------
# Pure profiles


def test_check_pure_profile_dilemma(pd):
    ok, values = check_pure_profile(pd, (1, 1, 1))
    assert ok and values == (1, 1, 1)
    ok, _ = check_pure_profile(pd, (0, 0, 0))
    assert not ok


def test_check_pure_profile_public_good_exact():
    game = public_good_nfg(2)
    ok, values = check_pure_profile(game, (0, 0, 0))
    assert ok and values == (0, 0, 0)
    # All-invest is not an equilibrium: switching to half gains 35/3 > 10.
    ok, values = check_pure_profile(game, (2, 2, 2))
    assert not ok
    assert game.utility((1, 2, 2), 0) == Fraction(35, 3)


# ---------------------------------------------------------------------------
# Presolve


def test_presolve_prunes_full_support_of_dilemma(pd):
    full = Support(((0, 1), (0, 1), (0, 1)))
    assert presolve_support(pd, full) is False


def test_presolve_keeps_singletons(pd):
    for support in enumerate_supports(pd):
        if support.is_pure:
            assert presolve_support(pd, support) is True


def test_presolve_keeps_mixed_equilibrium_support(pennies):
    support = Support(((0, 1), (0, 1), (0,)))
    assert presolve_support(pennies, support) is True


# Small values, so that ties, dominance and equal cell welfares are
# common; the float ones hold both signed zeros.
SMALL_NUMBERS = {
    "int": st.integers(-2, 2),
    "fraction": st.sampled_from([Fraction(k, 3) for k in range(-4, 5)] + [-1, 0, 1]),
    "float": st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1 / 3]),
}


@st.composite
def small_games(draw):
    """Games of up to (3,3,3) and (2,2,2,2) cells, one player having a
    single action in some, over int, Fraction (mixed with int) or float
    utilities; float tables are kept as float tables, the others exact."""
    shape = draw(st.sampled_from([
        (1, 3), (2, 2), (2, 3), (3, 3), (2, 1, 2), (2, 2, 2), (1, 2, 3),
        (2, 2, 3), (3, 3, 3), (2, 2, 2, 2),
    ]))
    kind = draw(st.sampled_from(sorted(SMALL_NUMBERS)))
    size = int(np.prod(shape)) * len(shape)
    values = draw(st.lists(SMALL_NUMBERS[kind], min_size=size, max_size=size))
    dtype = np.float64 if kind == "float" else object
    table = np.array(values, dtype=dtype).reshape(shape + (len(shape),))
    return NormalFormGame([tuple(f"a{k}" for k in range(c)) for c in shape], table)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_games())
def test_batched_support_verdicts_match_the_oracle(game):
    # The array passes over the support grid against the oracle's reading
    # of each support's cells one by one; bounds compare by value, so a
    # signed zero may come from either side.
    layout = _support_layout(game.shape)
    keep = _presolve_keep(game, layout)
    bounds = _welfare_bounds(game, layout)
    refuted = _mixed_refuted(game, layout)
    binary = _binary_refuted(game, layout)
    supports = enumerate_supports(game)
    keys = [(sum(s.sizes), s.masks()) for s in supports]
    assert keys == sorted(set(keys)) and len(keys) == support_count(game.shape)
    for support in supports:
        at = tuple(m - 1 for m in support.masks())
        assert keep[at] == reference_presolve(game, support.sets)
        assert presolve_support(game, support) == keep[at]
        assert bounds[at] == reference_welfare_bound(game, support.sets)
        assert refuted[at] == reference_mixed_refuted(game, support.sets)
        assert binary[at] == reference_binary_refuted(game, support.sets)
    pure = _pure_cells(game)
    for joint in game.joint_actions():
        assert pure[joint] == reference_pure_profile(game, joint)
        assert check_pure_profile(game, joint) == (pure[joint], game.utility_vector(joint))


# Utilities for the mixed refutation: small integers with ties and both
# signed zeros, uniform floats, and values a few band widths or about
# the refutation level apart.
REFUTE_NUMBERS = {
    "int": st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]),
    "float": st.floats(0.0, 1.0),
    "near": st.builds(
        float.__add__,
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from([0.0, 4e-9, -4e-9, 1e-8, -2e-8, 3.1e-4, -3.2e-4]),
    ),
}


@st.composite
def refutable_games(draw):
    """Games in which some player has three or four actions. In a
    planted one, that player's first action loses to the even mix of its
    next two by 0.01 to 0.2 on every cell of the others, and to neither
    alone: the next two trade 1 and 0 on the others' first and last
    cells."""
    shape = draw(st.sampled_from([(3, 3), (2, 3), (2, 2, 3), (3, 3, 3), (4, 4)]))
    kind = draw(st.sampled_from(sorted(REFUTE_NUMBERS) + ["planted"]))
    size = math.prod(shape) * len(shape)
    numbers = REFUTE_NUMBERS["float" if kind == "planted" else kind]
    values = draw(st.lists(numbers, min_size=size, max_size=size))
    table = np.array(values, dtype=np.float64).reshape(shape + (len(shape),))
    if kind == "planted":
        i = next(i for i, c in enumerate(shape) if c > 2)
        own = np.moveaxis(table[..., i], i, 0).reshape(shape[i], -1)
        own[1:3, 0], own[1:3, -1] = (1.0, 0.0), (0.0, 1.0)
        own[0] = (own[1] + own[2]) / 2 - draw(st.floats(0.01, 0.2))
        rest = shape[:i] + shape[i + 1 :]
        table[..., i] = np.moveaxis(own.reshape((shape[i],) + rest), 0, i)
    return NormalFormGame([tuple(f"a{k}" for k in range(c)) for c in shape], table)


def _own_rows_feasible(game, sets, i) -> bool:
    """Whether scipy's `linprog` finds a distribution over the other
    players' support cells meeting player i's own relaxation rows: its
    gaps within the band, its gains at most the band, and each other
    support action's marginal at least ACCEPT_FLOOR."""
    from scipy.optimize import linprog

    norm = game.normalised_utilities()
    others = [j for j in range(game.n_players) if j != i]
    cells = list(itertools.product(*(sets[j] for j in others)))

    def utility(a):
        return np.array([norm[cell[:i] + (a,) + cell[i:] + (i,)] for cell in cells])

    pivot = utility(sets[i][0])
    gaps = [pivot - utility(b) for b in sets[i][1:]]
    gains = [utility(a) - pivot for a in range(game.shape[i]) if a not in sets[i]]
    floors = [
        [-float(cell[k] == a) for cell in cells] for k, j in enumerate(others) for a in sets[j]
    ]
    a_ub = np.array(gaps + [-g for g in gaps] + gains + floors).reshape(-1, len(cells))
    b_ub = [FEASIBILITY_TOL] * (2 * len(gaps) + len(gains)) + [-ACCEPT_FLOOR] * len(floors)
    res = linprog(
        np.zeros(len(cells)), A_ub=a_ub, b_ub=b_ub, A_eq=np.ones((1, len(cells))),
        b_eq=[1.0], bounds=(0, None), method="highs",
    )
    assert res.status in (0, 2)
    return res.status == 0


def test_mixed_refutations_are_sound():
    # A support the pass refutes is one `solve_support` proves infeasible,
    # and one some player's own relaxation rows rule out under `linprog`.
    # Each draw checks up to three of its refuted supports: a (4, 4) game
    # refutes about 200, and checking them all would take a minute. The
    # draws must reach beyond presolve.
    draws = beyond = 0

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(refutable_games(), st.data())
    def check(game, data):
        nonlocal draws, beyond
        layout = _support_layout(game.shape)
        refuted = _mixed_refuted(game, layout).ravel()[layout.order]
        kept = _presolve_keep(game, layout).ravel()[layout.order]
        mixed = np.arange(len(kept)) >= math.prod(game.shape)
        draws += 1
        beyond += bool((refuted & kept & mixed).any())
        positions = np.flatnonzero(refuted).tolist()
        if not positions:
            return
        picks = st.lists(st.sampled_from(positions), max_size=3, unique=True)
        players = [i for i, c in enumerate(game.shape) if c > 2]
        for position in data.draw(picks):
            support = layout.support(position)
            assert solve_support(game, support).status == "infeasible"
            assert not all(_own_rows_feasible(game, support.sets, i) for i in players)

    check()
    assert beyond * 10 >= draws


# Gap differences for near-singular pins: zero, at rounding, far below
# `_PIN_TOL`, and about it. Noise for near-double roots: zero, at
# rounding, and a few steps up to clear separation.
PIN_DELTAS = [0.0, 1e-16, 1e-6, 1e-4, 1.5e-4]
ROOT_NOISE = [0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-4, 1e-2]


@st.composite
def binary_games(draw):
    """Games whose supports with two or three binary mixers reach the
    closed forms' edge cases. "int" and "float" tables are plain. In a
    "pins" one, some player's gap (first action minus second) against
    another player's second action is 0 or 0.25, and against its first
    action that plus a near-singular delta, on every cell of the rest: a
    zero gap with a tiny delta leaves the player indifferent, so its
    gaps pin nothing. In a "roots" one, the first three players' gaps on
    their first two actions are x2 - x1, x0 - x2 and (x0 - c)(x1 - c), x
    being a player's probability of its first action, so the chained
    quadratic of `_solve_three_binary_mixers` has a double root at c; one
    utility then moves by a little noise."""
    shape = draw(st.sampled_from(
        [(2, 2), (3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3), (2, 2, 2, 2)]
    ))
    kind = draw(st.sampled_from(["int", "float", "pins", "pins", "roots"]))
    n = len(shape)
    numbers = REFUTE_NUMBERS["int"] if kind == "int" else st.floats(0.0, 1.0)
    size = math.prod(shape) * n
    values = draw(st.lists(numbers, min_size=size, max_size=size))
    table = np.array(values, dtype=np.float64).reshape(shape + (n,))
    if kind == "pins":
        i, j = draw(st.permutations(range(n)))[:2]
        delta = draw(st.sampled_from(PIN_DELTAS)) * draw(st.sampled_from([1.0, -1.0]))
        base = draw(st.sampled_from([0.0, 0.25]))
        own = np.moveaxis(table[..., i], (i, j), (0, 1))
        own[0, 0] = 0.0
        own[1, 0] = -base - delta
        own[1, 1] = own[0, 1] - base
    elif kind == "roots" and n >= 3:
        c = draw(st.sampled_from([-0.5, 0.5, 1.0, 1.5, 3.0]))
        rest = itertools.product(*(range(k) for k in shape[3:]))
        for tail, picks in itertools.product(list(rest), itertools.product((0, 1), repeat=3)):
            x0, x1, x2 = (1.0 - r for r in picks)
            gaps = (x2 - x1, x0 - x2, (x0 - c) * (x1 - c))
            for m in range(3):
                first = picks[:m] + (0,) + picks[m + 1 :] + tail
                second = picks[:m] + (1,) + picks[m + 1 :] + tail
                table[first + (m,)] = table[second + (m,)] + gaps[m] / 8
        noise = draw(st.sampled_from(ROOT_NOISE)) * draw(st.sampled_from([1.0, -1.0]))
        table[(0,) * n + (draw(st.integers(0, 2)),)] += noise
    return NormalFormGame([tuple(f"a{k}" for k in range(c)) for c in shape], table)


def test_binary_refutations_are_sound():
    # Every support the closed-form pass refutes is one `solve_support`
    # calls "infeasible", and at least one draw in ten refutes one.
    draws = hits = 0

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(binary_games())
    def check(game):
        nonlocal draws, hits
        layout = _support_layout(game.shape)
        refuted = _binary_refuted(game, layout).ravel()[layout.order]
        draws += 1
        hits += bool(refuted.any())
        for position in np.flatnonzero(refuted).tolist():
            assert solve_support(game, layout.support(position)).status == "infeasible"

    check()
    assert hits * 10 >= draws


def _replay_swne(game):
    """`swne`'s search on the oracle's reduced game, with every skip
    decided support by support, by the oracle's pure checks, best cell
    welfares and presolve, before `solve_support`: the values, profile,
    candidate, pruned and inconclusive counts `swne` must give."""
    reduced, kept, _removals = reference_filter_dominated(game)
    norm_welfare = reduced.normalised_utilities().sum(axis=-1)

    def normalised(cand):
        return float(_contract_tensor(norm_welfare, cand.profile.probs))

    candidates, pruned, inconclusive = [], 0, 0
    best_pure = best = best_norm = -np.inf
    for idx, support in enumerate(enumerate_supports(reduced)):
        if support.is_pure:
            if not reference_pure_profile(reduced, tuple(s[0] for s in support.sets)):
                continue
            outcome = solve_support(reduced, support)
            best_pure = max(best_pure, outcome.candidate.welfare)
            best_norm = max(best_norm, normalised(outcome.candidate))
        else:
            upper = reference_welfare_bound(reduced, support.sets)
            skip = best > -np.inf and (upper <= best_pure + WELFARE_TOL or upper <= best)
            if skip or not reference_presolve(reduced, support.sets):
                pruned += 1
                continue
            outcome = solve_support(reduced, support, bar=best_norm)
            if outcome.candidate is not None:
                best_norm = max(best_norm, normalised(outcome.candidate))
        if outcome.candidate is not None:
            outcome.candidate.support_index = idx
            candidates.append(outcome.candidate)
            best = max(best, outcome.candidate.welfare)
        inconclusive += outcome.status == "inconclusive"
        pruned += outcome.status == "pruned"
    top = max(c.welfare for c in candidates)
    chosen = min(
        (c for c in candidates if c.welfare >= top - WELFARE_TOL),
        key=lambda c: (c.support_index, tuple(np.concatenate(c.profile.probs))),
    )
    probs = [np.zeros(c) for c in game.shape]
    for p, local, original in zip(probs, chosen.profile.probs, kept):
        p[original] = local
    if chosen.support.is_pure:
        values = game.float_utilities()[tuple(int(p.argmax()) for p in probs)] + 0.0
    else:
        profile = MixedProfile(probs)
        values = [expected_utility(game, profile, i) for i in range(game.n_players)]
    return np.asarray(values), probs, len(candidates), pruned, inconclusive


@settings(max_examples=120, deadline=None, derandomize=True)
@given(small_games())
def test_swne_matches_a_support_by_support_replay(game):
    # A lower box cap keeps the corner searches short; both sides run
    # under it.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nfg_solve, "MAX_BOXES", 300)
        result = swne(game)
        values, probs, count, pruned, inconclusive = _replay_swne(game)
    assert result.values.tobytes() == values.tobytes()
    assert [p.tobytes() for p in result.profile.probs] == [p.tobytes() for p in probs]
    assert (result.candidates, result.pruned, result.inconclusive) == (
        count, pruned, inconclusive,
    )


# ---------------------------------------------------------------------------
# Per-support solving


def test_solve_support_pure_candidate(pd):
    out = solve_support(pd, Support(((1,), (1,), (1,))))
    assert out.status == "candidate"
    assert np.allclose(out.candidate.values, [1, 1, 1])


def test_solve_support_full_dilemma_infeasible(pd):
    out = solve_support(pd, Support(((0, 1), (0, 1), (0, 1))))
    assert out.status == "infeasible"


@pytest.mark.parametrize("big", [1e308, np.finfo(np.float64).max])
def test_swne_solves_a_game_whose_utility_range_overflows(big):
    # Per player the range is 2 * big, which overflows float64.
    table = np.array([[[big, -big], [-big, big]], [[-big, big], [big, -big]]])
    result = swne(NormalFormGame([("h", "t"), ("h", "t")], table))
    assert result.welfare == 0.0
    for p in result.profile.probs:
        assert np.allclose(p, 0.5, rtol=0.0, atol=1e-12)
    assert np.all(result.regrets / big <= 1e-12)


def test_solve_support_matching_pennies_analytic(pennies):
    out = solve_support(pennies, Support(((0, 1), (0, 1), (0,))))
    assert out.status == "candidate"
    cand = out.candidate
    assert np.allclose(cand.profile.probs[0], [0.5, 0.5], atol=1e-9)
    assert np.allclose(cand.profile.probs[1], [0.5, 0.5], atol=1e-9)
    assert np.allclose(cand.values, [0.5, 0.5, 0.0], atol=1e-9)


@pytest.mark.parametrize(
    "sets", [((1, 2), (1,), (0, 1, 2)), ((0, 1, 2), (1,), (0, 1))]
)
def test_relaxation_refutes_rank_deficient_two_mixer_supports(sets):
    # Two mixers whose stacked indifference conditions are inconsistent:
    # the closed form gives up on them and descent used to run to its
    # cap ("inconclusive"); the relaxation proves them infeasible.
    game = hard_333_game()
    support = Support(sets)
    assert relaxation_bound(_SupportSystem(game, support)) == -np.inf
    assert solve_support(game, support).status == "infeasible"


def test_solve_support_three_mixers_descent():
    # Cyclic matching: player i wants to match player i+1; the unique
    # full-support equilibrium is uniform everywhere.
    table = {
        j: tuple(1 if j[i] == j[(i + 1) % 3] else 0 for i in range(3))
        for j in itertools.product((0, 1), repeat=3)
    }
    game = NormalFormGame([("h", "t")] * 3, table)
    out = solve_support(game, Support(((0, 1), (0, 1), (0, 1))))
    assert out.status == "candidate"
    for p in out.candidate.profile.probs:
        assert np.allclose(p, [0.5, 0.5], atol=1e-6)
    assert np.allclose(out.candidate.values, [0.5, 0.5, 0.5], atol=1e-6)


# ---------------------------------------------------------------------------
# Social-welfare and social-cost search


def test_swne_public_good_f2():
    result = swne(public_good_nfg(2))
    assert np.allclose(result.values, [0, 0, 0], atol=1e-9)
    assert result.regrets.max() <= 1e-8


def test_swne_public_good_f3():
    result = swne(public_good_nfg(3))
    assert np.allclose(result.values, [20, 20, 20], atol=1e-9)
    assert result.welfare == pytest.approx(60.0)


def test_swne_dilemma(pd):
    result = swne(pd)
    assert np.allclose(result.values, [1, 1, 1])
    assert result.profile.support(0) == (1,)


def test_scne_single_joint_action():
    game = NormalFormGame([("a",), ("x",)], {(0, 0): (3, 4)})
    result = scne(game)
    assert np.allclose(result.values, [3, 4])


def test_scne_is_negated_swne():
    rng = random.Random(7)
    for _ in range(25):
        table = {
            j: tuple(rng.randint(-4, 4) for _ in range(3))
            for j in itertools.product((0, 1), repeat=3)
        }
        game = NormalFormGame([("a", "b")] * 3, table)
        neg = game.negated()
        cost = scne(game)
        welfare = swne(neg)
        assert np.allclose(cost.values, -welfare.values, atol=1e-9)


def test_scne_cost_dilemma_vs_oracle(pd):
    # Read the dilemma's utilities as costs: the equilibria of the negated
    # game are checked exhaustively, and the lowest-total-cost one wins.
    result = scne(pd)
    oracle = brute_force_pure_ne(pd.negated())
    best_cost = min(-sum(v) for _, v in oracle.pure_equilibria)
    assert result.welfare == pytest.approx(best_cost)
    assert regret(pd.negated(), result.profile, 0) <= 1e-8


def test_no_equilibrium_error_never_on_small_games():
    rng = random.Random(11)
    for _ in range(30):
        shape = rng.choice([(2, 2), (2, 3), (2, 2, 2)])
        table = {
            j: tuple(rng.randint(0, 6) for _ in shape)
            for j in itertools.product(*(range(c) for c in shape))
        }
        game = NormalFormGame(
            [tuple(f"a{i}{k}" for k in range(c)) for i, c in enumerate(shape)],
            table,
        )
        result = swne(game)  # must not raise
        for i in range(len(shape)):
            assert regret(game, result.profile, i) <= 1e-6


# ---------------------------------------------------------------------------
# Spec invariants as properties (seeded)


def _random_game(rng, shape, lo=-5, hi=9):
    table = {
        j: tuple(rng.randint(lo, hi) for _ in shape)
        for j in itertools.product(*(range(c) for c in shape))
    }
    return NormalFormGame(
        [tuple(f"a{i}{k}" for k in range(c)) for i, c in enumerate(shape)], table
    )


def test_returned_candidates_have_small_regret():
    rng = random.Random(101)
    for _ in range(30):
        game = _random_game(rng, rng.choice([(2, 2), (3, 2), (2, 2, 2)]))
        result = swne(game)
        span = float(game.float_utilities().max() - game.float_utilities().min())
        bound = 1e-8 * (1 + len(game.shape) * max(span, 1.0))
        for i in range(game.n_players):
            assert regret(game, result.profile, i) <= max(bound, 1e-6)


def test_swne_welfare_at_least_best_pure():
    rng = random.Random(102)
    for _ in range(40):
        game = _random_game(rng, rng.choice([(2, 2), (2, 3), (2, 2, 2)]))
        result = swne(game)
        oracle = brute_force_pure_ne(game)
        if oracle.best_welfare is not None:
            assert result.welfare >= oracle.best_welfare - 1e-6


def test_presolve_never_prunes_pure_equilibria():
    rng = random.Random(103)
    for _ in range(40):
        game = _random_game(rng, rng.choice([(2, 2), (2, 2, 2), (3, 3)]))
        oracle = brute_force_pure_ne(game)
        for joint, _values in oracle.pure_equilibria:
            support = Support(tuple((a,) for a in joint))
            assert presolve_support(game, support) is True


def test_dominance_preserves_returned_equilibrium():
    rng = random.Random(104)
    for _ in range(40):
        game = _random_game(rng, (3, 3))
        result = swne(game)  # profile lifted back over removed actions
        for i in range(game.n_players):
            assert regret(game, result.profile, i) <= 1e-6


def test_per_player_translation_shifts_values():
    rng = random.Random(105)
    for _ in range(20):
        game = _random_game(rng, (2, 2, 2))
        base = swne(game)
        shift = 7
        table = {}
        for j in game.joint_actions():
            vec = list(game.utility_vector(j))
            vec[0] += shift
            table[j] = tuple(vec)
        shifted = swne(NormalFormGame(game.action_names, table))
        assert shifted.values[0] == pytest.approx(base.values[0] + shift, abs=1e-6)
        assert np.allclose(shifted.values[1:], base.values[1:], atol=1e-6)
        assert shifted.support.sets == base.support.sets


def _no_pure_game(rng, shape):
    """Integer utilities 0..12 drawn cell by cell in joint-action order,
    redrawn until the game has no pure equilibrium: the benchmark corpus's
    games, whose mixed supports all reach the solver."""
    while True:
        game = _random_game(rng, shape, 0, 12)
        if not brute_force_pure_ne(game).pure_equilibria:
            return game


def _corpus_game(shape, k):
    """Game k of the benchmark corpus for `shape`."""
    rng = random.Random("corpus:" + "x".join(map(str, shape)))
    for _ in range(k):
        _no_pure_game(rng, shape)
    return _no_pure_game(rng, shape)


def test_box_cap_reports_inconclusive_supports(monkeypatch):
    # A corner search stopped at its box cap leaves the support undecided.
    # The search still returns an equilibrium and counts the supports it
    # could not decide, so a caller that wants strictness reads the count.
    # This game has a support that passes the relaxation and that only
    # the corner search decides.
    from csgnash import nfg_solve

    monkeypatch.setattr(nfg_solve, "MAX_BOXES", 1)
    result = swne(_corpus_game((2, 2, 3), 1))
    assert result.inconclusive > 0
    assert np.all(result.regrets <= 1e-6)


@pytest.mark.parametrize("shape, k", [((2, 2, 3), 1), ((2, 2, 2, 2), 0)])
def test_corner_search_decides_the_corpus_supports(shape, k):
    # The full supports of these benchmark games pass the relaxation, and
    # the corner search decides them within its box cap.
    assert swne(_corpus_game(shape, k)).inconclusive == 0


def mixed_sets(c):
    """Action sets of at least two of c actions: masks with two bits or more."""
    masks = [m for m in range(3, 1 << c) if m & (m - 1)]
    return st.sampled_from(masks).map(lambda m: tuple(a for a in range(c) if m >> a & 1))


@st.composite
def small_supports(draw):
    """A small integer game (2-4 players, 2-3 actions) and one of its
    supports with at least two mixers. Narrow utility ranges, down to an
    indifferent player, make ties, degenerate supports and equilibria on
    the drawn support likely."""
    shape = tuple(draw(st.lists(st.integers(2, 3), min_size=2, max_size=4)))
    n = len(shape)
    his = draw(st.lists(st.sampled_from([0, 1, 3, 12]), min_size=n, max_size=n))
    count = int(np.prod(shape))
    columns = [
        draw(st.lists(st.integers(0, hi), min_size=count, max_size=count)) for hi in his
    ]
    table = np.array(columns, dtype=np.float64).T.reshape(shape + (n,))
    game = NormalFormGame([("a",) * c for c in shape], table)
    mixers = draw(st.sets(st.integers(0, n - 1), min_size=2))
    sets = []
    for i, c in enumerate(shape):
        sets.append(draw(mixed_sets(c)) if i in mixers else (draw(st.integers(0, c - 1)),))
    return game, Support(tuple(sets))


def polished_witness(system):
    """Best candidate `accept` takes after `polish` from the support's
    centroid and five Dirichlet starts seeded by the crc32 of its action
    sets: equilibria found without the corner search, as independent
    witnesses for the exact solvers and the relaxation."""
    sizes = system.sizes
    rng = np.random.default_rng(zlib.crc32(repr(system.support.sets).encode()))
    starts = [system.pack([np.full(k, 1.0 / k) for k in sizes])]
    for _ in range(5):
        starts.append(system.pack([rng.dirichlet(np.ones(k)) for k in sizes]))
    best = None
    for x0 in starts:
        cand = system.accept(system.polish(x0))
        if cand is not None and (best is None or cand.welfare > best.welfare):
            best = cand
    return best


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_supports())
def test_relaxation_never_refutes_or_undercuts_a_descent_candidate(case):
    game, support = case
    system = _SupportSystem(game, support)
    bound = relaxation_bound(system)
    found = polished_witness(system)
    if bound == -np.inf:
        assert found is None
    if found is not None:
        welfare = game.normalised_utilities().sum(axis=-1)
        reached = float(_contract_tensor(welfare, found.profile.probs))
        assert reached <= bound + RELAXATION_MARGIN


def binding_gain_game() -> NormalFormGame:
    """A (2,2,2) game with a segment of equilibria on the support
    ((1,), (0, 1), (0, 1)): the second player is indifferent everywhere,
    and the third player's indifference pins the second player's block to
    (1/3, 2/3). The third player's first action then has probability
    q >= 1/2, where the first player's deviation gain, (1 - 2q) / 18 in
    normalised units, is at most 0. Welfare falls with q, so the optimum,
    q = 1/2 with welfare 28/3, has that gain at zero."""
    cells = [5, 4, 4, 5, 0, 1, 1, 6, 2, 2, 5, 2, 6, 0, 4, 0, 4, 6, 1, 0, 5, 4, 4, 4]
    table = np.array(cells, dtype=np.float64).reshape(2, 2, 2, 3)
    return NormalFormGame([("a", "b")] * 3, table)


def test_polish_lands_on_a_binding_deviation_gain():
    # Polishing the indifference equalities alone would stop just outside
    # the optimum, at a point `accept` rejects, and leave the corner
    # search undecided, 2.5e-6 in normalised welfare below it.
    game = binding_gain_game()
    system = _SupportSystem(game, Support(((1,), (0, 1), (0, 1))))
    outside = np.array([1.0, 0.33333331, 0.66666669, 0.49999982, 0.50000018])
    polished = system.accept(system.polish(outside))
    assert polished is not None
    assert polished.profile.probs[2][0] == pytest.approx(0.5, abs=1e-9)
    out = _corner_search(system, -np.inf)
    assert out.status == "candidate"
    assert out.candidate.welfare == pytest.approx(28 / 3, abs=1e-9)
    result = swne(game)
    assert result.welfare == pytest.approx(28 / 3, abs=1e-9)
    assert result.inconclusive == 0


@st.composite
def rank_deficient_bimatrix_supports(draw):
    """A two-player integer game (2-4 actions each) and a support on which
    both mix and neither player's indifference pins the other's block.
    Narrow utility ranges make such rank-deficient systems likely."""
    shape = tuple(draw(st.lists(st.integers(2, 4), min_size=2, max_size=2)))
    count = shape[0] * shape[1]
    columns = [
        draw(st.lists(st.integers(0, draw(st.sampled_from([0, 1, 2, 12]))),
                      min_size=count, max_size=count))
        for _ in range(2)
    ]
    table = np.array(columns, dtype=np.float64).T.reshape(shape + (2,))
    game = NormalFormGame([("a",) * c for c in shape], table)
    support = Support(tuple(draw(mixed_sets(c)) for c in shape))
    system = _SupportSystem(game, support)
    assume(_pinned_block(system, 0, 1) is None and _pinned_block(system, 1, 0) is None)
    return game, support


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rank_deficient_bimatrix_supports())
def test_bimatrix_vertex_pair_beats_gauss_newton(case):
    game, support = case
    system = _SupportSystem(game, support)
    exact = _solve_bimatrix(system)
    found = polished_witness(system)
    assert exact is not None
    if exact.status == "infeasible":
        assert found is None
        return
    blocks = [exact.candidate.profile.probs[i][list(s)] for i, s in enumerate(support.sets)]
    assert system.max_violation(blocks) <= FEASIBILITY_TOL
    if found is not None:
        # Up to the rounding of two welfare contractions.
        assert system.welfare(exact.candidate) >= system.welfare(found) - 1e-12


@st.composite
def planted_equilibria(draw):
    """A small game with an equilibrium planted on a drawn support: random
    utilities, then a constant per (player, action) added so that every
    in-support action earns the same against the drawn profile and every
    other action earns less."""
    shape = tuple(draw(st.lists(st.integers(2, 3), min_size=2, max_size=4)))
    n = len(shape)
    count = int(np.prod(shape))
    cells = draw(st.lists(st.integers(0, 12), min_size=count * n, max_size=count * n))
    table = np.array(cells, dtype=np.float64).reshape(shape + (n,))
    sets, probs = [], []
    for c in shape:
        mask = draw(st.integers(1, (1 << c) - 1))
        own = tuple(a for a in range(c) if mask >> a & 1)
        weights = np.zeros(c)
        weights[list(own)] = draw(
            st.lists(st.integers(1, 5), min_size=len(own), max_size=len(own))
        )
        sets.append(own)
        probs.append(weights / weights.sum())
    for i in range(n):
        switch = _contract_tensor(table[..., i], probs, keep=(i,))
        lift = switch.max() - switch
        outside = np.ones(shape[i], dtype=bool)
        outside[list(sets[i])] = False
        lift[outside] -= draw(st.sampled_from([0.0, 0.5]))
        shaped = [1] * n
        shaped[i] = shape[i]
        table[..., i] += lift.reshape(shaped)
    game = NormalFormGame([("a",) * c for c in shape], table)
    return game, Support(tuple(sets)), MixedProfile(probs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(planted_equilibria())
def test_relaxation_admits_and_bounds_a_planted_equilibrium(case):
    game, support, profile = case
    assert max(regret(game, profile, i) for i in range(game.n_players)) <= 1e-9
    norm = game.normalised_utilities()
    reached = float(_contract_tensor(norm.sum(axis=-1), profile.probs))
    assert reached <= relaxation_bound(_SupportSystem(game, support)) + RELAXATION_MARGIN


@settings(max_examples=100, deadline=None, derandomize=True)
@given(planted_equilibria())
def test_corner_search_finds_a_planted_equilibrium(case):
    # Called without a bar, the search may end undecided at its box cap,
    # but it never refutes a support that holds an equilibrium, and a
    # candidate it returns is within the margin of the planted welfare.
    game, support, profile = case
    assume(sum(len(s) > 1 for s in support.sets) >= 2)
    system = _SupportSystem(game, support)
    out = _corner_search(system, -np.inf)
    assert out.status in ("candidate", "inconclusive")
    if out.status == "candidate":
        welfare = game.normalised_utilities().sum(axis=-1)
        planted = float(_contract_tensor(welfare, profile.probs))
        assert system.welfare(out.candidate) >= planted - RELAXATION_MARGIN


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_supports())
def test_rounding_never_refutes_a_corner_that_accept_takes(case):
    # At a tolerance equal to the violation at a corner of the root box,
    # `accept` takes that corner, so the root box must survive refutation:
    # a search capped at one box then ends undecided, not "infeasible".
    # The binding condition is often at its least there, where only the
    # rounding slack keeps the corner values from refuting the box.
    from unittest import mock

    from csgnash import nfg_solve

    game, support = case
    system = _SupportSystem(game, support)
    mixers = [i for i, k in enumerate(system.sizes) if k > 1]
    verts, corners = _root_box(system, mixers)
    for idx in np.ndindex(corners.shape[:-1]):
        blocks = [np.array([1.0])] * system.n
        for m, v, r in zip(mixers, verts, idx):
            blocks[m] = v[r]
        tol = system.max_violation(blocks)
        with mock.patch.object(nfg_solve, "FEASIBILITY_TOL", tol), mock.patch.object(
            nfg_solve, "MAX_BOXES", 1
        ):
            assert system.accept(system.pack(blocks)) is not None
            assert _corner_search(system, -np.inf).status == "inconclusive"


@settings(max_examples=30, deadline=None, derandomize=True)
@given(small_supports())
def test_corner_search_drops_a_box_only_a_margin_below_the_bar(case):
    # A box is dropped when its corner welfare plus RELAXATION_MARGIN does
    # not exceed the bar. Capped at one box, the search ends undecided
    # when it keeps the root box and "pruned" when it drops it.
    from unittest import mock

    from csgnash import nfg_solve

    game, support = case
    system = _SupportSystem(game, support)
    mixers = [i for i, k in enumerate(system.sizes) if k > 1]
    top = float(_root_box(system, mixers)[1][..., -1].max())
    with mock.patch.object(nfg_solve, "MAX_BOXES", 1):
        kept = _corner_search(system, top + RELAXATION_MARGIN / 2).status
        dropped = _corner_search(system, top + 2 * RELAXATION_MARGIN).status
    assume(kept != "infeasible")  # the root box is refuted
    assert (kept, dropped) == ("inconclusive", "pruned")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_supports())
def test_corner_values_agree_with_accept_within_the_rounding_slack(case):
    # At each corner of the root box, the gaps and gains that `accept`
    # computes equal the box's corner values up to the slack the search
    # allows a refutation, so rounding alone refutes no point it takes.
    game, support = case
    system = _SupportSystem(game, support)
    mixers = [i for i, k in enumerate(system.sizes) if k > 1]
    verts, corners = _root_box(system, mixers)
    slack = _rounding_slack(system)
    for idx in np.ndindex(corners.shape[:-1]):
        blocks = [np.array([1.0])] * system.n
        for m, v, r in zip(mixers, verts, idx):
            blocks[m] = v[r]
        vecs = [_switch_on_support(system.table(i), blocks, i) for i in range(system.n)]
        gaps = [v[s[0]] - v[b] for v, s in zip(vecs, support.sets) for b in s[1:]]
        gains = [
            v[a] - v[s[0]]
            for v, s in zip(vecs, support.sets)
            for a in range(len(v))
            if a not in s
        ]
        assert np.all(np.abs(np.array(gaps + gains) - corners[idx][:-1]) <= slack)


def _same_answer(got, want):
    assert got.values.tobytes() == want.values.tobytes()
    assert got.support == want.support
    for p, q in zip(got.profile.probs, want.profile.probs):
        assert p.tobytes() == q.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from([(3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3), (2, 2, 2, 2)]),
    st.integers(0, 2**32),
)
def test_relaxation_changes_no_answer(shape, seed):
    from unittest import mock

    from csgnash import nfg_solve

    game = _no_pure_game(random.Random(seed), shape)
    uninformed = mock.patch.object(nfg_solve, "relaxation_bound", lambda system: np.inf)
    for solve in (swne, scne):
        got = solve(game)
        with uninformed:
            want = solve(game)
        _same_answer(got, want)
        assert got.inconclusive <= want.inconclusive


def descent_won_game() -> NormalFormGame:
    """A (2,2,2,2) game whose welfare-optimal equilibrium has full
    support, so descent finds it after a pure equilibrium set the bar."""
    cells = [
        1, 9, 1, 6, 6, 8, 9, 6, 3, 10, 0, 12, 5, 8, 5, 10, 4, 1, 10, 7, 9, 2,
        6, 7, 10, 11, 9, 7, 3, 5, 9, 3, 1, 6, 2, 4, 12, 3, 1, 11, 8, 0, 7, 12,
        3, 12, 11, 11, 3, 12, 4, 3, 8, 12, 11, 4, 11, 12, 0, 11, 11, 9, 11, 0,
    ]
    table = np.array(cells, dtype=np.float64).reshape(2, 2, 2, 2, 4)
    return NormalFormGame([("a", "b")] * 4, table)


@pytest.mark.parametrize("make", [hard_333_game, descent_won_game])
def test_relaxation_changes_no_answer_on_pinned_games(monkeypatch, make):
    from csgnash import nfg_solve

    game = make()
    got = swne(game)
    monkeypatch.setattr(nfg_solve, "relaxation_bound", lambda system: np.inf)
    _same_answer(got, swne(game))


def test_descent_still_wins_above_the_bar():
    # The game's best pure equilibrium has welfare 17, so the bar is 17
    # when the full support comes up.
    result = swne(descent_won_game())
    assert result.support.sets == ((0, 1),) * 4
    assert result.welfare == pytest.approx(25.828057, abs=1e-6)


# ---------------------------------------------------------------------------
# Bit pins of the search
#
# The one-mixer digest was recorded before the search became one canonical
# pass and the one-mixer solver moved onto the support view. The swne
# digest was re-recorded when the corner search replaced penalty descent:
# against the digest before it, 8 of the 300 games gained one `pruned`
# support (it used to be inconclusive), and game 262's values moved in the
# last bits (welfare 14.304157171431234 to 14.304157171431186), as its
# candidate now came from a Gauss-Newton start without a penalty run
# first. `inconclusive` is left out of both. The swne bar skips most
# supports, so the mixed-support and relaxation digests pin every solver
# family directly; they were recorded before the per-support solvers moved
# onto one `_SupportSystem`. Like the pins in
# test_engine.py, the digests hold for the numpy and scipy versions CI
# installs.
#
# The swne and mixed-support digests were re-recorded when the corner
# search became the only solver of the supports no closed form decides,
# replacing multistart Gauss-Newton, which returned its first candidate
# above the bar without proving it optimal on the support, and when the
# polishing step took the violated deviation gains into its residual.
# They were re-recorded only after a field-by-field diff of swne and scne
# over 902 games (CHANGES.md) showed no welfare lower by more than
# RELAXATION_MARGIN at the game's scale and no game with more
# inconclusive supports. In the swne corpus, game 208 rose from welfare
# 12.2917258451 to 12.3823529412 on the same support
# (test_swne_finds_the_best_equilibrium_of_its_support), games 241 and
# 262 moved in the last bits (1.9091721633554337 to 1.9091721633554364,
# 14.304157171431186 to 14.304157171431228), and 4 games count one
# candidate fewer and one support more `pruned`: a Gauss-Newton point
# below the bar used to count. In the mixed-support corpus, solved with
# no bar, 6 candidates rose (3 by 0.02 to 0.13 in normalised welfare, 3 in
# the last bits), 3 fell in the last bits, and game 88's two-mixer support
# ((0, 1), (0,), (0, 1, 2)) now ends at the box cap, "inconclusive" with
# welfare 2.198974 where Gauss-Newton's 2.197009 was called a candidate.
#
# All three solve-support and swne digests were re-recorded when one
# pinned-block LP (`_solve_pinned`) replaced the one-mixer LP and the
# two-mixer closed form. Its program holds gaps at 0 and gains at most 0,
# where the one-mixer LP allowed gains up to FEASIBILITY_TOL and returned
# optima that used the slack. They were re-recorded only after a
# field-by-field diff against the digests before: of swne over this
# corpus, of swne and scne over _pin_corpus(50) (1,200 answers) and of
# the mixed-support corpus. No welfare fell by more than 2.5e-8 at the
# game's scale, no answer changed support, and no game gained an
# inconclusive support. In the swne corpus, games 28 (7.00000012 to 7.0)
# and 252 (12.28571432 to 12.285714285714285) lost the slack, game 208
# moved in the last bits (12.382352941176487 to 12.38235294117647), and
# games 176, 250 and 252 count one candidate more and one support fewer
# `pruned`: the LP decides a support below the bar that the relaxation
# used to skip. In the mixed-support corpus game 88's support ((0, 1),
# (0,), (0, 1, 2)) is now a candidate, welfare 2.1989743589743593 in
# normalised units, where the corner search ended at its box cap; 7
# one-mixer candidates fell by 2e-9 to 1.5e-8 (the slack), and 8
# two-mixer candidates moved, 5 in the last bits and 3 up by 8e-9 to
# 1.5e-8, and game 88's ((0, 1), (0,), (0, 1)) up by 9.4e-7 from the
# corner search's point to the LP optimum.

PIN_SHAPES = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (2, 2, 2, 2)]


def _pin_corpus(per_shape):
    """Seeded games of every pin shape, alternating integer utilities
    0..6 (ties, dominance and degenerate supports) with uniform floats."""
    rng = random.Random("pins")
    games = []
    for shape in PIN_SHAPES:
        names = [tuple(f"a{k}" for k in range(c)) for c in shape]
        for _ in range(per_shape):
            games.append(_random_game(rng, shape, 0, 6))
            cells = [rng.random() for _ in range(int(np.prod(shape)) * len(shape))]
            table = np.array(cells).reshape(shape + (len(shape),))
            games.append(NormalFormGame(names, table))
    return games


def _hex(vec):
    return [float(x).hex() for x in vec]


def swne_digest(games) -> str:
    """SHA-256 over each game's `swne` values, profile, candidate and
    pruned counts and removal log."""
    h = hashlib.sha256()
    for game in games:
        r = swne(game)
        removals = [(x.player, x.action, x.dominated_by, x.round) for x in r.removals]
        probs = [_hex(p) for p in r.profile.probs]
        h.update(repr((_hex(r.values), probs, r.candidates, r.pruned, removals)).encode())
    return h.hexdigest()


def _mixers(support) -> int:
    return sum(len(s) > 1 for s in support.sets)


def solve_support_digest(games, keep) -> str:
    """SHA-256 over the status and candidate of `solve_support` on every
    support of the games for which `keep(support)` holds."""
    h = hashlib.sha256()
    for game in games:
        for support in enumerate_supports(game):
            if not keep(support):
                continue
            out = solve_support(game, support)
            bits = None
            if out.candidate is not None:
                cand = out.candidate
                probs = [_hex(p) for p in cand.profile.probs]
                bits = (_hex(cand.values), float(cand.welfare).hex(), probs)
            h.update(repr((out.status, bits)).encode())
    return h.hexdigest()


def test_swne_pin():
    assert swne_digest(_pin_corpus(25)) == (
        "d88b571708a61fea1ec41f086de9f7b958219979a34628f6c9b969c1d4e5efd4"
    )


def test_swne_finds_the_best_equilibrium_of_its_support():
    # The support holds equilibria of welfare 12.2917258451 and
    # 12.3823529412 (421/34), both above the bar; the search must return
    # the support's optimum, not the first point above the bar.
    result = swne(_pin_corpus(25)[208])
    assert result.support.sets == ((0, 1), (0, 1), (1,))
    assert result.welfare == pytest.approx(421 / 34, abs=1e-9)
    assert result.inconclusive == 0
    assert result.regrets.max() <= 1e-6


def test_swne_decides_a_support_whose_equilibria_form_a_segment():
    # A (2,2,3) game whose equilibria on this two-mixer support form a
    # segment along which welfare changes by only 0.017 per unit of
    # probability. The corner search finds the optimum but cannot close
    # the boxes around the segment, and ends at its box cap; the third
    # player's indifference pins the first player's block, and the LP
    # over the third player's block decides the support.
    result = swne(_pin_corpus(10)[88])
    assert result.support.sets == ((0, 1), (0,), (0, 1, 2))
    assert result.welfare == pytest.approx(4288 / 325, abs=1e-9)
    assert result.inconclusive == 0
    assert result.regrets.max() <= 1e-6


def test_pinned_lp_agrees_with_the_relaxation_and_the_corner_search(monkeypatch):
    # Every two-mixer support of the corpus on which exactly one mixer's
    # indifference pins the other's block: 77 in games of three or four
    # players, 31 in two-player games. The pinned LP must refute exactly
    # the supports the relaxation and the corner search refute, stay under
    # the relaxation bound, and match the search's welfare where the
    # search ends decided. Every search here ends decided within 2,000
    # boxes but two, whose equilibria form a segment and which end at any
    # cap, so the lower cap only shortens the test.
    from csgnash import nfg_solve

    monkeypatch.setattr(nfg_solve, "MAX_BOXES", 2000)
    statuses = []
    for game in _pin_corpus(10):
        for support in enumerate_supports(game):
            if _mixers(support) != 2:
                continue
            system = _SupportSystem(game, support)
            i, j = [m for m, k in enumerate(system.sizes) if k > 1]
            if (_pinned_block(system, i, j) is None) == (_pinned_block(system, j, i) is None):
                continue
            out = _solve_pinned(system)
            bound = relaxation_bound(system)
            search = _corner_search(system, -np.inf)
            statuses.append((out.status, search.status))
            assert (out.status == "infeasible") == (bound == -np.inf)
            assert (out.status == "infeasible") == (search.status == "infeasible")
            if out.status == "candidate":
                welfare = system.welfare(out.candidate)
                assert welfare <= bound + RELAXATION_MARGIN
                if search.status == "candidate":
                    found = system.welfare(search.candidate)
                    assert abs(welfare - found) <= RELAXATION_MARGIN
    assert len(statuses) == 108
    assert statuses.count(("infeasible", "infeasible")) == 99
    assert statuses.count(("candidate", "inconclusive")) == 2


def test_a_one_mixer_support_refuted_by_its_own_conditions_reads_one_table():
    # The mixer's own conditions are checked first, as constants, on its
    # restricted table alone; only a support they leave open builds the
    # other players' tables, for the LP and the check of its point.
    alone = 0
    for game in _pin_corpus(3):
        for support in enumerate_supports(game):
            if _mixers(support) != 1:
                continue
            system = _SupportSystem(game, support)
            (m,) = [i for i, k in enumerate(system.sizes) if k > 1]
            out = _solve_pinned(system)
            if list(system._tables) == [m]:
                assert out.status == "infeasible"
                alone += 1
            else:
                assert len(system._tables) == system.n
    assert alone > 0


def relaxation_digest(games) -> str:
    """SHA-256 over `relaxation_bound` on every support of the games in
    which at least two players mix."""
    h = hashlib.sha256()
    for game in games:
        for support in enumerate_supports(game):
            if _mixers(support) >= 2:
                bound = relaxation_bound(_SupportSystem(game, support))
                h.update(float(bound).hex().encode())
    return h.hexdigest()


def test_one_mixer_solve_support_pin():
    digest = solve_support_digest(_pin_corpus(10), lambda s: _mixers(s) == 1)
    assert digest == "da2dc4babadf3dea1c787f917bff0c0eee62964e72a232e6097ed0103c7c7650"


def test_mixed_solve_support_pin():
    digest = solve_support_digest(_pin_corpus(10), lambda s: _mixers(s) >= 1)
    assert digest == "f1c1982a21e35ccfefef33fa23bc81409274941c066814d34c793be4bedc301b"


def test_relaxation_bound_pin():
    assert relaxation_digest(_pin_corpus(5)) == (
        "7e237ef7a88ce1189aee0c0a43f3f3c1d11039ee50162ac1012450ea61938c7e"
    )


# ---------------------------------------------------------------------------
# The HiGHS linear programs


def _recorded_lps(monkeypatch, run) -> list:
    """The arguments and results of every `_solve_lp` call `run` makes."""
    from csgnash import nfg_solve

    calls = []
    solve_lp = nfg_solve._solve_lp

    def recording(*args):
        out = solve_lp(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(nfg_solve, "_solve_lp", recording)
    run()
    monkeypatch.undo()
    return calls


def _corpus_lps(monkeypatch) -> tuple[list, list]:
    """Every LP the solver makes on the corpus, as `_recorded_lps` gives
    them: the relaxations of every support of `_pin_corpus(5)` on which
    at least two players mix, then the exact and banded pinned LPs of
    every one- and two-mixer support of `_pin_corpus(10)`, and last one
    with no inequality rows at all."""

    def relaxations():
        for game in _pin_corpus(5):
            for support in enumerate_supports(game):
                if _mixers(support) >= 2:
                    relaxation_bound(_SupportSystem(game, support))

    def pinned():
        for game in _pin_corpus(10):
            for support in enumerate_supports(game):
                if _mixers(support) in (1, 2):
                    _solve_pinned(_SupportSystem(game, support))
        # One player with tied actions: no inequality rows at all.
        tied = NormalFormGame([("a", "b")], np.array([[1.0], [1.0]]))
        _solve_pinned(_SupportSystem(tied, Support(((0, 1),))))

    return _recorded_lps(monkeypatch, relaxations), _recorded_lps(monkeypatch, pinned)


def _linprog_answer(cost, a_ub, b_ub, lower, upper):
    """`linprog(method="highs")` on the program `_solve_lp` takes, as its
    status class, point and objective."""
    from scipy.optimize import linprog

    rows = len(a_ub) > 0
    res = linprog(
        cost,
        A_ub=a_ub if rows else None,
        b_ub=b_ub if rows else None,
        A_eq=np.ones((1, cost.size)),
        b_eq=np.array([1.0]),
        bounds=(lower, upper),
        method="highs",
    )
    status = {0: "optimal", 2: "infeasible"}.get(res.status, "failed")
    return status, res.x, res.fun


def _same_lp_answer(out, want):
    status, x, fun = out
    assert status == want[0]
    if status == "optimal":
        assert float(fun).hex() == float(want[2]).hex()
        assert x.tobytes() == want[1].tobytes()


def test_solve_lp_matches_linprog_bit_for_bit(monkeypatch):
    # `_solve_lp` calls scipy's private HiGHS bindings; `linprog`, its
    # public wrapper, must return the same bits on every LP the solver
    # makes. A scipy release that changes the bindings fails here.
    relaxation_lps, pinned_lps = _corpus_lps(monkeypatch)
    assert len(relaxation_lps) == 840
    assert len(pinned_lps[-1][0][1]) == 0
    seen = set()
    for args, out in relaxation_lps + pinned_lps:
        _same_lp_answer(out, _linprog_answer(*args))
        seen.add(out[0])
    assert seen == {"optimal", "infeasible"}


def test_the_shared_lp_solver_carries_nothing_between_programs(monkeypatch):
    # Every LP runs on one kept HiGHS solver. Replayed forwards, reversed,
    # and each right after a program that fails (a NaN cost, or an
    # infinite matrix entry), every LP must still give `linprog`'s bits:
    # no basis, solution or failure carries over from one call to the
    # next.
    relaxation_lps, pinned_lps = _corpus_lps(monkeypatch)
    programs = [args for args, _out in relaxation_lps + pinned_lps]
    wants = [_linprog_answer(*args) for args in programs]
    failing = [
        (np.array([np.nan, 1.0]), np.zeros((1, 2)), np.zeros(1), 0.0, np.inf),
        (np.ones(2), np.array([[np.inf, 1.0]]), np.ones(1), 0.0, np.inf),
    ]
    for args, want in zip(programs, wants):
        _same_lp_answer(nfg_solve._solve_lp(*args), want)
    for args, want in zip(programs[::-1], wants[::-1]):
        _same_lp_answer(nfg_solve._solve_lp(*args), want)
    for k, (args, want) in enumerate(zip(programs, wants)):
        assert nfg_solve._solve_lp(*failing[k % 2])[0] == "failed"
        _same_lp_answer(nfg_solve._solve_lp(*args), want)


# A 2x2 game whose only pure equilibrium (B, L) has welfare 3, while the
# row player, indifferent against L, mixes T up to 2/3 for welfare 5: the
# one-mixer LP decides support ({T, B}, {L}).
ONE_MIXER_GAME = NormalFormGame(
    [("T", "B"), ("L", "R")],
    np.array([[[1.0, 5.0], [0.0, 6.0]], [[1.0, 2.0], [1.0, 0.0]]]),
)


def test_a_failed_lp_proves_nothing(monkeypatch):
    from csgnash import nfg_solve

    support = Support(((0, 1), (0,)))
    assert solve_support(ONE_MIXER_GAME, support).status == "candidate"
    assert swne(ONE_MIXER_GAME).welfare == pytest.approx(5.0)
    assert swne(ONE_MIXER_GAME).inconclusive == 0
    failed = ("failed", None, np.nan)
    monkeypatch.setattr(nfg_solve, "_solve_lp", lambda *args: failed)
    assert solve_support(ONE_MIXER_GAME, support).status == "inconclusive"
    result = swne(ONE_MIXER_GAME)
    assert result.inconclusive == 1
    assert result.welfare == 3.0
    # The relaxation bounds nothing, where HiGHS would refute the support.
    game, sets = hard_333_game(), ((1, 2), (1,), (0, 1, 2))
    assert relaxation_bound(_SupportSystem(game, Support(sets))) == np.inf


def test_the_pinned_lp_returns_no_point_accept_rejects():
    # At every point of the support ((0, 1), (0,), (0,)) the second
    # player's deviation gain is 2e-8 in normalised units: above the
    # FEASIBILITY_TOL that `accept` allows, but within HiGHS's own
    # feasibility tolerance, so the pinned LP's program has a point (the
    # one-mixer LP returned it as a candidate). The pinned LP returns
    # nothing, and the relaxation and the corner search decide.
    table = np.zeros((2, 2, 2, 3))
    table[:, 0, 0, 0] = 0.25
    table[:, 1, 0, 1] = 2e-8
    table[:, 0, 0, 2] = 1.0
    game = NormalFormGame([("a", "b")] * 3, table)
    system = _SupportSystem(game, Support(((0, 1), (0,), (0,))))
    assert _solve_pinned(system) is None
    assert solve_support(game, system.support).status == "infeasible"


# ---------------------------------------------------------------------------
# Float games


@st.composite
def float_tables(draw):
    """Small float tables; integer-valued entries make ties, and with them
    dominance, pure equilibria and degenerate supports, likely."""
    shape = draw(
        st.sampled_from([(2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2), (1, 2, 3)])
    )
    n = len(shape)
    size = int(np.prod(shape)) * n
    entry = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-5.0, 5.0, allow_nan=False, allow_subnormal=False),
    )
    cells = draw(st.lists(entry, min_size=size, max_size=size))
    return np.array(cells, dtype=np.float64).reshape(shape + (n,))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(float_tables())
def test_float_game_solves_like_object_game(table):
    names = [tuple(f"a{k}" for k in range(c)) for c in table.shape[:-1]]
    floats = NormalFormGame(names, table)
    exact = NormalFormGame(names, table.astype(object))
    assert floats.utilities.dtype == np.float64
    assert exact.utilities.dtype == object
    for solve in (swne, scne):
        got, want = solve(floats), solve(exact)
        assert got.values.tobytes() == want.values.tobytes()
        for p, q in zip(got.profile.probs, want.profile.probs):
            assert p.tobytes() == q.tobytes()


def test_float_game_table_is_read_only_copy():
    table = np.array([[[1.0, 2.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 1.0]]])
    game = NormalFormGame([("a", "b"), ("a", "b")], table)
    assert game.float_utilities() is game.utilities
    with pytest.raises(ValueError):
        game.utilities[0, 0, 0] = 5.0
    # The caller's array stays writable and is not shared.
    table[0, 0, 0] = 5.0
    assert game.utility((0, 0), 0) == 1.0


def _dilemma_with(bad: float) -> np.ndarray:
    """The prisoner's dilemma as a float table, with `bad` as the row
    player's utility for mutual cooperation. A solver that read NaN or
    inf there as a number would still answer, with values (1, 1)."""
    table = np.array([[[3.0, 3.0], [0.0, 5.0]], [[5.0, 0.0], [1.0, 1.0]]])
    table[0, 0, 0] = bad
    return table


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_game_rejects_non_finite_utilities(bad):
    names = [("c", "d"), ("c", "d")]
    table = _dilemma_with(bad)
    for utilities in (table, table.astype(object)):
        with pytest.raises(ValueError, match="finite"):
            NormalFormGame(names, utilities)
    cells = {(0, 0): (bad, 3), (0, 1): (0, 5), (1, 0): (5, 0), (1, 1): (1, 1)}
    with pytest.raises(ValueError, match="finite"):
        NormalFormGame(names, cells)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_swne_never_answers_a_non_finite_game(bad):
    with pytest.raises(ValueError, match="finite"):
        swne(NormalFormGame([("c", "d"), ("c", "d")], _dilemma_with(bad)))


# ---------------------------------------------------------------------------
# The engine's one array pass over a level's stages


def _plant(table: np.ndarray, player: int, worse: int, better: int, gap) -> None:
    """Give `player`'s action `worse` its utility under `better` minus
    `gap` (a number, or one per choice of the others) everywhere."""
    at = [slice(None)] * (table.ndim - 1)
    at[player] = worse
    to = list(at)
    to[player] = better
    table[tuple(at) + (player,)] = table[tuple(to) + (player,)] - gap


@st.composite
def level_games(draw, kinds=("none", "one", "several")):
    """One level's stage games, one to six, for two to four players: in
    each, as `kinds` allows, nobody chooses, one player chooses among two
    to four actions, or at least two choose among two or three. Cell
    counts differ, so the block pads. Utilities from -2..2, with both
    zeros, make ties in own utility and welfare, and signed zeros,
    likely. Where several choose, a draw may plant a strictly dominated
    action, or one that is dominated only once another player's planted
    dominated action is gone, so that removal takes two rounds."""
    n = draw(st.integers(2, 4))
    entry = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
    games = []
    for _ in range(draw(st.integers(1, 6))):
        shape = [1] * n
        kind = draw(st.sampled_from(kinds))
        if kind == "one":
            shape[draw(st.integers(0, n - 1))] = draw(st.integers(2, 4))
        elif kind == "several":
            for i in draw(st.sets(st.integers(0, n - 1), min_size=2)):
                shape[i] = draw(st.integers(2, 3))
        size = int(np.prod(shape)) * n
        cells = draw(st.lists(entry, min_size=size, max_size=size))
        game = np.array(cells, dtype=np.float64).reshape(tuple(shape) + (n,))
        if kind == "several":
            rounds = draw(st.integers(0, 2))
            choosers = [i for i, c in enumerate(shape) if c > 1]
            first, second = draw(st.permutations(choosers))[:2]
            for player in (first, second)[:rounds]:
                worse, better = draw(st.permutations(range(shape[player])))[:2]
                gap = 1.0
                if player == second:
                    # Better than `better` only where `first` plays its
                    # planted dominated action.
                    gap = np.ones(shape[:player] + shape[player + 1 :])
                    at = [slice(None)] * gap.ndim
                    at[first - (first > player)] = planted
                    gap[tuple(at)] = -1.0
                _plant(game, player, worse, better, gap)
                planted = worse
        games.append(game)
    return games


def _level_pass(games: list[np.ndarray], opt: str, reduce=True, bound=True):
    """The stage block of one level holding `games`, one node each, and
    the decided mask, picks and values the engine's array pass gives
    them under `opt`: with `reduce`, dominance runs on every game the
    pure bar leaves open, and otherwise on none; without `bound`, no game
    meets the two-binary bound."""
    from dataclasses import replace

    from csgnash.engine import _array_pass

    shapes = np.array([game.shape[:-1] for game in games], dtype=np.int64)
    start = np.concatenate(([0], np.cumsum(shapes.prod(axis=1))))
    utilities = np.concatenate([game.reshape(-1, game.shape[-1]) for game in games])
    block = stage_block(start, shapes)
    if not bound:
        block = replace(block, two_binary=np.zeros_like(block.two_binary))
    (decided,), (picks,), (values,) = _array_pass(
        block, utilities[None], opt == "min",
        lambda open: open if reduce else np.zeros_like(open),
    )
    return block, decided, picks, values


def _solved_pick(result) -> int:
    """The flat C-order cell of a pure answer, which must be one-hot."""
    joint = tuple(int(np.argmax(p)) for p in result.profile.probs)
    for p, a in zip(result.profile.probs, joint):
        assert p.tobytes() == np.eye(len(p))[a].tobytes()
    return int(np.ravel_multi_index(joint, [len(p) for p in result.profile.probs]))


def _game(table: np.ndarray) -> NormalFormGame:
    return NormalFormGame([("a",) * c for c in table.shape[:-1]], table)


def test_pure_answer_picks_match_the_solver_bit_for_bit():
    # Stages settled by dominance alone: the bar leaves them open.
    by_dominance = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(level_games())
    def check(games):
        for opt, solve in (("max", swne), ("min", scne)):
            block, decided, picks, values = _level_pass(games, opt)
            _block, barred, _picks, _values = _level_pass(games, opt, False)
            assert block.nodes.tolist() == list(range(len(games)))
            # A stage where at most one player chooses is always decided,
            # and dominance only adds to what the bar decides.
            assert decided[block.single].all()
            assert (decided | ~barred).all()
            by_dominance.append(int((decided & ~barred).sum()))
            for g in np.flatnonzero(decided).tolist():
                result = solve(_game(games[g]))
                assert result.support.is_pure
                assert picks[g] == _solved_pick(result)
                # Single-chooser values are the picked cell's own bits; the
                # others carry the zero sign the solver gives every pure
                # answer, so the solver's rule maps both to its values.
                cell = games[g].reshape(-1, games[g].shape[-1])[picks[g]]
                own = cell if block.single[g] else result.values
                assert values[g].tobytes() == own.tobytes()
                zeroed = -(-values[g] + 0.0) if opt == "min" else values[g] + 0.0
                assert zeroed.tobytes() == result.values.tobytes()

    check()
    assert sum(by_dominance) >= 20


@settings(max_examples=150, deadline=None, derandomize=True)
@given(level_games(kinds=("none", "one")))
def test_single_chooser_picks_match_per_game_solver(games):
    for opt, solve in (("max", swne), ("min", scne)):
        block, decided, picks, values = _level_pass(games, opt)
        assert block.single.all() and decided.all()
        for g, table in enumerate(games):
            result = solve(_game(table))
            chooser = int(np.argmax(table.shape[:-1]))
            assert picks[g] == int(np.argmax(result.profile.probs[chooser]))
            assert picks[g] == _solved_pick(result)
            # The pick's own cell, which the solver's zero-sign rule maps
            # to its values.
            cell = table.reshape(-1, table.shape[-1])[picks[g]]
            assert values[g].tobytes() == cell.tobytes()
            zeroed = -(-cell + 0.0) if opt == "min" else cell + 0.0
            assert zeroed.tobytes() == result.values.tobytes()
            # The pick is an own maximum, so no player can gain.
            assert not result.regrets.any()


def test_stage_block_lists_the_unilateral_deviations_of_every_cell():
    shapes = np.array(
        [[1, 1, 1], [3, 1, 1], [2, 3, 1], [2, 2, 2], [1, 2, 3], [2, 1, 2]],
        dtype=np.int64,
    )
    # The node of shape (2, 1, 2) has no rows.
    sizes = np.append(shapes[:-1].prod(axis=1), 0)
    start = np.concatenate(([0], np.cumsum(sizes)))
    block = stage_block(start, shapes)
    assert block.nodes.tolist() == [0, 1, 2, 3, 4]
    assert block.single.tolist() == [True, True, False, False, False]
    k, a = int(sizes.max()), int(shapes.max())
    assert block.rows.shape == (5, k) and block.deviations.shape == (5, k, 3, a)
    for q in range(5):
        shape = tuple(shapes[q].tolist())
        for c in range(k):
            cell = min(c, sizes[q] - 1)
            assert block.rows[q, c] == start[q] + cell
            joint = np.unravel_index(cell, shape)
            assert block.actions[q, c].tolist() == list(joint)
            for i in range(3):
                # Coalition i's utility at each cell that differs in its
                # action alone, as a flat index into the (N, K, 3) block.
                want = [
                    np.ravel_multi_index((q, np.ravel_multi_index(
                        joint[:i] + (min(b, shape[i] - 1),) + joint[i + 1 :], shape
                    ), i), (5, k, 3))
                    for b in range(a)
                ]
                assert block.deviations[q, c, i].tolist() == want


def test_pure_answer_picks_settle_a_dominated_best_cell_in_the_pass():
    # The prisoner's dilemma's one equilibrium, mutual defection, has
    # welfare 2, below the best cell (6), which the bar cannot rule out.
    # Cooperation is strictly dominated, so the best surviving cell is
    # the equilibrium itself. The two-binary bound would settle it first
    # (no mixed support has an equilibrium), so it is off here.
    dilemma = np.array([[[3.0, 3.0], [0.0, 5.0]], [[5.0, 0.0], [1.0, 1.0]]])
    _block, barred, _picks, _values = _level_pass([dilemma], "max", False, bound=False)
    assert not barred[0]
    _block, decided, picks, values = _level_pass([dilemma], "max", bound=False)
    assert decided[0] and picks[0] == 3
    _block, bounded, _picks, _values = _level_pass([dilemma], "max", False)
    assert bounded[0]
    result = swne(_game(dilemma))
    assert _solved_pick(result) == 3
    assert values[0].tobytes() == result.values.tobytes()


def test_pure_answer_picks_send_an_undominated_best_cell_to_the_solver():
    # Chicken: no action is dominated, and the best cell, both swerving
    # (welfare 4), is no equilibrium; the pure equilibria have welfare 3.
    # Its mixed equilibrium, each swerving half the time, has welfare 2,
    # so the two-binary bound settles it with the first best pure cell.
    chicken = np.array([[[2.0, 2.0], [0.0, 3.0]], [[3.0, 0.0], [-1.0, -1.0]]])
    _block, barred, _picks, _values = _level_pass([chicken], "max", bound=False)
    assert not barred[0]
    _block, decided, picks, values = _level_pass([chicken], "max")
    assert decided[0] and picks[0] == 1
    result = swne(_game(chicken))
    assert _solved_pick(result) == 1
    assert values[0].tobytes() == result.values.tobytes()
    assert result.values.tolist() == [0.0, 3.0]
    # Here the column player mixing against the second row beats the best
    # pure equilibrium (welfare 6.5 against 6), so the game is left open.
    table = np.array([[[1.0, 4.0], [4.0, 1.0]], [[2.0, 4.0], [3.0, 4.0]]])
    _block, decided, _picks, _values = _level_pass([table], "max")
    assert not decided[0]
    result = swne(_game(table))
    assert result.support.sets == ((1,), (0, 1))
    assert result.welfare == 6.5


@settings(max_examples=200, deadline=None, derandomize=True)
@given(level_games(kinds=("one", "several")))
def test_undominated_cells_match_filter_dominated(games):
    # The batched removal over a padded block of a level's stages keeps
    # the actions the oracle's one-pair-at-a-time removal keeps, and logs
    # each removal's round and dominator as it does: the kept cells are
    # the product of the kept actions.
    shapes = np.array([game.shape[:-1] for game in games], dtype=np.int64)
    start = np.concatenate(([0], np.cumsum(shapes.prod(axis=1))))
    utilities = np.concatenate([game.reshape(-1, game.shape[-1]) for game in games])
    block = stage_block(start, shapes)
    reply = np.take(utilities[block.rows].reshape(-1), block.deviations)
    out = undominated_cells(reply, block.actions)
    for g, game in enumerate(games):
        _reduced, actions, removals = reference_filter_dominated(_game(game))
        if out is None:  # no action is dominated
            assert not removals
            continue
        kept, rounds, by = (x[g] for x in out)
        cells = np.zeros(game.shape[:-1], dtype=bool)
        cells[np.ix_(*actions)] = True
        # Padding repeats the last cell.
        assert kept.tolist() == cells.reshape(-1)[block.rows[g] - start[g]].tolist()
        # The real actions' rounds and dominators, in the oracle's order.
        log = [
            (i, a, int(by[i, a]), int(rounds[i, a]))
            for i, c in enumerate(game.shape[:-1])
            for a in range(c)
            if rounds[i, a]
        ]
        want = [(r.player, r.action, r.dominated_by, r.round) for r in removals]
        assert sorted(log, key=lambda r: r[-1]) == want


def test_pure_answer_picks_send_a_game_without_pure_equilibrium():
    # Players 1 and 2 play matching pennies whatever player 3 does, and
    # player 3 matches player 1.
    table = np.zeros((2, 2, 2, 3))
    for a, b, c in itertools.product(range(2), repeat=3):
        match = 1.0 if a == b else -1.0
        table[a, b, c] = (match, -match, 1.0 if c == a else 0.0)
    for opt in ("max", "min"):
        _block, decided, _picks, _values = _level_pass([table], opt)
        assert not decided[0]
    assert not swne(_game(table)).support.is_pure


def test_pure_answer_picks_break_a_welfare_tie_by_cell_order():
    # Two pure equilibria; the later one is better by less than the
    # tolerance, so the first cell wins, as it does in the solver.
    tie = np.zeros((2, 2, 2))
    tie[0, 0] = (1.0, 1.0)
    tie[1, 1] = (1.0, 1.0 + WELFARE_TOL / 2)
    _block, decided, picks, values = _level_pass([tie], "max")
    assert decided[0] and picks[0] == 0
    result = swne(_game(tie))
    assert _solved_pick(result) == 0
    assert values[0].tobytes() == result.values.tobytes()


@st.composite
def two_binary_games(draw):
    """One level's games, one to four, in each of which exactly two
    players have two actions: shape (2, 2), or shapes (2, 2, 1), (1, 2, 2)
    and (2, 1, 2) side by side. A game's utilities are integers 0..3 with
    both zeros, which make ties in own utility and welfare likely; floats;
    or near ties, 0 or 1 moved by 0 or 1e-9, which is within the
    feasibility band once normalised. A draw may make a chooser
    indifferent between its actions everywhere, or plant one of two
    edges, each in games of their own:
    - the band's: one chooser's switch gains 1e-9 against one action of
      the other and nothing against the other action, against which the
      other is indifferent. Only the band admits the other mixing there;
    - the tie window's, with three players in near ties: one chooser
      matches the other's action, the other is indifferent everywhere,
      and the third player makes every cell's welfare 3 up to a multiple
      of WELFARE_TOL / 3, so that mixed candidates land on both sides of
      the window's edges."""
    n = draw(st.sampled_from([2, 3, 3]))
    shapes = [(2, 2)] if n == 2 else [(2, 2, 1), (1, 2, 2), (2, 1, 2)]
    games = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(shapes))
        choosers = [i for i, c in enumerate(shape) if c == 2]
        kind = draw(st.sampled_from(["integers", "floats", "near", "band", "window"]))
        entry = {
            "floats": st.floats(-3.0, 3.0),
            "near": st.sampled_from([0.0, 1.0]),
            "window": st.sampled_from([0.0, 1.0]),
        }.get(kind, st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0]))
        size = 4 * n
        game = np.array(draw(st.lists(entry, min_size=size, max_size=size)))
        game = game.reshape(shape + (n,))
        window = kind == "window" and n == 3
        indifferent = None
        if window:
            matcher, indifferent = draw(st.permutations(choosers))
            own = np.indices(shape)
            game[..., matcher] = own[matcher] == own[indifferent]
        if kind in ("near", "window"):
            nudge = st.lists(st.sampled_from([0.0, 0.0, 1e-9]), min_size=size, max_size=size)
            game += np.reshape(draw(nudge), game.shape)
        if kind == "band":
            other, switcher = draw(st.permutations(choosers))
            b = draw(st.integers(0, 1))
            along = [1] * n
            along[other] = 2
            gains = np.reshape(draw(st.permutations([0.0, 1e-9])), along)
            stay = game[..., switcher].take([b], axis=switcher)
            pair = [stay, stay + gains]
            game[..., switcher] = np.concatenate(pair[:: 1 - 2 * b], axis=switcher)
            line = [slice(None)] * n
            line[switcher] = slice(b, b + 1)
            tie = game[..., other][tuple(line)].take([0], axis=other)
            game[tuple(line) + (other,)] = np.repeat(tie, 2, axis=other)
        elif window or draw(st.booleans()):
            i = indifferent if window else draw(st.sampled_from(choosers))
            game[..., i] = np.repeat(game[..., i].take([0], axis=i), 2, axis=i)
        if window:
            steps = draw(st.lists(st.integers(-3, 6), min_size=4, max_size=4))
            (third,) = set(range(n)) - set(choosers)
            flat = 3.0 - game[..., choosers].sum(axis=-1)
            game[..., third] = flat + np.reshape(steps, shape) * WELFARE_TOL / 3
        games.append(game)
    return games


def test_two_binary_bound_settles_only_pure_answers():
    # Games the bound settles and the pure bar does not.
    by_bound = []

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(two_binary_games())
    def check(games):
        for opt, solve in (("max", swne), ("min", scne)):
            block, decided, picks, values = _level_pass(games, opt, False)
            _block, barred, _picks, _values = _level_pass(games, opt, False, bound=False)
            assert block.two_binary.all() and not block.single.any()
            assert (decided | ~barred).all()
            by_bound.append(int((decided & ~barred).sum()))
            for g in np.flatnonzero(decided).tolist():
                result = solve(_game(games[g]))
                assert result.support.is_pure and result.inconclusive == 0
                assert picks[g] == _solved_pick(result)
                assert values[g].tobytes() == result.values.tobytes()

    check()
    assert sum(by_bound) >= 40


def test_stage_block_marks_two_binary_stages():
    shapes = np.array(
        [[2, 2, 1], [1, 2, 2], [2, 1, 2], [2, 2, 2], [2, 3, 1], [3, 1, 1], [1, 1, 1]],
        dtype=np.int64,
    )
    start = np.concatenate(([0], np.cumsum(shapes.prod(axis=1))))
    block = stage_block(start, shapes)
    assert block.two_binary.tolist() == [True] * 3 + [False] * 4
