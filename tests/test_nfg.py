import hashlib
import itertools
import random
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csgnash.games import MixedProfile, NormalFormGame
from csgnash.nfg_solve import (
    FEASIBILITY_TOL,
    RELAXATION_MARGIN,
    WELFARE_TOL,
    Support,
    _contract_tensor,
    _SupportSystem,
    _corner_search,
    _project_simplex,
    _root_box,
    _rounding_slack,
    _solve_bimatrix,
    _solve_two_mixers,
    _switch_on_support,
    _three_binary_coeffs,
    check_pure_profile,
    enumerate_supports,
    expected_utility,
    filter_dominated,
    presolve_support,
    pure_answer_picks,
    regret,
    relaxation_bound,
    scne,
    single_chooser_picks,
    solve_support,
    support_count,
    swne,
)

from oracle import brute_force_pure_ne
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
        table = system.tables[m]

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
    both mix and the two-mixer closed form gives up. Narrow utility ranges
    make the rank-deficient indifference systems it leaves likely."""
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
    assume(_solve_two_mixers(_SupportSystem(game, support)) is None)
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
        vecs = [_switch_on_support(t, blocks, i) for i, t in enumerate(system.tables)]
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
        "a48c5e3e15783fc603008399985eb547209540f280dcd812c06608d39523289e"
    )


def test_swne_finds_the_best_equilibrium_of_its_support():
    # The support holds equilibria of welfare 12.2917258451 and
    # 12.3823529412 (421/34), both above the bar; the search must return
    # the support's optimum, not the first point above the bar.
    result = swne(_pin_corpus(25)[208])
    assert result.support.sets == ((0, 1), (0, 1), (1,))
    assert result.welfare > 12.38
    assert result.inconclusive == 0
    assert result.regrets.max() <= 1e-6


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
    assert digest == "d99c85554bfd1dfdd0eff3e5d137cd29a5b872836390a3847523ff13e1562ca0"


def test_mixed_solve_support_pin():
    digest = solve_support_digest(_pin_corpus(10), lambda s: _mixers(s) >= 1)
    assert digest == "cadabca0d676f2a71f06a4cf2fbc2a30bebde2685976b28cc516b795a938178b"


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


def test_solve_lp_matches_linprog_bit_for_bit(monkeypatch):
    # `_solve_lp` calls scipy's private HiGHS bindings; `linprog`, its
    # public wrapper, must return the same bits on every LP the solver
    # makes. A scipy release that changes the bindings fails here.
    from scipy.optimize import linprog

    def relaxations():
        for game in _pin_corpus(5):
            for support in enumerate_supports(game):
                if _mixers(support) >= 2:
                    relaxation_bound(_SupportSystem(game, support))

    def one_mixers():
        for game in _pin_corpus(10):
            for support in enumerate_supports(game):
                if _mixers(support) == 1:
                    solve_support(game, support)
        # One player with tied actions: no inequality rows at all.
        tied = NormalFormGame([("a", "b")], np.array([[1.0], [1.0]]))
        solve_support(tied, Support(((0, 1),)))

    relaxation_lps = _recorded_lps(monkeypatch, relaxations)
    one_mixer_lps = _recorded_lps(monkeypatch, one_mixers)
    assert len(relaxation_lps) == 840
    assert len(one_mixer_lps[-1][0][1]) == 0
    classes = {0: "optimal", 2: "infeasible"}
    seen = set()
    for (cost, a_ub, b_ub, lower, upper), (status, x, fun) in (
        relaxation_lps + one_mixer_lps
    ):
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
        assert status == classes.get(res.status, "failed")
        seen.add(status)
        if status == "optimal":
            assert float(fun).hex() == float(res.fun).hex()
            assert x.tobytes() == res.x.tobytes()
    assert seen == {"optimal", "infeasible"}


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
# Batched single-chooser rule


@st.composite
def single_chooser_batches(draw):
    """One to five three-player games in which at most one player has more
    than one action. Integer-valued utilities make exact ties in the
    chooser's own utility and in welfare likely."""
    games = []
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(1, 4))
        shape = [1, 1, 1]
        shape[draw(st.integers(0, 2))] = k
        cells = draw(st.lists(st.integers(-2, 2), min_size=3 * k, max_size=3 * k))
        games.append(np.array(cells, dtype=np.float64).reshape(tuple(shape) + (3,)))
    return games


@settings(max_examples=150, deadline=None, derandomize=True)
@given(single_chooser_batches())
def test_single_chooser_picks_match_per_game_solver(games):
    from unittest import mock

    from csgnash import nfg_solve

    k_max = max(g.size // 3 for g in games)
    block = np.zeros((len(games), k_max, 3))
    chooser = np.zeros(len(games), dtype=np.int64)
    for r, table in enumerate(games):
        cells = table.reshape(-1, 3)
        # Pad by repeating the last action, as the engine does.
        block[r] = cells[[min(a, len(cells) - 1) for a in range(k_max)]]
        chooser[r] = int(np.argmax(table.shape[:-1]))
    tol = nfg_solve.WELFARE_TOL
    for solve, picks in (
        (swne, single_chooser_picks(block, chooser, tol)),
        (scne, single_chooser_picks(-block, chooser, tol)),
    ):
        for r, table in enumerate(games):
            game = NormalFormGame([("a",) * c for c in table.shape[:-1]], table)
            got = block[r, picks[r]]
            result = solve(game)
            assert got.tobytes() == result.values.tobytes()
            assert picks[r] == int(np.argmax(result.profile.probs[chooser[r]]))
            # The general search, without the fast path, picks the same
            # action.
            no_fast_path = mock.patch.object(
                nfg_solve, "_single_chooser_fast_path", lambda g: None
            )
            with no_fast_path:
                general = solve(game)
            assert np.array_equal(got, general.values)
            assert np.array_equal(result.regrets, general.regrets)
            assert picks[r] == int(np.argmax(general.profile.probs[chooser[r]]))


# ---------------------------------------------------------------------------
# Batched pure-answer rule


@st.composite
def multi_chooser_batches(draw):
    """One to three games of one shape: two to four players, of whom at
    least two choose among two or three actions and the others have one.
    Utilities from -2..2, with both zeros, make ties and signed zeros
    likely."""
    n = draw(st.integers(2, 4))
    choosers = draw(st.sets(st.integers(0, n - 1), min_size=2))
    shape = tuple(draw(st.integers(2, 3)) if i in choosers else 1 for i in range(n))
    size = int(np.prod(shape)) * n
    entry = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
    games = draw(st.lists(
        st.lists(entry, min_size=size, max_size=size), min_size=1, max_size=3
    ))
    return np.array(games, dtype=np.float64).reshape((len(games),) + shape + (n,))


def _pure_answers(block: np.ndarray, opt: str):
    """The decided mask, picks and values the engine takes from
    `pure_answer_picks` for the games of `block` under `opt`."""
    won = -block if opt == "min" else block
    decided, picks = pure_answer_picks(won, WELFARE_TOL)
    cells = won.reshape(len(block), -1, block.shape[-1])[np.arange(len(block)), picks]
    cells = cells + 0.0
    return decided, picks, -cells if opt == "min" else cells


def _solved_pick(result) -> int:
    """The flat C-order cell of a pure answer, which must be one-hot."""
    joint = tuple(int(np.argmax(p)) for p in result.profile.probs)
    for p, a in zip(result.profile.probs, joint):
        assert p.tobytes() == np.eye(len(p))[a].tobytes()
    return int(np.ravel_multi_index(joint, [len(p) for p in result.profile.probs]))


def _game(table: np.ndarray) -> NormalFormGame:
    return NormalFormGame([("a",) * c for c in table.shape[:-1]], table)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(multi_chooser_batches())
def test_pure_answer_picks_match_the_solver_bit_for_bit(block):
    for opt, solve in (("max", swne), ("min", scne)):
        decided, picks, values = _pure_answers(block, opt)
        for g in np.flatnonzero(decided).tolist():
            result = solve(_game(block[g]))
            assert result.support.is_pure
            assert values[g].tobytes() == result.values.tobytes()
            assert picks[g] == _solved_pick(result)


def test_pure_answer_picks_send_a_dominated_best_cell_to_the_solver():
    # The prisoner's dilemma's one equilibrium, mutual defection, has
    # welfare 2, below the dominated best cell (6).
    dilemma = np.array([[[3.0, 3.0], [0.0, 5.0]], [[5.0, 0.0], [1.0, 1.0]]])
    decided, _picks, _values = _pure_answers(dilemma[None], "max")
    assert not decided[0]
    assert swne(_game(dilemma)).values.tolist() == [1.0, 1.0]


def test_pure_answer_picks_send_a_game_without_pure_equilibrium():
    # Players 1 and 2 play matching pennies whatever player 3 does, and
    # player 3 matches player 1.
    table = np.zeros((2, 2, 2, 3))
    for a, b, c in itertools.product(range(2), repeat=3):
        match = 1.0 if a == b else -1.0
        table[a, b, c] = (match, -match, 1.0 if c == a else 0.0)
    for opt in ("max", "min"):
        decided, _picks, _values = _pure_answers(table[None], opt)
        assert not decided[0]
    assert not swne(_game(table)).support.is_pure


def test_pure_answer_picks_break_a_welfare_tie_by_cell_order():
    # Two pure equilibria; the later one is better by less than the
    # tolerance, so the first cell wins, as it does in the solver.
    tie = np.zeros((2, 2, 2))
    tie[0, 0] = (1.0, 1.0)
    tie[1, 1] = (1.0, 1.0 + WELFARE_TOL / 2)
    decided, picks, values = _pure_answers(tie[None], "max")
    assert decided[0] and picks[0] == 0
    result = swne(_game(tie))
    assert _solved_pick(result) == 0
    assert values[0].tobytes() == result.values.tobytes()
