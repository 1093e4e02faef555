"""Properties of the compile, backward induction, value iteration's
speculative sweeps, certification and export on random small CSGs
(`random_reward_csg`), each compared with the program itself, so they
hold at any numpy and scipy version; of all-pure backward induction,
compared with the brute-force reference; and of bounded certification
of random mixed profiles, compared with the brute-force oracle.

Every player has at most two actions, so that `swne` decides each stage
in its closed forms. A check sums the three players' rewards, either
bounded (`C<=k`, k from 1 to 5 per objective) or until the absorbing
target t, or their probabilities of reaching t, within k steps
(`F<=k`) or ever."""

import dataclasses
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from csgnash.engine import NotConverged, check_nash_formula
from csgnash.formulas import parse_formula
from csgnash.games import RewardStructure
from csgnash.objectives import Core, bounded_core, mode_closure, unbounded_core
from csgnash.strategies import (
    SynthesizedStrategy,
    best_response_value,
    certify_epsilon,
    evaluate_profile,
    export_strategy,
    import_strategy,
)

from oracle import OracleAbstain, reference_backward_induction, reference_profile_values
from test_engine import (
    _absolute_level,
    assert_reuse_matches_replay,
    assert_speculation_changes_nothing,
    compile_for,
)
from test_strategies import _certified_bits, _random_profile, random_reward_csg


@st.composite
def checks(draw, bounded=None, prob=False):
    """A random CSG and a reward (`R{..}`) sum over it or, with `prob`, a
    probability (`P[..]`) sum; `bounded` None draws either horizon. Bounds
    are drawn equal or each on its own. The rewards may be drawn silent
    (all zero): then values repeat from level to level, and backward
    induction and certification copy levels of one template. An unbounded
    `P[F "t"]` is 1 from every state, as every joint action reaches t."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_reward_csg(rng, (2, 2, 2))
    if not prob and draw(st.booleans()):
        model = dataclasses.replace(
            model, rewards={name: RewardStructure() for name in model.rewards}
        )
    opt = draw(st.sampled_from(["max", "min"]))
    if bounded is None:
        bounded = draw(st.booleans())
    if bounded:
        bounds = draw(st.one_of(
            st.integers(1, 5).map(lambda k: [k] * 3),
            st.lists(st.integers(1, 5), min_size=3, max_size=3),
        ))
    if prob:
        paths = [f'F<={k} "t"' for k in bounds] if bounded else ['F "t"'] * 3
        terms = [f"P[{path}]" for path in paths]
    else:
        shapes = [f"C<={k}" for k in bounds] if bounded else ['F "t"'] * 3
        terms = [f'R{{"r{i}"}}[{shape}]' for i, shape in enumerate(shapes, 1)]
    return model, f"<<p1:p2:p3>>{opt}=? ({' + '.join(terms)})"


def _checked(model, prop):
    """The check's result. Value iteration under welfare-optimal stage
    selection may cycle: about one unbounded draw in ten does. Such a
    check has no strategy to certify or export and is set aside, but its
    cycle must have been seen, not run into the sweep cap."""
    try:
        return check_nash_formula(model, parse_formula(prop))
    except NotConverged as error:
        assert error.period is not None
        reject()


def _level_from_flat(core, n0, n1, bounded):
    """What a level over nodes n0:n1 holds, read node by node and row by
    row from the core's flat arrays, every node, row and entry counted
    from the core's first, as `_absolute_level` gives a level."""
    r0, r1 = int(core.start[n0]), int(core.start[n1])
    m = core.compiled.m
    row_nodes, actions, shapes, base, pend, const = [], [], [], [], [], []
    single, padded, chooser, multi = [], [], [], {}
    for p in range(n0, n1):
        s = core.nodes[p][0]
        shape = core.shapes[s]
        shapes.append(shape)
        rows = list(range(core.start[p], core.start[p + 1]))
        for r, joint in zip(rows, itertools.product(*map(range, shape))):
            row_nodes.append(p)
            actions.append(joint)
            base.append(core.state_rewards[s] + core.action_rewards[r])
            pend.append(core.pending[p])
            const.append(core.const[p])
        choosing = [c for c, count in enumerate(shape) if count > 1]
        if rows and len(choosing) <= 1:
            single.append(p)
            padded.append(rows)
            chooser.append(choosing[0] if choosing else 0)
        elif rows:
            multi.setdefault(shape, []).append((p, rows))
    width = max(map(len, padded), default=1)
    groups = {}
    for r in range(r0, r1) if bounded else []:
        entries = range(core.ptr[r], core.ptr[r + 1])
        groups.setdefault(len(entries), []).append((r, entries))
    parts = [
        (n0, n1),
        (r0, r1),
        (int(core.ptr[r0]), int(core.ptr[r1])),
        np.array(row_nodes, dtype=np.int64),
        np.repeat(np.arange(r0, r1), np.diff(core.ptr[r0 : r1 + 1])),
        np.array(actions, dtype=np.int64).reshape(-1, len(core.shapes[0])),
        np.array(shapes, dtype=np.int64),
        np.array(base).reshape(-1, m),
        # Every component of a reward check is cumulative or reach, and
        # no component of a probability check adds a reward.
        np.array(pend, dtype=bool).reshape(-1, m) & (core.compiled.kind == "reward"),
        np.array(pend, dtype=bool).reshape(-1, m),
        np.array(const).reshape(-1, m),
        np.array(single, dtype=np.int64),
        np.array([rows + rows[-1:] * (width - len(rows)) for rows in padded],
                 dtype=np.int64).reshape(-1, width),
        np.array(chooser, dtype=np.int64),
    ]
    for shape, members in multi.items():
        nodes, rows = zip(*members)
        parts += [shape, np.array(nodes), np.array(rows)]
    for k, members in sorted(groups.items()):
        entries = np.array([list(e) for _, e in members], dtype=np.int64).reshape(-1, k)
        parts += [
            np.array([r for r, _ in members]),
            core.succ[entries],
            core.prob[entries][:, None, None, :],
        ]
    return parts


def _same(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype.kind, a.shape, a.tobytes()) == (b.dtype.kind, b.shape, b.tobytes())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(checks())
def test_levels_are_the_flat_arrays_over_their_ranges(case):
    coalition, compiled = compile_for(*case)
    bounded = compiled.horizon == "finite"
    if bounded:
        core = bounded_core(coalition, compiled)
    else:
        core = unbounded_core(coalition, compiled, mode_closure(coalition, compiled)[0])
    stops = [level.nodes.stop for level in core.levels]
    assert [level.nodes.start for level in core.levels] == [0] + stops[:-1]
    assert stops[-1] == len(core.nodes)
    for i, level in enumerate(core.levels):
        n0, n1 = level.nodes.start, level.nodes.stop
        if bounded:
            assert {node[3] for node in core.nodes[n0:n1]} == {i}
            # Every successor lies in the next level.
            after = core.succ[level.entries]
            end = stops[i + 1] if i + 1 < len(stops) else n1
            assert ((after >= n1) & (after < end)).all()
        got = _absolute_level(level)
        want = _level_from_flat(core, n0, n1, bounded)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert _same(a, b)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(checks(bounded=True))
def test_level_reuse_matches_a_replay_on_random_csgs(case):
    assert_reuse_matches_replay(*compile_for(*case))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(checks())
def test_certifying_every_level_gives_the_same_bits(case):
    result = _checked(*case)
    game, compiled = result.coalition_game, result.compiled
    bits = _certified_bits(game, result.strategy, compiled)
    assert min(float.fromhex(gap) for gap in bits["gaps"].values()) >= -1e-12
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Core, "repeats", lambda *args, **kwargs: False)
        assert _certified_bits(game, result.strategy, compiled) == bits


@settings(max_examples=50, deadline=None, derandomize=True)
@given(checks())
def test_an_exported_strategy_imports_and_certifies_to_the_same_bits(case):
    result = _checked(*case)
    game, compiled = result.coalition_game, result.compiled
    first, again = io.StringIO(), io.StringIO()
    export_strategy(result.strategy, first)
    imported = import_strategy(io.StringIO(first.getvalue()))
    export_strategy(imported, again)
    assert again.getvalue() == first.getvalue()
    assert _certified_bits(game, imported, compiled) == _certified_bits(
        game, result.strategy, compiled
    )


# The same four properties on probability sums, each run through the
# reward test's own body.


@settings(max_examples=100, deadline=None, derandomize=True)
@given(checks(prob=True))
def test_probability_levels_are_the_flat_arrays_over_their_ranges(case):
    test_levels_are_the_flat_arrays_over_their_ranges.hypothesis.inner_test(case)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(checks(bounded=True, prob=True))
def test_probability_level_reuse_matches_a_replay_on_random_csgs(case):
    test_level_reuse_matches_a_replay_on_random_csgs.hypothesis.inner_test(case)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(checks(prob=True))
def test_certifying_every_probability_level_gives_the_same_bits(case):
    test_certifying_every_level_gives_the_same_bits.hypothesis.inner_test(case)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(checks(prob=True))
def test_an_exported_probability_strategy_imports_and_certifies_to_the_same_bits(case):
    reward_test = test_an_exported_strategy_imports_and_certifies_to_the_same_bits
    reward_test.hypothesis.inner_test(case)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(checks(bounded=False), checks(bounded=False, prob=True)))
def test_speculative_sweeps_change_no_bit_on_random_csgs(case):
    """Value iteration ends the same, to the bit, with its speculative
    sweeps on and off: the same values, strategy and sweep count, or the
    same `NotConverged` fields."""
    model, prop = case
    nf = parse_formula(prop)
    assert_speculation_changes_nothing(lambda: check_nash_formula(model, nf))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(checks(bounded=True), checks(bounded=True, prob=True)))
def test_all_pure_backward_induction_matches_the_reference(case):
    """Where backward induction plays a pure profile at every node, its
    values are the brute-force reference's, which solves every stage in
    pure strategies. The reference abstains where a stage has no pure
    equilibrium; checks with a mixed stage are set aside."""
    model, prop = case
    result = check_nash_formula(model, parse_formula(prop))
    dists = itertools.chain.from_iterable(result.strategy.table.values())
    if any(np.count_nonzero(dist) != 1 for dist in dists):
        reject()
    try:
        reference = reference_backward_induction(result.coalition_game, result.compiled)
    except OracleAbstain:
        reject()
    for s, values in result.values.items():
        np.testing.assert_allclose(values, reference[s], rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.one_of(checks(bounded=True), checks(bounded=True, prob=True)),
    st.integers(0, 2**32 - 1),
)
def test_bounded_certification_matches_the_brute_force_oracle(case, seed):
    """On a random mixed profile of a bounded check, some entries zero,
    the profile's values, every coalition's best response and every
    certificate gap are the brute-force oracle's, within 1e-9."""
    coalition, compiled = compile_for(*case)
    core = bounded_core(coalition, compiled)
    table = _random_profile(np.random.default_rng(seed), core)
    strategy = SynthesizedStrategy("finite", compiled.max_bound, table, {}, core=core)
    achieved = evaluate_profile(coalition, strategy, compiled)
    want = reference_profile_values(coalition, compiled, table)
    assert achieved.keys() == want.keys()
    for key, values in achieved.items():
        np.testing.assert_allclose(values, want[key], rtol=0, atol=1e-9)
    cert = certify_epsilon(coalition, strategy, compiled)
    sign = 1.0 if compiled.opt == "max" else -1.0
    for i in range(compiled.m):
        responses = best_response_value(coalition, strategy, i, compiled)
        brute = reference_profile_values(coalition, compiled, table, i)
        assert responses.keys() == brute.keys()
        for (s, mode), response in responses.items():
            assert abs(response - brute[s, mode][i]) <= 1e-9
            gap = sign * (brute[s, mode][i] - want[s, mode][i])
            assert abs(cert.gaps[i, s, mode] - gap) <= 1e-9
