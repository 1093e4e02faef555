"""Spans around the public functions of each csgnash layer.

The tracer replaces a module attribute with a wrapper that records a span
(id, parent id, op id, name, start, end) and, where a layer has a count
worth keeping, feeds the call's arguments and result to a counter hook.
Only the attribute the caller looks up is wrapped, so ``engine.swne`` is
traced when the engine solves a stage game and ``nfg_solve.solve_support``
when ``swne`` solves a support. Spans stay in memory until ``write``.
Nothing under ``src/`` knows about the tracer; with it uninstalled the
program runs unmodified.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from csgnash import engine, formulas, modelio, nfg_solve, strategies

PATTERNS = ("one_mixer", "two_mixers", "three_binary", "general")


def mixing_pattern(support) -> str:
    """Which per-support solver family a mixed support belongs to, by the
    sizes of its mixing players (the dispatch rule of ``solve_support``)."""
    mixers = sorted(len(s) for s in support.sets if len(s) > 1)
    if len(mixers) == 1:
        return "one_mixer"
    if len(mixers) == 2:
        return "two_mixers"
    if mixers == [2, 2, 2]:
        return "three_binary"
    return "general"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._next_id = 0
        self._stack: list[int] = []
        self._tables: set[bytes] = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._tables = set()

    def _wrap(self, module, attr: str, name, hook=None) -> None:
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            label = name(args) if callable(name) else name
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, tracer.op, label, start, end))
            if hook is not None:
                hook(args, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self) -> None:
        c = self.counts

        def stage_table(args, _game):
            utilities = args[1]
            c["stage_builds"] += 1
            key = repr(utilities.shape).encode() + utilities.tobytes()
            if key in self._tables:
                c["stage_repeats"] += 1
            self._tables.add(key)

        def solved(args, outcome):
            c[f"supports.{mixing_pattern(args[1])}"] += 1
            c[f"supports_{outcome.status}"] += 1

        def presolved(_args, keep):
            c["presolve_calls"] += 1
            c["presolve_pruned"] += not keep

        w = self._wrap
        w(modelio, "load_model", "modelio.load_model")
        w(formulas, "parse_formula", "formulas.parse_formula")
        w(engine, "check_nash_formula", "engine.check_nash_formula")
        w(engine, "build_coalition_game", "games.build_coalition_game")
        w(engine, "compile_objectives", "objectives.compile_objectives")
        w(engine, "check_stopping_assumption", "mdp.check_stopping_assumption")
        w(engine, "mode_closure", "objectives.mode_closure",
          lambda _a, r: c.update(mode_pairs=len(r[0])))
        w(engine, "NormalFormGame", "games.NormalFormGame", stage_table)
        w(engine, "swne", "engine.swne")
        w(engine, "scne", "engine.scne")
        w(nfg_solve, "swne", "nfg_solve.swne")
        w(nfg_solve, "filter_dominated", "nfg_solve.filter_dominated",
          lambda _a, r: c.update(actions_removed=len(r[2])))
        w(nfg_solve, "enumerate_supports", "nfg_solve.enumerate_supports",
          lambda _a, r: c.update(supports_enumerated=len(r)))
        w(nfg_solve, "presolve_support", "nfg_solve.presolve_support", presolved)
        w(nfg_solve, "check_pure_profile", "nfg_solve.check_pure_profile")
        w(nfg_solve, "solve_support",
          lambda a: f"nfg_solve.solve_support.{mixing_pattern(a[1])}", solved)
        w(strategies, "certify_epsilon", "strategies.certify_epsilon")
        w(strategies, "evaluate_profile", "strategies.evaluate_profile")
        w(strategies, "best_response_value", "strategies.best_response_value")

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart\tend\n")
            for span in self.spans:
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % span)

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self, cycles: int, op_time_s: float) -> dict[str, float]:
        """Per-layer totals divided by the number of workload cycles, plus
        ratios. Self time is a span's duration minus its children's."""
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time: dict[int, float] = defaultdict(float)
        names = {}
        for span_id, parent, _op, name, start, end in self.spans:
            names[span_id] = name
            child_time[parent] += end - start
        for span_id, parent, _op, name, start, end in self.spans:
            dur = end - start
            self_time[name] += dur - child_time[span_id]
            calls[name] += 1
            # A solve nested in another solve (scne negates and calls swne)
            # is already inside its parent's total.
            if not (name.endswith("swne") and names.get(parent, "").endswith("ne")):
                total[name] += dur
        c = self.counts
        per = 1.0 / cycles
        support_s = sum(total[f"nfg_solve.solve_support.{p}"] for p in PATTERNS)
        supports_solved = sum(c[f"supports.{p}"] for p in PATTERNS)
        solve_s = sum(
            total[n] for n in ("engine.swne", "engine.scne", "nfg_solve.swne")
        )
        out = {
            "nfg_solve.supports_solved": supports_solved * per,
            "nfg_solve.supports_inconclusive": c["supports_inconclusive"] * per,
            "nfg_solve.useful_ratio": c["supports_candidate"] / supports_solved
            if supports_solved else 0.0,
            "nfg_solve.support_share": support_s / op_time_s if op_time_s else 0.0,
            "nfg_solve.general_share": total["nfg_solve.solve_support.general"] / op_time_s
            if op_time_s else 0.0,
            "nfg_solve.pure_s": total["nfg_solve.check_pure_profile"] * per,
            "nfg_solve.pure_checks": calls["nfg_solve.check_pure_profile"] * per,
            "nfg_solve.presolve_s": total["nfg_solve.presolve_support"] * per,
            "nfg_solve.dominance_s": total["nfg_solve.filter_dominated"] * per,
            "nfg_solve.actions_removed": c["actions_removed"] * per,
            "nfg_solve.supports_enumerated": c["supports_enumerated"] * per,
            "nfg_solve.prune_ratio": c["presolve_pruned"] / c["presolve_calls"]
            if c["presolve_calls"] else 0.0,
            "nfg_solve.self_s": sum(
                self_time[n] for n in ("engine.swne", "engine.scne", "nfg_solve.swne")
            ) * per,
            "nfg_solve.solve_s": solve_s * per,
            "games.stage_build_s": total["games.NormalFormGame"] * per,
            "games.stage_builds": c["stage_builds"] * per,
            "engine.stage_solves": (calls["engine.swne"] + calls["engine.scne"]) * per,
            "engine.stage_repeat_ratio": c["stage_repeats"] / c["stage_builds"]
            if c["stage_builds"] else 0.0,
            "engine.self_s": self_time["engine.check_nash_formula"] * per,
            "engine.check_s": total["engine.check_nash_formula"] * per,
            "objectives.mode_pairs": c["mode_pairs"] * per,
            "strategies.certify_s": total["strategies.certify_epsilon"] * per,
            "strategies.evaluate_s": total["strategies.evaluate_profile"] * per,
            "strategies.best_response_s": total["strategies.best_response_value"] * per,
            "modelio.load_s": total["modelio.load_model"] * per,
            "modelio.loads": calls["modelio.load_model"] * per,
            "formulas.parse_s": total["formulas.parse_formula"] * per,
            "games.coalition_build_s": total["games.build_coalition_game"] * per,
            "objectives.compile_s": total["objectives.compile_objectives"] * per,
            "mdp.assumption_s": total["mdp.check_stopping_assumption"] * per,
        }
        for p in PATTERNS:
            out[f"nfg_solve.support_s.{p}"] = total[f"nfg_solve.solve_support.{p}"] * per
            out[f"nfg_solve.supports.{p}"] = c[f"supports.{p}"] * per
        return out
