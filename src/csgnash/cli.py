"""Command-line interface.

Exit codes: 0 success (threshold satisfied at every initial state, or a
numeric query), 1 usage or input error, 2 threshold unsatisfied, 3 value
iteration did not converge, 4 the objective-settling assumption failed.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import math
import sys
from pathlib import Path

from . import casestudies
from .engine import (
    AssumptionViolation,
    NotConverged,
    VIConfig,
    check_nash_formula,
)
from .formulas import FormulaError, NashFormula, parse_formula
from .games import validate_csg
from .modelio import ModelError, load_model, load_nfg, model_params
from .nfg_solve import NoEquilibriumError, scne, swne
from .objectives import UnsupportedFormulaError
from .strategies import certify_epsilon, export_strategy

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSAT = 2
EXIT_NOT_CONVERGED = 3
EXIT_ASSUMPTION = 4


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _vi_config(args) -> VIConfig:
    """--epsilon and --max-iters; ModelError naming the flag whose value
    VIConfig rejects."""
    for flag, name in (("--epsilon", "epsilon"), ("--max-iters", "max_iters")):
        try:
            VIConfig(**{name: getattr(args, name)})
        except ValueError as exc:
            raise ModelError(f"{flag}: {exc}") from None
    return VIConfig(epsilon=args.epsilon, max_iters=args.max_iters)


def _split_pairs(pairs) -> list[tuple[str, str]]:
    out = []
    for pair in pairs or []:
        if "=" not in pair:
            raise ModelError(f"expected name=value, got {pair!r}")
        out.append(tuple(pair.split("=", 1)))
    return out


def _parse_consts(pairs) -> dict[str, float]:
    out = {}
    for name, value in _split_pairs(pairs):
        try:
            out[name] = float(value)
        except ValueError:
            raise ModelError(f"expected a number for {name!r}, got {value!r}") from None
    return out


def _require_nash(formula) -> NashFormula:
    if not isinstance(formula, NashFormula):
        raise FormulaError("top-level property must be an equilibrium formula")
    return formula


def cmd_check(args) -> int:
    model = load_model(args.model, _parse_consts(args.const))
    nf = _require_nash(parse_formula(args.prop))
    result = check_nash_formula(model, nf, _vi_config(args))
    for s in model.initial:
        parts = [
            f"state {model.state_names[s]}:",
            "values",
            " ".join(_fmt(v) for v in result.values[s]),
            "sum",
            _fmt(result.sums[s]),
        ]
        if result.sat is not None:
            parts += ["sat", "yes" if result.sat[s] else "no"]
        print(" ".join(parts))
    if result.iterations:
        print(f"iterations {result.iterations}")
    if result.inconclusive:
        print(f"inconclusive-supports {result.inconclusive}")
    if args.certify:
        cert = certify_epsilon(
            result.coalition_game, result.strategy, result.compiled
        )
        print(f"achieved-epsilon {_fmt(cert.epsilon)}")
    if args.export_strategy:
        export_strategy(result.strategy, args.export_strategy)
        print(f"strategy written to {args.export_strategy}")
    if result.sat is not None and not all(
        result.sat[s] for s in model.initial
    ):
        return EXIT_UNSAT
    return EXIT_OK


def cmd_solve_nfg(args) -> int:
    game = load_nfg(args.file)
    result = swne(game) if args.mode == "swne" else scne(game)
    print(f"mode {args.mode}")
    print("values " + " ".join(_fmt(v) for v in result.values))
    print("welfare " + _fmt(result.welfare))
    for i, probs in enumerate(result.profile.probs):
        terms = [
            f"{game.action_names[i][a]}={_fmt(p)}"
            for a, p in enumerate(probs)
            if p > 0
        ]
        print(f"profile player {i + 1}: " + " ".join(terms))
    print("regrets " + " ".join(_fmt(r) for r in result.regrets))
    if result.inconclusive:
        print(f"inconclusive-supports {result.inconclusive}")
    return EXIT_OK


def _sweep_points(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to stop; ModelError unless that is a
    non-empty, finite list."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise ModelError(
            f"sweep range must be finite: --from {start} --to {stop} --step {step}"
        )
    if step <= 0:
        raise ModelError(f"sweep step must be positive, got --step {step}")
    points = []
    value = start
    while value <= stop + 1e-12:
        points.append(round(value, 12))
        if value + step == value:
            raise ModelError(f"sweep step {step} is too small to move from {value}")
        value += step
    if not points:
        raise ModelError(f"empty sweep range: --from {start} is above --to {stop}")
    return points


def cmd_sweep(args) -> int:
    nf = _require_nash(parse_formula(args.prop))
    vi = _vi_config(args)
    declared = model_params(args.model)
    if args.param not in declared:
        raise ModelError(f"model declares no parameter {args.param!r}")
    points = _sweep_points(args.start, args.stop, args.step)
    rows = []
    m = None
    for point in points:
        model = load_model(args.model, {args.param: point})
        result = check_nash_formula(model, nf, vi)
        s0 = model.initial[0]
        cert = certify_epsilon(
            result.coalition_game, result.strategy, result.compiled
        )
        m = result.compiled.m
        rows.append(
            [point]
            + [float(v) for v in result.values[s0]]
            + [result.sums[s0], result.iterations, cert.epsilon]
        )
    header = (
        [args.param]
        + [f"v{i + 1}" for i in range(m)]
        + ["sum", "iterations", "epsilon"]
    )
    with open(args.csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) if isinstance(x, float) else x for x in row])
    print(f"wrote {len(rows)} rows to {args.csv}")
    return EXIT_OK


def cmd_info(args) -> int:
    model = load_model(args.model, _parse_consts(args.const))
    report = validate_csg(model)
    branches = sum(len(d) for d in model.transitions.values())
    max_actions = [
        max(len(model.choices(s, i)) for s in range(model.n_states))
        for i in range(model.n_players)
    ]
    print(f"players {' '.join(model.players)}")
    print(f"states {model.n_states}")
    print(f"choices {len(model.transitions)}")
    print(f"transitions {branches}")
    print("max-actions " + " ".join(str(c) for c in max_actions))
    print(f"initial {' '.join(model.state_names[s] for s in model.initial)}")
    print(f"valid {'yes' if report.ok else 'no'}")
    if not report.ok:
        print(report)
        return EXIT_ERROR
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.name == "all":
        out_dir = Path(args.output or casestudies.MODELS_DIR)
        names = casestudies.generate_bundled(out_dir)
        for name in names:
            print(f"wrote {out_dir / name}")
        return EXIT_OK
    if args.name not in casestudies.BUILDERS:
        raise ModelError(
            f"unknown model {args.name!r}; pick from "
            f"{', '.join(sorted(casestudies.BUILDERS))} or 'all'"
        )
    builder = casestudies.BUILDERS[args.name]
    params = inspect.signature(builder).parameters
    kwargs = {}
    for key, value in _split_pairs(args.set):
        if key not in params:
            raise ModelError(
                f"{args.name} has no parameter {key!r}; pick from {', '.join(params)}"
            )
        try:
            kwargs[key] = int(value)
        except ValueError:
            try:
                kwargs[key] = float(value)
            except ValueError:
                kwargs[key] = value
    try:
        doc = builder(**kwargs)
    except ValueError as exc:
        raise ModelError(str(exc)) from None
    out = args.output or f"{doc['name']}.json"
    casestudies.write_model(doc, out)
    print(f"wrote {out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_ERROR; argparse's own 2 would read as
    threshold unsatisfied. Subparsers are made from this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="csgnash",
        description="Equilibrium model checking for concurrent stochastic games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="evaluate an equilibrium property")
    check.add_argument("model")
    check.add_argument("--prop", required=True, help="property to check")
    check.add_argument("--epsilon", type=float, default=1e-6)
    check.add_argument("--max-iters", type=int, default=10_000)
    check.add_argument("--export-strategy", metavar="FILE")
    check.add_argument("--certify", action="store_true")
    check.add_argument("--const", action="append", metavar="NAME=VALUE")
    check.set_defaults(func=cmd_check)

    solve = sub.add_parser("solve-nfg", help="solve a matrix game")
    solve.add_argument("file")
    solve.add_argument("--mode", choices=("swne", "scne"), default="swne")
    solve.set_defaults(func=cmd_solve_nfg)

    sweep = sub.add_parser("sweep", help="evaluate a property over a parameter range")
    sweep.add_argument("model")
    sweep.add_argument("--prop", required=True)
    sweep.add_argument("--param", required=True)
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--step", type=float, required=True)
    sweep.add_argument("--csv", required=True)
    sweep.add_argument("--epsilon", type=float, default=1e-6)
    sweep.add_argument("--max-iters", type=int, default=10_000)
    sweep.set_defaults(func=cmd_sweep)

    info = sub.add_parser("info", help="print model statistics")
    info.add_argument("model")
    info.add_argument("--const", action="append", metavar="NAME=VALUE")
    info.set_defaults(func=cmd_info)

    gen = sub.add_parser("generate", help="write case-study model files")
    gen.add_argument("name")
    gen.add_argument("-o", "--output")
    gen.add_argument("--set", action="append", metavar="KEY=VALUE")
    gen.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AssumptionViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (
        ModelError, FormulaError, UnsupportedFormulaError, NoEquilibriumError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
