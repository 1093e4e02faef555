"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_reduced_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    if trace == "0":
        # The report above the last line names all seven end-to-end metrics.
        for name, unit in run.UNITS.items():
            assert any(l.startswith(f"{name} ") and f" {unit}" in l for l in lines)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "bi-window", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def solved(op):
    return workloads.run(op, workloads.prepare(op))


def test_corrupted_nfg_result_fails():
    op = workloads.nfg_mixed_pass(0, 0, small=True)[2]  # a (3,3) game
    out = solved(op)
    assert workloads.check(op, out, None) is None
    perturbed = dict(out, values=[out["values"][0] + 1e-3] + out["values"][1:])
    assert workloads.check(op, perturbed, None) == "wrong_values"
    pure = [[1.0] + [0.0] * (len(p) - 1) for p in out["probs"]]
    assert workloads.check(op, dict(out, probs=pure), None) == "nash_regret"
    worse = {op.key: [v + 1.0 for v in out["values"]]}
    assert workloads.check(op, out, worse) == "reference_welfare"


def test_corrupted_csg_result_fails():
    op = next(
        op for op in workloads.bi_window_pass(0, 0, small=True)
        if op.label == "public_good_profit"
    )
    op.spec["params"] = {"f": 2.0}
    op.expect = [("sum", 0.0, 1e-6)]
    out = solved(op)
    assert workloads.check(op, out, None) is None
    shifted = [v + 0.5 for v in out["values"]]
    assert workloads.check(op, dict(out, values=shifted, sum=sum(shifted)), None) == "known_answer"
    assert workloads.check(op, dict(out, sum=out["sum"] + 1.0), None) == "sum_mismatch"
    assert workloads.check(op, dict(out, epsilon=1e-3), None) == "epsilon"
    off = {op.key: [v + 1e-3 for v in out["values"]]}
    assert workloads.check(op, out, off) == "reference_values"


def test_not_converged_is_a_failed_op(monkeypatch):
    def diverge(op, game):
        raise run.engine.NotConverged(1.0, 10)

    monkeypatch.setattr(workloads, "run", diverge)
    records, passes = run.measure(workloads.known_defect_pass, 0, False, passes=1)
    assert passes == 1
    assert run.failure_reasons(records, None) == ["not_converged"]


def test_nash_gaps_matches_a_known_equilibrium():
    # Matching pennies: the uniform profile is the unique equilibrium.
    table = np.array([[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]])
    values, regrets = workloads.nash_gaps(table, [[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(values, 0.0) and np.allclose(regrets, 0.0)
    _, regrets = workloads.nash_gaps(table, [[1.0, 0.0], [1.0, 0.0]])
    assert regrets.max() == pytest.approx(2.0)


def test_same_seed_same_inputs():
    for name, pass_fn in workloads.WORKLOADS.items():
        a = [op.key for op in pass_fn(7, 1, False)]
        b = [op.key for op in pass_fn(7, 1, False)]
        assert a == b, name
        assert len(a) % 2 == 1, name


def test_scaled_time_follows_the_probe():
    ref = run.PROBE_REF_S
    assert run.scaled(1.0, ref, ref) == pytest.approx(1.0)
    # Probes twice as slow as the reference: the machine runs at half speed.
    assert run.scaled(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert run.probe() > 0.0
