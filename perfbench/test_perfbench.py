"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import exact  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import treeshift  # noqa: E402
from treeshift.moments import det_exact  # noqa: E402


def _random_matrix(rng, n):
    return [[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]


def test_own_determinant_matches_the_programs():
    rng = random.Random(5)
    for n in range(1, 7):
        for _ in range(10):
            m = _random_matrix(rng, n)
            assert exact.determinant(m) == det_exact(m)
    assert exact.determinant([[1, 2], [2, 4]]) == 0


def test_leading_pivots_multiply_to_the_determinant():
    t = gen.beta_moments(F(3, 2), F(1, 2), F(2), 12)
    h = exact.hankel(t, 0, 7)
    pivots, last = exact.leading_pivots(h)
    prod = F(1)
    for p in pivots:
        prod *= p
    assert prod == exact.determinant(h)
    assert last[0] == h[-1][-1] and last[-1] == pivots[-1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    a = workloads.WORKLOADS[name](3, "tiny", tmp_path / "a")
    b = workloads.WORKLOADS[name](3, "tiny", tmp_path / "b")
    assert [op.name for op in a] == [op.name for op in b]
    if name == "cli-docs":
        docs = sorted((tmp_path / "a" / "docs").iterdir())
        assert [p.read_bytes() for p in docs] == [
            (tmp_path / "b" / "docs" / p.name).read_bytes() for p in docs]


def test_seeds_differ():
    assert [c.values for c in gen.hankel_cases(1, "tiny")] != [c.values for c in gen.hankel_cases(2, "tiny")]


def test_deep_violation_leaves_only_the_top_minor_negative():
    case = next(c for c in gen.hankel_cases(4, "tiny") if c.cls == "violated_deep")
    n = len(case.witness_indices)
    h = exact.hankel(case.values, 0, n)
    minors = [exact.determinant([row[:k] for row in h[:k]]) for k in range(1, n + 1)]
    assert all(d > 0 for d in minors[:-1]) and minors[-1] < 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_operation_passes_its_check(name, tmp_path):
    ops = workloads.WORKLOADS[name](2, "tiny", tmp_path)
    for op in ops:
        out = op.run()
        assert op.check(out) is None, op.name
        assert op.digest(out) == op.digest(op.run()), op.name


def test_checks_catch_a_wrong_witness():
    case = next(c for c in gen.hankel_cases(1, "tiny") if c.cls == "violated_shallow")
    verdict = treeshift.stieltjes_check(case.values)
    assert workloads.check_hankel(case, verdict) is None
    import dataclasses
    wrong = dataclasses.replace(verdict.witness, det=verdict.witness.det - 1)
    assert "re-verify" in workloads.check_hankel(case, dataclasses.replace(verdict, witness=wrong))
    consistent = treeshift.stieltjes_check(gen.beta_moments(F(1), F(1), F(1), 12))
    assert "verdict" in workloads.check_hankel(case, consistent)


def test_tracer_nests_spans_and_restores_the_program():
    import treeshift.criteria as criteria
    original = criteria.stieltjes_check
    tracer = spans.Tracer(layers.OBSERVERS)
    tracer.install()
    try:
        assert criteria.stieltjes_check is not original
        assert treeshift.stieltjes_check is criteria.stieltjes_check
        shift = treeshift.WeightedShift(treeshift.make_unilateral_chain(),
                                        treeshift.WeightSystem.from_rule(lambda v: F(1)))
        treeshift.certify_unilateral(shift, 6, m_max=2).to_json()
    finally:
        tracer.uninstall()
    assert criteria.stieltjes_check is original and treeshift.stieltjes_check is original
    names = set(tracer.names)
    assert {"criteria.certify_unilateral", "moments.stieltjes_check", "shifts.moment_sequence",
            "report.to_json"} <= names
    top = [i for i, p in enumerate(tracer.parents) if p < 0]
    wall = sum(tracer.ends[i] - tracer.starts[i] for i in top)
    assert sum(tracer.self_times().values()) == pytest.approx(wall)
    assert tracer.counts["moments.hankel_order_max"] == 4


def _run(argv, cwd):
    return subprocess.run([sys.executable] + argv, cwd=cwd, capture_output=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_contract_line(trace):
    proc = _run(["perfbench/run.py", "--workload", "tree-systems", "--scale", "tiny",
                 "--seconds", "0.2", "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr.decode()
    last = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    if trace:
        detail = json.loads(proc.stdout.decode().strip().splitlines()[-2])
        path = ROOT / ".perfbench_out" / "spans-tree-systems-1.jsonl"
        written = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(written) == detail["spans"]
        assert all(s["parent"] < i and s["start"] <= s["end"] for i, s in enumerate(written))
        assert last["metrics"]["trace.self_sum_frac"]["value"] <= 1.0


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["perfbench/run.py", "--workload", "hankel-exact", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout


def test_output_a_check_cannot_parse_counts_as_failed():
    import run
    op = workloads.Op("certify/struct", "certify", lambda: None, workloads._cli_digest,
                      workloads._struct_check("certified"))
    phase = run.Phase({}, {})
    phase.record(0, op, 0.01, workloads.CliResult(0, b"not json", b""), None)
    assert phase.failed == 1 and "check raised JSONDecodeError" in phase.failures[0]
