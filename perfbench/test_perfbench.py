"""The benchmark's own tests, at n = 2: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, *extra: str, trace: int = 0, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    rc, result = run(workload, "--smoke", trace=trace)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["routes-n3", "certify-n3"])
def test_a_wrong_b1_fails_every_op(workload):
    rc, result = run(workload, "--smoke", "--inject-fault")
    assert rc == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        rc, result = run("routes-n3", "--smoke", trace=1)
        assert rc == 0
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["oscillator.state_inits"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    rc, result = run("jet-n3", cwd=str(tmp_path))
    assert rc != 0
    assert result is None


def test_generator_is_seeded_and_real():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from bergman import parse_potential

    a = gen.potential(random.Random("x"), 2, 1)
    assert a == gen.potential(random.Random("x"), 2, 1)
    assert a != gen.potential(random.Random("y"), 2, 1)
    # 4 variables: 20 cubic and 35 quartic monomials, all nonzero, and the Hessian
    assert len(a) == 2 + 20 + 35
    assert a["z1 zb1"] == [{"pi_pow": 1, "re": "-1", "im": "0"}]
    phi = parse_potential(a, 2)
    assert phi.conj() == phi
