"""Tests of the benchmark itself (not of lfcheck).

    python3 -m pytest -q perfbench

Every workload runs at smoke size, the checker must go red when any
expected value is corrupted, and the metric names printed must be the
ones BENCHMARK.json declares.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from check import check  # noqa: E402
from gen import WORKLOADS, make_inputs  # noqa: E402
from run import WORK, Client, tail  # noqa: E402


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _run_bench(cwd: str, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_declared_metrics(workload, trace):
    proc = _run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                      "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    want = _declared("per_layer" if trace == "1" else "end_to_end")
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    assert got == want
    printed = {ln.split(" = ")[0] for ln in lines if " = " in ln}
    assert printed == set(want)


def _files(work: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(work)):
        if name.endswith((".tsv", ".hyp")):
            with open(os.path.join(work, name), "rb") as fh:
                out[name] = fh.read()
    return out


def test_same_seed_same_inputs():
    work = os.path.join(ROOT, WORK)
    for w in WORKLOADS:
        a = make_inputs(w, 9, work, smoke=True)
        files = _files(work)
        b = make_inputs(w, 9, work, smoke=True)
        assert a == b and _files(work) == files
        assert len({repr(make_inputs(w, s, work, smoke=True)) for s in range(5)}) > 1


def _corruptions(cmd):
    """Copies of cmd whose expected outcome is wrong in one value."""
    for key, value in cmd.expect.items():
        bad = copy.deepcopy(cmd)
        if isinstance(value, int):
            bad.expect[key] = value + 1
        elif isinstance(value, list):
            bad.expect[key] = value + [2]
        elif key == "case":
            bad.expect[key] = "4.2" if value != "4.2" else "4.1"
        else:
            bad.expect[key] = value.replace(":", ";", 1) + "x"
        yield key, bad
    other = copy.deepcopy(cmd)
    other.kind = "tamper" if cmd.kind != "tamper" else "bridge"
    yield "kind", other


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checker_goes_red_on_corrupted_expectations(workload):
    os.chdir(ROOT)
    inputs = make_inputs(workload, 7, WORK, smoke=True)
    client = Client()
    for cmd in inputs.batch + inputs.controls:
        r = client.run(cmd)
        assert check(cmd, r.code, r.out, r.err) == [], cmd.argv
        assert check(cmd, r.code + 1, r.out, r.err), cmd.argv
        for key, bad in _corruptions(cmd):
            assert check(bad, r.code, r.out, r.err), (cmd.argv, key)


def test_tail_is_the_point_with_ten_samples_above():
    values = [float(i) for i in range(100)]
    assert tail(values) == (89.0, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = _run_bench(str(tmp_path), "--workload", "symbolic", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
