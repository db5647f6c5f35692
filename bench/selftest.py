"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q bench/selftest.py

The smoke runs take a few minutes: each runs one round of a workload.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def first_rounds(name: str, seed: int, count: int = 2):
    rounds = workloads.make(name, ROOT).rounds(seed)
    return [next(rounds) for _ in range(count)]


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generator_is_a_function_of_the_seed(name):
    assert first_rounds(name, 7) == first_rounds(name, 7)
    assert first_rounds(name, 7) != first_rounds(name, 8)


def test_benchmark_json_matches_the_harness():
    # forest-build stays runnable by hand but is not gated (see README.md)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS[1:])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    report = json.loads(report_line)["report"]
    if trace:
        assert report["self_check"] == "exact counts repeated"


def test_exact_counts_repeat_across_two_traced_runs_of_one_seed():
    counts = []
    for _ in range(2):
        proc = bench("--workload", "forest-build", "--seed", "5", "--seconds", "0",
                     "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: metrics[k]["value"] for k in run.SELF_CHECKED})
    assert counts[0] == counts[1]
    assert counts[0]["algebra.terms_out"] > 0


@pytest.mark.parametrize("name", ["forest-build", "affine-exponent", "mc-oracle"])
def test_program_receives_only_generated_inputs(name):
    """The request is plain data and alone determines what the program returns."""
    wl = workloads.make(name, ROOT)
    ctx = wl.setup()
    request = min(first_rounds(name, 11, 1)[0], key=lambda r: json.dumps(r))
    copy = json.loads(json.dumps(request))
    assert copy == request
    first, again = wl.execute(request, ctx), wl.execute(copy, ctx)
    if name == "affine-exponent":
        assert (first["sol"].g == again["sol"].g).all()
        first = {k: v for k, v in first.items() if k != "sol"}
        again = {k: v for k, v in again.items() if k != "sol"}
    assert repr(first) == repr(again)


def test_cli_child_sees_the_generated_argv_and_only_a_search_path(monkeypatch):
    wl = workloads.make("cli-cold", ROOT)
    seen = []

    def fake_child(argv, env, cwd):
        seen.append((argv, env))
        return 0, b"{}", b"", 1.0

    monkeypatch.setattr(workloads, "run_child", fake_child)
    for request in first_rounds("cli-cold", 4, 1)[0]:
        wl.execute(request, None)
        argv, env = seen[-1]
        assert argv == [sys.executable, "-m", "diamond_forests.cli", *request["argv"]]
        assert {k for k in env if env[k] != os.environ.get(k)} == {"PYTHONPATH"}


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "forest-build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
