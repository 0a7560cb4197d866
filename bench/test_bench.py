"""Self-test of the benchmark.

    python3 -m pytest -q bench/test_bench.py

Runs every workload at a tiny size, checks that every metric named in
BENCHMARK.json is printed with its unit, that traced counts repeat
exactly, that the checkers flag a corrupted net, a wrong exact value and
a bad sweep row, and that the benchmark refuses to run without the
program's sources. Takes under a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import instances  # noqa: E402
from epsnet import compute_profile, greedy_net  # noqa: E402
from tracer import COUNT_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def assert_metrics(lines, result, spec_metrics, workload):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    got = result["metrics"]
    assert set(got) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        assert got[m["name"]]["unit"] == m["unit"]
        assert isinstance(got[m["name"]]["value"], (int, float))
        assert any(line.startswith(f"{workload} {m['name']} = ")
                   and f" {m['unit']}" in line for line in lines[:-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    lines, result = result_of(bench("--workload", workload, "--seed", "3",
                                    "--seconds", "1", "--trace", "0",
                                    "--size", "tiny"))
    assert_metrics(lines, result, SPEC["end_to_end"], workload)
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        lines, result = result_of(bench("--workload", workload, "--seed", "5",
                                        "--seconds", "1", "--trace", "1",
                                        "--size", "tiny"))
        assert_metrics(lines, result, SPEC["per_layer"], workload)
        runs.append(result["metrics"])
    for name in COUNT_METRICS:
        assert runs[0][name]["value"] == runs[1][name]["value"], name
    assert runs[0]["trace.overhead_ratio"]["value"] > 0


def test_checker_flags_a_corrupted_net():
    space = instances.nets_instances()[0][0]
    eps = Fraction(1, 8)
    heavy = check.heavy_sets(space, eps)
    min_net = REFERENCE["nets"][space.name]["min_net"]["1/8"]
    report = greedy_net(space, eps)
    assert check.net_problems(space, eps, "greedy", report, heavy, min_net) == []
    # Dropping a point of a minimal-ish greedy net leaves a heavy range
    # unhit, whether the report still claims a net or admits the miss.
    for p in report.points:
        points = tuple(q for q in report.points if q != p)
        if not check.is_net(space, points, heavy):
            break
    for claimed in (True, False):
        corrupted = replace(report, points=points, is_net=claimed)
        assert check.net_problems(space, eps, "greedy", corrupted, heavy, min_net)
    # A one-shot builder's honest miss is not a failure.
    miss = replace(report, method="iid", points=points, is_net=False)
    assert check.net_problems(space, eps, "iid", miss, heavy, min_net) == []


def test_checker_flags_a_wrong_exact_value_and_a_missed_bound():
    space = instances.profile_instances()[0]  # disks14, every field exact
    ref = REFERENCE["profile"][space.name]
    doc = compute_profile(space, Fraction(1, 8)).to_dict()
    problems, exact, total = check.check_profile(doc, ref, space)
    assert problems == [] and exact == total

    wrong = json.loads(json.dumps(doc))
    wrong["vc"]["value"] += 1
    assert check.check_profile(wrong, ref, space)[0]

    wrong = json.loads(json.dumps(doc))
    wrong["pi"][5]["value"] -= 1
    wrong["pi"][5]["exact"] = False  # a lower bound below the truth is fine
    assert check.check_profile(wrong, ref, space)[0] == []
    wrong["pi"][5]["value"] += 2  # a lower bound above the truth is not
    assert check.check_profile(wrong, ref, space)[0]

    wrong = json.loads(json.dumps(doc))
    wrong["doubling"].update(mode="bracket", lower=1, upper=2.0)
    assert check.check_profile(wrong, ref, space)[0]


def test_checker_flags_bad_sweep_rows():
    ref = REFERENCE["sweep"]["instances"]
    want = ref["chain8"]["1/8"]
    row = dict(want, instance="chain8", eps="1/8", method="greedy",
               seed="0", size=want["min_net"], is_net="true", draws="0")
    assert check.check_sweep_row(row, ref) == []
    assert check.check_sweep_row(dict(row, is_net="false"), ref)
    assert check.check_sweep_row(dict(row, d=str(int(want["d"]) + 1)), ref)
    assert check.check_sweep_row(dict(row, method="exact",
                                      size=str(int(want["min_net"]) + 1)), ref)


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "nets", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:  # a benchmark run still uses it
            pass
