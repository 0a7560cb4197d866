"""The benchmark's hold on the package: every function bench/tracer.py
wraps exists and importing epsnet.cli loads its module, every builder
call of bench/run.py's nets workload binds to the builder's signature
with each value on the parameter it means, and bench/make_reference.py,
called with the keywords it passes, still computes reference values
equal to the brute-force oracles. Nothing under bench/ is changed by
these tests."""

import importlib
import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from epsnet import capacity_levels, format_rational
from epsnet.experiment import ExperimentConfig

from corpus import CORPUS
from oracles import (
    oracle_doubling,
    oracle_pi,
    oracle_shallow,
    oracle_star,
    oracle_tau,
    oracle_vc,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import make_reference  # noqa: E402
import run as bench_run  # noqa: E402
from instances import SWEEP_METHODS  # noqa: E402
from tracer import SPAN_TARGETS  # noqa: E402


@pytest.mark.parametrize("module,name", SPAN_TARGETS)
def test_span_target_exists(module, name):
    assert callable(getattr(importlib.import_module(f"epsnet.{module}"), name))


def test_importing_the_cli_loads_every_span_target_module():
    # Tracer.install() imports epsnet.cli alone and then looks each
    # SPAN_TARGETS module up in sys.modules, so a CLI that imported one
    # of them lazily would make `bench/run.py --trace 1` a KeyError.
    modules = sorted({f"epsnet.{module}" for module, _ in SPAN_TARGETS})
    code = ("import sys, epsnet.cli; "
            "print(*[m for m in sys.argv[1:] if m not in sys.modules])")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    out = subprocess.run([sys.executable, "-c", code, *modules], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_nets_workload_calls_bind_to_the_builder_signatures():
    # The nets workload calls the builders positionally, so a reordered or
    # renamed parameter fails here rather than in the benchmark: each
    # argument must land on the parameter whose value it carries.
    work = bench_run.NetsWorkload.__new__(bench_run.NetsWorkload)
    work.setup()
    config, seed = ExperimentConfig(), 12345
    pins = {space.name: (d, D) for space, d, D in work.spaces}
    methods = set()
    for method, space, eps, fn in work.ops(seed):
        methods.add(method)
        d, D = pins[space.name]
        want = {"space": space, "eps": eps, "seed": seed, "C": config.C,
                "delta": config.delta, "budget_n": config.cal_budget,
                "d": d, "D": D,
                "sizing": "capacity" if method == "iid-capacity" else "vc"}
        bound = inspect.signature(fn.func).bind(*fn.args, **fn.keywords)
        for name, value in bound.arguments.items():
            assert value == want[name], (method, name, value)
    assert methods == {*SWEEP_METHODS, "oig"}


def test_profile_reference_matches_oracles():
    sp = CORPUS["chain8"]
    eps = Fraction(1, 4)
    ref = make_reference.profile_reference(sp, eps)
    _, levels = capacity_levels(eps)
    assert ref["vc"] == oracle_vc(sp)
    assert ref["tau"] == format_rational(oracle_tau(sp, eps))
    assert ref["tau_vector"] == [format_rational(oracle_tau(sp, lv))
                                 for lv in levels[1:]]
    assert ref["doubling"] == oracle_doubling(sp, eps)
    assert ref["pi"] == {str(y): oracle_pi(sp, y) for y in range(sp.n + 1)}
    assert ref["star"] == oracle_star(sp)
    phi = ref["phi"]
    assert phi["value"] == oracle_shallow(sp, phi["y"], phi["l"])
    # chain8's phi row spans every point, so it never reaches shallow_cell
    assert make_reference.true_phi(sp, 3, 1) == oracle_shallow(sp, 3, 1)


@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 16)])
def test_profile_reference_capacity_on_a_weighted_space(eps):
    # chain8 is uniform with few distinct measures; random12w has 22
    # distinct range weights, so every level of tau_vector is a different
    # suffix of the capacity table.
    sp = CORPUS["random12w"]
    ref = make_reference.profile_reference(sp, eps)
    _, levels = capacity_levels(eps)
    assert ref["tau"] == format_rational(oracle_tau(sp, eps))
    assert ref["tau_vector"] == [format_rational(oracle_tau(sp, lv))
                                 for lv in levels[1:]]
