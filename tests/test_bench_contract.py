"""The benchmark's hold on the package: every function bench/tracer.py
wraps exists, and bench/make_reference.py, called with the keywords it
passes, still computes reference values equal to the brute-force
oracles. Nothing under bench/ is changed by these tests."""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from epsnet import capacity_levels, format_rational

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
from tracer import SPAN_TARGETS  # noqa: E402


@pytest.mark.parametrize("module,name", SPAN_TARGETS)
def test_span_target_exists(module, name):
    assert callable(getattr(importlib.import_module(f"epsnet.{module}"), name))


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
