"""Pinned benchmark instances, built through epsnet's public generators.

Every instance is a deterministic function of its name; the workload
seed only picks the `--seed` values and construction seeds. Generators
are looked up on the package at call time, so the tracing wrappers see
the calls.
"""

from fractions import Fraction

import epsnet as E
from epsnet.generators import random_points

EPS_PROFILE = Fraction(1, 8)
EPS_SWEEP = (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
EPS_NETS = (Fraction(1, 8), Fraction(1, 16))
SWEEP_METHODS = ("iid", "iid-capacity", "stratified", "doubling",
                 "doubling-small", "cal", "greedy", "exact")


def profile_instances():
    """The `profile` workload's instances, in cycle order."""
    return [
        E.gen_geometric("disks", random_points(14, 2, seed=3), name="disks14"),
        E.gen_geometric("intervals", random_points(24, 1, seed=3),
                        name="intervals24"),
        E.gen_random(20, 300, "uniform", "uniform", seed=1),
        E.gen_lower_bound_family(E.LowerBoundParams(k=2, d=3, l=2, m=3)),
    ]


def nets_instances():
    """(space, d, D) for the `nets` workload. d is the exact VC dimension
    (computed with the caps lifted, see make_reference.py) and D is the
    doubling value the sweep would use (exact lower value, or the bracket's
    upper end), pinned so that no VC or doubling search runs per op."""
    return [
        (E.gen_geometric("intervals", random_points(40, 1, seed=7),
                         name="intervals40"), 2, 741.0),
        (E.gen_geometric("halfplanes", random_points(30, 2, seed=7),
                         name="halfplanes30"), 3, 871.0),
        (E.gen_random(20, 300, "uniform", "uniform", seed=1), 6, 48.0),
    ]


def _singletons(n, name):
    return E.build_range_space(n, [1] * n, [[i] for i in range(n)], name=name)


def _chain(n, name):
    return E.build_range_space(
        n, [1] * n, [list(range(i + 1)) for i in range(n)], name=name)


def corpus():
    """The 14-instance reference corpus of the test suite, in its order."""
    iv8 = E.gen_geometric("intervals", list(range(8)),
                          weights=[5, 1, 1, 1, 3, 1, 1, 2])
    return [
        _singletons(8, "singles8"),
        E.build_range_space(
            3, [1, 1, 1],
            [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]],
            name="powerset3"),
        E.build_range_space(8, [1] * 8, [[0], [2], [4], [6]],
                            name="sparse-singles8"),
        _chain(8, "chain8"),
        E.gen_geometric("intervals", list(range(6)), name="intervals6"),
        E.build_range_space(
            iv8.n, list(iv8.weights),
            [[p for p in range(iv8.n) if r >> p & 1] for r in iv8.ranges],
            name="intervals8w"),
        E.gen_lower_bound_family(E.LowerBoundParams(k=1, d=2, l=1, m=2)),
        E.gen_lower_bound_family(E.LowerBoundParams(k=1, d=2, l=2, m=2)),
        E.gen_lower_bound_family(E.LowerBoundParams(k=2, d=3, l=1, m=2)),
        E.gen_random(10, 20, "uniform", "ones", seed=7, name="random10a"),
        E.gen_random(10, 25, "geometric", "ones", seed=8, name="random10b"),
        E.gen_random(12, 30, "uniform", "uniform", seed=9, name="random12w"),
        E.gen_geometric("halfplanes", [(0, 0), (4, 0), (4, 4), (0, 4), (2, 1)],
                        name="halfplanes5"),
        E.gen_geometric("disks", [(0, 0), (4, 0), (0, 4), (3, 3), (1, 1)],
                        name="disks5"),
    ]


def sweep_config(inline: list, seeds) -> dict:
    """`epsnet experiment` config of the sweep: the corpus written inline
    (as `{"inline": space.to_dict()}` entries), every eps and method."""
    return {
        "instances": inline,
        "eps": [f"{e.numerator}/{e.denominator}" for e in EPS_SWEEP],
        "methods": list(SWEEP_METHODS),
        "seeds": list(seeds),
    }
