"""Property tests: the trace-class enumerations (pi, phi, VC), their
sampled estimates where labelled exact, the capacity table at every
scale, the exact doubling sweep and its budget-tripped bracket, the net verifier and the dyadic buckets
agree with the brute-force oracles on small weighted random spaces, and
their witnesses certify what they claim."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from epsnet import complexity, packing
from epsnet.complexity import (
    alexander_capacity,
    capacity_levels,
    capacity_vector,
    doubling_constant,
    projection_function,
    shallow_cell,
    star_number,
    vc_dimension,
    vc_or_lower_bound,
)
from epsnet.core import build_range_space, mask_of
from epsnet.nets import build_decomposition, verify_net

from oracles import (
    as_sets,
    oracle_doubling,
    oracle_pi,
    oracle_shallow,
    oracle_star,
    oracle_tau,
    oracle_vc,
    set_measure,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def small_spaces(draw):
    """n <= 8 points with weights 0..3 (total >= 1), at most 12 ranges."""
    n = draw(st.integers(1, 8))
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                   .filter(lambda w: sum(w) >= 1))
    ranges = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=12))
    return build_range_space(n, weights, ranges)


@PROPERTY_SETTINGS
@given(small_spaces(), st.data())
def test_projection_function_matches_oracle(space, data):
    y = data.draw(st.integers(0, space.n))
    got = projection_function(space, y)
    assert got.exact and got.value == oracle_pi(space, y)


@PROPERTY_SETTINGS
@given(small_spaces(), st.data())
def test_shallow_cell_matches_oracle(space, data):
    y = data.draw(st.integers(0, space.n))
    l = data.draw(st.integers(0, space.n))
    got = shallow_cell(space, y, l)
    assert got.exact and got.value == oracle_shallow(space, y, l)


@PROPERTY_SETTINGS
@given(small_spaces())
def test_vc_dimension_matches_oracle_with_shattered_witness(space):
    got = vc_dimension(space)
    assert got.exact and got.value == oracle_vc(space)
    if got.value >= 0:
        assert len(got.witness) == got.value
        ymask = mask_of(got.witness)
        assert len({r & ymask for r in space.ranges}) == 1 << got.value


@PROPERTY_SETTINGS
@given(small_spaces(), st.data())
def test_estimates_labelled_exact_match_oracle(space, data):
    # With the exact searches' caps and budget forced low, pi, phi, star
    # and VC come from the sampled estimates; with few draws these often
    # fall short, so a value labelled exact must be one that reached its
    # ceiling, and so equal the oracle.
    y = data.draw(st.integers(0, space.n))
    l = data.draw(st.integers(0, space.n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexity, "DEFAULT_ENUM_CAP", data.draw(st.integers(0, 3)))
        mp.setattr(complexity, "DEFAULT_STAR_CAP", data.draw(st.integers(0, 2)))
        mp.setattr(complexity, "VC_NODES", data.draw(st.integers(1, 3)))
        mp.setattr(complexity, "ESTIMATE_DRAWS", data.draw(st.integers(1, 3)))
        mp.setattr(complexity, "STAR_DRAWS", data.draw(st.integers(1, 3)))
        pi = projection_function(space, y)
        phi = shallow_cell(space, y, l)
        star = star_number(space)
        vc = vc_or_lower_bound(space)
    for got, exact, want in ((pi.value, pi.exact, oracle_pi(space, y)),
                             (phi.value, phi.exact, oracle_shallow(space, y, l)),
                             (star.lower, star.exact, oracle_star(space)),
                             (vc.value, vc.exact, oracle_vc(space))):
        assert got == want if exact else got <= want
    assert oracle_star(space) <= star.upper


@PROPERTY_SETTINGS
@given(small_spaces(), st.data())
def test_capacity_table_matches_oracle_at_every_scale(space, data):
    # Scales at, between and away from the range measures; zero-measure
    # ranges occur because weights may be 0.
    measures = sorted({space.measure(i) for i in range(len(space.ranges))})
    mids = [(a + b) / 2 for a, b in zip(measures, measures[1:])]
    fixed = [Fraction(1), Fraction(1, 2), Fraction(3, 7), Fraction(1, 3),
             Fraction(1, 8), Fraction(1, 16)]
    eps = data.draw(st.sampled_from(fixed + [q for q in measures + mids if q]))
    _, levels = capacity_levels(eps)
    want = [oracle_tau(space, lv) for lv in levels]
    assert alexander_capacity(space, eps) == oracle_tau(space, eps)
    assert capacity_vector(space, eps) == want[1:]
    assert build_decomposition(space, eps).taus == tuple(want)


@PROPERTY_SETTINGS
@given(small_spaces(), st.sampled_from([Fraction(1, 2), Fraction(1, 4),
                                        Fraction(1, 8), Fraction(1, 16)]))
def test_exact_doubling_matches_oracle_with_certified_members(space, eps):
    got = doubling_constant(space, eps, mode="exact")
    assert got.mode == "exact" and got.value == oracle_doubling(space, eps)
    if got.value:
        eps0 = got.eps0
        assert eps <= eps0 <= 1
        assert len(got.members) == got.value
        for i in got.members:
            assert space.measure(i) <= 2 * eps0
        for a, b in combinations(got.members, 2):
            assert space.rho(a, b) >= eps0


@PROPERTY_SETTINGS
@given(small_spaces(), st.sampled_from([Fraction(1, 2), Fraction(1, 4),
                                        Fraction(1, 8), Fraction(1, 16)]),
       st.integers(1, 3))
def test_budget_tripped_doubling_is_a_certified_bracket(space, eps, budget):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(packing, "DEFAULT_CLIQUE_NODES", budget)
        got = doubling_constant(space, eps)
    assert got.lower <= oracle_doubling(space, eps) <= got.upper
    assert got.lower == len(got.members)
    if got.lower:
        eps0 = got.eps0
        assert eps <= eps0 <= 1
        for i in got.members:
            assert space.measure(i) <= 2 * eps0
        for a, b in combinations(got.members, 2):
            assert space.rho(a, b) >= eps0


@PROPERTY_SETTINGS
@given(small_spaces(), st.sampled_from([Fraction(1), Fraction(1, 2),
                                        Fraction(3, 7), Fraction(1, 3),
                                        Fraction(1, 8), Fraction(1, 16)]),
       st.data())
def test_violations_and_buckets_match_fraction_measures(space, eps, data):
    fam = as_sets(space)
    measures = [set_measure(space, r) for r in fam]
    support = [p for p in range(space.n) if space.weights[p]]
    cand = set(data.draw(st.lists(st.sampled_from(support), unique=True)))
    want = tuple(i for i, r in enumerate(fam)
                 if measures[i] >= eps and not r & cand)
    assert verify_net(space, cand, eps).violations == want

    z = 1
    while 2 ** (z - 1) * eps < 1:
        z += 1
    levels = [min(2**i * eps, Fraction(1)) for i in range(z + 1)]
    home = [next((b for b in range(z) if q < levels[b]), z) for q in measures]
    dec = build_decomposition(space, eps)
    assert dec.z == z and list(dec.levels) == levels
    assert dec.buckets == tuple(
        tuple(i for i in range(len(fam)) if home[i] == b) for b in range(z + 1)
    )
