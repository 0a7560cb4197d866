"""Property tests: the trace-class enumerations (pi, phi, VC), the exact
doubling sweep, the net verifier and the dyadic buckets agree with the
brute-force oracles on small weighted random spaces, and their witnesses
certify what they claim."""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from epsnet.complexity import (
    doubling_constant,
    projection_function,
    shallow_cell,
    vc_dimension,
)
from epsnet.core import build_range_space, mask_of
from epsnet.nets import build_decomposition, verify_net

from oracles import (
    as_sets,
    oracle_doubling,
    oracle_pi,
    oracle_shallow,
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
