"""Fuzzed input contract: instance parsing raises only InstanceError, and
the CLI answers every instance file with exit status 0, 1 or 2."""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from epsnet.cli import main
from epsnet.core import InstanceError, RangeSpace

json_scalars = (
    st.none() | st.booleans() | st.integers(-3, 40)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3)
)
json_values = st.recursive(
    json_scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=12,
)


@st.composite
def instance_docs(draw):
    """A small instance document, valid about half the time; otherwise one
    field is an arbitrary JSON value or one range is malformed."""
    n = draw(st.integers(1, 5))
    doc = {
        "n": n,
        "weights": draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
        "ranges": draw(st.lists(
            st.lists(st.integers(0, n - 1), max_size=n), min_size=1, max_size=6,
        )),
    }
    fault = draw(st.sampled_from(["none", "none", "field", "range"]))
    if fault == "field":
        field = draw(st.sampled_from(["n", "weights", "ranges", "name"]))
        doc[field] = draw(json_values)
    elif fault == "range":
        doc["ranges"][0] = draw(json_scalars | st.lists(st.integers(-2, n + 1)))
    return doc


instance_texts = (
    instance_docs().map(json.dumps)
    | json_values.map(json.dumps)
    | st.text(max_size=40)
)

EPS = st.sampled_from(["1/4", "1/2", "1", "0", "3/2", "-1/3", "1/0", "x"])
POINTS = st.sampled_from(["", "0", "0,1", "1,2,5", "9", "-1", "a"])
CLI_SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@settings(max_examples=150, deadline=None)
@given(instance_texts)
def test_loads_returns_space_or_instance_error(text):
    try:
        space = RangeSpace.loads(text)
    except InstanceError:
        return
    assert isinstance(space, RangeSpace)


@CLI_SETTINGS
@given(instance_texts, EPS, POINTS)
def test_verify_exit_status_contract(tmp_path, capsys, text, eps, points):
    inst = tmp_path / "inst.json"
    inst.write_text(text, encoding="utf-8")
    argv = ["verify", str(inst), f"--eps={eps}", f"--points={points}"]
    assert main(argv) in (0, 1, 2)
    capsys.readouterr()


@CLI_SETTINGS
@given(instance_texts, EPS)
def test_profile_exit_status_contract(tmp_path, capsys, text, eps):
    inst = tmp_path / "inst.json"
    inst.write_text(text, encoding="utf-8")
    assert main(["profile", str(inst), f"--eps={eps}"]) in (0, 1, 2)
    capsys.readouterr()
