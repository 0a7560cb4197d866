"""Fixtures shared by the test modules."""

import pytest

from epsnet import complexity, core, nets, packing


@pytest.fixture
def budgets(monkeypatch):
    """The Budgets the complexity walks, the clique search and the
    minimum-net search make, in the order they make them. A tripped search
    answers a value, so its Budget is where a test reads the nodes spent
    and the error."""
    made = []

    class Recorded(core.Budget):
        def __init__(self, nodes, search):
            super().__init__(nodes, search)
            made.append(self)

    monkeypatch.setattr(complexity, "Budget", Recorded)
    monkeypatch.setattr(packing, "Budget", Recorded)
    monkeypatch.setattr(nets, "Budget", Recorded)
    return made
