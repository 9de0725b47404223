"""Shared fixtures and helpers."""
import pytest

from prefsat import solver
from prefsat.model import PreferenceModel


def replace(record, **changes):
    """A copy of a record with some fields changed, built through its
    constructor (as `dataclasses.replace` does for a dataclass)."""
    return type(record)(**{name: getattr(record, name) for name in record._fields} | changes)


@pytest.fixture
def enum_fault(monkeypatch):
    """Make the enumeration oracle report the wrong verdict kind, so that a
    cross-checked query has a disagreement to catch."""
    real = solver.enum_oracle

    def flipped(q):
        v = real(q)
        if v.kind in ("bounded-valid", "no-model"):
            m = PreferenceModel(1, (1,))
            return solver.Countermodel(m, q.bound) if q.mode == "refute" else solver.Satisfiable(m)
        return solver.BoundedValid(q.bound) if q.mode == "refute" else solver.NoModel(q.bound)

    monkeypatch.setattr(solver, "enum_oracle", flipped)
