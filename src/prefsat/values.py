"""Value incidence as a formal context over the model's worlds.

Worlds are the objects, value symbols (basic value, party) the attributes,
and the model's incidence map the cross table.  `down` maps attribute sets to
the worlds realizing all of them, `up` maps world sets to their shared
attributes; the two form an antitone Galois connection, and the usual concept
lattice operations follow.  Aggregation of value sets comes in two forms
(intersect-then-down and down-then-union) and the second is always contained
in the first.
"""
from __future__ import annotations

from dataclasses import dataclass

from .lifts import sem_lift  # unused here; bench/tracing.py wraps values.sem_lift
from .model import Extension, PreferenceModel
from .ontology import ValueSymbol


def down(m: PreferenceModel, symbols) -> Extension:
    """Worlds at which every given value symbol is observed."""
    bits = m.full_mask
    for sym in symbols:
        bits &= m.incidence_bits(sym)
    return Extension(bits, m.n)


def up(m: PreferenceModel, worlds: Extension) -> frozenset[ValueSymbol]:
    """Value symbols observed at every given world (over the model's symbols)."""
    if worlds.width != m.n:
        raise ValueError(f"extension width does not match model ({m.n} worlds)")
    out = []
    for sym, bits in m.incidence.items():
        if not (worlds.bits & ~bits):
            out.append(sym)
    return frozenset(out)


@dataclass(frozen=True)
class Concept:
    """A Galois-closed pair: extent = down(intent), intent = up(extent)."""

    extent: Extension
    intent: frozenset[ValueSymbol]


def is_concept(m: PreferenceModel, extent: Extension, intent) -> bool:
    intent = frozenset(intent)
    return down(m, intent) == extent and up(m, extent) == intent


def concept_from_intent(m: PreferenceModel, symbols) -> Concept:
    extent = down(m, frozenset(symbols))
    return Concept(extent, up(m, extent))


def concept_meet(m: PreferenceModel, c1: Concept, c2: Concept) -> Concept:
    """Meet: intersect extents, close the united intents."""
    for c in (c1, c2):
        if not is_concept(m, c.extent, c.intent):
            raise ValueError("concept_meet needs Galois-closed inputs")
    extent = c1.extent & c2.extent
    return Concept(extent, up(m, extent))


def concept_join(m: PreferenceModel, c1: Concept, c2: Concept) -> Concept:
    """Join: intersect intents, close the united extents."""
    for c in (c1, c2):
        if not is_concept(m, c.extent, c.intent):
            raise ValueError("concept_join needs Galois-closed inputs")
    intent = c1.intent & c2.intent
    return Concept(down(m, intent), intent)


def aggregate1(m: PreferenceModel, syms1, syms2) -> Extension:
    """Shared-commitment aggregation: worlds realizing the common symbols."""
    return down(m, frozenset(syms1) & frozenset(syms2))


def aggregate2(m: PreferenceModel, syms1, syms2) -> Extension:
    """Either-package aggregation: union of the two realizations.
    Always contained in aggregate1 (fewer shared demands admit more worlds)."""
    return down(m, syms1) | down(m, syms2)
