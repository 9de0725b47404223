"""Fixed vocabulary of the value layer: contenders, basic values, principles.

This module has no imports from the rest of the package so that both the
syntax layer (which validates names while parsing) and the extension layer
(which computes over models) can depend on it.
"""
from __future__ import annotations


class BasicValue:
    """The four basic values; each is its own name, a plain str."""

    FREEDOM = "FREEDOM"
    UTILITY = "UTILITY"
    SECURITY = "SECURITY"
    EQUALITY = "EQUALITY"


BASIC_VALUES = (BasicValue.FREEDOM, BasicValue.UTILITY, BasicValue.SECURITY, BasicValue.EQUALITY)


# Contenders: exactly two parties, each the other's opponent.
CONTENDERS = ("p", "d")


def other(party: str) -> str:
    """Opponent of a party; involutive by construction."""
    if party == "p":
        return "d"
    if party == "d":
        return "p"
    raise ValueError(f"not a contender: {party!r}")


# A value symbol is a basic value's name indexed by the party it is observed
# for.  With four values and two parties there are exactly eight of them.
ValueSymbol = tuple[str, str]

ALL_VALUE_SYMBOLS: tuple[ValueSymbol, ...] = tuple(
    (v, x) for v in BASIC_VALUES for x in CONTENDERS
)

# Each principle commits to exactly two basic values.  The pairs below cover
# the four adjacent combinations twice, so four extensionally equal pairs
# appear under two names each (WILL=GAIN, RESP=FAIR, STAB=EFFI, RELI=EQUI);
# keeping the duplicate names lets rule text use whichever reading fits.
PRINCIPLES: dict[str, tuple[str, str]] = {
    "WILL": (BasicValue.FREEDOM, BasicValue.UTILITY),
    "RESP": (BasicValue.FREEDOM, BasicValue.EQUALITY),
    "STAB": (BasicValue.SECURITY, BasicValue.UTILITY),
    "RELI": (BasicValue.SECURITY, BasicValue.EQUALITY),
    "EFFI": (BasicValue.UTILITY, BasicValue.SECURITY),
    "GAIN": (BasicValue.UTILITY, BasicValue.FREEDOM),
    "FAIR": (BasicValue.EQUALITY, BasicValue.FREEDOM),
    "EQUI": (BasicValue.EQUALITY, BasicValue.SECURITY),
}
