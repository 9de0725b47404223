"""Set-level preference operators over a model.

These are the world-independent comparisons between two sets of worlds: the
four quantifier patterns (exists/forall on each side) over the weak or strict
betterness relation, the guard-respecting variants, maximal ("best") worlds,
and the likelihood-style comparison used by the defeasible conditional.  The
syntactic counterparts live in syntax.desugar; keeping both routes separate
lets the test suite compare them instead of trusting one implementation.
"""
from __future__ import annotations

from .model import PreferenceModel, eval_formula, sx_iter_bits
from . import syntax as sx


def check_masks(m: PreferenceModel, *masks: int) -> None:
    """Every world set is an int mask over the model's worlds."""
    if any(x < 0 or x >> m.n for x in masks):
        raise ValueError(f"world mask outside the model's {m.n} worlds")


def sem_lift(m: PreferenceModel, pattern: str, strict: bool, a: int, b: int) -> bool:
    """Compare world sets a and b under one of the four quantifier patterns.

    ee: some a-world sits below some b-world;
    ea: some b-world sits above every a-world;
    ae: every a-world sits below some b-world;
    aa: every a-world sits below every b-world.
    """
    check_masks(m, a, b)
    rows = m.lt if strict else m.leq
    if pattern == "ee":
        return any(rows[s] & b for s in sx_iter_bits(a))
    if pattern == "ae":
        return all(rows[s] & b for s in sx_iter_bits(a))
    if pattern == "aa":
        return all(not (b & ~rows[s]) for s in sx_iter_bits(a))
    if pattern == "ea":
        # some target world reachable from all of a
        for t in sx_iter_bits(b):
            if all(rows[s] >> t & 1 for s in sx_iter_bits(a)):
                return True
        return False
    raise ValueError(f"unknown lift pattern {pattern!r}")


def cp_relation(m: PreferenceModel, guards: list[sx.Formula], strict: bool) -> list[int]:
    """Rows of betterness restricted to worlds agreeing on every guard.

    Guards are grounded, desugared formulas; they are evaluated on the model
    and two worlds are related only if additionally every guard has the same
    truth value at both.  An empty guard list returns the base relation.
    """
    rows = list(m.lt if strict else m.leq)
    for g in guards:
        bits = eval_formula(m, g)
        for w in range(m.n):
            rows[w] &= bits if bits >> w & 1 else ~bits & m.full_mask
    return rows


def cp_lift_aa(m: PreferenceModel, guards: list[sx.Formula], strict: bool,
               a: int, b: int) -> bool:
    """All-all comparison over the guard-respecting relation."""
    check_masks(m, a, b)
    rows = cp_relation(m, guards, strict)
    return all(not (b & ~rows[s]) for s in sx_iter_bits(a))


def best_worlds(m: PreferenceModel, a: int) -> int:
    """Members of a with no strictly better world inside a."""
    check_masks(m, a)
    lt = m.lt
    bits = 0
    for w in sx_iter_bits(a):
        if not (lt[w] & a):
            bits |= 1 << w
    return bits


def halpern_more_likely(m: PreferenceModel, a: int, b: int) -> bool:
    """Every a-world has a strictly better b-world that no a-world beats.

    This is the likelihood reading of "b over a": each world of the dominated
    set a is improved by some undominated witness in b.
    """
    check_masks(m, a, b)
    lt = m.lt
    for s in sx_iter_bits(a):
        found = False
        for v in sx_iter_bits(lt[s] & b):
            if not (lt[v] & a):
                found = True
                break
        if not found:
            return False
    return True
