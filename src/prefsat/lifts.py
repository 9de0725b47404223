"""Set-level preference operators over a model.

These are the world-independent comparisons between two sets of worlds: the
four quantifier patterns (exists/forall on each side) over the weak or strict
betterness relation, the guard-respecting variants, maximal ("best") worlds,
and the likelihood-style comparison used by the defeasible conditional.  The
syntactic counterparts live in syntax.desugar; keeping both routes separate
lets the test suite compare them instead of trusting one implementation.
"""
from __future__ import annotations

from .model import Extension, PreferenceModel, eval_formula, sx_iter_bits
from . import syntax as sx


def _check_args(m: PreferenceModel, a: Extension, b: Extension) -> None:
    if a.width != m.n or b.width != m.n:
        raise ValueError(f"extension width does not match model ({m.n} worlds)")


def sem_lift(m: PreferenceModel, pattern: str, strict: bool, a: Extension, b: Extension) -> bool:
    """Compare world sets a and b under one of the four quantifier patterns.

    ee: some a-world sits below some b-world;
    ea: some b-world sits above every a-world;
    ae: every a-world sits below some b-world;
    aa: every a-world sits below every b-world.
    """
    _check_args(m, a, b)
    rows = m.lt if strict else m.leq
    if pattern == "ee":
        return any(rows[s] & b.bits for s in sx_iter_bits(a.bits))
    if pattern == "ae":
        return all(rows[s] & b.bits for s in sx_iter_bits(a.bits))
    if pattern == "aa":
        return all(not (b.bits & ~rows[s]) for s in sx_iter_bits(a.bits))
    if pattern == "ea":
        # some target world reachable from all of a
        for t in sx_iter_bits(b.bits):
            if all(rows[s] >> t & 1 for s in sx_iter_bits(a.bits)):
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
        bits = eval_formula(m, g).bits
        for w in range(m.n):
            rows[w] &= bits if bits >> w & 1 else ~bits & m.full_mask
    return rows


def cp_lift_aa(m: PreferenceModel, guards: list[sx.Formula], strict: bool,
               a: Extension, b: Extension) -> bool:
    """All-all comparison over the guard-respecting relation."""
    _check_args(m, a, b)
    rows = cp_relation(m, guards, strict)
    return all(not (b.bits & ~rows[s]) for s in sx_iter_bits(a.bits))


def best_worlds(m: PreferenceModel, a: Extension) -> Extension:
    """Members of a with no strictly better world inside a."""
    if a.width != m.n:
        raise ValueError(f"extension width does not match model ({m.n} worlds)")
    lt = m.lt
    bits = 0
    for w in sx_iter_bits(a.bits):
        if not (lt[w] & a.bits):
            bits |= 1 << w
    return Extension(bits, m.n)


def halpern_more_likely(m: PreferenceModel, a: Extension, b: Extension) -> bool:
    """Every a-world has a strictly better b-world that no a-world beats.

    This is the likelihood reading of "b over a": each world of the dominated
    set a is improved by some undominated witness in b.
    """
    _check_args(m, a, b)
    lt = m.lt
    for s in sx_iter_bits(a.bits):
        found = False
        for v in sx_iter_bits(lt[s] & b.bits):
            if not (lt[v] & a.bits):
                found = True
                break
        if not found:
            return False
    return True
