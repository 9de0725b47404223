"""Finite preference models and formula evaluation.

A model is a finite set of worlds 0..n-1, a reflexive transitive betterness
relation (weak preference), a valuation for ground atoms, and an incidence
map for value symbols.  The strict relation is never stored: it is derived as
"weakly better but not weakly worse".  World sets are bit masks, one bit per
world, which keeps evaluation to a handful of integer operations per node.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ontology import BasicValue, ValueSymbol
from . import syntax as sx

MAX_WORLDS = 62  # extensions fit comfortably in a machine-width int


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class Extension:
    """A set of worlds in a model of fixed size.  Operations check widths."""

    bits: int
    width: int

    def __post_init__(self):
        if not (0 < self.width <= MAX_WORLDS):
            raise ModelError(f"width must be in 1..{MAX_WORLDS}")
        if self.bits < 0 or self.bits >> self.width:
            raise ModelError("bits outside width")

    def _check(self, o: "Extension") -> None:
        if self.width != o.width:
            raise ModelError(f"width mismatch: {self.width} vs {o.width}")

    def __and__(self, o):
        self._check(o)
        return Extension(self.bits & o.bits, self.width)

    def __or__(self, o):
        self._check(o)
        return Extension(self.bits | o.bits, self.width)

    def __invert__(self):
        return Extension(~self.bits & ((1 << self.width) - 1), self.width)

    def __contains__(self, world: int) -> bool:
        return 0 <= world < self.width and bool(self.bits >> world & 1)

    def __le__(self, o) -> bool:
        self._check(o)
        return self.bits & ~o.bits == 0

    def __iter__(self):
        for w in range(self.width):
            if self.bits >> w & 1:
                yield w

    def __len__(self) -> int:
        return bin(self.bits).count("1")

    def is_empty(self) -> bool:
        return self.bits == 0

    def is_full(self) -> bool:
        return self.bits == (1 << self.width) - 1

    @staticmethod
    def empty(width: int) -> "Extension":
        return Extension(0, width)

    @staticmethod
    def full(width: int) -> "Extension":
        return Extension((1 << width) - 1, width)

    @staticmethod
    def of(worlds, width: int) -> "Extension":
        bits = 0
        for w in worlds:
            if not (0 <= w < width):
                raise ModelError(f"world {w} outside 0..{width - 1}")
            bits |= 1 << w
        return Extension(bits, width)


AtomKey = tuple[str, tuple[str, ...]]


def _normalize_valuation(valuation: dict) -> dict[AtomKey, int]:
    out: dict[AtomKey, int] = {}
    for key, bits in valuation.items():
        if isinstance(key, str):
            key = (key, ())
        out[key] = bits
    return out


@dataclass
class PreferenceModel:
    """Worlds, weak-betterness rows, atom valuation, value incidence."""

    n: int
    leq: tuple[int, ...]  # leq[w] = mask of worlds weakly better than w (incl. w)
    valuation: dict[AtomKey, int] = field(default_factory=dict)
    incidence: dict[ValueSymbol, int] = field(default_factory=dict)

    def __post_init__(self):
        if not (1 <= self.n <= MAX_WORLDS):
            raise ModelError(f"world count must be in 1..{MAX_WORLDS}")
        self.leq = tuple(self.leq)
        self.valuation = _normalize_valuation(self.valuation)
        self._full = (1 << self.n) - 1
        self._lt: tuple[int, ...] | None = None
        self._cache: dict[int, tuple[object, int]] = {}

    @property
    def full_mask(self) -> int:
        return self._full

    @property
    def lt(self) -> tuple[int, ...]:
        """Strict rows, derived: v strictly better than w iff w<=v and not v<=w."""
        if self._lt is None:
            rows = []
            for w in range(self.n):
                row = 0
                for v in sx_iter_bits(self.leq[w]):
                    if not (self.leq[v] >> w & 1):
                        row |= 1 << v
                rows.append(row)
            self._lt = tuple(rows)
        return self._lt

    def atom_bits(self, key: AtomKey) -> int:
        try:
            return self.valuation[key]
        except KeyError:
            raise ModelError(f"atom {key!r} not interpreted in model") from None

    def incidence_bits(self, key: ValueSymbol) -> int:
        try:
            return self.incidence[key]
        except KeyError:
            raise ModelError(f"value symbol {key!r} not interpreted in model") from None


def sx_iter_bits(mask: int):
    w = 0
    while mask:
        if mask & 1:
            yield w
        mask >>= 1
        w += 1


def from_edges(n, pairs, valuation=None, incidence=None) -> PreferenceModel:
    """Build a model from weak-betterness pairs; reflexive-transitive closure
    is applied, so tests can state only the generating edges."""
    rows = [1 << w for w in range(n)]
    for a, b in pairs:
        rows[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for w in range(n):
            acc = rows[w]
            for v in sx_iter_bits(rows[w]):
                acc |= rows[v]
            if acc != rows[w]:
                rows[w] = acc
                changed = True
    return PreferenceModel(n, tuple(rows), valuation or {}, incidence or {})


def validate_model(m: PreferenceModel, total: bool = False) -> None:
    """Check reflexivity, transitivity, mask widths, optionally totality."""
    if len(m.leq) != m.n:
        raise ModelError("relation row count != world count")
    for w in range(m.n):
        row = m.leq[w]
        if row < 0 or row >> m.n:
            raise ModelError(f"relation row {w} outside world range")
        if not (row >> w & 1):
            raise ModelError(f"relation not reflexive at world {w}")
        for v in sx_iter_bits(row):
            if m.leq[v] & ~row:
                raise ModelError(f"relation not transitive via {w}<={v}")
    if total:
        for w in range(m.n):
            for v in range(w + 1, m.n):
                if not (m.leq[w] >> v & 1) and not (m.leq[v] >> w & 1):
                    raise ModelError(f"relation not total: {w} and {v} incomparable")
    for key, bits in m.valuation.items():
        if bits < 0 or bits >> m.n:
            raise ModelError(f"valuation of {key!r} outside world range")
    for key, bits in m.incidence.items():
        if bits < 0 or bits >> m.n:
            raise ModelError(f"incidence of {key!r} outside world range")


def is_total(m: PreferenceModel) -> bool:
    return all(
        (m.leq[w] >> v & 1) or (m.leq[v] >> w & 1)
        for w in range(m.n)
        for v in range(w + 1, m.n)
    )


# ---------------------------------------------------------------------------
# evaluation


def _agree_rows(m: PreferenceModel, guard_bits: list[int]) -> list[int]:
    """agree[w] = worlds giving every guard the same truth value as w."""
    full = m.full_mask
    rows = [full] * m.n
    for g in guard_bits:
        for w in range(m.n):
            rows[w] &= g if (g >> w & 1) else ~g & full
    return rows


def cp_rows(m: PreferenceModel, guard_bits: list[int], strict: bool) -> list[int]:
    """Rows of the guard-respecting betterness relation (weak or strict)."""
    agree = _agree_rows(m, guard_bits)
    base = m.lt if strict else m.leq
    return [base[w] & agree[w] for w in range(m.n)]


def _eval_bits(m: PreferenceModel, f: sx.Formula) -> int:
    # Cache keyed by node identity; the node reference is kept alongside so
    # the id stays valid for the cache's lifetime.
    key = id(f)
    hit = m._cache.get(key)
    if hit is not None:
        return hit[1]
    full = m.full_mask
    n = m.n

    if isinstance(f, sx.Atom):
        args = []
        for a in f.args:
            if not isinstance(a, sx.Const):
                raise ModelError("evaluation needs grounded formulas")
            args.append(a.name)
        bits = m.atom_bits((f.pred, tuple(args)))
    elif isinstance(f, sx.ValAtom):
        if not isinstance(f.party, sx.Const):
            raise ModelError("evaluation needs grounded formulas")
        bits = m.incidence_bits((f.value, f.party.name))
    elif isinstance(f, sx.Not):
        bits = ~_eval_bits(m, f.sub) & full
    elif isinstance(f, sx.And):
        bits = full
        for a in f.args:
            bits &= _eval_bits(m, a)
    elif isinstance(f, sx.Or):
        bits = 0
        for a in f.args:
            bits |= _eval_bits(m, a)
    elif isinstance(f, sx.Implies):
        bits = (~_eval_bits(m, f.lhs) | _eval_bits(m, f.rhs)) & full
    elif isinstance(f, sx.Iff):
        bits = ~(_eval_bits(m, f.lhs) ^ _eval_bits(m, f.rhs)) & full
    elif isinstance(f, sx.DiaWeak):
        sub = _eval_bits(m, f.sub)
        bits = 0
        for w in range(n):
            if m.leq[w] & sub:
                bits |= 1 << w
    elif isinstance(f, sx.BoxWeak):
        sub = _eval_bits(m, f.sub)
        bits = 0
        for w in range(n):
            if not (m.leq[w] & ~sub):
                bits |= 1 << w
    elif isinstance(f, sx.DiaStrict):
        sub = _eval_bits(m, f.sub)
        lt = m.lt
        bits = 0
        for w in range(n):
            if lt[w] & sub:
                bits |= 1 << w
    elif isinstance(f, sx.BoxStrict):
        sub = _eval_bits(m, f.sub)
        lt = m.lt
        bits = 0
        for w in range(n):
            if not (lt[w] & ~sub):
                bits |= 1 << w
    elif isinstance(f, sx.Somewhere):
        bits = full if _eval_bits(m, f.sub) else 0
    elif isinstance(f, sx.Everywhere):
        bits = full if _eval_bits(m, f.sub) == full else 0
    elif isinstance(f, (sx.CpDiaWeak, sx.CpDiaStrict)):
        guard_bits = [_eval_bits(m, g) for g in f.guards]
        rows = cp_rows(m, guard_bits, isinstance(f, sx.CpDiaStrict))
        sub = _eval_bits(m, f.sub)
        bits = 0
        for w in range(n):
            if rows[w] & sub:
                bits |= 1 << w
    elif isinstance(f, sx.CpPrefAA):
        guard_bits = [_eval_bits(m, g) for g in f.guards]
        rows = cp_rows(m, guard_bits, f.strict)
        lhs = _eval_bits(m, f.lhs)
        rhs = _eval_bits(m, f.rhs)
        ok = all(not (rhs & ~rows[s]) for s in sx_iter_bits(lhs))
        bits = full if ok else 0
    else:
        raise ModelError(f"evaluation expects desugared formulas, found {type(f).__name__}")

    m._cache[key] = (f, bits)
    return bits


def eval_formula(m: PreferenceModel, f: sx.Formula) -> Extension:
    """Worlds where the (grounded, desugared) formula holds."""
    return Extension(_eval_bits(m, f), m.n)


def truth_at(m: PreferenceModel, f: sx.Formula, world: int) -> bool:
    if not (0 <= world < m.n):
        raise ModelError(f"world {world} outside 0..{m.n - 1}")
    return bool(_eval_bits(m, f) >> world & 1)


def globally_true(m: PreferenceModel, f: sx.Formula) -> bool:
    return _eval_bits(m, f) == m.full_mask


# ---------------------------------------------------------------------------
# rendering


def _atom_label(key: AtomKey) -> str:
    pred, args = key
    return pred if not args else f"{pred}({','.join(args)})"


def _value_label(key: ValueSymbol) -> str:
    value, party = key
    return f"{value.name}@{party}"


_VALUE_ORDER = {v: i for i, v in enumerate(BasicValue)}


def render_text(m: PreferenceModel) -> str:
    """Canonical plain-text dump, one line per world; stable byte-for-byte."""
    lines = []
    atoms_sorted = sorted(m.valuation.keys())
    values_sorted = sorted(m.incidence.keys(), key=lambda k: (_VALUE_ORDER[k[0]], k[1]))
    for w in range(m.n):
        succ = ",".join(f"w{v}" for v in sx_iter_bits(m.leq[w]))
        atoms = ",".join(_atom_label(k) for k in atoms_sorted if m.valuation[k] >> w & 1)
        values = ",".join(_value_label(k) for k in values_sorted if m.incidence[k] >> w & 1)
        lines.append(f"w{w}: succ=[{succ}] atoms=[{atoms}] values=[{values}]")
    return "\n".join(lines)


def render_dot(m: PreferenceModel) -> str:
    """Graphviz rendering: one node per world, one edge per non-reflexive
    weak-betterness pair (strict pairs drawn solid, ties dashed)."""
    atoms_sorted = sorted(m.valuation.keys())
    values_sorted = sorted(m.incidence.keys(), key=lambda k: (_VALUE_ORDER[k[0]], k[1]))
    out = ["digraph preference_model {", "  rankdir=BT;"]
    for w in range(m.n):
        parts = [f"w{w}"]
        parts += [_atom_label(k) for k in atoms_sorted if m.valuation[k] >> w & 1]
        parts += [_value_label(k) for k in values_sorted if m.incidence[k] >> w & 1]
        label = "\\n".join(parts)
        out.append(f'  w{w} [shape=box,label="{label}"];')
    for w in range(m.n):
        for v in sx_iter_bits(m.leq[w]):
            if v == w:
                continue
            style = "solid" if (m.lt[w] >> v & 1) else "dashed"
            out.append(f"  w{w} -> w{v} [style={style}];")
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# exhaustive enumeration of small relations (oracle support)


def all_preorders(n: int):
    """Yield every reflexive transitive relation on n worlds as leq rows.
    Deterministic order.  Counts are 1, 4, 29 for n = 1, 2, 3."""
    if not (1 <= n <= 4):
        raise ValueError("preorder enumeration supported for 1..4 worlds")
    off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
    base = tuple(1 << w for w in range(n))
    for choice in range(1 << len(off_diag)):
        rows = list(base)
        for k, (i, j) in enumerate(off_diag):
            if choice >> k & 1:
                rows[i] |= 1 << j
        ok = True
        for w in range(n):
            for v in sx_iter_bits(rows[w]):
                if rows[v] & ~rows[w]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield tuple(rows)
