"""Finite preference models and formula evaluation.

A model is a finite set of worlds 0..n-1, a reflexive transitive betterness
relation (weak preference), a valuation for ground atoms, and an incidence
map for value symbols.  The strict relation is never stored: it is derived as
"weakly better but not weakly worse".

One evaluator, eval_packed, serves both a single model and the enumeration
oracle.  It reads a Frame, which holds the packed layout: P preorders on the
same worlds, each under all A assignments of world sets to a list of
symbols, at once.  An extension is one packed int: bit w*W + p*A + i says
"holds at world w of preorder p under assignment i", so world w owns the
block of W = P*A bits that starts at bit w*W, and preorder p owns bits
p*A .. (p+1)*A - 1 of every block.  A model is a plain record; its frame
(`PreferenceModel.frame`, built at the first evaluation) is the case P = 1,
A = 1.  Its extensions are world masks, one bit per world, and its symbols'
extensions are the valuation and incidence masks as stored.  Every
connective is one big-int operation.  A diamond (`Dia`; a box is read as its
dual) takes each world distance d in turn.  It shifts its operand d blocks
up, so that block w holds world w - d's block, and keeps the sub-blocks
(w, p) where preorder p's row w holds w - d.
"""
from __future__ import annotations

from functools import cache, cached_property

from .ontology import BASIC_VALUES, ValueSymbol
from . import syntax as sx

MAX_WORLDS = 62  # extensions fit comfortably in a machine-width int


class ModelError(Exception):
    pass


AtomKey = tuple[str, tuple[str, ...]]


class PreferenceModel(sx.Node):
    """Worlds, weak-betterness rows, atom valuation, value incidence."""

    n: int
    leq: tuple[int, ...]  # leq[w] = mask of worlds weakly better than w (incl. w)
    valuation: dict[AtomKey, int]
    incidence: dict[ValueSymbol, int]

    def __init__(self, n, leq, valuation=None, incidence=None):
        sx._init4(self, n, tuple(leq), {} if valuation is None else valuation,
                  {} if incidence is None else incidence)
        if not (1 <= self.n <= MAX_WORLDS):
            raise ModelError(f"world count must be in 1..{MAX_WORLDS}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def lt(self) -> tuple[int, ...]:
        return strict_rows(self.leq)

    @cached_property
    def frame(self) -> Frame:
        """The evaluator's view of the model, built at its first evaluation."""
        return Frame((self.leq,), {**self.valuation, **self.incidence})


def strict_rows(leq: tuple[int, ...]) -> tuple[int, ...]:
    """Strict rows, derived: v strictly better than w iff w<=v and not v<=w."""
    rows = []
    for w, row in enumerate(leq):
        lt = 0
        for v in sx_iter_bits(row):
            if not (leq[v] >> w & 1):
                lt |= 1 << v
        rows.append(lt)
    return tuple(rows)


def sx_iter_bits(mask: int):
    w = 0
    while mask:
        if mask & 1:
            yield w
        mask >>= 1
        w += 1


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
    if total and not is_total(m.leq):
        raise ModelError("relation not total")
    for key, bits in m.valuation.items():
        if bits < 0 or bits >> m.n:
            raise ModelError(f"valuation of {key!r} outside world range")
    for key, bits in m.incidence.items():
        if bits < 0 or bits >> m.n:
            raise ModelError(f"incidence of {key!r} outside world range")


def is_total(leq: tuple[int, ...]) -> bool:
    """Every two worlds are comparable under the weak rows leq."""
    n = len(leq)
    return all(
        (leq[w] >> v & 1) or (leq[v] >> w & 1)
        for w in range(n)
        for v in range(w + 1, n)
    )


# ---------------------------------------------------------------------------
# evaluation (the packed layout is in the module docstring)

# The oracle evaluates max(1, ORACLE_CHUNK_BITS // A) preorders of one world
# count in one packed pass.  Below this width a pass costs interpreter calls,
# not bit work, so packing saves passes.  Above it the bit work dominates,
# and since the oracle stops at the first preorder with a model, a wider
# chunk evaluates preorders it would never reach.  Over 1 488 in-domain
# suite and seeded random queries (Python 3.11, one 2-core host), caps of
# 1, 1024, 4096 and 16384 bits took 0.29, 0.18-0.22, 0.17-0.19 and
# 0.20-0.21 s, and packing every preorder 0.35-0.39 s.  The cap also keeps
# every block within max(A, 4096) bits, which bounds each cached extension
# and the time between budget checks.
ORACLE_CHUNK_BITS = 4096

# Tables that depend only on a frame's shape, shared by every frame of that
# shape: Frame.steps by (preorders, A, strict) and valuation_slices by (n,
# symbol count, W).  Only blocks of at most ORACLE_CHUNK_BITS bits are kept:
# that covers every model's frame and every chunk the oracle packs, while a
# wider block is one preorder under more assignments, whose tables would
# hold megabytes for one query.  A table full at _SHAPE_TABLE_ENTRIES is
# cleared, so a long run of distinct witnesses cannot grow it without bound.
_STEP_TABLES: dict[tuple, tuple[tuple[int, int], ...]] = {}
_SLICE_TABLES: dict[tuple[int, int, int], tuple[int, ...]] = {}
_SHAPE_TABLE_ENTRIES = 1024


def _keep(tables: dict, shape: tuple, table: tuple, width: int) -> None:
    if width <= ORACLE_CHUNK_BITS:
        if len(tables) >= _SHAPE_TABLE_ENTRIES:
            tables.clear()
        tables[shape] = table


class Frame:
    """What the evaluator reads: `n` worlds, the weak rows of each of
    `preorders`, `symbols` (each atom key's and value symbol's packed
    extension), `assignments` (A) per preorder, `width` (W = P * A bits per
    world block), `block` (one world's block: every preorder under every
    assignment) and `full_mask` (every world of every preorder under every
    assignment).  A model's frame holds its one preorder with A = 1; the
    oracle's holds a chunk of preorders under every assignment of its
    symbols."""

    def __init__(self, preorders: tuple[tuple[int, ...], ...], symbols: dict,
                 assignments: int = 1):
        self.n = n = len(preorders[0])
        self.preorders = preorders
        self.symbols = symbols
        self.assignments = assignments
        self.width = width = len(preorders) * assignments
        self.block = (1 << width) - 1
        self.full_mask = (1 << n * width) - 1
        self._offsets = range(0, n * width, width)  # where each world's block starts
        self._cache: dict[int, tuple[object, int]] = {}  # eval_packed's, by node id
        self._steps: dict[bool, tuple[tuple[int, int], ...]] = {}

    def bits(self, key: AtomKey | ValueSymbol) -> int:
        try:
            return self.symbols[key]
        except KeyError:
            raise ModelError(f"{key!r} not interpreted in model") from None

    def steps(self, strict: bool) -> tuple[tuple[int, int], ...]:
        """Per world distance d = w - v, from 1 - n to n - 1: the shift d * W
        that moves world v's block onto world w's, and the mask of the
        sub-blocks (w, p) at which v is weakly (or strictly) better than w
        in preorder p.  It depends only on (preorders, A, strict), so it is
        built once per shape (see _STEP_TABLES)."""
        steps = self._steps.get(strict)
        if steps is None:
            shape = (self.preorders, self.assignments, strict)
            steps = _STEP_TABLES.get(shape)
            if steps is None:
                n, width, size = self.n, self.width, self.assignments
                marks = [0] * (2 * n - 1)
                for p, leq in enumerate(self.preorders):
                    for w, row in enumerate(leq):
                        for v in range(n):
                            if row >> v & 1 and not (strict and leq[v] >> w & 1):
                                marks[w - v + n - 1] |= 1 << w * width + p * size
                steps = tuple((d * width, (mark << size) - mark)
                              for d, mark in zip(range(1 - n, n), marks))
                _keep(_STEP_TABLES, shape, steps, width)
            self._steps[strict] = steps
        return steps

    def any_world(self, ext: int) -> int:
        """The assignments under which ext holds at some world."""
        bits = 0
        for offset in self._offsets:
            bits |= ext >> offset
        return bits & self.block

    def every_world(self, ext: int) -> int:
        """The assignments under which ext holds at every world."""
        bits = self.block
        for offset in self._offsets:
            bits &= ext >> offset
        return bits

    def everywhere(self, bits: int) -> int:
        """The extension that holds at every world under the assignments in bits."""
        ext = 0
        for offset in self._offsets:
            ext |= bits << offset
        return ext


def _move(x: int, k: int) -> int:
    """x shifted k bits up, or -k bits down."""
    if k > 0:
        return x << k
    return x >> -k if k else x  # a shift by 0 would copy x


def eval_packed(s: Frame, f: sx.Formula) -> int:
    """The packed extension of a ground formula: one branch per core class,
    chosen by identity.  A box or `A` is read as the negation of a Dia or
    `E`, so one rule serves every diamond and box."""
    # Cache keyed by node identity; the node reference is kept alongside so
    # the id stays valid for the cache's lifetime.
    key = id(f)
    hit = s._cache.get(key)
    if hit is not None:
        return hit[1]
    full, cls = s.full_mask, type(f)
    if cls is sx.Atom:
        ext = s.bits((f.pred, f.args))
    elif cls is sx.ValAtom:
        ext = s.bits((f.value, f.party))
    elif cls is sx.Not:
        ext = full ^ eval_packed(s, f.sub)
    elif cls is sx.And:
        ext = full
        for a in f.args:
            ext &= eval_packed(s, a)
    elif cls is sx.Or:
        ext = 0
        for a in f.args:
            ext |= eval_packed(s, a)
    elif cls is sx.Implies:
        ext = (full ^ eval_packed(s, f.lhs)) | eval_packed(s, f.rhs)
    elif cls is sx.Iff:
        ext = full ^ eval_packed(s, f.lhs) ^ eval_packed(s, f.rhs)
    elif cls is sx.Dia:  # sub at a world the rows relate to w that agrees on the guards
        guards = [eval_packed(s, g) for g in f.guards]
        sub, ext = eval_packed(s, f.sub), 0
        for k, mask in s.steps(f.strict):
            if mask:
                for g in guards:
                    mask &= ~(g ^ _move(g, k))
                ext |= _move(sub, k) & mask
    elif cls is sx.Somewhere:
        ext = s.everywhere(s.any_world(eval_packed(s, f.sub)))
    elif cls is sx.CpPrefAA:
        guards = [eval_packed(s, g) for g in f.guards]
        lhs, rhs = eval_packed(s, f.lhs), eval_packed(s, f.rhs)
        bad = 0  # lhs at w and rhs at v, but v not guard-respectingly better than w
        for k, mask in s.steps(f.strict):
            for g in guards:
                mask &= ~(g ^ _move(g, k))
            bad |= lhs & _move(rhs, k) & ~mask
        ext = s.everywhere(s.block ^ s.any_world(bad))
    else:
        raise ModelError(f"not a formula node: {type(f).__name__}")

    s._cache[key] = (f, ext)
    return ext


def eval_formula(m: PreferenceModel, f: sx.Formula) -> int:
    """The world mask where the ground formula holds."""
    return eval_packed(m.frame, f)


def truth_at(m: PreferenceModel, f: sx.Formula, world: int) -> bool:
    if not (0 <= world < m.n):
        raise ModelError(f"world {world} outside 0..{m.n - 1}")
    return bool(eval_packed(m.frame, f) >> world & 1)


def globally_true(m: PreferenceModel, f: sx.Formula) -> bool:
    return eval_packed(m.frame, f) == m.full_mask


# ---------------------------------------------------------------------------
# every assignment at once (oracle support)
#
# Assignment i gives symbol k the world set (i >> n*(count-1-k)) & (2^n - 1),
# which numbers assignments in itertools.product(range(1 << n), repeat=count)
# order; A = 2^(n*count).


def valuation_slices(n: int, keys, width: int) -> dict:
    """Each symbol's packed extension under every assignment, in blocks of
    `width` bits, a multiple of A: bit w*W + p*A + i is bit w of the world
    set that assignment i gives the symbol, whatever p.  A is a power of two,
    so bit r < n*count of the index p*A + i is bit r of i.  The extensions
    depend only on (n, count, W), so they are built once per shape (see
    _SLICE_TABLES)."""
    shape = (n, len(keys), width)
    exts = _SLICE_TABLES.get(shape)
    if exts is None:
        block = (1 << width) - 1
        out = []
        for k in range(len(keys)):
            ext = 0
            for w in range(n):
                # bit j of the index i: runs of 2^j clear bits, then 2^j set bits
                run = 1 << (n * (len(keys) - 1 - k) + w)
                bits, period = ((1 << run) - 1) << run, 2 * run
                while period < width:
                    bits |= bits << period
                    period *= 2
                ext |= (bits & block) << w * width
            out.append(ext)
        exts = tuple(out)
        _keep(_SLICE_TABLES, shape, exts, width)
    return dict(zip(keys, exts))


def valuation_at(n: int, keys, i: int) -> dict:
    """The world set assignment i gives each symbol."""
    mask = (1 << n) - 1
    return {key: i >> (n * (len(keys) - 1 - k)) & mask for k, key in enumerate(keys)}


# ---------------------------------------------------------------------------
# rendering


def _atom_label(key: AtomKey) -> str:
    pred, args = key
    return pred if not args else f"{pred}({','.join(args)})"


def _value_label(key: ValueSymbol) -> str:
    return "@".join(key)


_VALUE_ORDER = {v: i for i, v in enumerate(BASIC_VALUES)}


def _world_labels(m: PreferenceModel) -> list[tuple[list[str], list[str]]]:
    """Per world, the labels of the atoms and of the value symbols true there,
    atoms sorted by key and values in BASIC_VALUES order."""
    atoms_sorted = sorted(m.valuation.keys())
    values_sorted = sorted(m.incidence.keys(), key=lambda k: (_VALUE_ORDER[k[0]], k[1]))
    return [([_atom_label(k) for k in atoms_sorted if m.valuation[k] >> w & 1],
             [_value_label(k) for k in values_sorted if m.incidence[k] >> w & 1])
            for w in range(m.n)]


def render_text(m: PreferenceModel) -> str:
    """Canonical plain-text dump, one line per world; stable byte-for-byte."""
    lines = []
    for w, (atoms, values) in enumerate(_world_labels(m)):
        succ = ",".join(f"w{v}" for v in sx_iter_bits(m.leq[w]))
        lines.append(f"w{w}: succ=[{succ}] atoms=[{','.join(atoms)}] "
                     f"values=[{','.join(values)}]")
    return "\n".join(lines)


def render_dot(m: PreferenceModel) -> str:
    """Graphviz rendering: one node per world, one edge per non-reflexive
    weak-betterness pair (strict pairs drawn solid, ties dashed)."""
    out = ["digraph preference_model {", "  rankdir=BT;"]
    for w, (atoms, values) in enumerate(_world_labels(m)):
        # a name may hold a backslash or a quote; the \n separators stay bare
        names = (s.replace("\\", "\\\\").replace('"', '\\"') for s in atoms + values)
        label = "\\n".join([f"w{w}", *names])
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


@cache
def all_preorders(n: int) -> tuple[tuple[int, ...], ...]:
    """Every reflexive transitive relation on n worlds as leq rows, in a
    deterministic order; computed once per n.  Counts are 1, 4, 29, 355 for
    n = 1, 2, 3, 4."""
    if not (1 <= n <= 4):
        raise ValueError("preorder enumeration supported for 1..4 worlds")
    off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
    base = tuple(1 << w for w in range(n))
    out = []
    for choice in range(1 << len(off_diag)):
        rows = list(base)
        for k, (i, j) in enumerate(off_diag):
            if choice >> k & 1:
                rows[i] |= 1 << j
        if all(not (rows[v] & ~rows[w]) for w in range(n) for v in sx_iter_bits(rows[w])):
            out.append(tuple(rows))
    return tuple(out)
