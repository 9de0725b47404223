"""Surface syntax and core formula representation.

Formulas are written as s-expressions.  The parser checks names, arities and
sorts against a Signature and produces immutable, ground formulas of the
modal core: it expands every derived form as it reads it.  A term is its
constant's name and a basic value its own name, each a plain str.
`(forall x SORT F)` and `(exists x SORT F)`
become the conjunction or disjunction of F over the sort's constants,
`(other t)` folds to a constant, and the syntactic preference variants, the
conditional and the value-layer forms (`ext`, `agg`, `vpref`, `promotes`,
`conflict`) become the core formulas they abbreviate, and so do the boxes
and `A`, read as the duals of `Dia` (the one diamond, weak or strict, with
guards or none) and `E`.  One table, `_FORMS`, gives every fixed-arity keyword
form its builder and slot kinds; only the variadic `and`/`or`/`agg`, the
binders and `vpref` are read by branches of their own.  Every formula node
is core: `SynPref`, `Cond` and the modal forms (`DiaWeak`, `BoxStrict`,
`Everywhere`, ...) are functions that build the expansion, for a caller
writing formulas by hand.  `share`
makes equal subtrees one object for the caches keyed by node.  Printing is
the inverse of parsing: `format_formula` emits text that parses back to an
equal formula, so a derived form prints as its expansion.
"""
from __future__ import annotations

import re
from operator import attrgetter, is_not

from .ontology import BASIC_VALUES, CONTENDERS, PRINCIPLES, ValueSymbol, other

# ---------------------------------------------------------------------------
# immutable nodes

_MISSING = object()
# Fields are set with object.__setattr__, as a frozen dataclass sets them:
# writing to __dict__ instead would give every node its own dict object,
# about 64 bytes more per node on Python 3.11.
_set = object.__setattr__


class Node:
    """The package's one record base: syntax nodes, queries, verdicts, KBs,
    models and suite rows.  A record's fields are its class's annotations, in
    order, and its class attributes are defaults.  Records compare and hash
    by class and field values, print as `Name(field=value, ...)` and refuse
    assignment, as a frozen dataclass does, but the methods are shared rather
    than generated for each class.  A class may build on `Node.__init__`
    with its own (fresh dicts per instance, checks) and cache derived values
    with `functools.cached_property`, which writes the instance dict without
    assigning; such a value is not a field."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        if fields:  # Formula, the abstract base of formulas, has none
            cls._fields = fields
            cls._values = attrgetter(*fields)  # a tuple, or a single field's value
            if "__init__" not in cls.__dict__:
                cls.__init__ = _INIT_FOR_FIELD_COUNT.get(len(fields), Node.__init__)

    def __init__(self, *args, **kwargs):
        extra = len(args) - len(self._fields)
        if extra > 0:
            raise TypeError(f"{type(self).__name__}() takes {len(self._fields)} arguments")
        self._bind(args + (_MISSING,) * -extra, kwargs)

    def _bind(self, args: tuple, kwargs: dict):
        """Set the fields from one positional value per field (_MISSING where
        none was given), keywords and defaults."""
        cls = type(self)
        for name, value in zip(cls._fields, args):
            if value is _MISSING:
                if name in kwargs:
                    value = kwargs.pop(name)
                elif name in cls.__dict__:
                    value = cls.__dict__[name]
                else:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            elif name in kwargs:
                raise TypeError(f"{cls.__name__}() got multiple values for {name!r}")
            _set(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected argument {next(iter(kwargs))!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        values = self._values(self)
        return hash(values if len(self._fields) > 1 else (values,))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # only here: a slow import
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# The constructor of a node with one, two or four fields, the counts of the
# formula nodes the parser builds most: all fields given positionally are set
# directly; anything else goes through Node._bind.


def _init1(self, a=_MISSING, /, **kwargs):
    if kwargs or a is _MISSING:
        return self._bind((a,), kwargs)
    _set(self, self._fields[0], a)


def _init2(self, a=_MISSING, b=_MISSING, /, **kwargs):
    if kwargs or b is _MISSING:
        return self._bind((a, b), kwargs)
    f, g = self._fields
    _set(self, f, a)
    _set(self, g, b)


def _init4(self, a=_MISSING, b=_MISSING, c=_MISSING, d=_MISSING, /, **kwargs):
    if kwargs or d is _MISSING:
        return self._bind((a, b, c, d), kwargs)
    f, g, h, i = self._fields
    _set(self, f, a)
    _set(self, g, b)
    _set(self, h, c)
    _set(self, i, d)


_INIT_FOR_FIELD_COUNT = {1: _init1, 2: _init2, 4: _init4}


# ---------------------------------------------------------------------------
# s-expression reader


class ParseError(Exception):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SSym(Node):
    """Bare symbol token, with the line it came from."""

    text: str
    line: int


class SList(Node):
    """Parenthesized form."""

    items: tuple
    line: int


# One match per token: a parenthesis, a symbol (a run of anything but space,
# tab, CR, LF, parentheses and `;`), a comment to end of line, or a newline,
# which counts lines.  Space, tab and CR match nothing and are skipped.
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*|\n")


def read_forms(text: str) -> list:
    """Read all top-level s-expressions.  `;` starts a comment to end of line."""
    stack: list[tuple[list, int]] = [([], 0)]  # the top level, then each open list
    line = 1
    for tok in _TOKEN.findall(text):
        if tok == "\n":
            line += 1
        elif tok == "(":
            stack.append(([], line))
        elif tok == ")":
            if len(stack) == 1:
                raise ParseError("unbalanced ')'", line)
            items, open_line = stack.pop()
            stack[-1][0].append(SList(tuple(items), open_line))
        elif tok[0] != ";":
            stack[-1][0].append(SSym(tok, line))
    if len(stack) > 1:
        raise ParseError("unclosed '('", stack[-1][1])
    return stack[0][0]


# A term is its constant's name.  `Const` is kept only because bench/ builds
# terms as `Const("p")` (to be deleted with `desugar` and `elaborate`).
Const = str


# ---------------------------------------------------------------------------
# formula AST

# Every node is a Node, so formulas hash and compare structurally.


class Formula(Node):
    __slots__ = ()


class Atom(Formula):
    pred: str
    args: tuple[str, ...] = ()  # each argument is its constant's name


class ValAtom(Formula):
    """Incidence atom: a basic value observed for one party at a world."""

    value: str  # the basic value's name
    party: str  # the contender's name


class Not(Formula):
    sub: Formula


class And(Formula):
    args: tuple[Formula, ...]


class Or(Formula):
    args: tuple[Formula, ...]


class Implies(Formula):
    lhs: Formula
    rhs: Formula


class Iff(Formula):
    lhs: Formula
    rhs: Formula


class Dia(Formula):
    """Some world weakly (or strictly) better than this one, agreeing with it
    on every guard, satisfies the body; with no guards, the plain diamond."""

    guards: tuple[Formula, ...]
    strict: bool
    sub: Formula


class Somewhere(Formula):
    """Global existential modality `E`."""

    sub: Formula


class CpPrefAA(Formula):
    """All-all preference over the guard-respecting relation; world-independent."""

    guards: tuple[Formula, ...]
    strict: bool
    lhs: Formula
    rhs: Formula


def make_and(args: list[Formula]) -> Formula:
    if not args:
        raise ValueError("empty conjunction")
    return args[0] if len(args) == 1 else And(tuple(args))


def make_or(args: list[Formula]) -> Formula:
    if not args:
        raise ValueError("empty disjunction")
    return args[0] if len(args) == 1 else Or(tuple(args))


# Operator keyword of every node class but Atom and Dia, shared by parser and printer.
KEYWORDS: dict[str, type] = {
    "not": Not, "and": And, "or": Or, "implies": Implies, "iff": Iff, "E": Somewhere,
    "cp-pref-aa": CpPrefAA, "val": ValAtom,
}
_KEYWORD_OF = {cls: kw for kw, cls in KEYWORDS.items()}

# Field layout of every node class, read once from the field annotations: each
# field is a sub-formula, a tuple of them, or (None) plain data.
_FIELD_KINDS = {"Formula": "formula", "tuple[Formula, ...]": "formulas"}
_LAYOUT: dict[type, tuple[tuple[str, str | None], ...]] = {
    cls: tuple((name, _FIELD_KINDS.get(cls.__annotations__[name])) for name in cls._fields)
    for cls in Formula.__subclasses__()
}


def _layout(f: Formula) -> tuple[tuple[str, str | None], ...]:
    try:
        return _LAYOUT[type(f)]
    except KeyError:
        raise TypeError(f"not a formula node: {type(f).__name__}") from None


def children(f: Formula):
    """The direct sub-formulas of f, in field order."""
    for name, kind in _layout(f):
        if kind == "formula":
            yield getattr(f, name)
        elif kind == "formulas":
            yield from getattr(f, name)


def share(formulas) -> list[Formula]:
    """The formulas, equal to the given ones, with every equal subtree made
    one object (hash-consing: Filliâtre & Conchon, ML 2006), so that a cache
    keyed by node id meets each distinct sub-formula once.  Bottom-up, a
    node's key is its class, its plain-data fields and the ids of its shared
    sub-formulas, so no deep tree is ever hashed.  A node not yet met whose
    sub-formulas come back as they were is kept rather than rebuilt."""
    table: dict = {}  # key -> shared node; keeps the keyed ids alive

    def walk(f: Formula) -> Formula:
        key, values, changed = [type(f)], [], False
        for name, kind in _layout(f):
            value = getattr(f, name)
            if kind == "formula":
                new = walk(value)
                key.append(id(new))
                changed = changed or new is not value
                value = new
            elif kind == "formulas":
                new = tuple(map(walk, value))
                key.append(tuple(map(id, new)))
                changed = changed or any(map(is_not, new, value))
                value = new
            else:
                key.append(value)
            values.append(value)
        key = tuple(key)
        node = table.get(key)
        if node is None:
            node = table[key] = type(f)(*values) if changed else f
        return node

    return [walk(f) for f in formulas]


# ---------------------------------------------------------------------------
# signature


class Signature(Node):
    """Declared sorts (finite constant lists) and atoms (argument sorts)."""

    sorts: dict[str, tuple[str, ...]]
    atoms: dict[str, tuple[str, ...]]

    def __init__(self, sorts=None, atoms=None):
        super().__init__({} if sorts is None else sorts, {} if atoms is None else atoms)
        self.sorts.setdefault("contender", CONTENDERS)

    def const_sort(self, name: str) -> str | None:
        for sort, consts in self.sorts.items():
            if name in consts:
                return sort
        return None

    def add_sort(self, name: str, consts: tuple[str, ...], line: int | None = None):
        if name in self.sorts:
            raise ParseError(f"duplicate sort {name!r}", line)
        if not consts:
            raise ParseError(f"sort {name!r} has no constants", line)
        for c in consts:
            if self.const_sort(c) is not None or c in self.atoms:
                raise ParseError(f"name {c!r} already in use", line)
        self.sorts[name] = consts

    def add_atom(self, name: str, arg_sorts: tuple[str, ...], line: int | None = None):
        if name in RESERVED_HEADS or name in PRINCIPLES or name in BASIC_VALUES:
            raise ParseError(f"reserved name {name!r} cannot be an atom", line)
        if name in self.atoms or self.const_sort(name) is not None or name in self.sorts:
            raise ParseError(f"name {name!r} already in use", line)
        for s in arg_sorts:
            if s not in self.sorts:
                raise ParseError(f"unknown sort {s!r} in atom {name!r}", line)
        self.atoms[name] = arg_sorts


def base_signature(*zero_ary_atoms: str) -> Signature:
    sig = Signature()
    for name in zero_ary_atoms:
        sig.add_atom(name, ())
    return sig


# ---------------------------------------------------------------------------
# parsing formulas


def _head(node) -> str | None:
    if isinstance(node, SList) and node.items and isinstance(node.items[0], SSym):
        return node.items[0].text
    return None


# A parse environment maps each bound variable to its current constant and sort.
Env = dict[str, tuple[str, str]]


def _parse_term(node, sig: Signature, env: Env) -> tuple[str, str]:
    """Parse a term to a constant; returns (constant name, sort name)."""
    if isinstance(node, SSym):
        name = node.text
        if name in env:
            return env[name]
        sort = sig.const_sort(name)
        if sort is not None:
            return name, sort
        raise ParseError(f"unknown constant or unbound variable {name!r}", node.line)
    if _head(node) == "other":
        if len(node.items) != 2:
            raise ParseError("other takes one argument", node.line)
        inner, sort = _parse_term(node.items[1], sig, env)
        if sort != "contender":
            raise ParseError("other applies to contender terms only", node.line)
        return other(inner), "contender"
    raise ParseError("expected a term", getattr(node, "line", None))


def _parse_party(node, sig: Signature, env: Env) -> str:
    term, sort = _parse_term(node, sig, env)
    if sort != "contender":
        raise ParseError("expected a contender", getattr(node, "line", None))
    return term


def _parse_principle_pair(node, sig, env) -> Formula:
    """A `(PRINCIPLE party)` pair: an ext form without its keyword."""
    if not isinstance(node, SList) or len(node.items) != 2:
        raise ParseError("expected (PRINCIPLE party)", getattr(node, "line", None))
    return _read_slots("ext", node.items, sig, env)


def _parse_gammas(node, sig, env) -> tuple[Formula, ...]:
    # The guard slot is always a list; each element is parsed as a formula,
    # so a compound singleton guard needs double parens: ((and A B)).
    if not isinstance(node, SList):
        raise ParseError("guard slot must be a parenthesized list", getattr(node, "line", None))
    return tuple(_parse_formula(item, sig, env) for item in node.items)


def _want(node, count: int, what: str):
    if len(node.items) != count + 1:
        raise ParseError(f"{what} takes {count} argument(s)", node.line)


def _parse_formula(node, sig: Signature, env: Env) -> Formula:
    if isinstance(node, SSym):
        name = node.text
        if name in env:
            raise ParseError(f"variable {name!r} used as a formula", node.line)
        if name in sig.atoms:
            if sig.atoms[name]:
                raise ParseError(f"atom {name!r} needs arguments", node.line)
            return Atom(name)
        raise ParseError(f"unknown atom {name!r}", node.line)

    if not isinstance(node, SList) or not node.items:
        raise ParseError("empty form", getattr(node, "line", None))
    head = node.items[0]
    if not isinstance(head, SSym):
        raise ParseError("expected an operator or atom name", node.line)
    op = head.text
    items = node.items

    if op in _FORMS:
        _want(node, len(_FORMS[op][1]), op)
        return _read_slots(op, items[1:], sig, env)
    if op in ("and", "or"):
        if len(items) < 3:
            raise ParseError(f"{op} takes at least 2 arguments", node.line)
        return KEYWORDS[op](tuple(_parse_formula(x, sig, env) for x in items[1:]))
    if op in ("forall", "exists"):
        _want(node, 3, op)
        var_node, sort_node, body_node = items[1], items[2], items[3]
        if not isinstance(var_node, SSym) or not isinstance(sort_node, SSym):
            raise ParseError(f"{op} takes a variable, a sort and a body", node.line)
        var, sort = var_node.text, sort_node.text
        if sort not in sig.sorts:
            raise ParseError(f"unknown sort {sort!r}", node.line)
        if var in env:
            raise ParseError(f"variable {var!r} already bound", node.line)
        if sig.const_sort(var) is not None or var in sig.atoms:
            raise ParseError(f"variable {var!r} shadows a declared name", node.line)
        parts = [_parse_formula(body_node, sig, {**env, var: (c, sort)})
                 for c in sig.sorts[sort]]
        return make_and(parts) if op == "forall" else make_or(parts)
    if op == "agg":
        if len(items) < 2:
            raise ParseError("agg takes at least one (PRINCIPLE party) pair", node.line)
        return make_or([_parse_principle_pair(x, sig, env) for x in items[1:]])
    if op == "vpref":
        # the chosen lift of a value preference is all-exists; both sides are
        # read before their heads are checked
        _want(node, 3, op)
        strict = _SLOT_READERS["strict"](items[1], sig, env)
        lhs, rhs = (_parse_formula(x, sig, env) for x in items[2:])
        if not all(_head(x) in ("ext", "agg") for x in items[2:]):
            raise ParseError("vpref sides must be ext or agg forms", node.line)
        return SynPref("ae", strict, lhs, rhs)

    # anything else must be a declared atom applied to terms
    if op in RESERVED_HEADS:
        raise ParseError(f"misplaced operator {op!r}", node.line)
    if op not in sig.atoms:
        raise ParseError(f"unknown operator or atom {op!r}", node.line)
    arg_sorts = sig.atoms[op]
    if len(items) - 1 != len(arg_sorts):
        raise ParseError(
            f"atom {op!r} takes {len(arg_sorts)} argument(s), got {len(items) - 1}", node.line
        )
    args = []
    for arg_node, want_sort in zip(items[1:], arg_sorts):
        term, got_sort = _parse_term(arg_node, sig, env)
        if got_sort != want_sort:
            raise ParseError(
                f"atom {op!r} expects sort {want_sort!r}, got {got_sort!r}", node.line
            )
        args.append(term)
    return Atom(op, tuple(args))


def _parse_choice(node, choices, message: str) -> str:
    if isinstance(node, SSym) and node.text in choices:
        return node.text
    raise ParseError(message, getattr(node, "line", None))


def _read_slots(op: str, nodes, sig: Signature, env: Env) -> Formula:
    """Read the slots of a fixed-arity form in order and build it."""
    build, kinds = _FORMS[op]
    return build(*(_SLOT_READERS[kind](x, sig, env) for kind, x in zip(kinds, nodes)))


# Readers of keyword-form slots, by kind: a node field's kind or, for plain
# data, its name.
_SLOT_READERS = {
    "formula": _parse_formula,
    "formulas": _parse_gammas,
    "party": _parse_party,
    "pair": _parse_principle_pair,
    "principle": lambda node, sig, env: _parse_choice(node, PRINCIPLES, "unknown principle"),
    "strict": lambda node, sig, env:
        _parse_choice(node, ("weak", "strict"), "expected weak or strict") == "strict",
    "pattern": lambda node, sig, env:
        _parse_choice(node, LIFT_PATTERNS, "pattern must be one of ee ea ae aa"),
    "value": lambda node, sig, env: _parse_choice(node, BASIC_VALUES, "unknown basic value"),
}


def parse_formula(text: str, sig: Signature) -> Formula:
    forms = read_forms(text)
    if len(forms) != 1:
        raise ParseError(f"expected exactly one formula, got {len(forms)}")
    return _parse_formula(forms[0], sig, {})


# ---------------------------------------------------------------------------
# printing


def format_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        if not f.args:
            return f.pred
        return "(" + " ".join((f.pred, *f.args)) + ")"
    if isinstance(f, Dia):  # dialeq or dialt, with a cp- prefix and guards if it has any
        keyword, sub = "dialt" if f.strict else "dialeq", format_formula(f.sub)
        if not f.guards:
            return f"({keyword} {sub})"
        return f"(cp-{keyword} ({' '.join(map(format_formula, f.guards))}) {sub})"
    layout = _layout(f)
    parts = [_KEYWORD_OF[type(f)]]
    for name, kind in layout:
        value = getattr(f, name)
        if kind == "formula":
            parts.append(format_formula(value))
        elif kind == "formulas":
            # a lone argument list is spread (and, or); a guard slot is a list
            subs = " ".join(map(format_formula, value))
            parts.append(subs if len(layout) == 1 else f"({subs})")
        elif isinstance(value, bool):
            parts.append("strict" if value else "weak")
        else:  # a party or a basic value prints as its name
            parts.append(value)
    return "(" + " ".join(parts) + ")"


# ---------------------------------------------------------------------------
# derived forms: each function returns the core formula it abbreviates


LIFT_PATTERNS = ("ee", "ea", "ae", "aa")


# The modal forms: a diamond is a Dia, a box the negated Dia of its negated
# body (no better world fails it) and `A` the negated `E` of its negated body.
def CpDiaWeak(guards: tuple[Formula, ...], sub: Formula) -> Formula:
    return Dia(guards, False, sub)


def CpDiaStrict(guards: tuple[Formula, ...], sub: Formula) -> Formula:
    return Dia(guards, True, sub)


def DiaWeak(sub: Formula) -> Formula:
    return Dia((), False, sub)


def DiaStrict(sub: Formula) -> Formula:
    return Dia((), True, sub)


def BoxWeak(sub: Formula) -> Formula:
    return Not(Dia((), False, Not(sub)))


def BoxStrict(sub: Formula) -> Formula:
    return Not(Dia((), True, Not(sub)))


def Everywhere(sub: Formula) -> Formula:
    return Not(Somewhere(Not(sub)))


def SynPref(pattern: str, strict: bool, lhs: Formula, rhs: Formula) -> Formula:
    """Binary preference statement, one of the eight syntactic variants."""
    dia = DiaStrict if strict else DiaWeak
    # The existential/universal "box of the complement" variants flip flavor:
    # weak uses the strict box, strict uses the weak box.
    box = BoxWeak if strict else BoxStrict
    if pattern == "ee":
        return Somewhere(And((lhs, dia(rhs))))
    if pattern == "ae":
        return Everywhere(Implies(lhs, dia(rhs)))
    if pattern == "ea":
        return Somewhere(And((rhs, box(Not(lhs)))))
    if pattern == "aa":
        return Everywhere(Implies(rhs, box(Not(lhs))))
    raise ValueError(f"unknown pattern {pattern!r}")


def Cond(lhs: Formula, rhs: Formula) -> Formula:
    """Defeasible conditional: best antecedent worlds satisfy the consequent."""
    return Everywhere(Implies(lhs, DiaWeak(And((lhs, BoxWeak(Implies(lhs, rhs)))))))


def _principle_conjunction(principle: str, party: str) -> Formula:
    """The worlds realizing both values the principle commits the party to."""
    v1, v2 = PRINCIPLES[principle]
    return And((ValAtom(v1, party), ValAtom(v2, party)))


def conflict(party: str) -> Formula:
    """All four basic values observed for one party at once."""
    return And(tuple(ValAtom(v, party) for v in BASIC_VALUES))


# Every fixed-arity keyword form: its builder and the kinds of its slots, in
# order.  A core keyword builds its node from its fields; a derived form
# builds the core formula it abbreviates.
_FORMS = {
    **{kw: (cls, tuple(kind or name for name, kind in _LAYOUT[cls]))
       for kw, cls in KEYWORDS.items() if cls not in (And, Or)},
    "dialeq": (DiaWeak, ("formula",)), "dialt": (DiaStrict, ("formula",)),
    "cp-dialeq": (CpDiaWeak, ("formulas", "formula")),
    "cp-dialt": (CpDiaStrict, ("formulas", "formula")),
    "boxleq": (BoxWeak, ("formula",)), "boxlt": (BoxStrict, ("formula",)),
    "A": (Everywhere, ("formula",)),
    "prefsyn": (SynPref, ("pattern", "strict", "formula", "formula")),
    "cond": (Cond, ("formula", "formula")),
    "ext": (_principle_conjunction, ("principle", "party")),
    # factual premises tie a decision to reaching a principle's worlds
    "promotes": (lambda premise, decision, target:
                 Implies(premise, BoxStrict(Iff(decision, DiaStrict(target)))),
                 ("formula", "formula", "pair")),
    "conflict": (conflict, ("party",)),
}
# Every head the parser reads itself (the operators and `other`), so never an
# atom's name.
RESERVED_HEADS = frozenset((*KEYWORDS, *_FORMS, "forall", "exists", "agg", "vpref", "other"))


def desugar(f: Formula) -> Formula:
    """Return f, which is core: kept because bench/ calls it by name."""
    return f


def elaborate(f: Formula, sig: Signature) -> Formula:
    """Return f, which is ground and core: kept because bench/ calls it by name."""
    return f


# ---------------------------------------------------------------------------
# symbol collection (used for oracle enumeration and model validation)


def collect_symbols(formulas) -> tuple[set[tuple[str, tuple[str, ...]]], set[ValueSymbol]]:
    """Ground atom keys and incidence keys occurring in the formulas."""
    atoms: set[tuple[str, tuple[str, ...]]] = set()
    incidence: set[ValueSymbol] = set()

    def walk(g: Formula):
        if isinstance(g, Atom):
            atoms.add((g.pred, g.args))
        elif isinstance(g, ValAtom):
            incidence.add((g.value, g.party))
        else:
            for sub in children(g):
                walk(sub)

    for f in formulas:
        walk(f)
    return atoms, incidence
