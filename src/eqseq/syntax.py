"""First-order terms, formulas and sequents with multiset semantics.

Parameters stand uniformly for constants and free variables; bound
variables are a separate node kind and are only legal under a binder of
the same name.  All values are immutable.

Terms and formulas are interned: building a node whose class and fields
match a live node returns that node, so within one process there is one
object per structure, and ``==`` and ``hash`` are the object's own.  The
table holds its nodes weakly, so a node nobody references is released.  The
invariant holds per process: a pickled or copied node would be a second
object for its structure, and nothing in the package pickles or copies one.

The package's other values are :class:`Record` subclasses or named tuples,
whose methods are written out, so importing the package generates no record
class and loads no class-generating module.
"""
from __future__ import annotations

import weakref


class EqSeqError(Exception):
    """Base class for all errors raised by this package."""


class SyntaxInvariantError(EqSeqError):
    """A term/formula operation was applied outside its precondition."""


# ---------------------------------------------------------------------------
# Values

_set = object.__setattr__


def _repr(x: object) -> str:
    """``Name(field=value, ...)`` over the ``_fields`` of ``x``, walked with
    an explicit stack: fielded values and plain tuples inside it are walked
    as well, any other value is printed by its own ``repr``."""
    out: list[str] = []
    stack: list = [x]
    while stack:
        v = stack.pop()
        if type(v) is str:
            out.append(v)
            continue
        if type(v) is tuple:
            out.append("(")
            items = [("", a) for a in v]
            stack.append(",)" if len(v) == 1 else ")")
        else:
            out.append(type(v).__name__ + "(")
            items = [(f + "=", getattr(v, f)) for f in v._fields]
            stack.append(")")
        # pushed in reverse: the items pop first to last
        for k in range(len(items) - 1, -1, -1):
            label, a = items[k]
            stack.append(a if type(a) is tuple or hasattr(type(a), "_fields") else repr(a))
            stack.append(", " + label if k else label)
    return "".join(out)


class _Frozen:
    """Fields named in ``_fields``, set once when the value is built (with
    ``object.__setattr__``) and never assigned or deleted afterwards;
    ``repr`` prints ``Name(field=value, ...)``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    __repr__ = _repr


class Record(_Frozen):
    """Base of the immutable values that are neither nodes nor named tuples.

    A subclass sets its fields in its ``__init__``.  Two values are equal when
    they have one class and equal fields, and the hash is that of the field
    tuple.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


class _Entry(weakref.ref):
    """The intern table's weak reference to a live node; it knows the node's key."""

    __slots__ = ("key",)


# the live term and formula nodes, keyed by their class and fields
_table: dict[tuple, _Entry] = {}


def _forget(entry: _Entry, table: dict[tuple, _Entry] = _table) -> None:
    """Drop the entry of a released node, unless a new node took its key.
    The table is bound as a default, so this holds while the interpreter
    shuts down too."""
    if table.get(entry.key) is entry:
        del table[entry.key]


class _Interned(type):
    """Metaclass of the term and formula nodes: a constructor call returns the
    live node with the same class and fields when there is one, and builds
    one from the fields the class names in ``_fields`` otherwise."""

    def __call__(cls, *fields):
        key = (cls, *fields)
        entry = _table.get(key)
        node = None if entry is None else entry()
        if node is None:
            names = cls._fields
            if len(fields) != len(names):
                raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(fields)}")
            node = object.__new__(cls)
            for i in range(len(names)):
                _set(node, names[i], fields[i])
            if cls is FunApp:
                height, has_bound = 0, False
                for a in fields[1]:
                    if a.height > height:
                        height = a.height
                    if a.has_bound:
                        has_bound = True
                _set(node, "height", height + 1)
                _set(node, "has_bound", has_bound)
            entry = _table[key] = _Entry(node, _forget)
            entry.key = key
        return node


class _Node(_Frozen, metaclass=_Interned):
    """Base of the term and formula nodes, whose fields live in slots."""

    __slots__ = ("__weakref__",)


# ---------------------------------------------------------------------------
# Terms


class Term(_Node):
    __slots__ = ()
    height = 0
    has_bound = False


class Param(Term):
    """A constant or free variable (the calculi never distinguish them)."""

    __slots__ = _fields = ("name",)

    def __str__(self) -> str:
        return self.name


class BoundVar(Term):
    __slots__ = _fields = ("name",)
    has_bound = True

    def __str__(self) -> str:
        return self.name


class FunApp(Term):
    """``sym(args)``; ``height`` and ``has_bound`` are set from the arguments
    when the node is built (see ``_Interned``)."""

    __slots__ = ("sym", "args", "height", "has_bound")
    _fields = ("sym", "args")

    def __str__(self) -> str:
        out: list[str] = []
        stack: list[Term | str] = [self]
        while stack:
            t = stack.pop()
            if isinstance(t, FunApp):
                out.append(t.sym + "(")
                # pushed in reverse: the arguments pop first to last, then ")"
                stack.append(")")
                stack += [x for a in reversed(t.args) for x in (", ", a)][1:]
            else:
                out.append(str(t))
        return "".join(out)


def term_height(t: Term) -> int:
    """Height of the formation tree; parameters and bound variables are 0."""
    return t.height


def term_has_bound(t: Term) -> bool:
    return t.has_bound


def subterms(t: Term) -> set[Term]:
    """``t`` and every term inside it."""
    # the result doubles as the visited set, so a shared subterm is walked once
    out = {t}
    stack = [t]
    while stack:
        s = stack.pop()
        if s.height:
            for a in s.args:
                if a not in out:
                    out.add(a)
                    stack.append(a)
    return out


# ---------------------------------------------------------------------------
# Formulas


class Formula(_Node):
    __slots__ = ()

    def __str__(self) -> str:
        """The formula in the parser's syntax with the fewest parentheses.
        An explicit stack holds text and ``(formula, strength)`` pairs: a
        formula binding more loosely than its place needs is parenthesised."""
        out: list[str] = []
        stack: list = [(self, 0)]
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
                continue
            f, need = item
            cls = f.__class__
            if cls is Atom:
                out.append(f"{f.pred}({', '.join(map(str, f.args))})" if f.args else f.pred)
            elif cls is Eq:
                out.append(f"{f.lhs} = {f.rhs}")
            elif cls is Bottom:
                out.append("bot")
            else:
                if cls in _BINARY:
                    text, own, left, right = _BINARY[cls]
                    parts = ((f.right, right), text, (f.left, left))
                elif cls is Forall or cls is Exists:
                    own, parts = 0, ((f.body, 0), f"{'forall' if cls is Forall else 'exists'} {f.var}. ")
                else:
                    raise SyntaxInvariantError(f"unknown formula node {f!r}")
                if need > own:
                    out.append("(")
                    stack.append(")")
                stack += parts  # pushed in reverse: they pop left to right
        return "".join(out)


class Atom(Formula):
    __slots__ = _fields = ("pred", "args")


class Eq(Formula):
    __slots__ = _fields = ("lhs", "rhs")


class Bottom(Formula):
    __slots__ = ()


BOT = Bottom()


class And(Formula):
    __slots__ = _fields = ("left", "right")


class Or(Formula):
    __slots__ = _fields = ("left", "right")


class Imp(Formula):
    __slots__ = _fields = ("left", "right")


class Forall(Formula):
    __slots__ = _fields = ("var", "body")


class Exists(Formula):
    __slots__ = _fields = ("var", "body")


# each connective's text, how strongly it binds (a quantifier: 0), and the
# strength its left and right operands need; the parser reads it too
_BINARY = {Imp: (" -> ", 0, 1, 0), Or: (" | ", 1, 2, 1), And: (" & ", 2, 3, 2)}


def is_atomic(f: Formula) -> bool:
    """Atoms and equalities; the only legal context formulas for replacement."""
    return isinstance(f, (Atom, Eq))


def is_identity(f: Formula) -> bool:
    """``t = t`` with syntactically identical sides."""
    return isinstance(f, Eq) and f.lhs == f.rhs


def atomic_parts(f: Formula) -> list[Formula]:
    """The atoms and equalities of ``f``, left to right, binders included."""
    out: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        cls = g.__class__
        if cls is Atom or cls is Eq:
            out.append(g)
        elif cls is And or cls is Or or cls is Imp:
            stack += (g.right, g.left)
        elif cls is Forall or cls is Exists:
            stack.append(g.body)
        elif cls is not Bottom:
            raise SyntaxInvariantError(f"unknown formula node {g!r}")
    return out


def closed_terms(f: Formula) -> set[Term]:
    """The subterms of ``f`` with no bound variable, under its binders too."""
    return {s for g in atomic_parts(f) for t in _top_terms(g) for s in subterms(t) if not s.has_bound}


def formula_params(f: Formula) -> set[str]:
    return {t.name for t in closed_terms(f) if isinstance(t, Param)}


def formula_has_function_symbols(f: Formula) -> bool:
    return any(isinstance(t, FunApp) for g in atomic_parts(f) for t in _top_terms(g))


# ---------------------------------------------------------------------------
# Substitution


def _map_term(t: Term, image: dict[Term, Term]) -> Term:
    """``t`` with each leaf in ``image`` replaced by its image."""
    if not t.height:
        return image.get(t, t)
    # children first over an explicit stack; an application whose arguments
    # all map to themselves is kept (interned: ``==`` is ``is``)
    done: dict[Term, Term] = {}
    stack = [t]
    while stack:
        s = stack[-1]
        todo = [a for a in s.args if a.height and a not in done]
        if todo:
            stack += todo
            continue
        stack.pop()
        args = tuple([done[a] if a.height else image.get(a, a) for a in s.args])
        done[s] = s if args == s.args else FunApp(s.sym, args)
    return done[t]


def map_leaves(x: Term | Formula, image: dict[Term, Term], rename=None) -> Term | Formula:
    """The term or formula ``x`` with every free occurrence of a leaf
    (parameter or bound variable) in ``image`` replaced by its image, rebuilt
    over an explicit stack.  A parameter is free by construction.  Inside a
    quantifier its own variable leaves the image (shadowing), or, given
    ``rename``, the quantifier takes the name ``rename(quantifier, image)``
    and its variable maps to that name in its body."""
    if isinstance(x, Term):
        return _map_term(x, image)
    out: list[Formula] = []
    # ``(formula, image)`` to map, or ``(formula, None or its new variable)``
    # to rebuild from the parts on top of ``out``
    stack: list = [(x, image)]
    while stack:
        f, img = stack.pop()
        cls = f.__class__
        if img is None:
            right = out.pop()
            out[-1] = cls(out[-1], right)
        elif type(img) is str:
            out[-1] = cls(img, out[-1])
        elif not img and rename is None or cls is Bottom:
            out.append(f)
        elif cls is Atom:
            out.append(Atom(f.pred, tuple([_map_term(a, img) for a in f.args])) if img else f)
        elif cls is Eq:
            out.append(Eq(_map_term(f.lhs, img), _map_term(f.rhs, img)) if img else f)
        elif cls is And or cls is Or or cls is Imp:
            stack += ((f, None), (f.right, img), (f.left, img))
        elif cls is Forall or cls is Exists:
            var, own = f.var, BoundVar(f.var)
            if rename is not None:
                var = rename(f, img)
                img = {**img, own: BoundVar(var)}
            elif own in img:
                img = {k: v for k, v in img.items() if k is not own}
            stack += ((f, var), (f.body, img))
        else:
            raise SyntaxInvariantError(f"unknown node {f!r}")
    return out[0]


def replace_leaf(x: Term | Formula, old: Param | BoundVar, new: Term) -> Term | Formula:
    """:func:`map_leaves` with the one leaf ``old`` mapped to ``new``."""
    return map_leaves(x, {old: new})


def substitute(f: Formula, var: str, t: Term) -> Formula:
    """Replace every free occurrence of the bound variable ``var`` in ``f`` by ``t``.

    ``t`` must not itself contain bound variables: witnesses and
    eigenparameters are always closed terms, and bound names are kept
    distinct from parameter names, so capture cannot occur for legal input.
    """
    if term_has_bound(t):
        raise SyntaxInvariantError(f"unbound-var-in-term: {t}")
    return map_leaves(f, {BoundVar(var): t})


# ---------------------------------------------------------------------------
# Term occurrences inside atomic formulas

Path = tuple[int, ...]


class NonAtomicFormulaError(SyntaxInvariantError):
    pass


class PathError(SyntaxInvariantError):
    pass


def _top_terms(f: Formula) -> tuple[Term, ...]:
    if isinstance(f, Atom):
        return f.args
    if isinstance(f, Eq):
        return (f.lhs, f.rhs)
    raise NonAtomicFormulaError(f"non-atomic-formula: {f}")


def occurrences(f: Formula, t: Term) -> list[Path]:
    """All paths in the atomic formula ``f`` at which ``t`` occurs as a subterm.

    Paths are reported in left-to-right (preorder) order; occurrences nested
    inside a matching occurrence are reported as well.
    """
    acc: list[Path] = []
    # a stack of argument iterators, one per open term, and the path to the
    # term each iterator last gave; only a term taller than ``t`` can hold it
    path = [-1]
    stack = [iter(_top_terms(f))]
    height = t.height
    while stack:
        for s in stack[-1]:
            path[-1] += 1
            if s == t:
                acc.append(tuple(path))
            if s.height > height:
                stack.append(iter(s.args))
                path.append(-1)
                break
        else:
            stack.pop()
            path.pop()
    return acc


def term_at(f: Formula, path: Path) -> Term:
    """Resolve a path in an atomic formula to the term occurrence it denotes."""
    tops = _top_terms(f)
    if not path or path[0] >= len(tops):
        raise PathError(f"path {path} does not resolve in {f}")
    t = tops[path[0]]
    for i in path[1:]:
        if not isinstance(t, FunApp) or i >= len(t.args):
            raise PathError(f"path {path} does not resolve in {f}")
        t = t.args[i]
    return t


def replace_in_term(t: Term, rel: Path, to: Term) -> Term:
    """Replace the subterm of ``t`` at the (term-relative) path by ``to``."""
    above: list[FunApp] = []
    for k, i in enumerate(rel):
        if not isinstance(t, FunApp) or i >= len(t.args):
            raise PathError(f"path component {rel[k:]} does not resolve in {t}")
        above.append(t)
        t = t.args[i]
    for s, i in zip(reversed(above), reversed(rel)):
        args = list(s.args)
        args[i] = to
        to = FunApp(s.sym, tuple(args))
    return to


def paths_overlap(a: Path, b: Path) -> bool:
    n = min(len(a), len(b))
    return a[:n] == b[:n]


def replace_at(f: Formula, paths: frozenset[Path] | set[Path], frm: Term, to: Term) -> Formula:
    """Replace the occurrences of ``frm`` at ``paths`` in the atomic ``f`` by ``to``.

    The paths must be nonempty, pairwise non-overlapping (no path a prefix of
    another), and each must resolve to an occurrence of ``frm``.
    """
    if not paths:
        raise PathError("replacement path set must be nonempty")
    ps = sorted(paths)
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            if paths_overlap(ps[i], ps[j]):
                raise PathError(f"overlapping-paths: {ps[i]} / {ps[j]}")
    for p in ps:
        if term_at(f, p) != frm:
            raise PathError(f"path-mismatch: {p} holds {term_at(f, p)}, not {frm}")
    tops = list(_top_terms(f))
    for p in ps:
        tops[p[0]] = replace_in_term(tops[p[0]], p[1:], to)
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(tops))
    return Eq(tops[0], tops[1])


# ---------------------------------------------------------------------------
# Sequents


class Sequent(Record):
    """A pair of formula multisets; equality ignores order but not multiplicity."""

    _fields = ("ante", "succ")

    def __init__(self, ante: tuple[Formula, ...], succ: tuple[Formula, ...]) -> None:
        _set(self, "ante", ante)
        _set(self, "succ", succ)

    _key = _hash = None  # the multisets and their hash, stored on first use

    def _multisets(self) -> tuple:
        """Each side in address order: one order per multiset, as equal
        formulas are one object."""
        key = self._key
        if key is None:
            key = self.__dict__["_key"] = (tuple(sorted(self.ante, key=id)), tuple(sorted(self.succ, key=id)))
        return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequent):
            return NotImplemented
        return self._multisets() == other._multisets()

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = hash(self._multisets())
        return h

    def __str__(self, show=str) -> str:
        """``A1, ..., Am |- B1, ..., Bn`` in the parser's syntax, each formula
        as ``show`` prints it."""
        return f"{', '.join(map(show, self.ante))} |- {', '.join(map(show, self.succ))}".strip()

    def params(self) -> set[str]:
        out: set[str] = set()
        for f in self.ante + self.succ:
            out |= formula_params(f)
        return out

    def all_formulas(self) -> tuple[Formula, ...]:
        return self.ante + self.succ


def remove_at(fs: tuple[Formula, ...], idx: int) -> tuple[Formula, ...]:
    return fs[:idx] + fs[idx + 1 :]


def replace_formula(fs: tuple[Formula, ...], idx: int, *new: Formula) -> tuple[Formula, ...]:
    return fs[:idx] + tuple(new) + fs[idx + 1 :]
