"""Syntax of the interpretability language.

Formulas are built from propositional variables, ``bot``/``top``, the unary
connectives ``~`` ``[]`` ``<>`` and the binary connectives ``&`` ``|`` ``|>``
``->``.  ``[]A`` and ``<>A`` are first-class AST nodes; :func:`normalize`
rewrites them into the ``|>``-only core: ``[]A`` becomes ``~A |> bot`` and
``<>A`` becomes ``~(A |> bot)``.

Concrete grammar (EBNF)::

    form  := imp
    imp   := rhd ("->" imp)?          # right-associative
    rhd   := or ("|>" or)*            # left-associative
    or    := and ("|" and)*
    and   := unary ("&" unary)*
    unary := ("~" | "[]" | "<>") unary | atom
    atom  := ident | "bot" | "top" | "(" form ")"

Binding, tightest first: ``~ [] <>``, then ``&``, ``|``, ``|>``, ``->``.
Identifiers match ``[a-z][a-zA-Z0-9_]*``; ``bot`` and ``top`` are reserved.
Nesting is bounded: past ``MAX_DEPTH`` nodes on a root-to-leaf path of the
tree, or ``MAX_DEPTH`` open parentheses, the parser raises ParseError.

Formulas are hash-consed (Filliatre and Conchon, 2006): every node is built
through one intern table, so equal formulas are one object, compared and
hashed by identity.  Sets of formulas therefore iterate in an order that
changes from process to process; whatever is printed is sorted first.

Everything computed on formulas is structural recursion, written once as
:func:`fold`, and run as one loop over a set listed children first by
:meth:`Dag.values`; both visit each distinct subformula once, so a formula
that shares subtrees costs its distinct nodes.  The one semantics is the
step both drive,
:func:`semantics`: a node's value in a Boolean algebra with operators
(:class:`Algebra`), such as a frame's complex algebra on world bitmasks, or
truth-table columns.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple

# Binding strength used by the printer; higher binds tighter.
_ATOM, _UNARY, _AND, _OR, _RHD, _IMPL = 100, 90, 80, 70, 60, 50


# Every node is made through one intern table keyed by (type, *children), or
# (type, name) for a variable: equal formulas are one object, so equality is
# identity and hashing is the object's own, both in C.  The table is split
# in two generations, so that throwaway formulas churn only a small dict.
# New nodes go to _young; when it is full, the nodes that only the table
# holds are dropped and the rest move to _old, which is swept the same way
# once it has doubled since its last sweep.  A parent is always inserted
# after its children, so a walk from the newest entry drops a dead parent
# before it looks at the children the parent held.  Only one thread may
# build formulas at a time: two that miss on one key would build two nodes.
_young: dict[tuple, Formula] = {}
_old: dict[tuple, Formula] = {}
_YOUNG_SIZE = 1 << 13
_MIN_OLD = 1 << 16
_old_at = _MIN_OLD
# what sys.getrefcount reads for a dict value that only the dict holds
_ALONE = (lambda d: sys.getrefcount(d[0]))({0: object()})


def _collect(table: dict) -> None:
    """Drop the entries of ``table`` whose node no one else holds."""
    keys = list(table)
    for i in range(len(keys) - 1, -1, -1):
        key, keys[i] = keys[i], None  # the list must not keep the children alive
        if sys.getrefcount(table[key]) == _ALONE:
            del table[key]


def _sweep() -> None:
    global _old_at
    _collect(_young)
    _old.update(_young)
    _young.clear()
    if len(_old) >= _old_at:
        _collect(_old)
        _old_at = max(_MIN_OLD, 2 * len(_old))


class _Interned(type):
    def __call__(cls, *args):
        key = (cls, *args)
        node = _young.get(key) or _old.get(key)
        if node is None:
            if len(_young) >= _YOUNG_SIZE:
                _sweep()
            node = _young[key] = super().__call__(*args)
        return node


class Formula(metaclass=_Interned):
    """Base class for AST nodes.  Nodes are immutable and interned: building
    a formula equal to an existing one returns that object, so ``==`` and
    ``hash`` are the object's identity.  Build nodes positionally; a copy or
    a pickle is interned again on loading.

    Every node has ``children`` (its immediate subformulas, in order), a
    printing ``symbol`` and a binding ``level`` (higher binds tighter).
    """

    __slots__ = ()
    children: tuple = ()
    level = _ATOM

    def __reduce__(self):
        return type(self), self.children

    def rebuild(self, children) -> Formula:
        """The same connective over ``children``: ``self`` when they are
        unchanged, as nodes are interned."""
        return type(self)(*children) if children else self

    def __str__(self) -> str:
        return pretty(self)


class _Unary(Formula):
    __slots__ = ()
    level = _UNARY

    @property
    def children(self) -> tuple:
        return (self.arg,)


class _Binary(Formula):
    __slots__ = ()

    @property
    def children(self) -> tuple:
        return (self.left, self.right)


# eq=False: equality and hashing are identity, as the nodes are interned
_node = dataclass(frozen=True, eq=False, slots=True)


@_node
class Var(Formula):
    name: str

    @property
    def symbol(self) -> str:
        return self.name

    def __reduce__(self):
        return Var, (self.name,)


@_node
class Bot(Formula):
    symbol = "bot"


@_node
class Top(Formula):
    symbol = "top"


@_node
class Neg(_Unary):
    arg: Formula
    symbol = "~"


@_node
class Box(_Unary):
    arg: Formula
    symbol = "[]"


@_node
class Dia(_Unary):
    arg: Formula
    symbol = "<>"


@_node
class And(_Binary):
    left: Formula
    right: Formula
    symbol, level = "&", _AND


@_node
class Or(_Binary):
    left: Formula
    right: Formula
    symbol, level = "|", _OR


@_node
class Impl(_Binary):
    left: Formula
    right: Formula
    symbol, level = "->", _IMPL


@_node
class Rhd(_Binary):
    left: Formula
    right: Formula
    symbol, level = "|>", _RHD


BOT = Bot()
TOP = Top()


class ParseError(ValueError):
    """Raised on malformed input; carries the offset of the offending token."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# The last alternative takes any other character as a token of its own, so
# that findall skips only whitespace; such a token is a bad character.
_TOKEN = re.compile(r"->|\|>|\[\]|<>|[~&|()]|[a-z][a-zA-Z0-9_]*|\S")

MAX_DEPTH = 64

_PREFIX = {"~": Neg, "[]": Box, "<>": Dia}
# left-associative connectives; each class's ``level`` is its binding strength
_INFIX = {"&": And, "|": Or, "|>": Rhd}
_PUNCT = {*_PREFIX, *_INFIX, "->", "(", ")"}
_CONSTANTS = {"bot": BOT, "top": TOP}


class _Parser:
    """Recursive descent that recurses only into parentheses and, for the
    left-associative levels, by precedence climbing; a chain of ``->`` is
    collected by a loop and nested from the right.  ``parse_infix`` returns
    a (node, depth) pair, so the nesting bound is checked as the tree is
    built, before any deep recursion can start.

    Tokens are plain strings, followed by None.  The parser keeps the index
    ``i`` of the current token and computes text offsets only to report an
    error.

    With a memo (:meth:`group`), a ``(`` or ``)`` character is always a
    token of its own and the parser meets them in text order, so the offset
    of the next one is one ``str.find`` from the last one met."""

    def __init__(self, text: str, memo: dict | None = None):
        self.text = text
        self.memo = memo
        self.tokens = tokens = _TOKEN.findall(text)
        # every token is punctuation or starts with [a-z], except a bad character
        bad = {t for t in set(tokens) - _PUNCT if not "a" <= t[0] <= "z"}
        if bad:
            i = next(i for i, t in enumerate(tokens) if t in bad)
            raise self.error(f"unexpected character {tokens[i]!r}", i)
        tokens.append(None)
        self.i = 0
        self.parens = 0
        # memo only: where to look for the next '(' and ')', and the deepest
        # parenthesis nesting met in the innermost open group
        self.opened = self.closed = self.deepest = 0

    def error(self, message: str, i: int) -> ParseError:
        """The error at token ``i``, positioned at its offset in the text."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        return ParseError(message, starts[i])

    def nest(self, depth: int, i: int) -> int:
        """Depth of a new node, built by token ``i``, whose deepest child has ``depth``."""
        if depth >= MAX_DEPTH:
            raise self.error(f"formula nesting exceeds {MAX_DEPTH}", i)
        return depth + 1

    def group(self, i: int):
        """The parenthesized formula opened by token ``i``, as a (node,
        depth) pair; ``self.i`` is left at its ``)``.

        A memo entry is a group that parsed: its exact text, node, node
        depth, parenthesis depth (its own ``(`` counts one) and token count,
        kept under its text up to its first ``)``; of the groups that begin
        alike, the last one parsed.  A group that starts where an entry's
        text starts is that entry: its tokens are the same, and the ``)``
        that balances the first ``(`` ends both.  Its node and node depth do
        not depend on what is around it, but the parenthesis bound does, so
        an entry is taken only if the nesting open around it plus its own
        depth stays within ``MAX_DEPTH``; otherwise the group is parsed
        again, and fails at the same token."""
        memo, text = self.memo, self.text
        if memo is not None:
            o = text.find("(", self.opened)
            head = text[o:text.find(")", o) + 1]
            entry = memo.get(head)
            if entry is not None:
                key, node, d, parens, size = entry
                if self.parens + parens <= MAX_DEPTH and text.startswith(key, o):
                    self.i = i + size - 1
                    self.opened = self.closed = o + len(key)
                    self.deepest = max(self.deepest, self.parens + parens)
                    return node, d
            self.opened = o + 1
            outer, self.deepest = self.deepest, self.parens + 1
        self.parens += 1
        if self.parens > MAX_DEPTH:
            raise self.error(f"parenthesis nesting exceeds {MAX_DEPTH}", i)
        self.i = i + 1
        out, d = self.parse_infix(_IMPL)
        j = self.i
        if self.tokens[j] != ")":
            got = "end of input" if self.tokens[j] is None else repr(self.tokens[j])
            raise self.error(f"expected ')', got {got}", j)
        if memo is not None:
            c = text.find(")", self.closed)
            self.closed = c + 1
            memo[head] = (text[o:c + 1], out, d, self.deepest - self.parens + 1, j - i + 1)
            self.deepest = max(outer, self.deepest)
        self.parens -= 1
        return out, d

    def parse_infix(self, min_level: int):
        """Prefixes, then an atom or a parenthesized formula, then the
        connectives that bind at least as tightly as ``min_level``."""
        tokens, i = self.tokens, self.i
        first = i
        while tokens[i] in _PREFIX:
            i += 1
        prefixed, tok = i, tokens[i]
        if tok == "(":
            out, d = self.group(i)
            i = self.i
        elif tok is None:
            raise self.error("unexpected end of input", i)
        elif tok in _PUNCT:
            raise self.error(f"unexpected token {tok!r}", i)
        else:
            out, d = _CONSTANTS.get(tok) or Var(tok), 1
        i += 1
        for j in range(prefixed - 1, first - 1, -1):
            out, d = _PREFIX[tokens[j]](out), self.nest(d, j)
        cls = _INFIX.get(tokens[i])
        while cls is not None and cls.level >= min_level:
            self.i = i + 1
            right, e = self.parse_infix(cls.level + 1)
            out, d = cls(out, right), self.nest(max(d, e), i)
            i = self.i
            cls = _INFIX.get(tokens[i])
        if tokens[i] == "->" and min_level <= _IMPL:
            # right-associative: collect the chain, then nest from the right
            parts, ops = [(out, d)], []
            while tokens[i] == "->":
                ops.append(i)
                self.i = i + 1
                parts.append(self.parse_infix(_RHD))
                i = self.i
            out, d = parts.pop()
            while ops:
                left, e = parts.pop()
                out, d = Impl(left, out), self.nest(max(d, e), ops.pop())
        self.i = i
        return out, d


def parse(text: str, memo: dict | None = None) -> Formula:
    """Parse ``text`` into a Formula; raises ParseError with a position on bad input.

    ``memo`` keeps each parenthesized group that parsed through it, so that
    a later text restating the group, as proof lines restate earlier lines,
    takes its node instead of parsing it again (:meth:`_Parser.group`); a
    text that is one kept group is not even tokenized.  The answer, and the
    message and position of any error, are the same as without ``memo``.
    """
    if memo is not None and text[:1] == "(":
        entry = memo.get(text[:text.find(")") + 1])
        if entry is not None and entry[0] == text:
            return entry[1]
    p = _Parser(text, memo)
    node, _ = p.parse_infix(_IMPL)
    tok = p.tokens[p.i]
    if tok is not None:
        raise p.error(f"trailing input {tok!r}", p.i)
    return node


_MISSING = object()


def _count_readers(g: Formula, readers: dict) -> None:
    """Add each proper subformula of ``g`` not yet in ``readers``, children
    first, and count the child slots of distinct nodes that read it."""
    for c in g.children:
        if c in readers:
            readers[c] += 1
        else:
            _count_readers(c, readers)
            readers[c] = 1


def fold(f: Formula, visit: Callable[[Formula, tuple], Any], memo: dict | None = None):
    """Structural recursion, bottom-up: ``visit(g, values)`` gets a node and
    the values of its children, in order.

    Every distinct subformula is visited once, so a formula that shares
    subtrees costs its distinct nodes, not its tree.  Without ``memo`` each
    value is dropped once the last of its parents has read it.  With ``memo``
    every value is kept there; an entry already in ``memo`` stands for its
    subtree, which is not entered.  One ``memo`` may serve many calls with
    the same ``visit``, so work on subtrees shared across formulas is done
    once.
    """
    if memo is None:
        readers: dict = {}
        _count_readers(f, readers)
        readers[f] = 0
        values: dict = {}
        for g in readers:
            kids = g.children
            n = len(kids)  # children read by arity, as in Dag.values
            values[g] = visit(g, (values[kids[0]], values[kids[1]]) if n == 2
                              else (values[kids[0]],) if n else ())
            for c in kids:
                left = readers[c] = readers[c] - 1
                if not left:
                    del values[c]
        return values[f]
    out = memo.get(f, _MISSING)
    if out is _MISSING:
        kids = f.children
        n = len(kids)  # children by arity: a comprehension would add a stack frame per level
        out = memo[f] = visit(f, (fold(kids[0], visit, memo), fold(kids[1], visit, memo))
                              if n == 2 else (fold(kids[0], visit, memo),) if n else ())
    return out


class Algebra(NamedTuple):
    """A Boolean algebra with operators, as :func:`evaluate` reads it.

    ``full`` is the top element; ``x ^ full``, ``x & y`` and ``x | y`` must
    be complement, meet and join, as they are on Python ints and numpy integer
    arrays alike.  ``atom`` values a variable by name; ``box`` and ``rhd``
    interpret ``[]`` and ``|>``: on a frame, ``GenFrame.box``/``rhd``.
    """
    full: Any
    atom: Callable[[str], Any]
    box: Callable[[Any], Any]
    rhd: Callable[[Any, Any], Any]


def semantics(algebra: Algebra) -> Callable[[Formula, tuple], Any]:
    """The value of one node in ``algebra`` from the values of its children:
    the step that :func:`fold` and :meth:`Dag.values` drive.  ``<>`` is the
    dual of ``[]``."""
    full, atom, box, rhd = algebra

    def visit(g, v):
        t = type(g)  # most members of an adequate set are Neg or Rhd nodes
        if t is Neg:
            return v[0] ^ full
        if t is Rhd:
            return rhd(v[0], v[1])
        if t is Var:
            return atom(g.name)
        if t is And:
            return v[0] & v[1]
        if t is Or:
            return v[0] | v[1]
        if t is Impl:
            return (v[0] ^ full) | v[1]
        if t is Box:
            return box(v[0])
        if t is Dia:
            return box(v[0] ^ full) ^ full
        if t is Top:
            return full
        if t is Bot:
            return full ^ full
        raise TypeError(f"not a formula: {g!r}")

    return visit


def evaluate(f: Formula, algebra: Algebra, memo: dict | None = None):
    """The value of ``f`` in ``algebra``, folded with :func:`semantics`.

    ``memo`` is passed to :func:`fold`: it caches values, and seeded entries
    override the value of their subformula.
    """
    return fold(f, semantics(algebra), memo)


def _wrap(child: Formula, text: str, strict_below: int) -> str:
    return f"({text})" if child.level < strict_below else text


def _show(g: Formula, texts: tuple) -> str:
    if not texts:
        return g.symbol
    if len(texts) == 1:
        return g.symbol + _wrap(g.arg, texts[0], _UNARY)
    # -> is right-associative, the other binary connectives left-associative
    lo, ro = (g.level + 1, g.level) if type(g) is Impl else (g.level, g.level + 1)
    return f"{_wrap(g.left, texts[0], lo)} {g.symbol} {_wrap(g.right, texts[1], ro)}"


def pretty(f: Formula, memo: dict | None = None) -> str:
    """Render ``f`` with minimal parentheses; `parse(pretty(f)) == f`.

    ``memo`` is passed to :func:`fold`: it keeps the text of every subformula
    printed through it.
    """
    return fold(f, _show, memo)


def _expand(g: Formula, v: tuple) -> Formula:
    t = type(g)
    if t is Box:
        return Rhd(Neg(v[0]), BOT)
    if t is Dia:
        return Neg(Rhd(v[0], BOT))
    return g.rebuild(v)


def normalize(f: Formula, memo: dict | None = None) -> Formula:
    """Eliminate [] and <> bottom-up: []A -> ~A |> bot, <>A -> ~(A |> bot).

    Idempotent; leaves every other connective untouched.  ``memo`` is passed
    to :func:`fold`: it maps each subformula normalized through it to its
    normal form.
    """
    return fold(f, _expand, memo)


def subformulas(f: Formula) -> frozenset[Formula]:
    """All subformulas of ``f`` including ``f``.  [] and <> nodes contribute
    themselves and their arguments, not their normalized expansions."""
    seen: dict = {}
    fold(f, lambda g, v: None, seen)
    return frozenset(seen)


def single_negation(f: Formula) -> Formula:
    """~A for non-negations, the stripped body for negations."""
    return f.arg if isinstance(f, Neg) else Neg(f)


def variables(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Var))


def d_closure(seeds: Iterable[Formula]) -> frozenset[Formula]:
    """Least superset of ``seeds`` plus top that is closed under subformulas
    and single negation: their subformulas and the single negations of
    those, as a single negation adds no new subformula and undoes itself."""
    seen: dict = {}
    for g in [*seeds, TOP]:
        fold(g, lambda h, v: None, seen)
    return frozenset([*seen, *map(single_negation, seen)])


def _pool(gamma: Iterable[Formula]) -> frozenset[Formula]:
    """Antecedents and succedents of the |>-formulas in ``gamma``, read off the
    normalized forms (so a [] node contributes via its ``~A |> bot`` shape)."""
    out: set[Formula] = set()
    normal: dict = {}
    for g in gamma:
        n = normalize(g, normal)
        if isinstance(n, Rhd):
            out.update(n.children)
    return frozenset(out)


class Dag(frozenset):
    """A set of formulas closed under subformulas that also lists them, as
    ``members``, each after its children; ``kids[i]`` are the positions of
    ``members[i].children``, so a walk reads each child's value from a list
    by position.  Equality, hashing and ``len`` are the set's."""

    __slots__ = ("members", "kids")

    def __new__(cls, members: Iterable[Formula], kids: Iterable[tuple[int, ...]]):
        members = tuple(members)
        out = super().__new__(cls, members)
        out.members, out.kids = members, tuple(kids)
        return out

    def __reduce__(self):
        return type(self), (self.members, self.kids)

    def values(self, visit: Callable[[Formula, tuple], Any]) -> list:
        """:func:`fold` over every member in one loop: each member's value, in
        ``members`` order.  The children's values are read by arity, as no
        node has more than two."""
        out: list = []
        append = out.append
        for g, k in zip(self.members, self.kids):
            n = len(k)
            append(visit(g, (out[k[0]], out[k[1]]) if n == 2 else (out[k[0]],) if n else ()))
        return out


def adequate_set(d: Iterable[Formula]) -> Dag:
    """Least superset of ``d`` closed under the five structure conditions:
    subformulas, single negation, membership of ``bot |> bot``, pairing of
    |>-components, and ``[]~A`` for every A in ``d``.

    A worklist over members, each numbered by its position: ``fold`` with
    ``ids`` as its memo gives a formula's position, and ``add`` numbers a
    new member after its children and queues it.  A new [] or |> member is
    normalized, through one memo shared by the whole worklist, unless it
    pairs two components, which is already normal; a component new to the
    pool is paired with every component already there.  Pairings are most
    of the set, and owe only their negation: a new one is added with its
    ``Neg`` at once, off the worklist, at a few dict and list operations
    each.
    """
    d = frozenset(d)
    ids: dict[Formula, int] = {}
    members: list[Formula] = []
    kids: list[tuple[int, ...]] = []
    todo: list[int] = []

    def add(f: Formula, k: tuple) -> int:
        i = len(members)
        members.append(f)
        kids.append(k)
        todo.append(i)
        return i

    for f in (*d, Rhd(BOT, BOT), *(Box(Neg(a)) for a in d)):
        fold(f, add, ids)
    pool: set[int] = set()
    normal: dict = {}
    while todo:
        i = todo.pop()
        g = members[i]
        t = type(g)
        if t is not Neg:
            fold(Neg(g), add, ids)
        if t is Box or (t is Rhd and not pool.issuperset(kids[i])):
            for c in (fold(x, add, ids) for x in normalize(g, normal).children):
                if c not in pool:
                    pool.add(c)
                    a = members[c]
                    for e in pool:
                        b = members[e]
                        for f, k in ((Rhd(a, b), (c, e)), (Rhd(b, a), (e, c))):
                            # a new pairing is normal and its Neg is new: both
                            # are added at once, and neither owes anything more
                            if f not in ids:
                                n = ids[f] = len(members)
                                neg = Neg(f)
                                ids[neg] = n + 1
                                members += f, neg
                                kids += k, (n,)
    return Dag(members, kids)


def is_adequate(gamma: Iterable[Formula], d: Iterable[Formula]) -> bool:
    """Check the five structure conditions for ``gamma`` over ``d`` directly."""
    gamma = frozenset(gamma)
    d = frozenset(d)
    if not d <= gamma:
        return False
    for g in gamma:
        # closed under subformulas exactly when every child is a member
        if not all(c in gamma for c in g.children):
            return False
        if single_negation(g) not in gamma:
            return False
    if Rhd(BOT, BOT) not in gamma:
        return False
    pool = _pool(gamma)
    for a in pool:
        for b in pool:
            if Rhd(a, b) not in gamma:
                return False
    return all(Box(Neg(a)) in gamma for a in d)
