"""Frame conditions characterizing the extension principles, and schema
validity on generalized frames.

Six conditions are implemented, one per principle:

    Mgen   u S_w V  =>  some V' <= V with u S_w V' and R[V'] <= R[u]
    M0gen  w R u R x S_w V  =>  some V' <= V with u S_w V' and R[V'] <= R[u]
    Pgen   w R w' R u S_w V  =>  some V' <= V with u S_{w'} V'
    P0gen  w R x R u S_w V and every v in V has R[v] meeting Z
           =>  some Z' <= Z with u S_x Z'
    Rgen   w R x R u S_w V  =>  for every choice set C of (x, u) there is
           U <= V with x S_w U and R[U] <= C
    Wgen   u S_w V  =>  some V' <= V with u S_w V' and R[V'] disjoint
           from the S_w-preimage of V

A choice set of (x, u) is a subset of R[x] meeting every S_x-image of u;
``choice_sets`` returns the minimal ones (hypergraph transversals of the
generator family).

Quantifier bounds: for Mgen, M0gen, Pgen, P0gen and Rgen it is enough to let
V range over the stored generator sets, because each consequent only uses V
through subsets, so a witness for a generator lifts to every superset.  That
argument fails for Wgen: the preimage term grows with V, so Wgen quantifies
over every set in the monotone closure, and ``check_property`` refuses it
on a world with S entries and more than ``MAX_WGEN_SUCCESSORS`` successors.
Z for P0gen ranges over minimal transversals of {R[v] : v in V} and C for
Rgen over minimal choice sets; both conditions are antitone there, which
makes the minimal elements enough.

``check_property`` is one loop over a condition's items (worlds, sets, a, b,
keep), worlds by index and sets as world masks.  The condition holds when
b S_a keep for every item; the first item without fails it, with the witness
``GenFrame.named(worlds, sets)``.  Items run over V, a stored generator of
S_w(u) (Wgen: every image), for Mgen and Wgen, and over w R x R u with V a
generator of S_w(u) for the rest; Rgen and P0gen also over each choice set C
or transversal Z.  keep is V cut to the worlds with R inside R[u] (Mgen,
M0gen), inside C (Rgen) or off the preimage (Wgen), each by ``GenFrame.box``,
V inside R[w'] (Pgen) or Z inside R[x] (P0gen).

``frame_validates`` decides validity on the skeleton of a formula f: f with
each maximal modal-free subformula (a leaf) replaced by a fresh variable.
The decision is exact:

- a leaf's truth at a world w depends only on the variables' values at w;
- so, with I the set of distinct leaf vectors over the 2^k rows of a
  per-world truth table, the leaf-mask tuples that valuations reach on n
  worlds are exactly those of the |I|^n choices of one vector per world;
- and f is valid on the frame exactly when the skeleton is true at every
  world on each of them.

That table has |I|^n <= (2^k)^n rows and does not depend on the frame, so it
is built once per (formula, size) and kept for the next call.  It is
bit-sliced, as ``hilbert.is_classical_tautology`` slices its truth table and
``_image`` the per-world table that gives I: each value is one Python int
per world, bit r set when it holds there on row r, and one loop over the
skeleton, each node after its children, evaluates it on a frame with its own
per-world step for ``[]`` and ``|>``, which reads R and S by world index
from ``GenFrame._index_rows``.

Only on a failing frame is f walked on the table of its valuations, whose
digits are the sorted variables, each a world mask, for the
lexicographically first failing one: ``_first_failure``, the one user of
numpy, which is imported only then, evaluates it on arrays of world masks
in the smallest unsigned dtype that holds one (uint8 up to eight worlds).
Each ``[]`` or ``|>`` node is one lookup in the frame's tables of
``GenFrame.box``/``rhd``, built by those methods once per frame and kept on
it (``GenFrame._lookups``); past eight worlds there are none, and
``box``/``rhd`` evaluate it themselves.

Both tables have one pass plan.  A row is a tuple of digits, the leading
one first: a world's leaf vector in the skeleton table, a variable's world
mask in the table of valuations.  ``_split`` says how many of the last
digits fit in ``SWEEP_ROWS`` rows, and ``_passes`` runs over the others,
fixed, in lexicographic order, calling ``on_chunk`` before each pass; so
memory is bounded whatever the number of worlds or variables, and the
first failing row of the first failing pass is the first of the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable

from .formula import (Algebra, And, Box, Dia, Formula, Impl, Neg, Or, Rhd, Var, evaluate, fold,
                      variables)
from .hilbert import SCHEMATA, _column, instantiate, schema_metavars
from .model import GenFrame, World, indices, minimal_unions

PROPERTY_IDS = ("Mgen", "M0gen", "Pgen", "P0gen", "Rgen", "Wgen")

SCHEMA_OF_PROPERTY = {
    "Mgen": "M", "M0gen": "M0", "Pgen": "P",
    "P0gen": "P0", "Rgen": "R", "Wgen": "W",
}


@dataclass(frozen=True)
class PropertyReport:
    property_id: str
    holds: bool
    witness: tuple | None = None
    message: str | None = None


def minimal_hitting_sets(sets: Iterable[int]) -> tuple[int, ...]:
    """Minimal transversals of a family of world masks, in ``mask_order``:
    the minimal unions of one bit from each member.  An empty family has the
    empty transversal 0; a family containing 0 has none."""
    return minimal_unions([1 << i for i in indices(s)] for s in sets)


def choice_sets(frame: GenFrame, x: World, u: World) -> tuple[int, ...]:
    """Minimal masks inside R[x] meeting every S_x-image of u.  Requires x R u."""
    i, j = frame.index[x], frame.index[u]
    if not frame.succ[i] >> j & 1:
        raise ValueError(f"choice_sets needs {x} R {u}")
    return minimal_hitting_sets(frame.s.get(i, {}).get(j, ()))


def s_preimage(frame: GenFrame, w: World, v: int) -> int:
    """The mask of all z in R[w] with z S_w V, for V a world mask."""
    i = frame.index[w]
    return sum(1 << z for z, _ in frame._rows[i][1] if frame.s_holds_mask(i, z, v))


# Wgen's V ranges over every subset of R[w], so its scan doubles with each
# successor (a star w -> u1..uk takes about 0.4 s at k = 12 and 1 s at
# k = 13); check_property refuses Wgen past this many successors of a world
# with S entries, before any work.
MAX_WGEN_SUCCESSORS = 12


def _upward_images(frame: GenFrame, w: int, u: int) -> list[int]:
    """Every V with u S_w V, smallest first (the full monotone closure)."""
    ru = [1 << i for i in indices(frame.succ[w])]
    return [v for r in range(1, len(ru) + 1) for v in map(sum, combinations(ru, r))
            if frame.s_holds_mask(w, u, v)]


def _chains(frame: GenFrame):
    """(w, x, u, V) for every w R x R u and generator V of S_w(u), in world order."""
    rows, s = frame._rows, frame.s
    return ((w, x, u, v) for w, (_, images) in enumerate(rows) for x, _ in images
            for u, _ in rows[x][1] for v in s.get(w, {}).get(u, ()))


# the items of each condition on a frame f with R masks r, worlds by index
_ITEMS = {
    "Mgen": lambda f, r: (((w, u), (v,), w, u, v & f.box(r[u]))
                          for w, per_u in sorted(f.s.items()) for u, gens in sorted(per_u.items())
                          for v in gens),
    "M0gen": lambda f, r: (((w, u, x), (v,), w, u, v & f.box(r[u]))
                           for w, u, x, v in _chains(f)),
    "Pgen": lambda f, r: (((w, w2, u), (v,), w2, u, v & r[w2]) for w, w2, u, v in _chains(f)),
    "P0gen": lambda f, r: (((w, x, u), (v, z), x, u, z & r[x]) for w, x, u, v in _chains(f)
                           for z in minimal_hitting_sets(r[y] for y in indices(v))),
    "Rgen": lambda f, r: (((w, x, u), (v, c), w, x, v & f.box(c)) for w, x, u, v in _chains(f)
                          for c in choice_sets(f, f.worlds[x], f.worlds[u])),
    "Wgen": lambda f, r: (((w, u), (v,), w, u, v & f.box(~s_preimage(f, f.worlds[w], v)))
                          for w, per_u in sorted(f.s.items()) for u in sorted(per_u)
                          for v in _upward_images(f, w, u)),
}

_MESSAGES = {
    "Mgen": "no V' <= V with {b} S_{a} V' and R[V'] <= R[{b}]",
    "M0gen": "no V' <= V with {b} S_{a} V' and R[V'] <= R[{b}]",
    "Pgen": "no V' <= V with {b} S_{a} V'",
    "P0gen": "no Z' <= Z with {b} S_{a} Z'",
    "Rgen": "no U <= V with {b} S_{a} U and R[U] <= C",
    "Wgen": "no V' <= V avoiding the S-preimage of V",
}


def check_property(frame: GenFrame, property_id: str) -> PropertyReport:
    """Decide one frame condition; a failure carries a concrete witness."""
    if property_id not in PROPERTY_IDS:
        raise ValueError(f"unknown property {property_id!r}; choose from {PROPERTY_IDS}")
    if property_id == "Wgen":
        for w, per_u in frame.s.items():
            if per_u and (k := frame.succ[w].bit_count()) > MAX_WGEN_SUCCESSORS:
                w = frame.worlds[w]
                raise ValueError(f"Wgen scans every subset of R[{w}], and {w} has {k} "
                                 f"successors; the bound is {MAX_WGEN_SUCCESSORS}")
    for worlds, sets, a, b, keep in _ITEMS[property_id](frame, frame.succ):
        if not frame.s_holds_mask(a, b, keep):
            a, b = frame.named((a, b))
            return PropertyReport(property_id, False, frame.named(worlds, sets),
                                  _MESSAGES[property_id].format(a=a, b=b))
    return PropertyReport(property_id, True)


class FrameSizeError(ValueError):
    pass


@dataclass(frozen=True)
class Falsification:
    valuation: dict[str, frozenset[World]]
    world: World


class TruthTables:
    """Bitmask evaluation of formulas on one frame, in the frame's own
    ``box`` and ``rhd``.  ``evaluate`` maps numpy arrays of variable masks
    to the array of truth-set masks, one entry per row (a valuation).
    ``dtype`` is the smallest unsigned integer type that holds a world mask
    (uint8 up to eight worlds); the top element and unassigned variables
    are read-only one-entry arrays of it that broadcast, so a formula
    without assigned variables yields a one-entry array, and masks of
    ``dtype`` give masks of ``dtype``.

    Up to eight worlds each ``[]`` and ``|>`` node is one lookup from
    ``GenFrame._lookups``, built once per frame: its result has ``dtype``
    whatever the operands', and a mask with bits above world n - 1 gives
    the answer of ``box``/``rhd`` or raises ``IndexError``.  Larger frames,
    which have no lookup tables, are evaluated by ``GenFrame.box``/``rhd``
    themselves.  Only the witness walk builds one, and imports numpy.
    """

    def __init__(self, frame: GenFrame):
        import numpy as np
        self.full = (1 << len(frame.worlds)) - 1
        self.dtype = np.min_scalar_type(self.full)
        self._top = _read_only(np.full(1, self.full, dtype=self.dtype))
        self._zero = _read_only(np.zeros(1, dtype=self.dtype))
        self._box, self._rhd = frame._lookups or (frame.box, frame.rhd)

    def evaluate(self, f: Formula, assignment: dict[str, np.ndarray]) -> np.ndarray:
        zero = self._zero
        return evaluate(f, Algebra(self._top, lambda name: assignment.get(name, zero),
                                   self._box, self._rhd))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# Rows per pass of a table walk: bounds its memory for any number of
# variables; up to four variables on four worlds is one pass.
SWEEP_ROWS = 1 << 16

# Past this many leaves frame_validates decides on the table of valuations.
# It bounds the leaf ints ``_table`` keeps, up to SWEEP_ROWS bits per leaf and
# world (on 4 worlds of 16^4 rows: 2.3 MiB traced at 64 leaves, 8.7 at 256).
MAX_LEAVES = 64


@lru_cache(maxsize=16)
def _grid(size: int, digits: int) -> np.ndarray:
    """Every tuple of ``digits`` digits below ``size``, in lexicographic
    order: row j is the column of the j-th digit, one entry per tuple, in the
    smallest unsigned dtype that holds a digit.  Every pass of the table of
    valuations in ``_first_failure``, its only reader, reads its last
    digits from it, so it is shared and read-only; the last few are kept."""
    import numpy as np
    grid = np.indices((size,) * digits, dtype=np.min_scalar_type(size - 1))
    return _read_only(grid.reshape(digits, size ** digits))


def _split(size: int, digits: int, rows: int) -> int:
    """How many of ``digits`` digits below ``size``, counted from the last,
    fit in one pass of at most ``rows`` rows: the pass plan of both tables
    of ``frame_validates``, which fix the others."""
    inside = 0
    while inside < digits and size ** (inside + 1) <= rows:
        inside += 1
    return inside


def _passes(size: int, fixed: int, on_chunk: Callable[[], None] | None):
    """The fixed digits of each pass, tuples of ``fixed`` digits below
    ``size`` in lexicographic order, calling ``on_chunk`` before each.  An
    odometer, so nothing is held per value of a digit."""
    prefix = [0] * fixed
    while True:
        if on_chunk is not None:
            on_chunk()
        yield tuple(prefix)
        for i in reversed(range(fixed)):
            prefix[i] += 1
            if prefix[i] < size:
                break
            prefix[i] = 0
        else:
            return


def _skeleton(f: Formula) -> tuple[list[tuple], list[Formula]]:
    """The skeleton of ``f``, ``f`` with each maximal modal-free subformula
    (a leaf) replaced by a fresh variable, as a list of steps, each after
    its children, and the leaves in order of first use.  A step is
    (None, j, j, ()) for leaf j and (type, i, j, done) for a connective
    whose children are the steps at i and, if binary, j; ``done`` are the
    steps that no later step reads, so a walk can drop their values."""
    at: dict[Formula, int] = {}
    leaves: list[Formula] = []
    steps: list[tuple] = []

    def leaf(g):
        if g not in at:
            at[g] = len(steps)
            steps.append((None, len(leaves), len(leaves)))
            leaves.append(g)
        return at[g]

    def visit(g, kids):
        if type(g) not in (Box, Dia, Rhd) and all(k is None for k in kids):
            return None  # modal-free
        kids = [leaf(c) if k is None else k for c, k in zip(g.children, kids)]
        steps.append((type(g), kids[0], kids[-1]))
        return len(steps) - 1

    if fold(f, visit, {}) is None:
        leaf(f)
    last = {}  # each step's last reader
    for s, (kind, i, j) in enumerate(steps):
        if kind is not None:
            last[i] = last[j] = s
    done: list[list[int]] = [[] for _ in steps]
    for i, s in last.items():
        done[s].append(i)
    return [(*step, tuple(d)) for step, d in zip(steps, done)], leaves


@lru_cache(maxsize=1)
def _image(f: Formula, rows: int):
    """The skeleton steps of ``f``, |I| and I, the distinct leaf vectors
    over the per-world truth table (one row per assignment of the variables
    at one world), in order of their codes with leaf j at bit j: per leaf,
    the int whose bit d is its value in vector d.  None when the per-world
    table exceeds ``rows`` rows or there are more than ``MAX_LEAVES``
    leaves.  The table is bit-sliced as in ``is_classical_tautology``, and
    its row classes split the row mask by each leaf column c into x & ~c,
    then x & c, depth first from the last leaf: so in code order, holding
    one path of masks (level by level, 16 one-variable leaves took 414 MiB)."""
    vs = sorted(variables(f))
    steps, leaves = _skeleton(f)
    if len(leaves) > MAX_LEAVES or 1 << len(vs) > rows:
        return None
    width = 1 << len(vs)
    full = (1 << width) - 1
    # variable i is row bit i; leaves have no modal nodes, so no box or rhd
    columns = {v: _column(0b10, 2, 1 << i, width) for i, v in enumerate(vs)}
    cols = [evaluate(leaf, Algebra(full, columns.__getitem__, None, None)) for leaf in leaves]
    runs: list[list[str]] = [[] for _ in leaves]  # leaf j's int, as runs of 0s and 1s

    def split(x: int, j: int) -> int:  # the classes of the rows x, alike on leaves j on
        if not j:
            return 1
        one = x & cols[j - 1]
        off = split(x ^ one, j - 1) if one != x else 0
        on = split(one, j - 1) if one else 0
        runs[j - 1].append("0" * off + "1" * on)
        return off + on

    size = split(full, len(leaves))
    return steps, size, [int("".join(r)[::-1], 2) for r in runs]


@lru_cache(maxsize=1)
def _table(f: Formula, worlds: int, rows: int):
    """The frame-independent table that decides ``f`` on frames of
    ``worlds`` worlds in passes of at most ``rows`` rows, or None where
    ``_image`` is None: (steps, size, vectors, fixed, columns, full).

    A row picks one of the ``size`` leaf vectors of I per world, with world
    0 the leading digit.  A pass fixes the vectors of the first ``fixed``
    worlds and runs over those of the rest, as many as fit in ``rows``
    rows; its rows are the bits of ``full``.  ``columns[j][q]`` is leaf j's
    int at world fixed + q, bit r set when the leaf holds there on row r;
    at a fixed world the leaf holds on every row or on none.  The one
    cached table is keyed by the pass size too, so a change of
    ``SWEEP_ROWS`` rebuilds it."""
    found = _image(f, rows)
    if found is None:
        return None
    steps, size, vectors = found
    inside = _split(size, worlds, rows)
    width = size ** inside
    columns = [[_column(v, size, size ** q, width) for q in reversed(range(inside))]
               for v in vectors]
    return steps, size, vectors, worlds - inside, columns, (1 << width) - 1


def _holds(view: tuple, steps: list[tuple], leaves: list[list[int]], full: int) -> bool:
    """One pass of the skeleton table on a frame: is the root true at every
    world on every row?  Each step's value is one int per world whose bit r
    is its truth there on row r, ``leaves[j]`` leaf j's, and is dropped
    after its last reader; ``view`` is the frame's ``_index_rows``.  ``[]x``
    at w is the AND of x[u] over u in R[w], and ``a |> b`` the AND over u
    in R[w] of ~a[u] | OR over the generators g of S_w(u) of the AND of
    b[v] over v in g.

    This step encodes the frame's algebra apart from ``GenFrame.box``/``rhd``
    on purpose.  Through ``semantics``, with one int of n x rows bits per
    node, the modal nodes have to slice out each world's rows: that variant
    decided only 1.1 to 1.5 times as fast as the numpy lookup tables that
    decided before, where this loop is two to six times as fast on the
    4-world search frames."""
    out: list = []
    for kind, i, j, done in steps:
        if kind is None:
            out.append(leaves[i])
            continue
        a = out[i]
        if kind is Neg:
            x = [full ^ p for p in a]
        elif kind is And:
            x = [p & q for p, q in zip(a, out[j])]
        elif kind is Or:
            x = [p | q for p, q in zip(a, out[j])]
        elif kind is Impl:
            x = [(full ^ p) | q for p, q in zip(a, out[j])]
        elif kind is Box:
            x = []
            for succ, _ in view:
                y = full
                for u in succ:
                    y &= a[u]
                x.append(y)
        elif kind is Dia:
            x = []
            for succ, _ in view:
                y = 0
                for u in succ:
                    y |= a[u]
                x.append(y)
        else:  # Rhd
            b, x = out[j], []
            for _, images in view:
                y = full
                for u, singles, others in images:
                    z = 0
                    for v in singles:
                        z |= b[v]
                    for g in others:
                        t = full
                        for v in g:
                            t &= b[v]
                        z |= t
                    y &= (full ^ a[u]) | z
                x.append(y)
        out.append(x)
        for k in done:
            out[k] = None
    return out[-1] == [full] * len(view)


def _skeleton_valid(frame: GenFrame, table, on_chunk: Callable[[], None] | None) -> bool:
    """Is the skeleton of ``_table`` true at every world of ``frame`` on
    every row?  Passes run as ``_passes`` gives them, and the walk stops
    at the first failing pass."""
    steps, size, vectors, fixed, columns, full = table
    view = frame._index_rows
    for prefix in _passes(size, fixed, on_chunk):
        leaves = columns if not prefix else [
            [full if v >> d & 1 else 0 for d in prefix] + col for v, col in zip(vectors, columns)]
        if not _holds(view, steps, leaves, full):
            return False
    return True


def _first_failure(tables: TruthTables, f: Formula, names: list[str],
                   on_chunk: Callable[[], None] | None):
    """The digits and truth mask of the first row of the table of
    valuations on which ``f`` fails at some world, or None.  A row picks one
    world mask per variable of ``names``, in lexicographic order; a pass
    fixes the first variables, each a one-entry array of its digit, and
    reads the rest from the rows of one shared ``_grid``."""
    import numpy as np
    size = tables.full + 1
    inside = _split(size, len(names), SWEEP_ROWS)
    grid = _grid(size, inside)
    fixed = len(names) - inside
    for prefix in _passes(size, fixed, on_chunk):
        assignment = {name: np.array([d], tables.dtype) for name, d in zip(names, prefix)}
        assignment.update(zip(names[fixed:], grid))
        truth = tables.evaluate(f, assignment)
        failing = truth != tables.full
        if failing.any():
            at = int(np.argmax(failing))
            return prefix + tuple(grid[:, at].tolist()), int(truth[at])
    return None


def frame_validates(frame: GenFrame, f: Formula, cap: int = 5,
                    on_chunk: Callable[[], None] | None = None):
    """Is ``f`` forced at every world under every valuation of its variables?

    Returns True on validity, otherwise the lexicographically first failing
    valuation (variables sorted, each ranging over world subsets in bitmask
    order) together with the first failing world.

    Validity is decided on the table of ``_table``, exactly: a leaf's truth
    at a world depends only on the variables' values there, so the leaf
    masks that valuations reach are those of the |I|^n choices of one leaf
    vector per world, and ``f`` is valid exactly when its skeleton is true
    at every world on each of them.  Only on a failing frame, or with no
    skeleton table, is ``f`` walked on the table of its valuations for the
    witness.  ``on_chunk`` is called before each pass of either table and
    may raise to end the walk.
    """
    n = len(frame.worlds)
    if n > cap:
        raise FrameSizeError(f"frame has {n} worlds, cap is {cap}")
    table = _table(f, n, SWEEP_ROWS)
    if table is not None and _skeleton_valid(frame, table, on_chunk):
        return True
    tables = TruthTables(frame)
    vs = sorted(variables(f))
    failure = _first_failure(tables, f, vs, on_chunk)
    if failure is None:
        return True
    digits, truth = failure
    return Falsification({name: frozenset(frame.names(d)) for name, d in zip(vs, digits)},
                         frame.names(tables.full & ~truth)[0])


_FRESH = {"A": Var("a0"), "B": Var("b0"), "C": Var("c0")}


def schema_frame_valid(frame: GenFrame, schema_id: str, cap: int = 5):
    """Validity of the schema instantiated with fresh variables.

    Returns True, or the falsifying (valuation, world) pair.
    """
    if schema_id not in SCHEMATA:
        raise ValueError(f"unknown schema {schema_id!r}; choose from {sorted(SCHEMATA)}")
    inst = instantiate(schema_id, {m: _FRESH[m] for m in schema_metavars(schema_id)})
    return frame_validates(frame, inst, cap=cap)


@dataclass(frozen=True)
class BenchRow:
    frame_index: int
    property_holds: bool
    schema_valid: bool

    @property
    def agree(self) -> bool:
        return self.property_holds == self.schema_valid


@dataclass(frozen=True)
class BenchReport:
    property_id: str
    n: int
    rows: tuple[BenchRow, ...]

    @property
    def disagreements(self) -> tuple[BenchRow, ...]:
        return tuple(r for r in self.rows if not r.agree)


def correspondence_bench(n: int, property_id: str) -> BenchReport:
    """Compare ``check_property`` with ``schema_frame_valid`` on every
    IL frame with n worlds, one per isomorphism class (``enumerate_frames``);
    both sides are invariant under isomorphism."""
    # local import; decide uses this module for its frame filters
    from .decide import enumerate_frames

    if property_id not in PROPERTY_IDS:
        raise ValueError(f"unknown property {property_id!r}")
    schema = SCHEMA_OF_PROPERTY[property_id]
    rows = []
    for i, frame in enumerate(enumerate_frames(n, "IL")):
        holds = check_property(frame, property_id).holds
        valid = schema_frame_valid(frame, schema) is True
        rows.append(BenchRow(i, holds, valid))
    return BenchReport(property_id, n, tuple(rows))
