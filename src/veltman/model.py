"""Ordinary and generalized Veltman frames and models.

A generalized frame has a transitive irreflexive accessibility relation R and,
for every w, a relation S_w between worlds u in R[w] and nonempty subsets of
R[w].  S_w is required to be quasi-reflexive (u S_w {u}), monotone, closed
under successor steps (w R u R v forces u S_w {v}) and quasi-transitive.

Below the file format a world is its index i in the sorted ``worlds``, and
a set of worlds the mask with bit i for ``worlds[i]``.  R and S are each
stored once on indices: ``succ[i]`` is the mask of R[i], built in one pass
over the edges in document order.  Monotonicity is not stored: S_i(j),
``s[i][j]``, is an antichain of minimal generator masks, and
``s_holds_mask(i, j, V)`` means some generator is contained in V.  An
ordinary frame stores S_i as one mask per j: ``s[i][j]`` is the v with
j S_i v.  Every reader of R and S in the package works on indices and
masks; world names appear only at the boundary: loading (``index``), the
derived views ``pairs``, ``successors``, ``gens``, ``s_holds`` and
``s_pairs``, ``to_json`` and ``Violation`` witnesses, named by ``named``.

Forcing is read in a frame's complex algebra: ``GenFrame.box``/``rhd`` on world
bitmasks, the encoding of ``[]`` and ``|>`` that every model reads.
``properties`` reads them through the lookup tables they build,
``GenFrame._lookups``, when it walks valuations for a witness; it decides
frame validity with its own per-world step, which reads R and S as lists of
indices from ``GenFrame._index_rows``.
``rhd(a, b)`` reads one table per right operand b, ``GenFrame._blocked(b)``:
the worlds w, per R-successor u, where no generator of S_w(u) lies inside b.

JSON interchange format::

    {"kind": "gen" | "ord",
     "worlds": ["w", ...],
     "R": [["w", "u"], ...],
     "S": {"w": {"u": [["v", ...], ...]}}        # gen: generator sets
          {"w": [["u", "v"], ...]}               # ord: S_w pairs
     "valuation": {"p": ["w", ...]}}

Empty generator sets are not representable: the constructor rejects them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Iterable, Mapping

from .formula import Algebra, Formula, fold, semantics

World = str


class FrameError(ValueError):
    """Structurally malformed frame or model data."""


@dataclass(frozen=True)
class Violation:
    clause: str
    witness: tuple
    message: str

    def __str__(self) -> str:
        return f"{self.clause} {self.witness}: {self.message}"


def indices(x: int) -> list[int]:
    """The indices of the worlds in mask ``x``, lowest first."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


_FLIP = str.maketrans("01", "10")


def mask_order(g: int) -> tuple[int, str]:
    """Sort key of a world mask: size, then members in world order.  Of
    two masks of one size, the first to hold the lowest world where they
    differ comes first: its bit reads 0 in the complemented binary digits,
    lowest first."""
    return g.bit_count(), bin(g)[:1:-1].translate(_FLIP)


def antichain(masks: Iterable[int]) -> tuple[int, ...]:
    """Drop duplicate and non-minimal masks; order by ``mask_order``.  A
    mask can contain only a distinct kept mask of smaller size, so each
    mask is tested against the masks kept before its size began.  Distinct
    one-world masks are an antichain already, and their int order is
    ``mask_order``."""
    masks = set(masks)
    if len(masks) < 2:
        return tuple(masks)
    if all(g.bit_count() == 1 for g in masks):
        return tuple(sorted(masks))
    out: list[int] = []
    smaller, size = [], 0
    for g in sorted(masks, key=mask_order):
        if g.bit_count() != size:
            size, smaller = g.bit_count(), out[:]
        for h in smaller:
            if h & ~g == 0:
                break
        else:
            out.append(g)
    return tuple(out)


def minimal_unions(choices: Iterable[Iterable[int]]) -> tuple[int, ...]:
    """The minimal unions of one mask from each choice, as an ``antichain``:
    a product pruned to its minimal members after every factor.  No choice
    gives the empty union; an empty choice gives no union at all."""
    unions: tuple[int, ...] = (0,)
    for options in choices:
        unions = antichain(h | g for h in unions for g in options)
    return unions


def _antichains(s: Mapping[int, Mapping[int, Iterable[int]]]) -> dict:
    return {w: {u: antichain(gens) for u, gens in per_u.items()} for w, per_u in s.items()}


class _Frame:
    """Worlds (sorted), their ``index``, and R, as ``succ[i]`` = the mask of
    R[i], for both kinds of frame."""

    def __init__(self, worlds: Iterable[World], pairs: Iterable[tuple[World, World]]):
        self.worlds: tuple[World, ...] = tuple(sorted(set(worlds)))
        if not self.worlds:
            raise FrameError("empty world set")
        self.index = index = {w: i for i, w in enumerate(self.worlds)}
        succ = [0] * len(self.worlds)
        for a, b in pairs:
            if a not in index or b not in index:
                raise FrameError(f"R edge ({a}, {b}) mentions an unknown world")
            succ[index[a]] |= 1 << index[b]
        self.succ: tuple[int, ...] = tuple(succ)

    @property
    def pairs(self) -> frozenset[tuple[World, World]]:
        """R as world-name pairs, derived from ``succ``."""
        return frozenset((w, u) for w, r in zip(self.worlds, self.succ) for u in self.names(r))

    def successors(self, w: World) -> frozenset[World]:
        """R[w] as world names, derived from ``succ``."""
        return frozenset(self.names(self.succ[self.index[w]]))

    def mask(self, ws: Iterable[World]) -> int:
        return sum(1 << self.index[w] for w in set(ws))

    def names(self, x: int) -> tuple[World, ...]:
        """The worlds in mask ``x``, in world order."""
        return tuple(map(self.worlds.__getitem__, indices(x)))

    def named(self, at: Iterable[int], sets: Iterable[int] = ()) -> tuple:
        """A witness as names: the worlds at ``at``, then each mask of ``sets``."""
        return tuple(self.worlds[i] for i in at) + tuple(map(self.names, sets))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class GenFrame(_Frame):
    """Generalized Veltman frame.  S is stored once: ``s[i][j]`` is the
    ``antichain`` of world masks generating S_i(j).  ``box`` and ``rhd``
    read world bitmasks with only ``&``, ``|``, ``^``, ``>>``, ``==``,
    ``!=`` and ``*``: a Python int is one truth set of any width, a numpy
    array of unsigned integers a grid of them, and the result keeps the
    operand's dtype."""

    def __init__(self, worlds: Iterable[World], pairs: Iterable[tuple[World, World]],
                 families: Mapping[World, Mapping[World, Iterable[Iterable[World]]]]):
        super().__init__(worlds, pairs)
        index = self.index
        s: dict[int, dict[int, list[int]]] = {}
        for w, per_u in families.items():
            if w not in index:
                raise FrameError(f"S family keyed by unknown world {w}")
            for u, gens in per_u.items():
                if u not in index:
                    raise FrameError(f"S family for {w} keyed by unknown world {u}")
                for g in gens:
                    g = set(g)
                    if not g:
                        raise FrameError(f"empty S-image set for ({w}, {u})")
                    if not g <= index.keys():
                        raise FrameError(f"S-image for ({w}, {u}) mentions an unknown world")
                    s.setdefault(index[w], {}).setdefault(index[u], []).append(self.mask(g))
        self.s = _antichains(s)

    @classmethod
    def from_masks(cls, worlds: Iterable[World], succ: Iterable[int],
                   s: Mapping[int, Mapping[int, Iterable[int]]]) -> GenFrame:
        """The frame on the sorted ``worlds`` with R[i] the mask ``succ[i]``
        and S_i(j) generated by ``s[i][j]``, one or more nonzero masks."""
        frame = cls(worlds, (), {})
        frame.succ = tuple(succ)
        frame.s = _antichains(s)
        return frame

    def gens(self, w: World, u: World) -> tuple[frozenset[World], ...]:
        index = self.index
        return tuple(frozenset(self.names(g))
                     for g in self.s.get(index.get(w), {}).get(index.get(u), ()))

    def s_holds_mask(self, w: int, u: int, v: int) -> bool:
        """u S_w V in the monotone closure, V a world mask: requires u in
        R[w], V nonempty and inside R[w], and some generator inside V."""
        r = self.succ[w]
        if v == 0 or v & ~r or not r >> u & 1:
            return False
        for low, gens in self._buckets.get(w, {}).get(u, ()):
            if low & v:
                for g in gens:
                    if g & ~v == 0:
                        return True
        return False

    def s_holds(self, w: World, u: World, vs: Iterable[World]) -> bool:
        """``s_holds_mask`` for worlds and V given as names."""
        vs, index = set(vs), self.index
        return vs <= index.keys() and self.s_holds_mask(index[w], index[u], self.mask(vs))

    @cached_property
    def _rows(self) -> tuple:
        """Per world i, in world order: the mask of R[i] and, for each j in
        R[i], lowest first, j with the generators of S_i(j), read off
        ``s[i]`` in one walk of R[i]."""
        s, empty = self.s, {}
        return tuple((r, tuple([(j, per_u.get(j, ())) for j in indices(r)]))
                     for i, r in enumerate(self.succ) for per_u in [s.get(i, empty)])

    @cached_property
    def _index_rows(self) -> tuple:
        """``_rows`` as indices, for the skeleton table: per world, in world
        order, the indices of R[i] and, for each j in R[i], j, the indices
        of the one-world generators of S_i(j) and the others as lists of
        indices."""
        return tuple((indices(r), tuple((j, [g.bit_length() - 1 for g in gens if g & g - 1 == 0],
                                         [indices(g) for g in gens if g & g - 1])
                                        for j, gens in images))
                     for r, images in self._rows)

    @cached_property
    def _buckets(self) -> dict:
        """Per w and u: the generators of S_w(u) grouped by their lowest
        world's bit, as (bit, generators) pairs.  A generator inside V has
        its lowest world in V, so ``s_holds_mask`` scans only the groups of
        worlds of V."""
        out: dict = {}
        for w, per_u in self.s.items():
            for u, gens in per_u.items():
                groups: dict = {}
                for g in gens:
                    groups.setdefault(g & -g, []).append(g)
                out.setdefault(w, {})[u] = tuple(groups.items())
        return out

    @cached_property
    def _lookups(self):
        """``box`` and ``rhd`` as lookups in read-only uint8 tables, or None
        past eight worlds, where a mask no longer fits the byte b of this
        layout.  The tables are built by those methods, so a lookup keeps
        their one encoding: entry x of the box table is ``box(x)`` (2^n
        entries), entry ``(a << 8) | b`` of the rhd table is ``rhd(a, b)``
        (a below 2^n, b below 256).  A mask with bits above world n - 1
        reads as in ``box``/``rhd``, which ignore those bits, or falls
        outside its table and raises ``IndexError``."""
        if len(self.worlds) > 8:
            return None
        import numpy as np
        xs = np.arange(1 << len(self.worlds), dtype=np.uint8)
        box = self.box(xs)
        rhd = self.rhd(xs[:, None], np.arange(256, dtype=np.uint8)[None, :]).ravel()
        box.flags.writeable = rhd.flags.writeable = False
        return box.take, partial(_take_pair, rhd)

    def box(self, x):
        """Worlds all of whose R-successors lie in ``x``."""
        one, out = _one(x), x & 0
        for i, succ in enumerate(self.succ):
            out = out | (((x & succ) == succ) * one) << i
        return out

    def _blocked(self, b):
        """The step of ``rhd`` for a right operand ``b``: per world u that
        is some world's R-successor, by u's index, the mask of the worlds w
        with u in R[w] where u is blocked, no generator of S_w(u) lying
        inside ``b``.  On Python ints a pair is dropped at its first
        generator inside ``b`` (only a Python bool is ``False``), so every
        entry is nonzero; on arrays every pair is kept."""
        one, table = _one(b), {}
        for i, (_, images) in enumerate(self._rows):
            for u, gens in images:
                blocked = True
                for g in gens:
                    blocked = blocked & ((b & g) != g)
                    if blocked is False:
                        break
                else:
                    table[u] = table.get(u, 0) | (blocked * one) << i
        return table

    def rhd(self, a, b, blocked=None):
        """Worlds w such that every R-successor of w in ``a`` has some
        S_w-image inside ``b``: the worlds in no entry at a u in ``a`` of
        the table ``blocked(b)``, by default ``_blocked(b)``; a model passes
        its memo of ``_blocked``."""
        out = a & b & 0
        for u, ws in (blocked or self._blocked)(b).items():
            out = out | (a >> u & 1) * ws
        return out ^ ((1 << len(self.worlds)) - 1)

    def _key(self):
        return (self.worlds, self.succ,
                tuple(sorted((w, tuple(sorted(per_u.items()))) for w, per_u in self.s.items())))

    def to_json(self) -> dict:
        worlds = self.worlds
        return {
            "kind": "gen",
            "worlds": list(worlds),
            "R": sorted([a, b] for a, b in self.pairs),
            "S": {worlds[w]: {worlds[u]: [list(self.names(g)) for g in gens]
                              for u, gens in sorted(per_u.items())}
                  for w, per_u in sorted(self.s.items())},
        }


def _one(x):
    """1 as ``box`` and ``_blocked`` shift it into an operand like ``x``: a
    Python int, or a scalar of a numpy array's dtype, since a bool array
    times a Python int is int64 and would widen every later pass."""
    return 1 if type(x) is int else x.dtype.type(1)


def _take_pair(table, a, b):
    """Entry ``(a << 8) | b`` of ``table``, where a and b keep their low
    eight bits, so that b never reaches a's field."""
    return table.take(a.astype("uint16") << 8 | b.astype("uint8", copy=False))


class OrdFrame(_Frame):
    """Ordinary Veltman frame.  S is stored once: ``s[i][j]`` is the world
    mask of the v with j S_i v, kept only when nonzero, j in world order."""

    def __init__(self, worlds: Iterable[World], pairs: Iterable[tuple[World, World]],
                 s: Mapping[World, Iterable[tuple[World, World]]]):
        super().__init__(worlds, pairs)
        index = self.index
        self.s: dict[int, dict[int, int]] = {}
        for w, rel in s.items():
            if w not in index:
                raise FrameError(f"S relation keyed by unknown world {w}")
            per_u: dict[int, int] = {}
            for a, b in [(a, b) for a, b in rel]:  # every pair unpacks before any is checked
                if a not in index or b not in index:
                    raise FrameError(f"S_{w} pair ({a}, {b}) mentions an unknown world")
                per_u[index[a]] = per_u.get(index[a], 0) | 1 << index[b]
            if per_u:
                self.s[index[w]] = dict(sorted(per_u.items()))

    def s_pairs(self, w: World) -> frozenset[tuple[World, World]]:
        """S_w as world-name pairs, derived from ``s``."""
        return frozenset((self.worlds[u], v) for u, x in self.s.get(self.index.get(w), {}).items()
                         for v in self.names(x))

    def _key(self):
        return (self.worlds, self.succ,
                tuple(sorted((w, tuple(per_u.items())) for w, per_u in self.s.items())))

    def to_json(self) -> dict:
        return {
            "kind": "ord",
            "worlds": list(self.worlds),
            "R": sorted([a, b] for a, b in self.pairs),
            "S": {w: sorted(map(list, self.s_pairs(w)))
                  for w in map(self.worlds.__getitem__, sorted(self.s))},
        }


def _violation(frame, clause: str, message: str, at: tuple, sets: tuple = ()) -> Violation:
    """The ``Violation`` at world indices ``at`` and masks ``sets``: its
    witness ``frame.named(at, sets)``, and ``message`` formatted with it."""
    witness = frame.named(at, sets)
    return Violation(clause, witness, message.format(*witness))


def _r_violations(frame) -> list[Violation]:
    r = frame.succ
    return ([_violation(frame, "R-irreflexivity", "R contains the loop ({0}, {0})", (a,))
             for a, ra in enumerate(r) if ra >> a & 1]
            + [_violation(frame, "R-transitivity", "{0} R {1} R {2} but not {0} R {2}", (a, b, c))
               for a, ra in enumerate(r) for b in indices(ra) for c in indices(r[b] & ~ra)])


def _a_violations(frame: GenFrame) -> list[Violation]:
    out = []
    for w, per_u in sorted(frame.s.items()):
        r = frame.succ[w]
        for u, gens in sorted(per_u.items()):
            if not r >> u & 1:
                out.append(_violation(frame, "a", "S_{0} keyed by {1} outside R[{0}]", (w, u)))
            out += [_violation(frame, "a", "S_{0} image of {1} leaves R[{0}]", (w, u), (g,))
                    for g in gens if g & ~r]
    return out


def validate(frame) -> list[Violation]:
    """Every violated frame clause with a concrete witness.  Clause c fails
    when a minimal union escapes (``_escapes``); its witness is the first
    escaping union in product order (``_first_escape``)."""
    if isinstance(frame, (GenModel, OrdModel)):
        return validate(frame.frame)
    if not isinstance(frame, (GenFrame, OrdFrame)):
        raise TypeError(f"not a frame or model: {frame!r}")
    out = _r_violations(frame)
    if isinstance(frame, GenFrame):
        out += _a_violations(frame)
        rows = frame._rows
        out += [_violation(frame, "b", "missing {1} S_{0} {{{1}}}", (w, u))
                for w, (_, images) in enumerate(rows) for u, _ in images
                if not frame.s_holds_mask(w, u, 1 << u)]
        out += [_violation(frame, "d", "{0} R {1} R {2} but not {1} S_{0} {{{2}}}", (w, u, v))
                for w, (_, images) in enumerate(rows) for u, _ in images for v, _ in rows[u][1]
                if not frame.s_holds_mask(w, u, 1 << v)]
        if next(_escapes(frame), None) is not None:
            w, u, g, union = _first_escape(frame)
            out.append(_violation(frame, "c", "quasi-transitivity fails", (w, u), (g, union)))
        return out
    r = frame.succ
    for w, rw in enumerate(r):
        s = frame.s.get(w, {})
        out += [_violation(frame, "a", "S_{0} pair ({1}, {2}) leaves R[{0}]", (w, a, b))
                for a, x in s.items() for b in indices(x & ~rw if rw >> a & 1 else x)]
        out += [_violation(frame, "b", "S_{0} is not reflexive at {1}", (w, u))
                for u in indices(rw) if not s.get(u, 0) >> u & 1]
        out += [_violation(frame, "c", "S_{0} is not transitive", (w, a, b, c))
                for a, x in s.items() for b in indices(x) for c in indices(s.get(b, 0) & ~x)]
        out += [_violation(frame, "d", "{0} R {1} R {2} but not {1} S_{0} {2}", (w, u, v))
                for u in indices(rw) for v in indices(r[u] & ~s.get(u, 0))]
    return out


def _chains(frame: GenFrame):
    """Every (w, u, G, options) quasi-transitivity constrains: G a generator
    of S_w(u) and options the generators of S_w(v) per v in G, in world
    order.  A G with some v lacking S_w-images has nothing to chain through."""
    for w, per_u in sorted(frame.s.items()):
        for u in sorted(per_u):
            for g in per_u[u]:
                options = [per_u.get(v, ()) for v in indices(g)]
                if all(options):
                    yield w, u, g, options


def _tails(options: list[tuple[int, ...]]) -> tuple[list[int], list[int]]:
    """Per depth d, the union of every option from factor d on, and the union
    of the first option of each factor from d on; both 0 past the last."""
    every, first = [0], [0]
    for hs in reversed(options):
        union = 0
        for h in hs:
            union |= h
        every.append(every[-1] | union)
        first.append(first[-1] | hs[0])
    return every[::-1], first[::-1]


def _escapes(frame: GenFrame):
    """Every (w, u, G, union) where a minimal union of one generator of
    S_w(v) per v in G (as ``minimal_unions`` walks them, breadth first)
    escapes S_w(u), breaking quasi-transitivity: the unions ``close_s``
    adds.  When u and every option lie inside R[w], S_w(u) is upward closed
    over the unions, so before each factor with two or more options but the
    last such, the first partial union that stays out of S_w(u) even with
    every later option added is yielded at once, completed by the first
    options: an escape, maybe not minimal, so deciding need not wait for
    the last factor.  Past the last such factor the layer no longer grows."""
    for w, u, g, options in _chains(frame):
        r, layer, last = frame.succ[w], options[0], 0  # options[0]: a stored antichain
        if len(options) > 2 and r >> u & 1:
            every, first = _tails(options)
            if not every[0] & ~r:
                last = max((d for d, hs in enumerate(options) if len(hs) > 1), default=0)
        for d in range(1, len(options)):
            if d < last and len(options[d]) > 1 and (stuck := next(
                    (p for p in layer if not frame.s_holds_mask(w, u, p | every[d])), 0)):
                last = 0
                yield (w, u, g, stuck | first[d])
            layer = antichain(p | h for p in layer for h in options[d])
        yield from ((w, u, g, p) for p in layer if not frame.s_holds_mask(w, u, p))


def _first_escape(frame: GenFrame):
    """The first (w, u, G, union) where a union of one generator of S_w(v)
    per v in G escapes S_w(u), in ``itertools.product`` order, or None.
    Depth first and exact on any frame: a partial union met before at the
    same depth is skipped; one outside R[w], or one that stays out of S_w(u)
    even with every later option added, escapes with every completion, so
    its completion by the first options is the answer; and one in S_w(u)
    whose later options all lie inside R[w] has no escaping completion."""
    for w, u, g, options in _chains(frame):
        r = frame.succ[w]
        every, first = _tails(options)
        seen, stack = set(), [(0, 0)]  # (options picked, their union)
        while stack:
            d, p = item = stack.pop()
            if item in seen:
                continue
            seen.add(item)
            if p & ~r or not frame.s_holds_mask(w, u, (p | every[d]) & r):
                return (w, u, g, p | first[d])
            if d < len(options) and (every[d] & ~r or not frame.s_holds_mask(w, u, p)):
                stack += [(d + 1, p | h) for h in reversed(options[d])]
    return None


def close_s(frame: GenFrame) -> GenFrame:
    """Least extension of the S families satisfying quasi-reflexivity, the
    successor-step clause and quasi-transitivity.  R must already be
    transitive and irreflexive, and all input generators inside R[w]; a
    frame that breaks this raises ``FrameError``, as chaining could never
    repair it."""
    if bad := _r_violations(frame) or _a_violations(frame):
        raise FrameError(f"cannot close S over an illegal R: {bad[0]}")
    r = frame.succ
    s = {w: {u: list(gens) for u, gens in per_u.items()} for w, per_u in frame.s.items()}
    for w, rw in enumerate(r):
        for u in indices(rw):
            s.setdefault(w, {}).setdefault(u, []).extend(1 << v for v in [u, *indices(r[u])])
    closed = GenFrame.from_masks(frame.worlds, r, s)
    while escapes := list(_escapes(closed)):  # a pass, then one rebuild
        for w, u, _, union in escapes:
            s[w][u].append(union)
        closed = GenFrame.from_masks(frame.worlds, r, s)
    return closed


def _valuation(worlds: Iterable[World],
               valuation: Mapping[str, Iterable[World]]) -> dict[str, frozenset[World]]:
    wset = set(worlds)
    out: dict[str, frozenset[World]] = {}
    for p, ws in valuation.items():
        ws = frozenset(ws)
        if not ws <= wset:
            raise FrameError(f"valuation of {p} mentions an unknown world")
        out[p] = ws
    return out


class _Model:
    """A frame with a valuation, shared by both kinds of model."""

    def __init__(self, frame, valuation: Mapping[str, Iterable[World]]):
        self.frame = frame
        self.valuation = _valuation(frame.worlds, valuation)

    @property
    def worlds(self) -> tuple[World, ...]:
        return self.frame.worlds

    def to_json(self) -> dict:
        out = self.frame.to_json()
        out["valuation"] = {p: sorted(ws) for p, ws in sorted(self.valuation.items())}
        return out


class GenModel(_Model):
    """Generalized frame plus valuation; forcing is memoized per formula as
    a world bitmask in the frame's complex algebra, ``[]`` per mask, ``|>``
    per pair of masks and its table ``GenFrame._blocked`` per right operand
    mask, each on first use: members of an adequate set often share their
    truth masks, and share few distinct right operands.  The operator memos
    hold only masks, so a formula walked through a memo of its own, as
    filtration walks the adequate set, leaves no formula on the model."""

    def __init__(self, frame: GenFrame, valuation: Mapping[str, Iterable[World]]):
        super().__init__(frame, valuation)
        self._truth: dict[Formula, int] = {}
        # the step closes over the frame and valuation, not over self: a
        # model in a reference cycle would wait for the cyclic collector
        valuation = self.valuation
        blocked = cache(frame._blocked)
        rhd = cache(lambda a, b: frame.rhd(a, b, blocked))
        self._step = semantics(Algebra((1 << len(frame.worlds)) - 1,
                                       lambda name: frame.mask(valuation.get(name, ())),
                                       cache(frame.box), rhd))

    def __reduce__(self):  # the step is a closure: a copy builds its own
        return type(self), (self.frame, self.valuation)

    def _truth_mask(self, f: Formula) -> int:
        return fold(f, self._step, self._truth)

    def truth_set(self, f: Formula) -> frozenset[World]:
        return frozenset(self.frame.names(self._truth_mask(f)))

    def forces(self, w: World, f: Formula) -> bool:
        return bool(self._truth_mask(f) & self.frame.mask(self.frame.index.keys() & {w}))


class OrdModel(_Model):
    """Ordinary frame plus valuation.  Forcing goes through the embedding
    into a generalized model (:func:`gen_of_ordinary`), built on first use."""

    @cached_property
    def _gen(self) -> GenModel:
        return gen_of_ordinary(self)

    def truth_set(self, f: Formula) -> frozenset[World]:
        return self._gen.truth_set(f)

    def forces(self, w: World, f: Formula) -> bool:
        return self._gen.forces(w, f)


def gen_of_ordinary(m: OrdModel) -> GenModel:
    """Embed an ordinary model: S'_w(u) is generated by the singletons {v}
    with u S_w v.  Forcing is preserved for every formula."""
    s = {w: {u: [1 << v for v in indices(x)] for u, x in per_u.items()}
         for w, per_u in m.frame.s.items()}
    return GenModel(GenFrame.from_masks(m.frame.worlds, m.frame.succ, s), m.valuation)


def _array(x, what: str, *args) -> list:
    """``x`` where the interchange format wants a JSON array; a string is
    refused rather than read as a sequence of one-character names.  The
    message is ``what.format(*args)``, built only on failure."""
    if not isinstance(x, list):
        raise FrameError(f"{what.format(*args)} must be a JSON array, got {type(x).__name__}")
    return x


def _names(x, what: str, *args) -> list[World]:
    """``_array`` of world names, each a JSON string; any other value is
    refused rather than turned into a name by ``str``."""
    names = _array(x, what, *args)
    for v in names:
        if not isinstance(v, str):
            raise FrameError(f"{what.format(*args)} must hold world names as JSON strings, "
                             f"got {type(v).__name__}")
    return names


def _pairs(x, what: str) -> list[tuple[World, World]]:
    return [(a, b) for a, b in (_names(e, "{} pair", what) for e in _array(x, what))]


def model_from_json(obj: dict) -> GenModel | OrdModel:
    """Build a model from the interchange dict; structural errors raise FrameError."""
    if not isinstance(obj, dict):
        raise FrameError("model document must be a JSON object")
    kind = obj.get("kind")
    if kind not in ("gen", "ord"):
        raise FrameError(f"unknown model kind {kind!r}")
    try:
        worlds = _names(obj["worlds"], "worlds")
        pairs = _pairs(obj["R"], "R")
        valuation = {p: _names(ws, "valuation of {}", p)
                     for p, ws in obj.get("valuation", {}).items()}
        raw_s = obj["S"]
        if kind == "gen":
            families = {w: {u: [_names(g, "S_{} image of {}", w, u)
                                for g in _array(gens, "S_{} images of {}", w, u)]
                            for u, gens in per_u.items()}
                        for w, per_u in raw_s.items()}
            return GenModel(GenFrame(worlds, pairs, families), valuation)
        s = {w: _pairs(rel, "S_" + w) for w, rel in raw_s.items()}
        return OrdModel(OrdFrame(worlds, pairs, s), valuation)
    except FrameError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FrameError(f"malformed model document: {exc}") from exc
