"""Ordinary and generalized Veltman frames and models.

A generalized frame has a transitive irreflexive accessibility relation R and,
for every w, a relation S_w between worlds u in R[w] and nonempty subsets of
R[w].  S_w is required to be quasi-reflexive (u S_w {u}), monotone, closed
under successor steps (w R u R v forces u S_w {v}) and quasi-transitive.

R and S are each stored once, as world bitmasks (bit i is ``worlds[i]``):
``succ_mask[w]`` is R[w], built in one pass over the edges in document order.
Monotonicity is not stored: S_w(u) is an antichain of minimal generator
masks, and ``s_holds_mask(w, u, V)`` means some generator is contained in V.
An ordinary frame stores S_w as one mask per u: ``s[w][u]`` is the v with
u S_w v.  Every reader of R and S in the package works on those masks;
world names appear only at the boundary: the derived views ``pairs``,
``successors``, ``gens``, ``s_holds`` and ``s_pairs``, ``to_json`` and
``Violation`` witnesses.

Forcing is read in a frame's complex algebra: ``GenFrame.box``/``rhd`` on world
bitmasks, the encoding of ``[]`` and ``|>`` that every model reads.
``properties`` reads them through the lookup tables they build,
``GenFrame._lookups``, when it walks valuations for a witness; it decides
frame validity with its own per-world step, which reads R and S by world
index from ``GenFrame._index_rows``.
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


def bits(x: int) -> list[int]:
    """The one-bit masks of ``x``, lowest first."""
    out = []
    while x:
        out.append(x & -x)
        x &= x - 1
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


def _antichains(s: Mapping[World, Mapping[World, Iterable[int]]]) -> dict:
    return {w: {u: antichain(gens) for u, gens in per_u.items()} for w, per_u in s.items()}


class _Frame:
    """Worlds (sorted) and R, as ``succ_mask[w]`` = R[w], for both kinds of frame."""

    def __init__(self, worlds: Iterable[World], pairs: Iterable[tuple[World, World]]):
        self.worlds: tuple[World, ...] = tuple(sorted(set(worlds)))
        if not self.worlds:
            raise FrameError("empty world set")
        self.bit = bit = {w: 1 << i for i, w in enumerate(self.worlds)}
        self.succ_mask = succ = dict.fromkeys(self.worlds, 0)
        for a, b in pairs:
            if a not in bit or b not in bit:
                raise FrameError(f"R edge ({a}, {b}) mentions an unknown world")
            succ[a] |= bit[b]

    @property
    def pairs(self) -> frozenset[tuple[World, World]]:
        """R as world-name pairs, derived from ``succ_mask``."""
        return frozenset((w, u) for w, r in self.succ_mask.items() for u in self.names(r))

    def successors(self, w: World) -> frozenset[World]:
        """R[w] as world names, derived from ``succ_mask``."""
        return frozenset(self.names(self.succ_mask[w]))

    def mask(self, ws: Iterable[World]) -> int:
        return sum(map(self.bit.__getitem__, set(ws)))

    def names(self, x: int) -> tuple[World, ...]:
        """The worlds in mask ``x``, in world order."""
        out = []
        while x:
            out.append(self.worlds[(x & -x).bit_length() - 1])
            x &= x - 1
        return tuple(out)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class GenFrame(_Frame):
    """Generalized Veltman frame.  S is stored once: ``s[w][u]`` is the
    ``antichain`` of world masks generating S_w(u), bit i standing for
    ``worlds[i]``.  ``box`` and ``rhd`` read world bitmasks with only ``&``,
    ``|``, ``^``, ``==``, ``!=`` and ``*``: a Python int is one truth set
    of any width, a numpy array of unsigned integers a grid of them, and the
    result keeps the operand's dtype."""

    def __init__(self, worlds: Iterable[World], pairs: Iterable[tuple[World, World]],
                 families: Mapping[World, Mapping[World, Iterable[Iterable[World]]]]):
        super().__init__(worlds, pairs)
        s: dict[World, dict[World, list[int]]] = {}
        for w, per_u in families.items():
            if w not in self.bit:
                raise FrameError(f"S family keyed by unknown world {w}")
            for u, gens in per_u.items():
                if u not in self.bit:
                    raise FrameError(f"S family for {w} keyed by unknown world {u}")
                for g in gens:
                    g = set(g)
                    if not g:
                        raise FrameError(f"empty S-image set for ({w}, {u})")
                    if not g <= self.bit.keys():
                        raise FrameError(f"S-image for ({w}, {u}) mentions an unknown world")
                    s.setdefault(w, {}).setdefault(u, []).append(self.mask(g))
        self.s = _antichains(s)

    @classmethod
    def from_masks(cls, worlds: Iterable[World], succ_mask: Mapping[World, int],
                   s: Mapping[World, Mapping[World, Iterable[int]]]) -> GenFrame:
        """The frame with R[w] the mask ``succ_mask[w]`` (0 if absent) and S_w(u)
        generated by ``s[w][u]``, one or more nonzero masks over the sorted worlds."""
        frame = cls(worlds, (), {})
        frame.succ_mask = {w: succ_mask.get(w, 0) for w in frame.worlds}
        frame.s = _antichains(s)
        return frame

    def gen_masks(self, w: World, u: World) -> tuple[int, ...]:
        return self.s.get(w, {}).get(u, ())

    def gens(self, w: World, u: World) -> tuple[frozenset[World], ...]:
        return tuple(frozenset(self.names(g)) for g in self.gen_masks(w, u))

    def s_holds_mask(self, w: World, u: World, v: int) -> bool:
        """u S_w V in the monotone closure, V a world mask: requires u in
        R[w], V nonempty and inside R[w], and some generator inside V."""
        r = self.succ_mask[w]
        if v == 0 or v & ~r or not r & self.bit[u]:
            return False
        for low, gens in self._buckets.get(w, {}).get(u, ()):
            if low & v:
                for g in gens:
                    if g & ~v == 0:
                        return True
        return False

    def s_holds(self, w: World, u: World, vs: Iterable[World]) -> bool:
        """``s_holds_mask`` for V given as world names."""
        vs = set(vs)
        return vs <= self.bit.keys() and self.s_holds_mask(w, u, self.mask(vs))

    @cached_property
    def _rows(self) -> dict:
        """Per world w, in world order: its bit, the mask of R[w], and for
        each u in R[w], lowest bit first, the bit and name of u with the
        generators of S_w(u), read off ``s[w]`` in one walk of R[w]'s bits."""
        worlds, out = self.worlds, {}
        for w, r in self.succ_mask.items():
            per_u, images, x = self.s.get(w, {}), [], r
            while x:
                b = x & -x
                u = worlds[b.bit_length() - 1]
                images.append((b, u, per_u.get(u, ())))
                x ^= b
            out[w] = (self.bit[w], r, tuple(images))
        return out

    @cached_property
    def _index_rows(self) -> tuple:
        """``_rows`` by world index, for the skeleton table: per world, in
        world order, the indices of R[w] and, for each u in R[w], the index
        of u, those of the one-world generators of S_w(u) and the others
        as tuples of indices."""
        def index(x):
            return tuple(b.bit_length() - 1 for b in bits(x))

        return tuple((index(r), tuple((bu.bit_length() - 1,
                                       tuple(g.bit_length() - 1 for g in gens if g & g - 1 == 0),
                                       tuple(index(g) for g in gens if g & g - 1))
                                      for bu, _, gens in images))
                     for _, r, images in self._rows.values())

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

    def _rows_for(self, x):
        """The rows ``box`` and ``rhd`` read for an operand like ``x``: the
        ``_rows`` for a Python int; for a numpy array, built on each call,
        the same rows with each world's bit a scalar of the array's dtype,
        since a bool array times a Python int is int64 and would widen every
        later pass."""
        if type(x) is int:
            return self._rows.values()
        t = x.dtype.type
        return [(t(bw), r, images) for bw, r, images in self._rows.values()]

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
        out = x & 0
        for bw, succ, _ in self._rows_for(out):
            out = out | ((x & succ) == succ) * bw
        return out

    def _blocked(self, b):
        """The step of ``rhd`` for a right operand ``b``: per world u that
        is some world's R-successor, by u's bit, the mask of the worlds w
        with u in R[w] where u is blocked, no generator of S_w(u) lying
        inside ``b``.  On Python ints a pair is dropped at its first
        generator inside ``b`` (only a Python bool is ``False``), so every
        entry is nonzero; on arrays every pair is kept."""
        table: dict = {}
        for bw, _, images in self._rows_for(b & 0):
            for bu, _, gens in images:
                blocked = True
                for g in gens:
                    blocked = blocked & ((b & g) != g)
                    if blocked is False:
                        break
                else:
                    table[bu] = table.get(bu, 0) | blocked * bw
        return table

    def rhd(self, a, b, blocked=None):
        """Worlds w such that every R-successor of w in ``a`` has some
        S_w-image inside ``b``: the worlds in no entry at a u in ``a`` of
        the table ``blocked(b)``, by default ``_blocked(b)``; a model passes
        its memo of ``_blocked``."""
        out = a & b & 0
        for bu, ws in (blocked or self._blocked)(b).items():
            out = out | ((a & bu) == bu) * ws
        return out ^ ((1 << len(self.worlds)) - 1)

    def _key(self):
        s = tuple(sorted((w, tuple(sorted(per_u.items()))) for w, per_u in self.s.items()))
        return (self.worlds, tuple(self.succ_mask.values()), s)

    def to_json(self) -> dict:
        return {
            "kind": "gen",
            "worlds": list(self.worlds),
            "R": sorted([a, b] for a, b in self.pairs),
            "S": {w: {u: [list(self.names(g)) for g in gens]
                      for u, gens in sorted(per_u.items())}
                  for w, per_u in sorted(self.s.items())},
        }


def _take_pair(table, a, b):
    """Entry ``(a << 8) | b`` of ``table``, where a and b keep their low
    eight bits, so that b never reaches a's field."""
    return table.take(a.astype("uint16") << 8 | b.astype("uint8", copy=False))


class OrdFrame(_Frame):
    """Ordinary Veltman frame.  S is stored once: ``s[w][u]`` is the world
    mask of the v with u S_w v, kept only when nonzero, u in world order."""

    def __init__(self, worlds: Iterable[World], pairs: Iterable[tuple[World, World]],
                 s: Mapping[World, Iterable[tuple[World, World]]]):
        super().__init__(worlds, pairs)
        bit = self.bit
        self.s: dict[World, dict[World, int]] = {}
        for w, rel in s.items():
            if w not in bit:
                raise FrameError(f"S relation keyed by unknown world {w}")
            per_u: dict[World, int] = {}
            for a, b in [(a, b) for a, b in rel]:  # every pair unpacks before any is checked
                if a not in bit or b not in bit:
                    raise FrameError(f"S_{w} pair ({a}, {b}) mentions an unknown world")
                per_u[a] = per_u.get(a, 0) | bit[b]
            if per_u:
                self.s[w] = dict(sorted(per_u.items()))

    def s_pairs(self, w: World) -> frozenset[tuple[World, World]]:
        """S_w as world-name pairs, derived from ``s``."""
        return frozenset((u, v) for u, x in self.s.get(w, {}).items() for v in self.names(x))

    def _key(self):
        return (self.worlds, tuple(self.succ_mask.values()),
                tuple(sorted((w, tuple(per_u.items())) for w, per_u in self.s.items())))

    def to_json(self) -> dict:
        return {
            "kind": "ord",
            "worlds": list(self.worlds),
            "R": sorted([a, b] for a, b in self.pairs),
            "S": {w: sorted(map(list, self.s_pairs(w))) for w in sorted(self.s)},
        }


def _r_violations(frame) -> list[Violation]:
    r, names = frame.succ_mask, frame.names
    return ([Violation("R-irreflexivity", (a,), f"R contains the loop ({a}, {a})")
             for a, ra in r.items() if ra & frame.bit[a]]
            + [Violation("R-transitivity", (a, b, c), f"{a} R {b} R {c} but not {a} R {c}")
               for a, ra in r.items() for b in names(ra) for c in names(r[b] & ~ra)])


def _a_violations(frame: GenFrame) -> list[Violation]:
    out = []
    for w, r in frame.succ_mask.items():
        for u, gens in sorted(frame.s.get(w, {}).items()):
            if not r & frame.bit[u]:
                out.append(Violation("a", (w, u), f"S_{w} keyed by {u} outside R[{w}]"))
            out += [Violation("a", (w, u, frame.names(g)), f"S_{w} image of {u} leaves R[{w}]")
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
        out += [Violation("b", (w, u), f"missing {u} S_{w} {{{u}}}")
                for w in frame.worlds for bu, u, _ in rows[w][2]
                if not frame.s_holds_mask(w, u, bu)]
        out += [Violation("d", (w, u, v), f"{w} R {u} R {v} but not {u} S_{w} {{{v}}}")
                for w in frame.worlds for _, u, _ in rows[w][2] for bv, v, _ in rows[u][2]
                if not frame.s_holds_mask(w, u, bv)]
        if next(_escapes(frame), None) is not None:
            w, u, g, union = _first_escape(frame)
            out.append(Violation("c", (w, u, frame.names(g), frame.names(union)),
                                 "quasi-transitivity fails"))
        return out
    r, bit, names = frame.succ_mask, frame.bit, frame.names
    for w, rw in r.items():
        s = frame.s.get(w, {})
        out += [Violation("a", (w, a, b), f"S_{w} pair ({a}, {b}) leaves R[{w}]")
                for a, x in s.items() for b in names(x & ~rw if rw & bit[a] else x)]
        out += [Violation("b", (w, u), f"S_{w} is not reflexive at {u}")
                for u in names(rw) if not s.get(u, 0) & bit[u]]
        out += [Violation("c", (w, a, b, c), f"S_{w} is not transitive")
                for a, x in s.items() for b in names(x) for c in names(s.get(b, 0) & ~x)]
        out += [Violation("d", (w, u, v), f"{w} R {u} R {v} but not {u} S_{w} {v}")
                for u in names(rw) for v in names(r[u] & ~s.get(u, 0))]
    return out


def _chains(frame: GenFrame):
    """Every (w, u, G, options) quasi-transitivity constrains: G a generator
    of S_w(u) and options the generators of S_w(v) per v in G, in world
    order.  A G with some v lacking S_w-images has nothing to chain through."""
    for w in frame.worlds:
        per_u = frame.s.get(w, {})
        for u in sorted(per_u):
            for g in per_u[u]:
                options = [per_u.get(v, ()) for v in frame.names(g)]
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
        r, layer, last = frame.succ_mask[w], options[0], 0  # options[0]: a stored antichain
        if len(options) > 2 and r & frame.bit[u]:
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
        r = frame.succ_mask[w]
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
    r = frame.succ_mask
    s = {w: {u: list(gens) for u, gens in per_u.items()} for w, per_u in frame.s.items()}
    for w in frame.worlds:
        for b, u in zip(bits(r[w]), frame.names(r[w])):
            s.setdefault(w, {}).setdefault(u, []).extend([b, *bits(r[u])])
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
        mask = self._truth_mask(f)
        return frozenset(w for w, b in self.frame.bit.items() if mask & b)

    def forces(self, w: World, f: Formula) -> bool:
        return bool(self._truth_mask(f) & self.frame.bit.get(w, 0))


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
    s = {w: {u: bits(x) for u, x in per_u.items()} for w, per_u in m.frame.s.items()}
    return GenModel(GenFrame.from_masks(m.frame.worlds, m.frame.succ_mask, s), m.valuation)


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
