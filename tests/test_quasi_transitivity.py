"""Quasi-transitivity against independent walks.

``model._escapes`` walks the minimal unions breadth first and
``model._first_escape`` the picks depth first, both skipping partial unions;
here they are compared on seeded random frames, illegal ones included (loops,
stray edges, S keyed or with images outside R[w]), with a plain
``itertools.product`` walk over every pick, ``reference.product_escapes``,
and ``close_s`` with ``reference.brute_close_s``.
"""

import random

from reference import brute_close_s, minimal_escapes, product_escapes, random_r

from veltman.model import FrameError, GenFrame, _escapes, _first_escape, close_s, validate


def random_frame(rng: random.Random) -> GenFrame:
    """A seeded frame of 2 to 7 worlds.  R is a strict order half the time
    and otherwise random pairs, loops allowed; each S_w is keyed mostly by
    R[w], with 1 to 3 generators drawn mostly from R[w]."""
    worlds = [f"w{i}" for i in range(rng.randrange(2, 8))]
    if rng.random() < 0.5:
        pairs = random_r(rng, worlds)
    else:
        pairs = {(a, b) for a in worlds for b in worlds if rng.random() < 0.3}
    succ = {w: sorted(b for a, b in pairs if a == w) for w in worlds}
    fams = {}
    for w in worlds:
        stray = rng.random() < 0.1
        for u in worlds if stray else succ[w]:
            if rng.random() < 0.6:
                pool = worlds if stray or not succ[w] else succ[w]
                fams.setdefault(w, {})[u] = [rng.sample(pool, rng.randrange(1, min(len(pool), 3) + 1))
                                             for _ in range(rng.randrange(1, 4))]
    return GenFrame(worlds, pairs, fams)


def wide_frame(rng: random.Random) -> GenFrame:
    """A seeded frame of 7 to 10 worlds: w R every world but y, and S_w(u)
    for most u has 1 to 3 generators of 1 or 2 members, now and then with
    y; two keys get one more generator of 3 to 5 members, whose picks run
    through several widening factors."""
    others = [f"v{i}" for i in range(rng.randrange(5, 9))]
    fams = {}
    for u in others:
        if rng.random() < 0.8:
            fams[u] = [rng.sample(others, rng.randrange(1, 3)) + (["y"] if rng.random() < 0.05 else [])
                       for _ in range(rng.randrange(1, 4))]
    for u in rng.sample(others, 2):
        fams.setdefault(u, []).append(rng.sample(others, rng.randrange(3, 6)))
    return GenFrame(["w", "y", *others], [("w", v) for v in others], {"w": fams})


def frames(seed: int, count: int, wide: int = 0):
    rng = random.Random(seed)
    return [random_frame(rng) for _ in range(count)] + [wide_frame(rng) for _ in range(wide)]


def test_first_escape_is_the_first_product_escape_on_3000_frames():
    escaping = 0
    for fr in frames(11, 2000, wide=1000):
        first = _first_escape(fr)
        assert first == next(product_escapes(fr), None), fr.to_json()
        escaping += first is not None
        c = [v.witness for v in validate(fr) if v.clause == "c"]
        decided = bool(minimal_escapes(fr))  # c is decided on the minimal unions
        assert c == ([(first[0], first[1], fr.names(first[2]), fr.names(first[3]))]
                     if decided else []), fr.to_json()
    assert 300 < escaping < 2700  # both outcomes are exercised


def test_escapes_yields_every_minimal_escape_and_at_most_one_more():
    early = 0
    for fr in frames(12, 2000, wide=1000):
        yielded = {}
        for w, u, g, union in _escapes(fr):
            yielded.setdefault((w, u, g), []).append(union)
        assert bool(yielded) == bool(next(_escapes(fr), None))
        least = minimal_escapes(fr)
        assert yielded.keys() == least.keys(), fr.to_json()
        full = set(product_escapes(fr))
        for key, unions in yielded.items():
            assert least[key] <= set(unions) and len(unions) <= len(least[key]) + 1
            assert all((*key, x) in full for x in unions)
            early += len(unions) > len(least[key])
    assert early > 20  # the early yield is exercised


def test_close_s_matches_the_brute_fixpoint_on_2300_frames():
    closed = 0
    for fr in frames(13, 2000, wide=300):
        expected = brute_close_s(fr)
        if expected is None:
            try:
                close_s(fr)
            except FrameError:
                continue
            raise AssertionError(f"close_s accepted {fr.to_json()}")
        got = close_s(fr)
        assert {w: {u: set(got.gens(w, u)) for u in per_u} for w, per_u in got.s.items()} \
            == expected, fr.to_json()
        assert next(_escapes(got), None) is None
        closed += 1
    assert closed > 500


def test_an_image_outside_r_is_no_early_escape():
    """{x} lies outside R[w], but every union through it contains one
    through {v01} from the second factor on, so no minimal union escapes
    S_w(u): c holds as it is decided, though a pick through {x} escapes."""
    fr = GenFrame(["w", "u", "v00", "v01", "v02", "x", "z"],
                  [("w", y) for y in ["u", "v00", "v01", "v02", "z"]],
                  {"w": {"u": [["u"], ["v00", "v01", "v02"], ["z"]], "z": [["z"]],
                         "v00": [["v01"], ["x"]], "v01": [["v00", "v01"], ["v01", "z"]],
                         "v02": [["v02"], ["z"]]}})
    assert not [e for e in _escapes(fr) if e[1] == "u"]
    assert ("w", "u") in {e[:2] for e in product_escapes(fr)}
    assert "c" not in {v.clause for v in validate(fr)}


def test_one_early_escape_per_key():
    """The unclosed 6-wide frame: its minimal escapes are the 32 picks that
    take b00, and the walk yields one of them early, before the rest."""
    vs, a, b = ([f"{c}{i:02d}" for i in range(6)] for c in "vab")
    fr = GenFrame(["w", "u", *vs, *a, *b], [("w", x) for x in ["u", *vs, *a, *b]],
                  {"w": {"u": [vs, ["a00"]], **{v: [[x], [y]] for v, x, y in zip(vs, a, b)}}})
    unions = [union for w, u, g, union in _escapes(fr) if u == "u"]
    assert len(unions) == 33 and len(set(unions)) == 32
    assert fr.names(unions[0]) == ("a01", "a02", "a03", "a04", "a05", "b00")
