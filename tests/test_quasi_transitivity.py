"""Quasi-transitivity against independent walks.

``model._escapes`` walks the minimal unions breadth first and
``model._first_escape`` the picks depth first, both skipping partial unions;
here they are compared on seeded random frames, illegal ones included (loops,
stray edges, S keyed or with images outside R[w]), with a plain
``itertools.product`` walk over every pick, ``reference.product_escapes``,
and ``close_s`` with ``reference.brute_close_s``.
"""

import random

from reference import (brute_close_s, minimal_escapes, product_escapes, random_frame,
                       wide_frame)

from veltman.model import FrameError, GenFrame, _escapes, _first_escape, close_s, validate


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
        assert c == ([(fr.worlds[first[0]], fr.worlds[first[1]],
                       fr.names(first[2]), fr.names(first[3]))]
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
        ws = got.worlds
        assert {ws[w]: {ws[u]: set(got.gens(ws[w], ws[u])) for u in per_u}
                for w, per_u in got.s.items()} == expected, fr.to_json()
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
    w, u = fr.index["w"], fr.index["u"]
    assert not [e for e in _escapes(fr) if e[1] == u]
    assert (w, u) in {e[:2] for e in product_escapes(fr)}
    assert "c" not in {v.clause for v in validate(fr)}


def test_one_early_escape_per_key():
    """The unclosed 6-wide frame: its minimal escapes are the 32 picks that
    take b00, and the walk yields one of them early, before the rest."""
    vs, a, b = ([f"{c}{i:02d}" for i in range(6)] for c in "vab")
    fr = GenFrame(["w", "u", *vs, *a, *b], [("w", x) for x in ["u", *vs, *a, *b]],
                  {"w": {"u": [vs, ["a00"]], **{v: [[x], [y]] for v, x, y in zip(vs, a, b)}}})
    unions = [union for w, u, g, union in _escapes(fr) if u == fr.index["u"]]
    assert len(unions) == 33 and len(set(unions)) == 32
    assert fr.names(unions[0]) == ("a01", "a02", "a03", "a04", "a05", "b00")
