"""Frames, models, validation, closure, forcing, and the JSON format."""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from reference import (_s_holds_by_scan, dense_ord_frame, duplicated_model, gen_truth_set, mask_key,
                       minimal_masks, ord_truth_set, ord_violations, random_formula,
                       random_gen_frame, random_gen_model, random_masks, random_ord_model,
                       rhd_table_mismatch, toggled_ord_frame)

from veltman.decide import _il_frames
from veltman.formula import Box, Rhd, Var, normalize, parse
from veltman.model import (
    FrameError,
    GenFrame,
    GenModel,
    OrdFrame,
    OrdModel,
    antichain,
    close_s,
    gen_of_ordinary,
    mask_order,
    model_from_json,
    validate,
)


def two_world_model():
    fr = GenFrame(["w", "u"], [("w", "u")], {"w": {"u": [["u"]]}})
    return GenModel(fr, {"p": ["u"]})


class TestGenFrameConstruction:
    def test_empty_worlds_rejected(self):
        with pytest.raises(FrameError):
            GenFrame([], [], {})

    def test_unknown_world_in_r_rejected(self):
        with pytest.raises(FrameError):
            GenFrame(["w"], [("w", "x")], {})

    def test_empty_generator_set_unrepresentable(self):
        with pytest.raises(FrameError, match="empty"):
            GenFrame(["w", "u"], [("w", "u")], {"w": {"u": [[]]}})

    def test_generator_antichain_canonicalized(self):
        fr = GenFrame(["w", "u", "v"], [("w", "u"), ("w", "v")],
                      {"w": {"u": [["u", "v"], ["u"], ["u"]]}})
        # {u} absorbs {u,v}; duplicates dropped
        assert fr.gens("w", "u") == (frozenset({"u"}),)

    def test_equality_ignores_input_order(self):
        a = GenFrame(["u", "w"], [("w", "u")], {"w": {"u": [["u"]]}})
        b = GenFrame(["w", "u"], [("w", "u")], {"w": {"u": [["u"]]}})
        assert a == b and hash(a) == hash(b)


def legal_wide_frame():
    """Each v of the generator {v00..v19} of S_w(u) has two generators, {v}
    and {z}, and {z} generates S_w(u): every pick lies in S_w(u)."""
    vs = [f"v{i:02d}" for i in range(20)]
    return GenFrame(["w", "u", "z", *vs], [("w", x) for x in ["u", "z", *vs]],
                    {"w": {"u": [["u"], vs, ["z"]], "z": [["z"]],
                           **{v: [[v], ["z"]] for v in vs}}})


def trap_wide_frame():
    """S_w(vi) is generated by {vi} and {z} but S_w(v19) by {v19} and {x};
    S_w(u) by {u}, {v00..v19}, {z, v19}, {z, x} and {v00..v18, x}.  Every
    pick lies in S_w(u), yet the 2^19 partial unions with z stay outside it
    until the last factor: only their minimal unions are few."""
    vs = [f"v{i:02d}" for i in range(20)]
    return GenFrame(["w", "u", "x", "z", *vs], [("w", y) for y in ["u", "x", "z", *vs]],
                    {"w": {"u": [["u"], vs, ["z", "v19"], ["z", "x"], [*vs[:-1], "x"]],
                           "x": [["x"]], "z": [["z"]], "v19": [["v19"], ["x"]],
                           **{v: [[v], ["z"]] for v in vs[:-1]}}})


def unclosed_wide_frame(k: int):
    """w R every other world; S_w(u) is generated by {v00..} and {a00}, and
    S_w(vi) by {ai} and {bi}.  A pick escapes S_w(u) iff it takes b00, and
    ``product`` order meets the 2^(k-1) picks that take a00 first."""
    vs, a, b = ([f"{c}{i:02d}" for i in range(k)] for c in "vab")
    others = ["u", *vs, *a, *b]
    return GenFrame(["w", *others], [("w", x) for x in others],
                    {"w": {"u": [vs, ["a00"]], **{v: [[x], [y]] for v, x, y in zip(vs, a, b)}}})


class TestValidate:
    def test_single_world_vacuous(self):
        assert validate(GenFrame(["w"], [], {})) == []

    def test_missing_quasi_reflexivity(self):
        fr = GenFrame(["w", "u"], [("w", "u")], {})
        vs = validate(fr)
        assert any(v.clause == "b" and v.witness == ("w", "u") for v in vs)

    def test_intransitive_r(self):
        fr = GenFrame(["w", "u", "v"], [("w", "u"), ("u", "v")], {})
        vs = validate(fr)
        assert any(v.clause == "R-transitivity" and v.witness == ("w", "u", "v")
                   for v in vs)

    def test_reflexive_r(self):
        fr = GenFrame(["w"], [("w", "w")], {})
        vs = validate(fr)
        assert any(v.clause == "R-irreflexivity" for v in vs)

    def test_s_key_outside_r(self):
        fr = GenFrame(["w", "u", "v"], [("w", "u")], {"w": {"v": [["u"]]}})
        assert any(v.clause == "a" for v in validate(fr))

    def test_generator_escaping_successors(self):
        fr = GenFrame(["w", "u", "v"], [("w", "u")], {"w": {"u": [["v"]]}})
        assert any(v.clause == "a" for v in validate(fr))

    def test_missing_d_clause(self):
        fr = GenFrame(["w", "u", "v"],
                      [("w", "u"), ("w", "v"), ("u", "v")],
                      {"w": {"u": [["u"]], "v": [["v"]]}, "u": {"v": [["v"]]}})
        vs = validate(fr)
        assert any(v.clause == "d" and v.witness == ("w", "u", "v") for v in vs)

    def test_quasi_transitivity_violation(self):
        # u S_w {v} and v S_w {z} demand u S_w {z}
        fr = GenFrame(["w", "u", "v", "z"],
                      [("w", "u"), ("w", "v"), ("w", "z")],
                      {"w": {"u": [["u"], ["v"]], "v": [["v"], ["z"]],
                             "z": [["z"]]}})
        assert any(v.clause == "c" for v in validate(fr))

    def test_legal_frame_clean(self):
        fr = close_s(GenFrame(["w", "u", "v"],
                              [("w", "u"), ("w", "v"), ("u", "v")], {}))
        assert validate(fr) == []

    @pytest.mark.parametrize("frame, c_witnesses", [
        pytest.param(legal_wide_frame(), [], id="legal"),
        pytest.param(trap_wide_frame(), [], id="legal-trap"),
        pytest.param(unclosed_wide_frame(20),
                     [("w", "u", tuple(f"v{i:02d}" for i in range(20)),
                       (*(f"a{i:02d}" for i in range(1, 20)), "b00"))], id="unclosed"),
    ])
    def test_legal_frame_with_a_20_member_generator_is_fast(self, frame, c_witnesses):
        """2^20 picks for the generator {v00..v19} of S_w(u).  Clause c is
        decided on the minimal unions, stopping at a partial union that no
        later option brings into S_w(u); only then are the picks walked,
        depth first, for the witness."""
        started = time.perf_counter()
        violations = validate(frame)
        assert time.perf_counter() - started < 1  # seconds walking every pick
        assert [v.witness for v in violations if v.clause == "c"] == c_witnesses
        if not c_witnesses:
            assert violations == []

    def test_check_model_on_the_62_world_unclosed_frame_exits_1(self, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(GenModel(unclosed_wide_frame(20), {}).to_json()))
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "veltman.cli", "check-model", str(path)],
                              env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1, proc.stderr
        assert "c ('w', 'u'" in proc.stdout

    def test_image_outside_r_does_not_turn_off_pruning(self, tmp_path):
        """S_w(v00) has the image {x}, x outside R[w] (clause a), and the
        b-breaking {v01}; S_w(v01) is {v00, v01}.  Every minimal union for
        {v00..v23} lies in S_w(u), so c holds as it is decided, and the
        2^22 picks through {v01} are never walked."""
        vs = [f"v{i:02d}" for i in range(24)]
        fr = GenFrame(["w", "u", "x", "z", *vs], [("w", y) for y in ["u", "z", *vs]],
                      {"w": {"u": [["u"], vs, ["z"]], "z": [["z"]],
                             "v00": [["v01"], ["x"]], "v01": [["v00", "v01"]],
                             **{v: [[v], ["z"]] for v in vs[2:]}}})
        started = time.perf_counter()
        assert [(v.clause, v.witness) for v in validate(fr)] == [
            ("a", ("w", "v00", ("x",))), ("b", ("w", "v00")), ("b", ("w", "v01"))]
        assert time.perf_counter() - started < 1
        path = tmp_path / "outside.json"
        path.write_text(json.dumps(GenModel(fr, {}).to_json()))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-m", "veltman.cli", "check-model", str(path)],
                              env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1, proc.stderr
        assert "c (" not in proc.stdout


class TestCloseS:
    def test_chain_fixpoint(self):
        fr = close_s(GenFrame(["w", "u", "v"],
                              [("w", "u"), ("w", "v"), ("u", "v")], {}))
        assert fr.gens("w", "u") == (frozenset({"u"}), frozenset({"v"}))
        assert fr.gens("w", "v") == (frozenset({"v"}),)
        assert fr.gens("u", "v") == (frozenset({"v"}),)

    def test_two_world(self):
        fr = close_s(GenFrame(["w", "u"], [("w", "u")], {}))
        assert fr.gens("w", "u") == (frozenset({"u"}),)

    def test_idempotent(self):
        fr = close_s(GenFrame(["w", "u", "v"],
                              [("w", "u"), ("w", "v"), ("u", "v")],
                              {"w": {"u": [["v"]]}}))
        assert close_s(fr) == fr

    def test_wide_generator_closes_with_the_one_minimal_escape(self):
        """S_w(vi) is generated by {vi} and {z}: of the 2^20 picks for
        {v00..v19}, all but one escape S_w(u), and each contains {z}."""
        vs = [f"v{i:02d}" for i in range(20)]
        fr = GenFrame(["w", "u", "z", *vs], [("w", x) for x in ["u", "z", *vs]],
                      {"w": {"u": [vs], **{v: [[v], ["z"]] for v in vs}}})
        started = time.perf_counter()
        closed = close_s(fr)
        assert time.perf_counter() - started < 1
        assert closed.gens("w", "u") == (frozenset({"u"}), frozenset({"z"}), frozenset(vs))

    def test_illegal_r_rejected(self):
        with pytest.raises(FrameError):
            close_s(GenFrame(["w", "u", "v"], [("w", "u"), ("u", "v")], {}))

    def test_s_outside_r_rejected(self):
        # chaining could never repair these, so closing must refuse them
        with pytest.raises(FrameError, match="outside R"):
            close_s(GenFrame(["w", "u", "v"], [("w", "u")], {"w": {"v": [["u"]]}}))
        with pytest.raises(FrameError, match="leaves R"):
            close_s(GenFrame(["w", "u", "v"], [("w", "u"), ("u", "v"), ("w", "v")],
                             {"u": {"v": [["w"]]}}))


def test_close_s_always_legal_1000_random_candidates():
    rng = random.Random(42)
    for _ in range(1000):
        closed = close_s(random_gen_frame(rng, rng.randrange(1, 6), extra=0.5, close=False))
        assert validate(closed) == []


class TestSHolds:
    def setup_method(self):
        self.fr = close_s(GenFrame(["w", "u", "v", "z"],
                                   [("w", "u"), ("w", "v"), ("w", "z"), ("u", "v")],
                                   {}))

    def test_monotone_closure_query(self):
        # gens(w,u) contains {v}; {v,z} is a superset inside R[w]
        assert self.fr.s_holds("w", "u", {"v"})
        assert self.fr.s_holds("w", "u", {"v", "z"})

    def test_v_outside_successors_false(self):
        assert not self.fr.s_holds("w", "u", {"v", "w"})

    def test_empty_v_false(self):
        assert not self.fr.s_holds("w", "u", set())

    def test_monotone_in_v_exhaustive(self):
        worlds = set(self.fr.worlds)
        rw = set(self.fr.successors("w"))
        for u in rw:
            subsets = [frozenset(c) for k in range(len(worlds) + 1)
                       for c in itertools.combinations(sorted(worlds), k)]
            for v1 in subsets:
                if not self.fr.s_holds("w", u, v1):
                    continue
                for v2 in subsets:
                    if v1 <= v2 <= rw:
                        assert self.fr.s_holds("w", u, v2)


def test_s_holds_mask_matches_the_generator_scan():
    rng = random.Random(23)
    frames = itertools.chain(*map(_il_frames, range(1, 5)),
                             (random_gen_frame(rng, rng.randrange(1, 7)) for _ in range(200)))
    for fr in frames:
        for w, u in itertools.product(range(len(fr.worlds)), repeat=2):
            for v in range(1 << len(fr.worlds)):
                assert fr.s_holds_mask(w, u, v) == _s_holds_by_scan(fr, w, u, v), \
                    (fr.to_json(), w, u, v)


def test_closing_the_seven_wide_unclosed_frame_gives_a_legal_frame():
    """close_s adds 1,460 generators to S_w(u); validate tests each minimal
    union against them."""
    assert validate(close_s(unclosed_wide_frame(7))) == []


class TestForces:
    def test_quasi_reflexive_witness(self):
        m = two_world_model()
        assert m.forces("w", parse("p |> p"))

    def test_vacuous_rhd(self):
        m = two_world_model()
        assert m.forces("w", parse("~p |> q"))

    def test_box_equals_expansion(self):
        m = two_world_model()
        assert m.forces("w", parse("[]p"))
        assert m.forces("w", parse("~p |> bot"))

    def test_absent_variable_false_everywhere(self):
        m = two_world_model()
        assert not m.forces("w", parse("zz"))
        assert m.forces("w", parse("[]~zz"))

    def test_dia(self):
        m = two_world_model()
        assert m.forces("w", parse("<>p"))
        assert not m.forces("u", parse("<>p"))

    def test_rhd_needs_generator_inside_truth_set(self):
        # u S_w gens are {{u},{v}}; only {v} sits inside [q]
        fr = close_s(GenFrame(["w", "u", "v"],
                              [("w", "u"), ("w", "v"), ("u", "v")], {}))
        m = GenModel(fr, {"p": ["u"], "q": ["v"]})
        assert m.forces("w", parse("p |> q"))
        m2 = GenModel(fr, {"p": ["u"], "q": []})
        assert not m2.forces("w", parse("p |> q"))


def test_rhd_matches_the_reference_on_every_mask_pair_of_unclosed_frames():
    """``GenFrame.rhd`` through its blocked table, on Python ints and on a
    numpy grid of every pair, against the reference forcing of ``a |> b``;
    unclosed candidate frames include successors with no S-image at all."""
    rng = random.Random(20)
    probe = Rhd(Var("a"), Var("b"))
    for _ in range(100):
        fr = random_gen_frame(rng, rng.randrange(1, 5), extra=0.5, close=False)
        masks = range(1 << len(fr.worlds))
        want = [[fr.mask(gen_truth_set(GenModel(fr, {"a": fr.names(a), "b": fr.names(b)}), probe))
                 for b in masks] for a in masks]
        assert [[fr.rhd(a, b) for b in masks] for a in masks] == want, fr.to_json()
        grid = np.arange(len(masks), dtype=np.uint8)
        assert fr.rhd(grid[:, None], grid[None, :]).tolist() == want, fr.to_json()


def test_antichain_matches_the_pairwise_oracle_on_2000_collections():
    rng = random.Random(21)
    for _ in range(2000):
        masks = random_masks(rng)
        assert list(antichain(masks)) == minimal_masks(masks), masks


def test_mask_order_sorts_like_the_member_list_key():
    """Every mask of width <= 12, and 3,000 random masks each at widths 30
    and 256, of varied density."""
    rng = random.Random(2112)
    collections = [list(range(1 << 12))]
    for width in (30, 256):
        masks = []
        for _ in range(3000):
            g = rng.getrandbits(width)
            for _ in range(rng.randrange(4)):
                g &= rng.getrandbits(width)
            masks.append(g)
        collections.append(masks)
    for masks in collections:
        assert sorted(masks, key=mask_order) == sorted(masks, key=mask_key)


def test_box_dia_abbreviations_semantically_faithful():
    rng = random.Random(2718)
    for _ in range(300):
        m = random_gen_model(rng, 4, ("p", "q"))
        f = random_formula(rng, 3)
        boxed, diad = Box(f), __import__("veltman.formula", fromlist=["Dia"]).Dia(f)
        for w in m.worlds:
            assert m.forces(w, boxed) == m.forces(w, normalize(boxed))
            assert m.forces(w, diad) == m.forces(w, normalize(diad))


def test_forces_agrees_with_normalized_formula():
    rng = random.Random(3141)
    for _ in range(300):
        m = random_gen_model(rng, 4, ("p", "q"))
        f = random_formula(rng, 4)
        nf = normalize(f)
        for w in m.worlds:
            assert m.forces(w, f) == m.forces(w, nf)


class TestOrdinary:
    def make(self):
        fr = OrdFrame(["w", "u", "v"], [("w", "u"), ("w", "v"), ("u", "v")],
                      {"w": [("u", "u"), ("v", "v"), ("u", "v")],
                       "u": [("v", "v")]})
        return OrdModel(fr, {"p": ["u"], "q": ["v"]})

    def test_legal(self):
        assert validate(self.make()) == []

    def test_missing_reflexivity_detected(self):
        fr = OrdFrame(["w", "u"], [("w", "u")], {})
        assert any(v.clause == "b" for v in validate(fr))

    def test_forcing(self):
        m = self.make()
        assert m.forces("w", parse("p |> q"))
        assert not m.forces("w", parse("q |> p & ~p"))

    def test_embedding_generators(self):
        m = self.make()
        g = gen_of_ordinary(m)
        assert isinstance(g, GenModel)
        assert g.frame.gens("w", "u") == (frozenset({"u"}), frozenset({"v"}))
        assert validate(g) == []


def test_validate_matches_the_pair_set_clauses_on_ordinary_frames():
    """The clauses on S_w masks against ``reference.ord_violations``, which
    reads world pairs: 300 legal frames of 1 to 8 worlds, the same frames
    with a few R edges and S pairs toggled, 100 frames of random pairs, and
    dense frames of 20 to 40 worlds, legal and toggled."""
    rng = random.Random(2027)
    legal = [random_ord_model(rng, max_worlds=8).frame for _ in range(300)]
    noise = []
    for _ in range(100):
        ws = [f"w{i}" for i in range(rng.randrange(1, 9))]
        noise.append(OrdFrame(ws, [(a, b) for a in ws for b in ws if rng.random() < 0.3],
                              {w: [(a, b) for a in ws for b in ws if rng.random() < 0.3]
                               for w in ws}))
    dense = [dense_ord_frame(n) for n in (20, 30, 40)]
    frames = [*legal, *(toggled_ord_frame(rng, fr) for fr in legal), *noise,
              *dense, *(toggled_ord_frame(rng, fr) for fr in dense)]
    illegal = 0
    for fr in frames:
        got = validate(fr)
        assert got == ord_violations(fr), fr.to_json()
        illegal += bool(got)
    assert illegal > 350


def test_validate_refuses_a_non_frame():
    """Neither frame nor model: refused before any clause reads it."""
    with pytest.raises(TypeError, match="^not a frame or model: <object object"):
        validate(object())


def test_validate_answers_the_dense_80_world_ordinary_frame_within_a_second():
    """3,160 S_w pairs at w00: transitivity reads one mask per pair, where
    a scan of S_w per pair took seconds."""
    fr = dense_ord_frame(80)
    started = time.perf_counter()
    assert validate(fr) == []
    assert time.perf_counter() - started < 1


def test_embedding_preserves_forcing():
    rng = random.Random(1618)
    for _ in range(60):
        om = random_ord_model(rng)
        assert validate(om) == [], "random ordinary model must be legal"
        gm = gen_of_ordinary(om)
        assert validate(gm) == []
        assert rhd_table_mismatch(om, gm) is None
        for _ in range(20):
            f = random_formula(rng, 3)
            assert ord_truth_set(om, f) == gm.truth_set(f)


def test_forcing_matches_reference_oracles():
    """The one evaluator, on generalized models and through the embedding on
    ordinary ones, against the connective-by-connective reference forcing."""
    rng = random.Random(2718)
    for _ in range(60):
        gm = random_gen_model(rng, max_worlds=5)
        om = random_ord_model(rng, max_worlds=4, variables=("p", "q", "r"))
        for _ in range(30):
            f = random_formula(rng, 4, ("p", "q", "r"))
            assert gm.truth_set(f) == gen_truth_set(gm, f), str(f)
            assert om.truth_set(f) == ord_truth_set(om, f), str(f)


def test_truth_sets_past_64_worlds():
    """Truth masks are Python ints, so a model of eight copies of a 9-world
    model (72 worlds) reads the same as the reference forcing."""
    rng = random.Random(64)
    for _ in range(4):
        fr = random_gen_frame(rng, 9)
        m = GenModel(fr, {v: [w for w in fr.worlds if rng.random() < 0.5]
                          for v in ("p", "q", "r")})
        for suffix in ("_a", "_b", "_c"):
            m = duplicated_model(m, suffix)
        assert len(m.worlds) == 72
        for _ in range(25):
            f = random_formula(rng, 4, ("p", "q", "r"))
            truth = gen_truth_set(m, f)
            assert m.truth_set(f) == truth, str(f)
            assert [m.forces(w, f) for w in m.worlds] == [w in truth for w in m.worlds]


def test_seeded_models_do_not_depend_on_the_hash_seed():
    """The random models drawn from one seed are the same in every process."""
    tests = Path(__file__).resolve().parent
    src = tests.parent / "src"
    script = ("import hashlib, json, random\n"
              "from reference import random_gen_model\n"
              "rng = random.Random(7)\n"
              "docs = [random_gen_model(rng).to_json() for _ in range(50)]\n"
              "print(hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest())\n")
    digests = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(tests), str(src)]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        digests.add(proc.stdout)
    assert len(digests) == 1


class TestJson:
    def test_gen_roundtrip(self):
        m = two_world_model()
        doc = m.to_json()
        again = model_from_json(doc)
        assert isinstance(again, GenModel)
        assert again.frame == m.frame and again.valuation == m.valuation

    def test_ord_roundtrip(self):
        fr = OrdFrame(["w", "u"], [("w", "u")], {"w": [("u", "u")]})
        m = OrdModel(fr, {"p": ["u"]})
        again = model_from_json(m.to_json())
        assert isinstance(again, OrdModel)
        assert again.frame == m.frame and again.valuation == m.valuation

    def test_deterministic_serialization(self):
        m1 = GenModel(GenFrame(["b", "a"], [("a", "b")], {"a": {"b": [["b"]]}}),
                      {"q": ["b"], "p": []})
        m2 = GenModel(GenFrame(["a", "b"], [("a", "b")], {"a": {"b": [["b"]]}}),
                      {"p": [], "q": ["b"]})
        assert m1.to_json() == m2.to_json()

    def test_bad_kind_rejected(self):
        with pytest.raises(FrameError):
            model_from_json({"kind": "weird", "worlds": ["w"], "R": [], "S": {}})

    def test_missing_field_rejected(self):
        with pytest.raises(FrameError):
            model_from_json({"kind": "gen", "worlds": ["w"]})
