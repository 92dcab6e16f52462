"""Frame condition checkers, schema validity sweep, correspondence bench.

The reference frame conditions (``reference.BRUTE``) quantify naively over
full monotone closures, all subsets, all choice sets, and all hitting sets;
the module under test restricts quantifiers to generators / minimal
families. The cross-checks pin the equivalence at small sizes.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from reference import (BRUTE, brute_first_failure, gen_truth_set, leaf_image, random_formula,
                       random_gen_frame, subsets)

from veltman import properties
from veltman.decide import _il_frames, enumerate_frames
from veltman.formula import Algebra, And, Box, Neg, Or, Rhd, Var, evaluate, fold, parse, variables
from veltman.hilbert import SCHEMATA, instantiate, schema_metavars
from veltman.model import GenFrame, GenModel, close_s, validate
from veltman.properties import (
    PROPERTY_IDS,
    SCHEMA_OF_PROPERTY,
    Falsification,
    FrameSizeError,
    TruthTables,
    check_property,
    choice_sets,
    correspondence_bench,
    frame_validates,
    minimal_hitting_sets,
    s_preimage,
    schema_frame_valid,
)


def mgen_failing_frame():
    base = close_s(GenFrame(["w", "u", "v", "z"],
                            [("w", "u"), ("w", "v"), ("w", "z"), ("v", "z")], {}))
    fams = {w: {u: [list(g) for g in base.gens(w, u)]
                for u in base.successors(w)} for w in base.worlds}
    fams["w"]["u"].append(["v"])
    pairs = [(a, b) for a in base.worlds for b in base.successors(a)]
    return close_s(GenFrame(base.worlds, pairs, fams))


def letters(s) -> int:
    """The mask of a set of letters from "abcde", bit i for the i-th letter."""
    return sum(1 << "abcde".index(c) for c in s)


class TestMinimalHittingSets:
    def test_two_disjoint_singletons(self):
        got = minimal_hitting_sets([letters("a"), letters("b")])
        assert got == (letters("ab"),)

    def test_one_doubleton(self):
        got = minimal_hitting_sets([letters("ab")])
        assert got == (letters("a"), letters("b"))

    def test_empty_family(self):
        assert minimal_hitting_sets([]) == (0,)

    def test_empty_member_unhittable(self):
        assert minimal_hitting_sets([0]) == ()

    def test_against_brute_force(self):
        rng = random.Random(5)
        universe = list("abcde")
        for _ in range(200):
            family = [frozenset(rng.sample(universe, rng.randrange(1, 4)))
                      for _ in range(rng.randrange(0, 4))]
            got = minimal_hitting_sets(map(letters, family))
            hits = [c for c in subsets(universe)
                    if all(c & member for member in family)]
            minimal = {c for c in hits
                       if not any(o < c for o in hits)}
            assert sorted(got) == sorted(map(letters, minimal))


class TestChoiceSets:
    def test_requires_edge(self):
        fr = close_s(GenFrame(["w", "u"], [("w", "u")], {}))
        with pytest.raises(ValueError):
            choice_sets(fr, "u", "w")

    def test_two_singleton_generators(self):
        # gens(w,u) = {{u},{v}} on the chain
        fr = close_s(GenFrame(["w", "u", "v"],
                              [("w", "u"), ("w", "v"), ("u", "v")], {}))
        assert choice_sets(fr, "w", "u") == (fr.mask({"u", "v"}),)

    def test_one_doubleton_generator(self):
        fr = GenFrame(["w", "u", "a", "b"],
                      [("w", "u"), ("w", "a"), ("w", "b")],
                      {"w": {"u": [["u"], ["a", "b"]],
                             "a": [["a"]], "b": [["b"]]}})
        # {u} and {a,b}: a hitting set needs u plus one of a, b
        assert choice_sets(fr, "w", "u") == (fr.mask({"u", "a"}), fr.mask({"u", "b"}))

    def test_rx_is_always_a_choice_set(self):
        for n in (2, 3):
            for fr in _il_frames(n):
                for x in fr.worlds:
                    rx = fr.mask(fr.successors(x))
                    for u in fr.successors(x):
                        family = choice_sets(fr, x, u)
                        # upward closure of the minimal family reaches R[x]
                        assert any(c & ~rx == 0 for c in family)
                        for c in family:
                            assert all(c & fr.mask(g) for g in fr.gens(x, u))

    def test_hits_monotone_images_not_just_generators(self):
        fr = mgen_failing_frame()
        for x in fr.worlds:
            for u in fr.successors(x):
                for c in choice_sets(fr, x, u):
                    for z in subsets(fr.successors(x)):
                        if fr.s_holds(x, u, z):
                            assert c & fr.mask(z)


class TestCheckProperty:
    def test_one_world_vacuous(self):
        fr = GenFrame(["w"], [], {})
        for pid in PROPERTY_IDS:
            assert check_property(fr, pid).holds

    def test_chain_mgen_holds(self):
        fr = close_s(GenFrame(["w", "u", "v"],
                              [("w", "u"), ("w", "v"), ("u", "v")], {}))
        assert check_property(fr, "Mgen").holds

    def test_mgen_failing_example(self):
        fr = mgen_failing_frame()
        assert validate(fr) == []
        rep = check_property(fr, "Mgen")
        assert not rep.holds
        assert rep.witness == ("w", "u", ("v",))

    def test_unknown_property(self):
        fr = GenFrame(["w"], [], {})
        with pytest.raises(ValueError):
            check_property(fr, "Xgen")

    def test_witness_world_names_valid(self):
        fr = mgen_failing_frame()
        rep = check_property(fr, "Mgen")
        names = set(fr.worlds)
        assert rep.witness[0] in names and rep.witness[1] in names
        assert set(rep.witness[2]) <= names


def test_restricted_checkers_match_brute_force_exhaustive():
    for n in (1, 2, 3):
        for fr in _il_frames(n):
            for pid in PROPERTY_IDS:
                assert check_property(fr, pid).holds == BRUTE[pid](fr), \
                    (n, pid, fr.to_json())


def test_restricted_checkers_match_brute_force_sampled_4():
    # every 4-world IL frame; the name is kept from when they were sampled
    for i, fr in enumerate(_il_frames(4)):
        for pid in PROPERTY_IDS:
            assert check_property(fr, pid).holds == BRUTE[pid](fr), \
                (i, pid, fr.to_json())


def test_wgen_generator_restriction_agrees_empirically():
    # the implementation quantifies the outer V over full monotone images;
    # restricting to generator V's is sound for the other five conditions
    # but unproven for Wgen, so pin the agreement at small sizes
    def wgen_generators_only(fr):
        for w in fr.worlds:
            for u in fr.successors(w):
                for v_img in fr.gens(w, u):
                    pre = {y for y in fr.successors(w) if fr.s_holds(w, y, v_img)}
                    if not any(fr.s_holds(w, u, vp)
                               and not any(set(fr.successors(y)) & pre for y in vp)
                               for vp in subsets(v_img)):
                        return False
        return True

    for n in (1, 2, 3, 4):
        for fr in _il_frames(n):
            assert check_property(fr, "Wgen").holds == wgen_generators_only(fr)


def test_s_preimage_matches_direct_enumeration():
    for fr in itertools.chain(_il_frames(3),
                              [mgen_failing_frame()]):
        for w in fr.worlds:
            for v in subsets(fr.successors(w)):
                got = s_preimage(fr, w, fr.mask(v))
                want = fr.mask(x for x in fr.successors(w)
                               if fr.s_holds(w, x, v))
                assert got == want


def test_verdicts_stable_under_isolated_world():
    for fr in _il_frames(3):
        bigger = GenFrame(list(fr.worlds) + ["iso"],
                          [(a, b) for a in fr.worlds for b in fr.successors(a)],
                          {w: {u: [list(g) for g in fr.gens(w, u)]
                               for u in fr.successors(w)}
                           for w in fr.worlds})
        assert validate(bigger) == []
        for pid in PROPERTY_IDS:
            assert check_property(fr, pid).holds == check_property(bigger, pid).holds


class TestFrameValidates:
    def test_tautology_everywhere(self):
        fr = close_s(GenFrame(["w", "u"], [("w", "u")], {}))
        assert frame_validates(fr, parse("p -> p")) is True

    def test_refutable_formula(self):
        fr = close_s(GenFrame(["w", "u"], [("w", "u")], {}))
        result = frame_validates(fr, parse("p"))
        assert isinstance(result, Falsification)
        # lexicographically first failing valuation is p = {}
        assert result.valuation == {"p": frozenset()}
        assert result.world == "u"

    def test_size_guard(self):
        worlds = [f"w{i}" for i in range(6)]
        fr = GenFrame(worlds, [], {})
        with pytest.raises(FrameSizeError):
            frame_validates(fr, parse("p"))

    def test_matches_forces_on_random_inputs(self):
        rng = random.Random(77)
        frames = list(_il_frames(3))
        from veltman.formula import BOT, TOP, And, Box, Dia, Impl, Neg, Or, Rhd

        def rand_formula(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice([Var("p"), Var("q"), BOT, TOP])
            k = rng.randrange(7)
            if k < 1:
                return Neg(rand_formula(depth - 1))
            if k < 2:
                return Box(rand_formula(depth - 1))
            if k < 3:
                return Dia(rand_formula(depth - 1))
            ctor = (And, Or, Impl, Rhd)[k - 3]
            return ctor(rand_formula(depth - 1), rand_formula(depth - 1))

        from veltman.formula import variables

        for _ in range(150):
            fr = rng.choice(frames)
            f = rand_formula(3)
            verdict = frame_validates(fr, f)
            vs = sorted(variables(f))
            failing = None
            for bits in itertools.product(list(subsets(fr.worlds)), repeat=len(vs)):
                m = GenModel(fr, {v: sorted(ws) for v, ws in zip(vs, bits)})
                truth = gen_truth_set(m, f)
                for w in fr.worlds:
                    if w not in truth:
                        failing = (dict(zip(vs, bits)), w)
                        break
                if failing:
                    break
            if verdict is True:
                assert failing is None, (str(f), failing)
            else:
                assert failing is not None, (str(f), verdict)
                # the reported falsification really falsifies
                m = GenModel(fr, {v: sorted(ws)
                                  for v, ws in verdict.valuation.items()})
                assert verdict.world not in gen_truth_set(m, f)


def test_truth_table_rows_match_model_truth_masks():
    """Each row of the valuation grid reads the same as the model's own
    truth mask under that row's valuation: one algebra, two carriers."""
    rng = random.Random(505)
    for _ in range(60):
        fr = random_gen_frame(rng, rng.randrange(1, 5))
        f = random_formula(rng, 3, ("p", "q"))
        grid = list(itertools.product(range(1 << len(fr.worlds)), repeat=2))
        assignment = {"p": np.array([p for p, _ in grid], dtype=np.int64),
                      "q": np.array([q for _, q in grid], dtype=np.int64)}
        rows = np.broadcast_to(TruthTables(fr).evaluate(f, assignment), (len(grid),))
        for (p, q), row in zip(grid, rows):
            m = GenModel(fr, {"p": [w for w in fr.worlds if p & fr.bit[w]],
                              "q": [w for w in fr.worlds if q & fr.bit[w]]})
            assert int(row) == m._truth_mask(f), (str(f), p, q)


class TestChunkedSweep:
    def test_small_chunks_give_the_same_answers(self, monkeypatch):
        """Chunks of 7 valuations find the same first failing valuation and
        world as one pass over the whole grid."""
        rng = random.Random(606)
        names = ("p", "q", "r", "s")
        cases = []
        for _ in range(120):
            n = rng.randrange(1, 5)
            k = rng.randrange(1, min(4, 12 // n) + 1)
            cases.append((random_gen_frame(rng, n), random_formula(rng, 3, names[:k])))
        late = [parse(src) for src in ("~(p & q & r)", "~(p & q & r & s)",
                                         "(p & q) |> r -> <>s", "(p |> q) -> (p & r) |> (q & r)")]
        for fr in _il_frames(3):
            cases += [(fr, SCHEMATA[s]) for s in ("M", "P", "W")] + [(fr, f) for f in late]
        cases = [(fr, f) for fr, f in cases if variables(f)]
        whole = [frame_validates(fr, f) for fr, f in cases]
        monkeypatch.setattr(properties, "SWEEP_ROWS", 7)
        assert [frame_validates(fr, f) for fr, f in cases] == whole
        assert any(r is True for r in whole) and any(r is not True for r in whole)

    def test_small_chunks_split_the_skeleton_table(self, monkeypatch):
        """The leaves p & q and p | q take three vectors, so four worlds make
        81 table rows: one pass by default, 27 passes of three rows at
        ``SWEEP_ROWS`` = 7.  The cached table follows ``SWEEP_ROWS`` both
        ways, and every pass evaluates the skeleton, each leaf an int of as
        many bits as the pass has rows, not the valuations."""
        f = parse("[](p & q) -> [](p | q)")
        fr = close_s(GenFrame(["w0", "w1", "w2", "w3"],
                              [("w0", "w1"), ("w0", "w2"), ("w0", "w3"), ("w1", "w2")], {}))
        rows = []
        holds = properties._holds

        def spy(view, steps, leaves, full):
            rows.append(full.bit_length())
            return holds(view, steps, leaves, full)

        monkeypatch.setattr(properties, "_holds", spy)
        monkeypatch.setattr(TruthTables, "evaluate",
                            lambda *args: pytest.fail("walked the valuations"))

        def passes():
            calls = []
            assert frame_validates(fr, f, on_chunk=lambda: calls.append(1)) is True
            return len(calls)

        assert passes() == 1
        monkeypatch.setattr(properties, "SWEEP_ROWS", 7)
        assert passes() == 27
        monkeypatch.setattr(properties, "SWEEP_ROWS", 1 << 16)
        assert passes() == 1
        assert rows == [81] + [3] * 27 + [81]

    @staticmethod
    def _first_refuted(schema):
        f = instantiate(schema, {m: Var(f"{m.lower()}0") for m in schema_metavars(schema)})
        return next(fr for fr in _il_frames(3) if frame_validates(fr, f) is not True), f

    def test_the_witness_walk_calls_on_chunk_before_each_pass(self, monkeypatch):
        """At ``SWEEP_ROWS`` = 7 the M instance has no skeleton table (its
        three variables take 8 rows per world), so on the first refuted
        3-world IL frame all of its 273 passes walk the valuations."""
        monkeypatch.setattr(properties, "SWEEP_ROWS", 7)
        fr, f = self._first_refuted("M")
        assert properties._table(f, 3, 7) is None
        calls = []
        assert isinstance(frame_validates(fr, f, on_chunk=lambda: calls.append(1)),
                          Falsification)
        assert len(calls) == 273

    def test_on_chunk_can_end_the_witness_walk(self, monkeypatch):
        """The W instance is decided on its skeleton table in 2 passes, then
        its witness takes 35 passes of the valuations; an ``on_chunk`` that
        raises on its first call past the decision ends ``frame_validates``
        with that exception."""
        monkeypatch.setattr(properties, "SWEEP_ROWS", 7)
        fr, f = self._first_refuted("W")
        calls, decision = [], []
        assert isinstance(frame_validates(fr, f, on_chunk=lambda: calls.append(1)),
                          Falsification)
        assert properties._skeleton_valid(fr, properties._table(f, 3, 7),
                                          lambda: decision.append(1)) is False
        assert (len(decision), len(calls)) == (2, 37)

        class Stop(Exception):
            pass

        def stop():
            calls.append(1)
            if len(calls) > len(decision):
                raise Stop

        calls.clear()
        with pytest.raises(Stop):
            frame_validates(fr, f, on_chunk=stop)
        assert len(calls) == len(decision) + 1

    @pytest.mark.parametrize("src", ["a | b | c | d | e", "a | b | c | d | e | ~e"])
    def test_five_variables_on_four_worlds_stay_small(self, src):
        """16^5 valuations: the whole grid is 8 MiB per int64 array, one
        chunk 512 KiB."""
        fr = next(iter(_il_frames(4)))
        tracemalloc.start()
        try:
            result = frame_validates(fr, parse(src))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (result is True) == src.endswith("~e")
        assert peak < 16 * 2 ** 20, peak

    def test_many_variables_stay_small(self):
        """1,024 variables give the table of valuations 1,024 names, of
        which one pass sets only the last sixteen: the others stay one-entry
        arrays, so memory does not grow with names x rows."""
        names = [f"a{i:04d}" for i in range(1024)]
        while len(names) > 1:
            names = [f"({a} | {b})" for a, b in zip(names[::2], names[1::2])]
        fr = GenFrame(["w"], [], {})
        tracemalloc.start()
        try:
            result = frame_validates(fr, parse(names[0]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (result.world, set(map(len, result.valuation.values()))) == ("w", {0})
        assert len(result.valuation) == 1024
        assert peak < 16 * 2 ** 20, peak

    def test_twenty_worlds_name_the_witness_without_a_per_mask_table(self):
        """p on 20 worlds: the valuation table's one digit has 2^20 values,
        so each pass fixes it, and neither the passes nor the fixed digit
        hold anything per value."""
        worlds = [f"w{i:02d}" for i in range(20)]
        fr = GenFrame(worlds, [], {})
        tracemalloc.start()
        try:
            result = frame_validates(fr, parse("p"), cap=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (result.valuation, result.world) == ({"p": frozenset()}, "w00")
        assert peak < 2 ** 20, peak

    def test_the_witness_walk_drops_each_value_after_its_last_reader(self):
        """A refutable conjunction of 150 terms (t_i | c) |> d, t_i the
        t_(i-1) |> b or []t_(i-1) chain on a: 603 nodes on the last
        4-world frame.  The witness walk evaluates it on 16^4-row arrays
        through fold without a memo, which drops each value once its last
        parent has read it; kept, the values took 38.6 MiB."""
        a, b, c, d = (Var(v) for v in "abcd")
        t, f = a, None
        for i in range(1, 151):
            t = Rhd(t, b) if i % 2 else Box(t)
            f = Rhd(Or(t, c), d) if f is None else And(f, Rhd(Or(t, c), d))
        fr = list(enumerate_frames(4))[-1]
        tracemalloc.start()
        try:
            result = frame_validates(fr, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (result.world, set(result.valuation.values())) == ("w0", {frozenset()})
        assert peak < 8 * 2 ** 20, peak

    def test_passes_run_over_the_fixed_digits_in_order(self):
        """The passes are ``itertools.product``'s tuples, with ``on_chunk``
        called once before each, and an ``on_chunk`` that raises ends them."""
        for size, fixed in itertools.product(range(1, 6), range(4)):
            calls = []
            seen = []
            for prefix in properties._passes(size, fixed, lambda: calls.append(len(seen))):
                seen.append(prefix)
            assert seen == list(itertools.product(range(size), repeat=fixed))
            assert calls == list(range(len(seen)))

        class Stop(Exception):
            pass

        def stop():
            if len(seen) == 3:
                raise Stop

        seen = []
        with pytest.raises(Stop):
            for prefix in properties._passes(4, 2, stop):
                seen.append(prefix)
        assert seen == [(0, 0), (0, 1), (0, 2)]


def test_shared_subformulas_are_walked_once(monkeypatch):
    """g = []p rebuilt twenty times as g & (g | q) has 2^20 paths to []p
    but 43 distinct nodes: the witness walk makes one [] lookup, not 2^20,
    and ~g fails where ~[]p does.  h, built the same way from p alone, makes
    h | ~h one modal-free leaf, whose image reads p and q once each."""
    p, q = Var("p"), Var("q")
    g, h = Box(p), p
    for _ in range(20):
        g, h = And(g, Or(g, q)), And(h, Or(h, q))
    fr = list(enumerate_frames(2, "IL"))[-1]
    tables = TruthTables(fr)
    lookups, box = [], tables._box
    tables._box = lambda x: lookups.append(1) or box(x)
    masks = np.arange(4, dtype=tables.dtype)
    truth = tables.evaluate(Neg(g), {"p": masks, "q": masks[::-1]})
    assert len(lookups) == 1
    assert (truth == tables.evaluate(Neg(Box(p)), {"p": masks})).all()
    # the formulas stay out of the assertions: a tree of 2^20 nodes prints for minutes
    found, plain = frame_validates(fr, Neg(g)), frame_validates(fr, Neg(Box(p)))
    assert (found.world, found.valuation["p"]) == (plain.world, plain.valuation["p"])

    reads = []

    def counting(f, algebra, memo=None):
        atom = algebra.atom
        return evaluate(f, algebra._replace(atom=lambda name: reads.append(name) or atom(name)),
                        memo)

    monkeypatch.setattr(properties, "evaluate", counting)
    properties._image.cache_clear()
    leaf = Box(Or(h, Neg(h)))
    size = properties._image(leaf, properties.SWEEP_ROWS)[1]
    valid = frame_validates(fr, leaf)
    assert sorted(reads) == ["p", "q"] and size == 1 and valid is True


class TestSharedGrid:
    @pytest.mark.parametrize("src, later", [
        ("a | b | c | d | ~e", False),
        ("~a | b | ~(c |> d) | ~c | e", True),
        ("(a |> b) -> c | d | e | ~f", False),
        ("a | ~b | ~c | (d |> e) | <>f", True),
    ])
    def test_five_and_six_variables_match_a_brute_scan(self, src, later):
        """On 4-world frames a chunk is 16^4 valuations of the last four
        variables; a failure with a nonempty earlier variable lies in a later
        chunk, and the sweep still reports the scan's first failure."""
        f = parse(src)
        frames = list(_il_frames(4))
        for fr in (frames[-1],) if later else (frames[70], frames[-1]):
            result = frame_validates(fr, f)
            assert isinstance(result, Falsification)
            early = sorted(variables(f))[:len(variables(f)) - 4]
            assert any(result.valuation[name] for name in early) == later
            assert (result.valuation, result.world) == brute_first_failure(fr, f), src

    def test_grid_is_shared_and_read_only(self):
        grid = properties._grid(16, 4)
        assert grid is properties._grid(16, 4)
        assert grid.dtype == np.uint8 and grid.shape == (4, 16 ** 4)
        assert not grid.flags.writeable and not grid[0].flags.writeable
        with pytest.raises(ValueError):
            grid[0][0] = 1

    def test_evaluate_keeps_the_smallest_dtype(self):
        """uint8 masks give uint8 truth sets on every modal node, up to
        eight worlds; nine worlds need uint16."""
        f = parse("(p |> q) -> []p & <>(q |> ~p)")
        for n in (1, 4, 8, 9):
            worlds = [f"w{i}" for i in range(n)]
            fr = close_s(GenFrame(worlds, [(a, b) for a in worlds for b in worlds if a < b], {}))
            tables = TruthTables(fr)
            x = np.arange(min(256, 1 << n), dtype=tables.dtype)
            out = tables.evaluate(f, {"p": x, "q": x[::-1]})
            assert out.dtype == tables.dtype == (np.uint8 if n <= 8 else np.uint16)

    def test_lookups_equal_box_and_rhd(self):
        """On seeded random frames of one to nine worlds, ``evaluate`` gives
        the frame's own ``box``/``rhd`` on every entry.  Up to eight worlds
        read the lookup tables; nine are past the table bound.  Masks come
        in the frame's dtype, in int64 and as one-entry arrays; r is
        sometimes unassigned.  Masks with bits above world n - 1, negative
        or of 2^n or more, give the answer of ``box``/``rhd`` (which ignore
        those bits) or, on the table path, raise ``IndexError``; never
        another answer."""
        rng = random.Random(1515)
        draw = np.random.default_rng(1515)
        for n in range(1, 10):
            for _ in range(5):
                fr = random_gen_frame(rng, n)
                tables = TruthTables(fr)
                top = np.full(1, tables.full, dtype=tables.dtype)
                for _ in range(6):
                    f = random_formula(rng, 3, ("p", "q", "r"))
                    for dtype in (tables.dtype, np.int64):
                        assignment = {v: draw.integers(0, 1 << n, rng.choice((1, 50)))
                                      .astype(dtype) for v in "pqr"[:rng.randrange(2, 4)]}
                        zero = np.zeros(1, dtype)
                        expected = evaluate(f, Algebra(top, lambda v: assignment.get(v, zero),
                                                       fr.box, fr.rhd))
                        got = tables.evaluate(f, assignment)
                        assert np.array_equal(*np.broadcast_arrays(got, expected)), (n, str(f))
                assert (fr._lookups is None) == (n > 8)
                good = {v: draw.integers(0, 1 << n, 16) for v in "pq"}
                for f, v, bad in itertools.product(
                        (parse("q |> p"), parse("[]p")), "pq",
                        (-draw.integers(1, 1 << 10, 16), draw.integers(1 << n, 1 << 10, 16),
                         draw.integers(0, 1 << 10, 16) + (1 << 40))):
                    assignment = {**good, v: bad}
                    expected = evaluate(f, Algebra(top, assignment.__getitem__, fr.box, fr.rhd))
                    try:
                        got = tables.evaluate(f, assignment)
                    except IndexError:
                        assert n <= 8
                    else:
                        assert np.array_equal(got, expected), (n, str(f), v, bad)


def _shared_leaf_formula(rng):
    """A random formula over A, B and C with each replaced by a Boolean term
    over p, q and r, so that the modal-free parts share variables (p & q
    beside p | ~q, say)."""
    terms = [parse(src) for src in ("p & q", "p | ~q", "~p", "q", "p -> q", "p",
                                      "(p & q) | r", "~(q & r)", "r")]
    sub = {name: rng.choice(terms) for name in "ABC"}
    return fold(random_formula(rng, 3, tuple("ABC")),
                lambda g, kids: sub[g.name] if type(g) is Var else g.rebuild(kids))


@pytest.mark.parametrize("src", ["[]bot", "~[]bot", "bot |> top", "top |> bot",
                                 "<>top -> [][]bot", "[]bot | <>[]bot", "top",
                                 "(top |> bot) -> []bot"])
def test_variable_free_formulas_match_a_brute_scan(src):
    """Without variables the table of valuations has no digits and one row,
    and the truth array one entry; the skeleton table has one leaf vector.
    On every labelled IL frame up to four worlds the answer is the brute
    scan's."""
    f = parse(src)
    for n in range(1, 5):
        for fr in _il_frames(n):
            result = frame_validates(fr, f)
            expected = brute_first_failure(fr, f)
            if result is True:
                assert expected is True, (src, fr)
            else:
                assert (result.valuation, result.world) == expected, (src, fr)


class TestSkeletonTable:
    def test_decision_matches_a_brute_scan_on_shared_leaves(self):
        """On 360 random (frame, formula) pairs whose leaves share variables,
        ``frame_validates`` decides on the skeleton table and reports the
        brute scan's first failure."""
        rng = random.Random(1313)
        outcomes = {True: 0, False: 0}
        smaller = 0
        for _ in range(360):
            f = _shared_leaf_formula(rng)
            k = len(variables(f))
            n = rng.randrange(1, 5 if k <= 2 else 4)
            fr = random_gen_frame(rng, n)
            assert properties._table(f, n, properties.SWEEP_ROWS) is not None
            smaller += properties._image(f, properties.SWEEP_ROWS)[1] < 1 << k
            result = frame_validates(fr, f)
            expected = brute_first_failure(fr, f)
            if result is True:
                assert expected is True, str(f)
            else:
                assert (result.valuation, result.world) == expected, str(f)
            outcomes[result is True] += 1
        assert min(outcomes.values()) >= 60, outcomes
        assert smaller >= 100, smaller

    @pytest.mark.parametrize("src, size, worlds", [
        ("[]bot", 1, 4),
        ("<>top -> [][]bot", 1, 4),
        ("(top |> <>top) | <><>top", 1, 4),
        ("(p |> q) -> p |> (q & []~p)", 4, 4),
        ("<>p & <>q -> <>(p & q) | r", 8, 4),
        ("p |> q -> <>p | []q | r", 8, 4),
        ("(a |> b) & (c |> d) -> ((a | c) |> (b | d))", 16, 3),
    ])
    def test_bit_table_decision_matches_a_brute_scan(self, src, size, worlds):
        """The decision alone, one pass of the skeleton table as ints per
        world, says valid on exactly the labelled IL frames, up to
        ``worlds`` worlds, where the brute scan finds no failure: with
        |I| = ``size`` leaf vectors, from variable-free formulas (one
        vector) to the 16 of four independent variables.  Each formula but
        the last, an IL theorem, holds on some frames and fails on others."""
        f = parse(src)
        assert properties._image(f, properties.SWEEP_ROWS)[1] == size
        outcomes = set()
        for n in range(1, worlds + 1):
            table = properties._table(f, n, properties.SWEEP_ROWS)
            assert table[3] == 0  # no fixed worlds: one pass
            for fr in _il_frames(n):
                valid = properties._skeleton_valid(fr, table, None)
                assert valid == (brute_first_failure(fr, f) is True), (src, fr.to_json())
                outcomes.add(valid)
        assert outcomes == ({True} if size == 16 else {True, False})

    def test_passes_give_the_one_pass_verdicts(self):
        """On seeded random frames of one to five worlds, the table walked in
        passes of at most seven rows decides as the one-pass table does."""
        rng = random.Random(2222)
        outcomes = {True: 0, False: 0}
        split = 0
        for _ in range(200):
            n = rng.randrange(1, 6)
            fr, f = random_gen_frame(rng, n), random_formula(rng, 3, ("p", "q"))
            whole = properties._skeleton_valid(fr, properties._table(f, n, properties.SWEEP_ROWS),
                                               None)
            table = properties._table(f, n, 7)
            assert properties._skeleton_valid(fr, table, None) == whole, (str(f), fr.to_json())
            outcomes[whole] += 1
            split += table[3] > 0
        assert min(outcomes.values()) >= 40, outcomes
        assert split >= 60, split

    def test_k4_k_instance_reaches_evaluate_with_256_rows(self, monkeypatch):
        """K with A = p & q and B = r | s: four variables, but the leaves
        A -> B, A and B take four vectors, so a 4-world frame is decided in
        one pass of 4^4 = 256 rows rather than 16^4 = 65,536 valuations."""
        f = instantiate("K", {"A": parse("p & q"), "B": parse("r | s")})
        sizes = []
        holds = properties._holds

        def spy(view, steps, leaves, full):
            sizes.append(full.bit_length())
            return holds(view, steps, leaves, full)

        monkeypatch.setattr(properties, "_holds", spy)
        frames = list(enumerate_frames(4))
        assert all(frame_validates(fr, f) is True for fr in frames)
        assert sizes == [256] * len(frames)

    def test_shared_table_stays_bounded_over_many_formulas(self):
        """Each formula has its own 4096-row table on four worlds; after 300
        distinct formulas only the last is kept."""
        fr = list(enumerate_frames(4))[-1]
        tracemalloc.start()
        try:
            for i in range(300):
                f = parse(f"[]a{i} | []b{i} | <>c{i} | ~[]a{i}")
                assert frame_validates(fr, f) is True
                if i == 99:
                    before = tracemalloc.get_traced_memory()[0]
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert properties._table.cache_info().currsize == 1
        assert properties._image.cache_info().currsize == 1
        assert after - before < 2 ** 20, after - before

    def test_long_skeletons_stay_small(self):
        """Four variables make 16^4 = 65,536 rows on four worlds, 8 KiB per
        world and step, and the skeleton here has about 800 steps.  Each
        value is dropped after its last reader, so the walk keeps a few of
        them, not 25 MiB."""
        a, b, c, d = (Var(v) for v in "abcd")
        term, f = a, Box(a)
        for i in range(400):
            term = Box(term) if i % 2 else Rhd(term, b)
            f = Or(f, term)
        f = Or(Or(f, Box(c)), Or(Box(d), Neg(Box(d))))
        fr = list(enumerate_frames(4))[-1]
        assert properties._image(f, properties.SWEEP_ROWS)[1] == 16
        assert properties._table(f, 4, properties.SWEEP_ROWS)[5].bit_length() == 16 ** 4
        tracemalloc.start()
        try:
            result = frame_validates(fr, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result is True
        assert peak < 2 ** 21, peak

    def test_image_matches_a_row_by_row_scan(self):
        """On 600 seeded random formulas over p..t and 200 whose leaves share
        variables, ``_image`` gives the distinct leaf vectors that a scan of
        the per-world truth table, row by row, gives, in code order."""
        rng = random.Random(2626)
        formulas = [random_formula(rng, rng.randrange(1, 5), tuple("pqrst")) for _ in range(600)]
        formulas += [_shared_leaf_formula(rng) for _ in range(200)]
        sizes = set()
        for f in formulas:
            _, size, vectors = properties._image(f, properties.SWEEP_ROWS)
            _, leaves = properties._skeleton(f)
            assert (size, vectors) == leaf_image(leaves, sorted(variables(f))), str(f)
            sizes.add(size)
        assert len(sizes) >= 8, sizes

    def test_sixteen_variables_build_the_image_and_seventeen_are_refused(self, monkeypatch):
        """16 variables make the widest per-world table, 2^16 rows, and it
        is built; 17 pass ``SWEEP_ROWS`` and are refused before any leaf
        is evaluated, so ``frame_validates`` would walk the valuations."""
        def theorem(k):
            return parse("[](" + " & ".join(f"a{i}" for i in range(k)) + ") -> []a0")

        # leaves: the conjunction (bit 0) and a0 (bit 1); codes 00, 10, 11
        assert properties._image(theorem(16), properties.SWEEP_ROWS)[1:] == (3, [0b100, 0b110])
        assert properties._table(theorem(16), 4, properties.SWEEP_ROWS) is not None
        calls = []
        monkeypatch.setattr(properties, "evaluate", lambda *args: calls.append(args))
        assert properties._image(theorem(17), properties.SWEEP_ROWS) is None
        assert properties._table(theorem(17), 2, properties.SWEEP_ROWS) is None
        assert calls == []

    def test_past_max_leaves_the_valuations_decide(self, monkeypatch):
        """With the table refused, the valuation sweep gives the same
        answers."""
        rng = random.Random(1414)
        cases = [(random_gen_frame(rng, rng.randrange(1, 4)), _shared_leaf_formula(rng))
                 for _ in range(60)]
        with_table = [frame_validates(fr, f) for fr, f in cases]
        monkeypatch.setattr(properties, "MAX_LEAVES", 0)
        properties._image.cache_clear()
        properties._table.cache_clear()
        try:
            assert all(properties._table(f, len(fr.worlds), properties.SWEEP_ROWS) is None
                       for fr, f in cases)
            assert [frame_validates(fr, f) for fr, f in cases] == with_table
        finally:
            properties._image.cache_clear()
            properties._table.cache_clear()


class TestSchemaFrameValid:
    def test_one_world_m(self):
        fr = GenFrame(["w"], [], {})
        assert schema_frame_valid(fr, "M") is True

    def test_two_chain_j5(self):
        fr = close_s(GenFrame(["w", "u"], [("w", "u")], {}))
        assert schema_frame_valid(fr, "J5") is True

    def test_mgen_failure_falsifies_m(self):
        fr = mgen_failing_frame()
        result = schema_frame_valid(fr, "M")
        assert isinstance(result, Falsification)
        # confirm by direct forcing
        m_inst = parse("(a0 |> b0) -> ((a0 & []c0) |> (b0 & []c0))")
        m = GenModel(fr, {p: sorted(ws) for p, ws in result.valuation.items()})
        assert not m.forces(result.world, m_inst)

    def test_unknown_schema(self):
        fr = GenFrame(["w"], [], {})
        with pytest.raises(ValueError):
            schema_frame_valid(fr, "XYZ")


class TestCorrespondenceBench:
    def test_n1_all_properties_agree(self):
        for pid in PROPERTY_IDS:
            assert not correspondence_bench(1, pid).disagreements

    def test_n2_mgen(self):
        rep = correspondence_bench(2, "Mgen")
        assert len(rep.rows) == 2
        assert not rep.disagreements

    def test_n3_wgen(self):
        rep = correspondence_bench(3, "Wgen")
        assert len(rep.rows) == 8
        assert not rep.disagreements

    def test_n4_every_il_frame(self):
        # every IL frame up to isomorphism
        for pid in PROPERTY_IDS:
            assert len(correspondence_bench(4, pid).rows) == 85

    def test_size_limit(self):
        with pytest.raises(ValueError):
            correspondence_bench(5, "Mgen")

    def test_unknown_property(self):
        with pytest.raises(ValueError, match="^unknown property 'Foo'$"):
            correspondence_bench(1, "Foo")
