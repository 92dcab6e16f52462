"""Frame enumeration and bounded countermodel search."""

import json
import random
import time
from functools import cache

import pytest
from reference import (_canonical, _naive_families, _naive_transitive_irreflexive, canonical_form,
                       generated_subframe, random_formula, random_gen_frame, random_gen_model)

from veltman.decide import (
    FRAME_CONDITIONS,
    CheckedTheorem,
    NoCountermodelUpTo,
    Refuted,
    SearchBudget,
    SearchTimeout,
    _il_frames,
    countermodel_search,
    decide,
    enumerate_frames,
    verdict_to_json,
)
from veltman.formula import Box, Dia, Impl, Rhd, parse
from veltman.hilbert import ProofLine, ProofObject, Axiom, get_logic, parse_proof
from veltman.model import GenFrame, GenModel, validate
from veltman.properties import check_property, frame_validates


class TestBudget:
    def test_defaults(self):
        b = SearchBudget()
        assert b.max_worlds == 3

    def test_positive_required(self):
        with pytest.raises(ValueError):
            SearchBudget(max_worlds=0)
        with pytest.raises(ValueError):
            SearchBudget(max_worlds=3, time_limit=-1)

    def test_nan_time_limit_rejected(self):
        with pytest.raises(ValueError):
            SearchBudget(time_limit=float("nan"))

    def test_infinite_time_limit_accepted(self):
        assert SearchBudget(time_limit=float("inf")).time_limit == float("inf")

    def test_hard_cap(self):
        with pytest.raises(ValueError):
            countermodel_search(parse("p"), get_logic("IL"),
                                SearchBudget(max_worlds=5))


class TestEnumerateFrames:
    def test_n1_single_frame(self):
        frames = list(enumerate_frames(1, "IL"))
        assert len(frames) == 1
        assert frames[0].pairs == frozenset()

    def test_n2_two_frames(self):
        frames = list(enumerate_frames(2, "IL"))
        assert len(frames) == 2
        shapes = sorted(len(f.pairs) for f in frames)
        assert shapes == [0, 1]
        edge = next(f for f in frames if f.pairs)
        (w, u), = edge.pairs
        assert edge.gens(w, u) == (frozenset({u}),)

    def test_n3_regression_constant(self):
        assert sum(1 for _ in enumerate_frames(3, "IL")) == 8
        assert sum(1 for _ in _il_frames(3)) == 9

    def test_n4_regression_constant(self):
        assert sum(1 for _ in enumerate_frames(4, "IL")) == 85
        assert sum(1 for _ in _il_frames(4)) == 140

    def test_all_outputs_legal(self):
        for n in (1, 2, 3):
            for fr in _il_frames(n):
                assert validate(fr) == []

    def test_logic_filter(self):
        for logic, props in FRAME_CONDITIONS.items():
            for fr in enumerate_frames(3, logic):
                for pid in props:
                    assert check_property(fr, pid).holds, (logic, pid)

    def test_filtered_counts_bounded_by_il(self):
        base = sum(1 for _ in enumerate_frames(3, "IL"))
        for logic in FRAME_CONDITIONS:
            assert sum(1 for _ in enumerate_frames(3, logic)) <= base

    def test_cap(self):
        with pytest.raises(ValueError):
            list(enumerate_frames(5, "IL"))
        with pytest.raises(ValueError):
            list(enumerate_frames(0, "IL"))

    def test_deterministic_order(self):
        a = [f.to_json() for f in enumerate_frames(3, "IL")]
        b = [f.to_json() for f in enumerate_frames(3, "IL")]
        assert a == b

    @pytest.mark.parametrize("n", [3, 4])
    def test_repeated_calls_yield_equal_frames(self, n):
        """The frame list is built once per (n, logic); later calls yield
        the same frames, equal to the IL frames filtered by the logic's
        conditions, and the IL frames are a subsequence of a fresh
        ``_il_frames`` run."""
        il = list(enumerate_frames(n, "IL"))
        fresh = iter(_il_frames(n))
        assert all(fr in fresh for fr in il)  # consumes ``fresh``: in order
        for logic, conditions in FRAME_CONDITIONS.items():
            first = list(enumerate_frames(n, logic))
            assert list(enumerate_frames(n, get_logic(logic))) == first
            assert first == [fr for fr in il
                             if all(check_property(fr, pid).holds for pid in conditions)]
            again = enumerate_frames(n, logic)
            assert [fr.to_json() for fr in first] == [fr.to_json() for fr in again]


def test_n3_count_against_naive_generator():
    worlds = ["w0", "w1", "w2"]
    canon_rels = {_canonical(rel, worlds)
                  for rel in _naive_transitive_irreflexive(worlds)}
    total = 0
    per_rel = {}
    for rel in sorted(canon_rels):
        count = sum(1 for _ in _naive_families(worlds, frozenset(rel)))
        per_rel[rel] = count
        total += count
    assert total == 9
    # and the generator agrees rel by rel
    from collections import Counter
    got = Counter(tuple(sorted(fr.pairs)) for fr in _il_frames(3))
    assert dict(got) == {rel: n for rel, n in per_rel.items() if n}


def test_enumeration_misses_no_frame_up_to_4_worlds():
    # every random legal frame is isomorphic to some enumerated frame
    enumerated = {canonical_form(fr) for n in (1, 2, 3, 4)
                  for fr in enumerate_frames(n, "IL")}
    rng = random.Random(4)
    for trial in range(1000):
        fr = random_gen_model(rng, max_worlds=4).frame
        assert canonical_form(fr) in enumerated, (trial, fr.to_json())


def test_every_point_generated_subframe_is_an_enumerated_frame():
    """Truth at a world depends only on the subframe it generates, and every
    such subframe of a random frame of 1-4 worlds is isomorphic to a frame
    that ``enumerate_frames`` lists."""
    enumerated = {canonical_form(fr) for n in (1, 2, 3, 4)
                  for fr in enumerate_frames(n, "IL")}
    rng = random.Random(2603)
    seen = smaller = 0
    for trial in range(300):
        fr = random_gen_frame(rng, rng.randrange(1, 5))
        for w in fr.worlds:
            sub = generated_subframe(fr, w)
            assert validate(sub) == [], (trial, w, fr.to_json())
            assert canonical_form(sub) in enumerated, (trial, w, fr.to_json())
            seen += 1
            smaller += len(sub.worlds) < len(fr.worlds)
    assert seen >= 700 and smaller >= 500, (seen, smaller)


@pytest.mark.parametrize("logic", sorted(FRAME_CONDITIONS))
def test_enumerated_frames_pairwise_non_isomorphic(logic):
    for n in (1, 2, 3, 4):
        forms = [canonical_form(fr) for fr in enumerate_frames(n, logic)]
        assert len(set(forms)) == len(forms), (logic, n)


class TestCountermodelSearch:
    def test_p_rhd_q_refuted_by_pinned_model(self):
        v = countermodel_search(parse("p |> q"), get_logic("IL"),
                                SearchBudget(max_worlds=2))
        assert isinstance(v, Refuted)
        assert v.world == "w0"
        assert v.model.to_json() == {
            "kind": "gen",
            "worlds": ["w0", "w1"],
            "R": [["w0", "w1"]],
            "S": {"w0": {"w1": [["w1"]]}},
            "valuation": {"p": ["w1"], "q": []},
        }

    def test_j5_instance_survives(self):
        v = countermodel_search(parse("<>p |> p"), get_logic("IL"),
                                SearchBudget(max_worlds=3))
        assert isinstance(v, NoCountermodelUpTo)
        assert v.max_worlds == 3

    def test_p0_instance_refuted_over_il(self):
        f = parse("p |> <>q -> [](p |> q)")
        v = countermodel_search(f, get_logic("IL"), SearchBudget(max_worlds=4))
        assert isinstance(v, Refuted)
        assert len(v.model.worlds) == 4

    def test_p0_instance_valid_over_ilp0(self):
        f = parse("p |> <>q -> [](p |> q)")
        v = countermodel_search(f, get_logic("ILP0"), SearchBudget(max_worlds=3))
        assert isinstance(v, NoCountermodelUpTo)

    def test_w_instance_valid_over_ilw(self):
        f = parse("p |> q -> (p |> q & []~p)")
        v = countermodel_search(f, get_logic("ILW"), SearchBudget(max_worlds=3))
        assert isinstance(v, NoCountermodelUpTo)

    def test_refuted_verdicts_revalidate(self):
        cases = [("p |> q", "IL", 2),
                 ("p |> <>q -> [](p |> q)", "IL", 4),
                 ("p -> []p", "ILM", 2),
                 ("[]p -> p", "ILR", 2)]
        for src, logic_name, bound in cases:
            f = parse(src)
            v = countermodel_search(f, get_logic(logic_name),
                                    SearchBudget(max_worlds=bound))
            assert isinstance(v, Refuted), src
            assert validate(v.model) == []
            for pid in FRAME_CONDITIONS[logic_name]:
                assert check_property(v.model.frame, pid).holds
            assert not v.model.forces(v.world, f)

    def test_refutation_monotone_in_bound(self):
        f = parse("p |> q")
        small = countermodel_search(f, get_logic("IL"), SearchBudget(max_worlds=2))
        large = countermodel_search(f, get_logic("IL"), SearchBudget(max_worlds=4))
        assert isinstance(small, Refuted) and isinstance(large, Refuted)
        # deterministic order: same minimal countermodel found first
        assert small.model.to_json() == large.model.to_json()

    def test_timeout_distinct_from_exhaustion(self):
        with pytest.raises(SearchTimeout):
            countermodel_search(parse("<>p |> p"), get_logic("IL"),
                                SearchBudget(max_worlds=4, time_limit=1e-9))

    def test_time_limit_holds_inside_one_frame_sweep(self):
        """Eight independent leaves on one 4-world frame are 256^4 rows of
        the skeleton table, 65,536 chunks; the limit is checked between
        chunks, so the search stops within about a second of it and says how
        far it got: the last size done, and the frames of the next size
        swept out of all."""
        started = time.monotonic()
        with pytest.raises(SearchTimeout) as info:
            countermodel_search(parse("[]a | []b | []c | []d | []e | []f | []g | []h | ~[]h"), "IL",
                                SearchBudget(max_worlds=4, time_limit=1))
        assert time.monotonic() - started < 2
        stop = info.value
        assert stop.completed_worlds <= 3
        classes = {canonical_form(fr) for fr in _il_frames(stop.completed_worlds + 1)}
        assert stop.frames_at_size == len(classes)
        assert 0 <= stop.frames_swept < stop.frames_at_size
        assert str(stop) == (f"time limit hit after finishing size {stop.completed_worlds} "
                             f"({stop.frames_swept} of {stop.frames_at_size} frames of size "
                             f"{stop.completed_worlds + 1} swept)")

    def test_repeated_searches_give_identical_json(self):
        cases = [("p |> q", "IL"), ("(p |> q) -> (p & []r) |> (q & []r)", "ILP"),
                 ("(p |> q) -> p |> q & []~p", "ILW"), ("p -> p", "ILR")]
        runs = [[json.dumps(verdict_to_json(countermodel_search(
            parse(src), logic, SearchBudget(max_worlds=3))), sort_keys=True)
            for src, logic in cases] for _ in range(2)]
        assert runs[0] == runs[1]
        assert '"verdict": "refuted"' in runs[0][0]

    def test_lookup_tables_are_built_once_per_shared_frame(self, monkeypatch):
        """Search shares its frame lists, and a theorem is decided on the
        skeleton table alone: after one search has swept every frame up to
        four worlds, a search for another theorem calls neither
        ``GenFrame.box`` nor ``rhd`` and reads no ``[]``/``|>`` lookup
        tables, which only the witness walk of a failing frame builds.
        Those tables are read-only."""
        budget = SearchBudget(max_worlds=4)
        assert countermodel_search(parse("p |> p"), "IL", budget) == NoCountermodelUpTo(4)
        calls = []

        def counted(name):
            method = getattr(GenFrame, name)
            return lambda self, *xs: calls.append(name) or method(self, *xs)

        for name in ("box", "rhd"):
            monkeypatch.setattr(GenFrame, name, counted(name))
        monkeypatch.setattr(GenFrame, "_lookups", property(lambda self: calls.append("_lookups")))
        f = parse("[](p -> q) -> (p & r) |> (q | <>r)")
        assert countermodel_search(f, "IL", budget) == NoCountermodelUpTo(4)
        assert calls == []
        monkeypatch.undo()
        box, rhd = list(enumerate_frames(4))[-1]._lookups
        for table in (box.__self__, rhd.args[0]):
            with pytest.raises(ValueError):
                table[0] = 0


@cache
def _labelled(n, logic):
    """Every frame of ``_il_frames(n)``, isomorphic copies included, that
    meets the logic's frame conditions, in order."""
    return tuple(fr for fr in _il_frames(n)
                 if all(check_property(fr, pid).holds for pid in FRAME_CONDITIONS[logic]))


def _search_over_every_frame(f, logic, max_worlds):
    """Search with ``frame_validates`` over every labelled frame, in order:
    the reference the one-per-class sweep must match."""
    for n in range(1, max_worlds + 1):
        for frame in _labelled(n, logic):
            fals = frame_validates(frame, f, cap=4)
            if fals is not True:
                return Refuted(GenModel(frame, fals.valuation), fals.world)
    return NoCountermodelUpTo(max_worlds)


class TestSearchFrames:
    """The enumeration keeps one frame per isomorphism class, and search
    over it answers exactly as a sweep of every labelled frame does."""

    @pytest.mark.parametrize("src, logic", [("<><>(q | p) |> r", "ILP0"),
                                            ("[]((r -> q) & (r | p) -> [](q |> p))", "ILP")])
    def test_refuted_first_at_four_worlds(self, src, logic):
        f = parse(src)
        assert isinstance(countermodel_search(f, logic, SearchBudget(max_worlds=3)),
                          NoCountermodelUpTo)
        v = countermodel_search(f, logic, SearchBudget(max_worlds=4))
        assert isinstance(v, Refuted) and len(v.model.worlds) == 4
        assert verdict_to_json(v) == verdict_to_json(_search_over_every_frame(f, logic, 4))

    def test_countermodel_with_an_isomorphic_copy(self):
        """The first countermodel has a later isomorph among the labelled
        frames, with w1 and w2 swapped; search returns the first one."""
        f = parse("[][]bot & ((p & ~q) |> q) -> [](p -> q)")
        v = countermodel_search(f, "IL", SearchBudget(max_worlds=4))
        assert verdict_to_json(v) == verdict_to_json(_search_over_every_frame(f, "IL", 4))
        form = canonical_form(v.model.frame)
        assert [canonical_form(fr) for fr in _il_frames(3)].count(form) == 2

    def test_same_verdicts_as_every_frame(self):
        """Seeded random formulas in all eight logics, drawn until at least
        15 are first refuted at 3 worlds and 15 at 4.  Every other draw is
        shaped like ``[](c -> <><>a |> b)``, since about one plain random
        formula in 200 is first refuted at 4 worlds."""
        rng = random.Random(9)
        logics = sorted(FRAME_CONDITIONS)
        vs = ("p", "q", "r")
        first_refuted = dict.fromkeys((1, 2, 3, 4), 0)
        for i in range(2000):
            if first_refuted[3] >= 15 and first_refuted[4] >= 15:
                break
            if i % 2:
                a = rng.choice([Dia, lambda x: Dia(Dia(x)), lambda x: x])(
                    random_formula(rng, 2, vs))
                f = Rhd(a, random_formula(rng, 1, vs))
                if rng.random() < 0.5:
                    f = Impl(random_formula(rng, 1, vs), f)
                if rng.random() < 0.5:
                    f = Box(f)
            else:
                f = random_formula(rng, rng.randrange(2, 5), vs)
            logic = logics[i % len(logics)]
            got = verdict_to_json(countermodel_search(f, logic, SearchBudget(max_worlds=4)))
            assert got == verdict_to_json(_search_over_every_frame(f, logic, 4)), (str(f), logic)
            if got["verdict"] == "refuted":
                first_refuted[len(got["countermodel"]["worlds"])] += 1
        assert first_refuted[3] >= 15 and first_refuted[4] >= 15, first_refuted

    @pytest.mark.parametrize("logic", sorted(FRAME_CONDITIONS))
    def test_one_per_class(self, logic):
        for n in (1, 2, 3, 4):
            first = {}
            for fr in _labelled(n, logic):
                first.setdefault(canonical_form(fr), fr)
            # the first labelled frame of every class, in order
            assert list(enumerate_frames(n, logic)) == list(first.values())

    def test_counts(self):
        assert [len(list(enumerate_frames(n, "IL"))) for n in (1, 2, 3, 4)] == [1, 2, 8, 85]
        assert {logic: len(list(enumerate_frames(4, logic)))
                for logic in sorted(FRAME_CONDITIONS)} == {
            "IL": 85, "ILM": 56, "ILM0": 83, "ILP": 52, "ILP0": 79, "ILR": 79,
            "ILW": 58, "ILWstar": 58}
        # the generator the enumeration dedupes keeps every labelled frame
        assert [len(list(_il_frames(n))) for n in (1, 2, 3, 4)] == [1, 2, 9, 140]


class TestDecide:
    def test_proof_short_circuits(self):
        proof = ProofObject((ProofLine(
            parse("[](p -> q) -> (p |> q)"), Axiom("J1")),))
        v = decide(parse("[](p -> q) -> (p |> q)"), "IL", proof=proof)
        assert isinstance(v, CheckedTheorem)

    def test_proof_of_wrong_formula_ignored(self):
        proof = ProofObject((ProofLine(
            parse("[](p -> q) -> (p |> q)"), Axiom("J1")),))
        v = decide(parse("p |> q"), "IL", SearchBudget(max_worlds=2), proof=proof)
        assert isinstance(v, Refuted)

    def test_bad_proof_falls_back_to_search(self):
        proof = ProofObject((ProofLine(parse("p |> q"), Axiom("J1")),))
        v = decide(parse("p |> q"), "IL", SearchBudget(max_worlds=2), proof=proof)
        assert isinstance(v, Refuted)

    def test_search_path(self):
        v = decide(parse("p |> q"), "IL", SearchBudget(max_worlds=2))
        assert isinstance(v, Refuted)


class TestVerdictJson:
    def test_refuted(self):
        v = countermodel_search(parse("p |> q"), get_logic("IL"),
                                SearchBudget(max_worlds=2))
        doc = verdict_to_json(v)
        assert doc["verdict"] == "refuted"
        assert doc["refuted_at"] == "w0"
        assert doc["countermodel"]["kind"] == "gen"

    def test_no_countermodel(self):
        v = NoCountermodelUpTo(3)
        assert verdict_to_json(v) == {"verdict": "no-countermodel-up-to",
                                      "max_worlds": 3}

    def test_theorem(self):
        proof = parse_proof("1. [](p -> q) -> (p |> q) ; ax J1\n")
        v = decide(parse("[](p -> q) -> (p |> q)"), "IL", proof=proof)
        doc = verdict_to_json(v)
        assert doc["verdict"] == "theorem"
        assert doc["proof_lines"] == 1

    def test_non_verdict_refused(self):
        with pytest.raises(TypeError, match="^not a verdict: <object object"):
            verdict_to_json(object())


class TestSampleFrames:
    """The 4-world frames. They were once sampled; they are now enumerated,
    one per isomorphism class, and the class keeps its name."""

    def test_count_and_legality(self):
        assert len(list(enumerate_frames(4, "IL"))) == 85
        for fr in _il_frames(4):
            assert len(fr.worlds) == 4
            assert validate(fr) == []

    def test_respects_logic_filter(self):
        for logic, props in FRAME_CONDITIONS.items():
            for fr in enumerate_frames(4, logic):
                for pid in props:
                    assert check_property(fr, pid).holds, (logic, pid)
