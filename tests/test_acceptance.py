"""Acceptance suite: ten end-to-end criteria, one test and one printed
pass/fail line each.  All checks are exact (zero tolerated failures).

The summary lines bypass pytest's capture so they show up in a plain
``pytest -v`` run; the assertions carry the same failure details.
"""

import json
import random
import time
from pathlib import Path

import pytest

from reference import (BRUTE, duplicated_model, gen_truth_set,
                       ord_truth_set, random_formula, random_gen_model,
                       random_ord_model, rhd_table_mismatch)

from veltman.bisim import largest_autobisimulation
from veltman.decide import (FRAME_CONDITIONS, NoCountermodelUpTo, Refuted,
                            SearchBudget, _il_frames, countermodel_search,
                            verdict_to_json)
from veltman.filtration import filtrate, verify_filtration
from veltman.formula import Box, Dia, d_closure, normalize, parse
from veltman.hilbert import LOGICS, check_proof, get_logic, parse_proof
from veltman.model import gen_of_ordinary, validate
from veltman.properties import (PROPERTY_IDS, check_property,
                                correspondence_bench, schema_frame_valid)

PROOF_DIR = Path(__file__).parent / "proofs"

LOGIC_OF_PROOF = {
    "pp.ilp": "IL", "toptop.ilp": "IL",
    "ax_k.ilp": "IL", "ax_l.ilp": "IL", "ax_j1.ilp": "IL", "ax_j2.ilp": "IL",
    "ax_j3.ilp": "IL", "ax_j4.ilp": "IL", "ax_j5.ilp": "IL",
    "ax_m.ilp": "ILM", "ax_m0.ilp": "ILM0", "ax_p.ilp": "ILP",
    "ax_p0.ilp": "ILP0", "ax_r.ilp": "ILR", "ax_w.ilp": "ILW",
}

SEED_POOL = ["p", "q", "p & q", "p |> q", "[]p", "<>q", "~p", "p -> q",
             "q |> p", "p | q", "[]~p", "p |> p"]

PQ_REFUTATION = {
    "verdict": "refuted",
    "refuted_at": "w0",
    "countermodel": {
        "kind": "gen",
        "worlds": ["w0", "w1"],
        "R": [["w0", "w1"]],
        "S": {"w0": {"w1": [["w1"]]}},
        "valuation": {"p": ["w1"], "q": []},
    },
}

P0_REFUTATION = {
    "verdict": "refuted",
    "refuted_at": "w0",
    "countermodel": {
        "kind": "gen",
        "worlds": ["w0", "w1", "w2", "w3"],
        "R": [["w0", "w1"], ["w0", "w2"], ["w0", "w3"],
              ["w1", "w2"], ["w1", "w3"]],
        "S": {"w0": {"w1": [["w1"], ["w2"], ["w3"]],
                     "w2": [["w2"]],
                     "w3": [["w1"], ["w2"], ["w3"]]},
              "w1": {"w2": [["w2"]], "w3": [["w3"]]}},
        "valuation": {"p": ["w3"], "q": ["w2"]},
    },
}


@pytest.fixture
def report(capfd):
    def emit(num: int, name: str, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"\n[criterion {num:2d}] {name}: {status}  ({detail})",
                  flush=True)
    return emit


def test_criterion_01_soundness(report):
    started = time.monotonic()
    failures = []
    checks = 0
    for logic in LOGICS.values():
        schemata = sorted(logic.schemata)
        for n in (1, 2, 3, 4):
            # every labelled IL frame of the logic, isomorphic copies included
            for fr in _il_frames(n):
                if not all(check_property(fr, pid).holds
                           for pid in FRAME_CONDITIONS[logic.name]):
                    continue
                for s in schemata:
                    checks += 1
                    if schema_frame_valid(fr, s) is not True:
                        failures.append((logic.name, n, s))
    elapsed = time.monotonic() - started
    report(1, "soundness", not failures,
            f"{len(LOGICS)} logics, {checks} exhaustive schema checks "
            f"to 4 worlds, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 600


def test_criterion_02_correspondence(report):
    failures = []
    rows = 0
    for pid in PROPERTY_IDS:
        for n in (1, 2, 3, 4):
            rep = correspondence_bench(n, pid)
            rows += len(rep.rows)
            if rep.disagreements:
                failures.append((pid, n, rep.disagreements[:3]))
    report(2, "correspondence", not failures,
            f"6 properties x n<=4, {rows} frames compared")
    assert not failures, failures
    assert rows == 6 * (1 + 2 + 8 + 85)  # one frame per isomorphism class


def test_criterion_03_filtration(report):
    rng = random.Random(803)
    failures = []
    for trial in range(200):
        m = random_gen_model(rng, max_worlds=6)
        seeds = [parse(s) for s in rng.sample(SEED_POOL, rng.randrange(1, 5))]
        res = filtrate(m, d_closure(seeds))
        if res.violations or validate(res.quotient):
            failures.append((trial, "illegal quotient"))
            continue
        bad = verify_filtration(m, res)
        if bad is not None:
            failures.append((trial, bad[0], str(bad[1])))
    report(3, "filtration", not failures,
            "200 random models, quotients legal and truth-preserving")
    assert not failures, failures[:5]


def test_criterion_04_bisimulation_invariance(report):
    rng = random.Random(804)
    models = [random_gen_model(rng, max_worlds=5) for _ in range(50)]
    models += [duplicated_model(random_gen_model(rng, max_worlds=3))
               for _ in range(50)]
    formulas = [random_formula(rng, 3, ("p", "q", "r")) for _ in range(1000)]
    failures = []
    checks = 0
    nontrivial = 0
    for i, m in enumerate(models):
        part = largest_autobisimulation(m)
        blocks = [ws for ws in part.classes.values() if len(ws) > 1]
        if not blocks:
            continue
        nontrivial += 1
        for f in formulas:
            ts = m.truth_set(f)
            for block in blocks:
                checks += 1
                hit = ts & block
                if hit and hit != block:
                    failures.append((i, str(f), sorted(block)))
    report(4, "bisimulation invariance", not failures,
            f"{nontrivial}/100 models with merged worlds, "
            f"{checks} block/formula checks")
    assert nontrivial >= 50
    assert not failures, failures[:5]


def test_criterion_05_abbreviation_fidelity(report):
    rng = random.Random(805)
    failures = []
    for i in range(100):
        m = random_gen_model(rng, max_worlds=5)
        for _ in range(100):
            a = random_formula(rng, 2, ("p", "q", "r"))
            for f in (Box(a), Dia(a)):
                # each side of the abbreviation against the reference
                # forcing of the other side
                if (m.truth_set(f) != gen_truth_set(m, normalize(f))
                        or m.truth_set(normalize(f)) != gen_truth_set(m, f)):
                    failures.append((i, str(f)))
    report(5, "abbreviation fidelity", not failures,
            "100 models x 100 arguments, box and diamond, against the reference")
    assert not failures, failures[:5]


def test_criterion_06_embedding_fidelity(report):
    rng = random.Random(806)
    failures = []
    for i in range(100):
        om = random_ord_model(rng, max_worlds=4, variables=("p", "q"))
        gm = gen_of_ordinary(om)
        # full |> truth table over subset pairs: with identical valuations
        # this pins agreement for every formula, any depth, by induction
        bad = rhd_table_mismatch(om, gm)
        if bad is not None:
            failures.append((i, "table", bad))
            continue
        for _ in range(100):
            f = random_formula(rng, 3, ("p", "q"))
            if ord_truth_set(om, f) != gm.truth_set(f):
                failures.append((i, str(f)))
    report(6, "embedding fidelity", not failures,
            "100 ordinary models: |> tables + 100 sampled formulas each, "
            "against the reference ordinary forcing")
    assert not failures, failures[:5]


def _mutations():
    """Deterministic single-line corruptions of the curated proofs."""
    swap = {"K": "L", "L": "K", "J1": "J2", "J2": "J3", "J3": "J4",
            "J4": "J5", "J5": "J1", "M": "J2", "M0": "J2", "P": "J2",
            "P0": "J2", "R": "J2", "W": "J2"}
    out = []
    for name, logic in sorted(LOGIC_OF_PROOF.items()):
        if not name.startswith("ax_"):
            continue
        text = (PROOF_DIR / name).read_text()
        formula, schema = text.strip().removeprefix("1. ").split(" ; ax ")
        out.append((f"{name}:schema", f"1. {formula} ; ax {swap[schema]}", logic))
        out.append((f"{name}:formula", f"1. {formula} & p ; ax {schema}", logic))
    pp = (PROOF_DIR / "pp.ilp").read_text().splitlines()
    for lineno, bad in [(1, "1. p -> q ; taut"),
                        (2, "2. [](p -> p) ; nec 3"),
                        (3, "3. [](p -> p) -> (p |> p) ; ax J2"),
                        (4, "4. p |> p ; mp 3 2")]:
        lines = list(pp)
        lines[lineno] = bad  # line 0 is the comment
        out.append((f"pp.ilp:line{lineno}", "\n".join(lines), "IL"))
    tt = (PROOF_DIR / "toptop.ilp").read_text().splitlines()
    tt[2] = "2. [](top -> p) ; nec 1"
    out.append(("toptop.ilp:line2", "\n".join(tt), "IL"))
    return out


def test_criterion_07_proof_corpus(report):
    not_accepted = []
    for name, logic in sorted(LOGIC_OF_PROOF.items()):
        rep = check_proof(parse_proof((PROOF_DIR / name).read_text()),
                          get_logic(logic))
        if not rep.accepted:
            not_accepted.append((name, rep.line, rep.reason))
    mutations = _mutations()
    not_rejected = []
    for label, text, logic in mutations:
        rep = check_proof(parse_proof(text), get_logic(logic))
        if rep.accepted:
            not_rejected.append(label)
    ok = not not_accepted and not not_rejected and len(mutations) >= 20
    report(7, "proof corpus", ok,
            f"{len(LOGIC_OF_PROOF)} derivations accepted, "
            f"{len(mutations)} mutations rejected")
    assert not not_accepted, not_accepted
    assert not not_rejected, not_rejected
    assert len(mutations) >= 20


def test_criterion_08_refutation_fixtures(report):
    p0 = parse("(p |> <>q) -> [](p |> q)")
    r = parse("(p |> q) -> (~(p |> ~r) |> (q & []r))")

    def run():
        return (countermodel_search(parse("p |> q"), "IL", SearchBudget(max_worlds=3)),
                countermodel_search(p0, "IL", SearchBudget(max_worlds=4)),
                countermodel_search(p0, "ILP0", SearchBudget(max_worlds=3)),
                countermodel_search(r, "ILR", SearchBudget(max_worlds=3)))

    first = run()
    second = run()
    dumps = [tuple(json.dumps(verdict_to_json(v), sort_keys=True).encode()
                   for v in vs) for vs in (first, second)]
    problems = []
    v_pq, v_p0_il, v_p0, v_r = first
    if not (isinstance(v_pq, Refuted) and len(v_pq.model.worlds) == 2
            and verdict_to_json(v_pq) == PQ_REFUTATION):
        problems.append("p |> q over IL")
    if not (isinstance(v_p0_il, Refuted) and len(v_p0_il.model.worlds) <= 4
            and verdict_to_json(v_p0_il) == P0_REFUTATION):
        problems.append("P0 instance over IL")
    if not (isinstance(v_p0, NoCountermodelUpTo) and v_p0.max_worlds == 3):
        problems.append("P0 instance over ILP0")
    if not (isinstance(v_r, NoCountermodelUpTo) and v_r.max_worlds == 3):
        problems.append("R instance over ILR")
    if dumps[0] != dumps[1]:
        problems.append("outputs differ between runs")
    report(8, "refutation fixtures", not problems,
            "2-world and 4-world refutations pinned, reruns byte-identical")
    assert not problems, problems


def test_criterion_09_wstar_composition(report):
    failures = []
    checked = 0
    for n in (1, 2, 3, 4):
        for fr in _il_frames(n):
            if not (check_property(fr, "M0gen").holds
                    and check_property(fr, "Wgen").holds):
                continue
            checked += 1
            if schema_frame_valid(fr, "Wstar") is not True:
                failures.append((n, fr.to_json()))
    report(9, "Wstar composition", not failures and checked,
            f"{checked} frames with M0gen and Wgen all validate Wstar")
    assert checked > 0
    assert not failures, failures[:2]


def test_criterion_10_optimization_equivalence(report):
    failures = []
    total = 0
    for n in (1, 2, 3, 4):
        for fr in _il_frames(n):
            for pid in ("Rgen", "P0gen"):
                total += 1
                if check_property(fr, pid).holds != BRUTE[pid](fr):
                    failures.append((n, pid, fr.to_json()))
    report(10, "optimization equivalence", not failures,
            f"restricted Rgen/P0gen vs full quantification on {total} checks")
    assert not failures, failures[:2]
