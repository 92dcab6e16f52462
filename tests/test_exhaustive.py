"""Exhaustive small-scope gates: every small formula on every small frame.

The formulas are all those of at most N nodes over p, q and bot with the
connectives ``~ [] <> & | -> |>``: 480 up to 4 nodes, 3,531 up to 5.  They
are checked against the naive oracles of ``tests/reference.py``:

- ``frame_validates`` against ``brute_first_failure``, the same valuation
  and world or both valid, on the IL frames of ``enumerate_frames``: up to
  5 nodes on the 11 frames of 1-3 worlds, up to 4 nodes on the 85 frames
  of 4 worlds;
- ``countermodel_search`` up to 3 worlds in each of the eight logics, on
  the formulas up to 4 nodes and on the schema instances over p and q: it
  refutes exactly when ``brute_first_failure`` fails on some labelled
  legal frame of 1-3 worlds that meets the logic's ``reference.BRUTE``
  conditions, and the world it names is refuted under
  ``reference.gen_truth_set``.  The 38 labelled frames come from
  ``_naive_transitive_irreflexive`` and ``_naive_families``.  No formula
  up to 5 nodes tells the logics apart within 3 worlds; eight of the
  schema instances do.

``PYTHONPATH=src:tests python tests/test_exhaustive.py`` runs the larger
sets: up to 5 nodes on the 4-world frames (300,135 pairs) and the search
gate up to 5 nodes.
"""

import sys
import time
from functools import cache
from itertools import product

import pytest
from reference import (BRUTE, _naive_families, _naive_transitive_irreflexive, brute_first_failure,
                       gen_truth_set)

from veltman.decide import (FRAME_CONDITIONS, Refuted, SearchBudget, countermodel_search,
                            enumerate_frames)
from veltman.formula import BOT, And, Box, Dia, Impl, Neg, Or, Rhd, Var
from veltman.hilbert import SCHEMATA, instantiate, schema_metavars
from veltman.properties import frame_validates


@cache
def formulas_of_size(n: int) -> tuple:
    """Every formula of exactly n nodes over p, q and bot."""
    if n == 1:
        return (Var("p"), Var("q"), BOT)
    out = [op(f) for op in (Neg, Box, Dia) for f in formulas_of_size(n - 1)]
    out += [op(a, b) for op in (And, Or, Impl, Rhd) for k in range(1, n - 1)
            for a in formulas_of_size(k) for b in formulas_of_size(n - 1 - k)]
    return tuple(out)


def formulas(max_nodes: int) -> list:
    return [f for n in range(1, max_nodes + 1) for f in formulas_of_size(n)]


def frame_validates_mismatches(max_nodes: int, sizes: tuple[int, ...]):
    """The number of (formula, frame) pairs checked, and those where
    ``frame_validates`` and ``brute_first_failure`` answer differently."""
    frames = [fr for n in sizes for fr in enumerate_frames(n, "IL")]
    bad = []
    for f in formulas(max_nodes):
        for fr in frames:
            got = frame_validates(fr, f)
            if got is not True:
                got = (got.valuation, got.world)
            if got != brute_first_failure(fr, f):
                bad.append((str(f), fr.to_json()))
    return len(frames) * len(formulas(max_nodes)), bad


@cache
def labelled_frames() -> tuple:
    """Every labelled legal frame of 1-3 worlds, with the logics whose
    ``BRUTE`` conditions it meets."""
    out = []
    for n in (1, 2, 3):
        worlds = [f"w{i}" for i in range(n)]
        for rel in _naive_transitive_irreflexive(worlds):
            for fr in _naive_families(worlds, rel):
                out.append((fr, frozenset(logic for logic, pids in FRAME_CONDITIONS.items()
                                          if all(BRUTE[pid](fr) for pid in pids))))
    return tuple(out)


def schema_instances() -> list:
    """Every instance of each schema of ``SCHEMATA`` with its metavariables
    taken from p and q: 76 formulas, eight of which (M, P, W and Wstar
    instances) are refuted within 3 worlds in some logics only."""
    atoms = (Var("p"), Var("q"))
    return [instantiate(s, dict(zip(schema_metavars(s), pick))) for s in SCHEMATA
            for pick in product(atoms, repeat=len(schema_metavars(s)))]


def search_mismatches(fs: list):
    """The number of (formula, logic) searches run, and those whose verdict
    is not the brute sweep's or whose countermodel does not refute."""
    frames = labelled_frames()
    bad = []
    for f in fs:
        failing = [logics for fr, logics in frames if brute_first_failure(fr, f) is not True]
        refutable = frozenset().union(*failing)
        for logic in FRAME_CONDITIONS:
            v = countermodel_search(f, logic, SearchBudget(max_worlds=3))
            refuted = isinstance(v, Refuted)
            if refuted != (logic in refutable) or refuted and v.world in gen_truth_set(v.model, f):
                bad.append((str(f), logic))
    return len(FRAME_CONDITIONS) * len(fs), bad


def test_formula_counts():
    assert [len(formulas(n)) for n in range(1, 6)] == [3, 12, 75, 480, 3531]
    assert len(set(formulas(5))) == 3531


def test_labelled_frames_up_to_3_worlds():
    """1 frame of one world, 3 of two and 34 of three; M, P and W fail on
    six of the three-world frames."""
    frames = labelled_frames()
    assert [len(fr.worlds) for fr, _ in frames] == [1] + [2] * 3 + [3] * 34
    assert {logic: sum(logic in logics for _, logics in frames) for logic in FRAME_CONDITIONS} == {
        "IL": 38, "ILM": 32, "ILM0": 38, "ILP": 32, "ILP0": 38, "ILR": 38, "ILW": 32, "ILWstar": 32}


@pytest.mark.parametrize("max_nodes, sizes, pairs", [(5, (1, 2, 3), 38_841), (4, (4,), 40_800)])
def test_frame_validates_gives_the_brute_scan_on_every_small_formula(max_nodes, sizes, pairs):
    assert frame_validates_mismatches(max_nodes, sizes) == (pairs, [])


@pytest.mark.parametrize("fs", [formulas(4), schema_instances()],
                         ids=["up to 4 nodes", "schema instances over p and q"])
def test_search_verdicts_match_a_brute_sweep_of_every_labelled_frame(fs):
    assert search_mismatches(fs) == (8 * len(fs), [])


if __name__ == "__main__":
    for name, run in (("frame_validates, <= 5 nodes, 4 worlds",
                       lambda: frame_validates_mismatches(5, (4,))),
                      ("countermodel_search, <= 5 nodes, 3 worlds",
                       lambda: search_mismatches(formulas(5)))):
        started = time.perf_counter()
        checked, bad = run()
        print(f"{name}: {checked} checked, {len(bad)} mismatches, "
              f"{time.perf_counter() - started:.1f} s", flush=True)
        if bad:
            sys.exit(f"first mismatches: {bad[:3]}")
