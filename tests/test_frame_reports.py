"""Pinned frame-condition reports, violations and closures.

``tests/fixtures/frame_reports.json`` holds, one record per line:

- ``check_property`` (holds, witness, message) for all six properties on
  every ``_il_frames(n)`` frame with n <= 4, isomorphic copies included
  (labelled ``enumerate_frames(n, IL) #i``, the list they once came from),
  and on 300 seeded ``random_gen_model`` frames;
- ``validate`` violations and ``close_s(...).to_json()`` for 300 seeded
  unclosed candidate frames, drawn as in
  ``test_model.test_close_s_always_legal_1000_random_candidates``;
- ``validate`` violations, and the ``close_s`` result or error, for 300
  seeded generalized frames whose R is not transitive and irreflexive (loops,
  dropped and extra edges) and whose S is keyed and valued outside R[w],
  and ``validate`` violations for 100 such ordinary frames;
- ``close_s(...).to_json()`` for ten seeded candidates of 12 to 20 worlds.

Every frame is named with a digest of its JSON, which pins the frames
themselves as well.  The test recomputes every record and reports the first that differs.
Regenerate the fixture with ``PYTHONPATH=src:tests python tests/test_frame_reports.py``
only when a change of output is intended.
"""

import hashlib
import json
import random
from pathlib import Path

from reference import _illegal_gen, _illegal_ord, random_gen_frame, random_gen_model

from veltman.decide import _il_frames
from veltman.model import FrameError, close_s, validate
from veltman.properties import PROPERTY_IDS, check_property

FIXTURE = Path(__file__).parent / "fixtures" / "frame_reports.json"


def _digest(frame) -> str:
    doc = json.dumps(frame.to_json(), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _violations(fr) -> list:
    return [[v.clause, v.witness, v.message] for v in validate(fr)]


def _closed_or_error(fr) -> dict:
    try:
        return {"closed": close_s(fr).to_json()}
    except FrameError as exc:
        return {"error": str(exc)}


def records() -> list[dict]:
    frames = [(f"enumerate_frames({n}, IL) #{i}", fr)
              for n in range(1, 5) for i, fr in enumerate(_il_frames(n))]
    rng = random.Random(11)
    frames += [(f"random_gen_model #{i}", random_gen_model(rng).frame) for i in range(300)]
    out = []
    for label, fr in frames:
        reports = {}
        for pid in PROPERTY_IDS:
            rep = check_property(fr, pid)
            reports[pid] = [rep.holds, rep.witness, rep.message]
        out.append({"frame": label, "digest": _digest(fr), "reports": reports})
    rng = random.Random(42)
    for i in range(300):
        fr = random_gen_frame(rng, rng.randrange(1, 6), extra=0.5, close=False)
        out.append({"candidate": i, "digest": _digest(fr),
                    "violations": _violations(fr), "closed": close_s(fr).to_json()})
    rng = random.Random(13)
    for i in range(300):
        fr = _illegal_gen(rng)
        out.append({"illegal gen": i, "digest": _digest(fr), "violations": _violations(fr),
                    **_closed_or_error(fr)})
    for i in range(100):
        fr = _illegal_ord(rng)
        out.append({"illegal ord": i, "digest": _digest(fr), "violations": _violations(fr)})
    rng = random.Random(5)
    for i in range(10):
        fr = random_gen_frame(rng, rng.randrange(12, 21), extra=0.5, close=False)
        out.append({"large candidate": i, "digest": _digest(fr),
                    "closed": close_s(fr).to_json()})
    # witnesses are tuples; compare in their JSON form
    return json.loads(json.dumps(out))


def test_frame_reports_match_fixture():
    want = json.loads(FIXTURE.read_text())
    got = records()
    for i, (a, b) in enumerate(zip(want, got)):
        assert a == b, f"first differing record, #{i}:\n  pinned  {a}\n  now     {b}"
    assert len(got) == len(want)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(r) for r in records()) + "\n]\n")
