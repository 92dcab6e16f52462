"""Pinned parser answers on malformed and edge inputs.

``tests/fixtures/parse_errors.json`` holds one record per line: an input
string and either ``pretty(parse(input))`` or the ``ParseError`` it raises
(its ``str`` and ``pos``).  The inputs are drawn from ``random.Random(18)``
by :func:`inputs`:

- token soups mixing the grammar's tokens with characters outside it
  (capitals, digits, lone ``-`` ``<`` ``[``, non-ASCII letters and
  symbols, NUL) and with unusual whitespace (tab, newline, NBSP, em space,
  ideographic space);
- valid random formulas printed by ``pretty``, as they are and after one
  character is deleted, doubled or replaced;
- each nesting shape at ``MAX_DEPTH`` - 1, ``MAX_DEPTH`` and ``MAX_DEPTH`` + 1,
  alone, with a bad character or trailing input after it, and with an
  unclosed parenthesis or a dangling operator;
- a few fixed cases: empty and blank input, reserved words, lone tokens.

The test parses every input and reports the first record that differs.
Regenerate the fixture with ``PYTHONPATH=src:tests python tests/test_parse_errors.py``
only when a change of output is intended.
"""

import json
import random
from pathlib import Path

from reference import BAD, GOOD, SPACE, mutant, random_formula

from veltman.formula import MAX_DEPTH, ParseError, parse, pretty

FIXTURE = Path(__file__).parent / "fixtures" / "parse_errors.json"


def _soup(rng: random.Random) -> str:
    pieces = []
    for _ in range(rng.randrange(1, 12)):
        pool = BAD if rng.random() < 0.15 else GOOD
        pieces += [rng.choice(pool), rng.choice(SPACE)]
    return "".join(pieces)


def _mutant(rng: random.Random) -> str:
    return mutant(rng, pretty(random_formula(rng, rng.randrange(1, 5), ("p", "q", "r"))))


def _deep(n: int) -> dict[str, str]:
    """Each nesting shape with ``n`` nodes on its longest path (``n`` open
    parentheses for the last)."""
    return {
        "negations": "~" * (n - 1) + "p",
        "boxes": "[]" * (n - 2) + "(p & q)",
        "diamonds": "<>\u00a0" * (n - 1) + "q",
        "conjunctions": " & ".join(["p"] * n),
        "rhd chain": " |> ".join(["p"] * n),
        "implications": " -> ".join(["p"] * n),
        "mixed": "~[]" * ((n - 1) // 2) + "~" * ((n - 1) % 2) + "p",
        "parentheses": "(" * n + "p" + ")" * n,
    }


def inputs() -> list[str]:
    rng = random.Random(18)
    out = ["", " ", "\u00a0", "\t\n", "bot", "top", "botx", "top_", "(", ")", "()",
           "p q", "p |>", "|> p", "-> p", "p ->", "~", "[]", "<>", "[ ]", "< >", "- >",
           "| >", "p ->\u00a0q", "p\u3000|>\u2003q", "\u00e9", "p & P", "p & (q", "p & q)"]
    for n in (MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1):
        for src in _deep(n).values():
            out += [src, src + " \u00e9", src + " )", src + " q", "(" + src, src + " ->",
                    src.replace("p", "P", 1)]
    out += [_soup(rng) for _ in range(200)]
    out += [_mutant(rng) for _ in range(128)]
    return out


def answer(src: str) -> dict:
    try:
        return {"input": src, "pretty": pretty(parse(src))}
    except ParseError as exc:
        return {"input": src, "error": str(exc), "pos": exc.pos}


def test_parse_answers_match_fixture():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert len(want) >= 500
    for i, record in enumerate(want):
        got = answer(record["input"])
        assert got == record, f"first differing record, #{i}:\n  pinned  {record}\n  now     {got}"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(answer(s)) for s in inputs()) + "\n]\n",
                       encoding="utf-8")
