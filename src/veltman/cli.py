"""Command line front end.

Exit codes: 0 for an affirmative result, 1 for a negative mathematical
finding (the witness goes to stdout), 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bisim, filtration, hilbert, model, properties
from .decide import (MAX_ENUM_WORLDS, NoCountermodelUpTo, Refuted, SearchBudget,
                     SearchTimeout, countermodel_search, verdict_to_json)
from .formula import ParseError, Var, d_closure, fold, parse, pretty

LOGIC_NAMES = sorted(hilbert.LOGICS)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(payload: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _load_model(path: str, closure: bool):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("bad JSON: arrays or objects nested too deeply") from None
    m = model.model_from_json(doc)
    if closure:
        if not isinstance(m, model.GenModel):
            raise model.FrameError("--closure applies to generalized models only")
        m = model.GenModel(model.close_s(m.frame), m.valuation)
    return m


def _legal_model(args, gen_only: str | None = None):
    """Load ``args.model`` and refuse an illegal model; ``gen_only`` is the
    error for an ordinary model where only generalized ones apply."""
    m = _load_model(args.model, args.closure)
    if gen_only is not None and not isinstance(m, model.GenModel):
        raise ValueError(gen_only)
    violations = model.validate(m)
    if violations:
        raise ValueError(f"model is not legal: {violations[0]}")
    return m


def _json_node(g, v: tuple) -> dict:
    if isinstance(g, Var):
        return {"var": g.name}
    if not v:
        return {"op": g.symbol}
    if len(v) == 1:
        return {"op": g.symbol, "arg": v[0]}
    return {"op": g.symbol, "left": v[0], "right": v[1]}


def _ast_node(g, v: tuple) -> list[str]:
    head = f"Var {g.name}" if isinstance(g, Var) else type(g).__name__
    return [head] + ["  " + line for lines in v for line in lines]


def cmd_parse(args) -> int:
    f = parse(args.formula)
    _emit({"formula": pretty(f), "ast": fold(f, _json_node)}, args.format,
          fold(f, _ast_node) + [pretty(f)])
    return 0


def cmd_check_model(args) -> int:
    m = _load_model(args.model, args.closure)
    violations = model.validate(m)
    payload = {"legal": not violations,
               "violations": [{"clause": v.clause, "witness": list(map(str, v.witness)),
                               "message": v.message} for v in violations]}
    _emit(payload, args.format,
          ["legal"] if not violations else [str(v) for v in violations])
    return 0 if not violations else 1


def cmd_model_check(args) -> int:
    m = _legal_model(args)
    f = parse(args.formula)
    if args.world is not None:
        if args.world not in m.worlds:
            return _fail(f"unknown world {args.world!r}")
        forced = m.forces(args.world, f)
        _emit({"world": args.world, "forced": forced}, args.format,
              [f"{args.world}: {'forced' if forced else 'not forced'}"])
        return 0 if forced else 1
    table = {w: m.forces(w, f) for w in m.worlds}
    _emit({"forced": table}, args.format,
          [f"{w}: {'forced' if v else 'not forced'}" for w, v in table.items()])
    return 0 if all(table.values()) else 1


def cmd_check_property(args) -> int:
    m = _legal_model(args, "frame conditions are defined on generalized models")
    rep = properties.check_property(m.frame, args.property)
    payload = {"property": rep.property_id, "holds": rep.holds}
    lines = [f"{rep.property_id}: holds" if rep.holds else f"{rep.property_id}: fails"]
    if not rep.holds:
        payload["witness"] = [str(x) for x in rep.witness]
        payload["message"] = rep.message
        lines.append(f"witness: {rep.witness} ({rep.message})")
    _emit(payload, args.format, lines)
    return 0 if rep.holds else 1


def cmd_schema_valid(args) -> int:
    m = _legal_model(args, "schema validity runs on generalized models")
    result = properties.schema_frame_valid(m.frame, args.schema, cap=args.max_worlds)
    if result is True:
        _emit({"schema": args.schema, "valid": True}, args.format,
              [f"{args.schema}: frame-valid"])
        return 0
    valuation = {p: sorted(ws) for p, ws in result.valuation.items()}
    _emit({"schema": args.schema, "valid": False, "world": result.world, "valuation": valuation},
          args.format, [f"{args.schema}: falsified at {result.world} under "
                        + json.dumps(valuation, sort_keys=True)])
    return 1


def cmd_bisim(args) -> int:
    m = _legal_model(args, "autobisimulation runs on generalized models")
    part = bisim.largest_autobisimulation(m)
    _emit({"classes": part.to_json()}, args.format,
          [f"{cid}: {' '.join(ws)}" for cid, ws in sorted(part.to_json().items())])
    return 0


def cmd_filtrate(args) -> int:
    m = _legal_model(args, "filtration runs on generalized models")
    seeds = [parse(src) for src in args.formulas]
    result = filtration.filtrate(m, d_closure(seeds))
    payload = {"quotient": result.quotient.to_json(),
               "partition": result.partition.to_json(),
               "gamma_size": len(result.gamma),
               "violations": [str(v) for v in result.violations]}
    _emit(payload, args.format,
          [json.dumps(payload, sort_keys=True, indent=2)])
    return 0 if not result.violations else 1


def cmd_check_proof(args) -> int:
    with open(args.proof, "r", encoding="utf-8") as fh:
        text = fh.read()
    proof = hilbert.parse_proof(text)
    logic = hilbert.get_logic(args.logic)
    result = hilbert.check_proof(proof, logic)
    if result.accepted:
        conclusion = pretty(proof.conclusion())
        _emit({"accepted": True, "logic": logic.name, "lines": len(proof.lines),
               "conclusion": conclusion},
              args.format, [f"accepted: {conclusion}"])
        return 0
    _emit({"accepted": False, "logic": logic.name, "line": result.line,
           "reason": result.reason},
          args.format, [f"rejected at line {result.line}: {result.reason}"])
    return 1


def cmd_search(args) -> int:
    f = parse(args.formula)
    logic = hilbert.get_logic(args.logic)
    budget = SearchBudget(max_worlds=args.max_worlds,
                          time_limit=args.time_limit)
    verdict = countermodel_search(f, logic, budget)
    payload = verdict_to_json(verdict)
    if isinstance(verdict, Refuted):
        _emit(payload, args.format,
              [f"refuted at {verdict.world}",
               json.dumps(payload["countermodel"], sort_keys=True)])
        return 1
    _emit(payload, args.format,
          [f"no countermodel with up to {verdict.max_worlds} worlds"])
    return 0


def cmd_bench(args) -> int:
    if not 1 <= args.max_worlds <= MAX_ENUM_WORLDS:
        raise ValueError(f"frame enumeration supports 1..{MAX_ENUM_WORLDS} worlds, "
                         f"got {args.max_worlds}")
    sizes = range(1, args.max_worlds + 1)
    reports = [properties.correspondence_bench(n, args.property) for n in sizes]
    rows = []
    payload = {"property": args.property, "sizes": []}
    disagreements = 0
    for rep in reports:
        bad = len(rep.disagreements)
        disagreements += bad
        payload["sizes"].append({"n": rep.n, "frames": len(rep.rows),
                                 "disagreements": bad})
        rows.append(f"n={rep.n}: {len(rep.rows)} frames, {bad} disagreements")
    payload["agree"] = disagreements == 0
    _emit(payload, args.format, rows)
    return 0 if disagreements == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="veltman",
                                  description="interpretability logic toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, closure=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if closure:
            p.add_argument("--closure", action="store_true",
                           help="apply the least S-closure after loading")

    p = sub.add_parser("parse", help="parse a formula and print its AST")
    p.add_argument("formula")
    common(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("check-model", help="validate the frame clauses of a model file")
    p.add_argument("model")
    common(p, closure=True)
    p.set_defaults(func=cmd_check_model)

    p = sub.add_parser("model-check", help="evaluate a formula on a model")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--world")
    common(p, closure=True)
    p.set_defaults(func=cmd_model_check)

    p = sub.add_parser("check-property", help="check a frame condition")
    p.add_argument("model")
    p.add_argument("--property", required=True, choices=properties.PROPERTY_IDS)
    common(p, closure=True)
    p.set_defaults(func=cmd_check_property)

    p = sub.add_parser("schema-valid", help="sweep all valuations of a schema instance")
    p.add_argument("model")
    p.add_argument("--schema", required=True)
    p.add_argument("--max-worlds", type=int, default=5,
                   help="world cap for the sweep (default 5)")
    common(p, closure=True)
    p.set_defaults(func=cmd_schema_valid)

    p = sub.add_parser("bisim", help="largest autobisimulation as a partition")
    p.add_argument("model")
    common(p, closure=True)
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("filtrate", help="filtrate a model through seed formulas")
    p.add_argument("model")
    p.add_argument("formulas", nargs="+")
    common(p, closure=True)
    p.set_defaults(func=cmd_filtrate)

    p = sub.add_parser("check-proof", help="check a Hilbert proof file")
    p.add_argument("proof")
    p.add_argument("--logic", default="IL", choices=LOGIC_NAMES)
    common(p)
    p.set_defaults(func=cmd_check_proof)

    p = sub.add_parser("search", help="bounded countermodel search")
    p.add_argument("formula")
    p.add_argument("--logic", default="IL", choices=LOGIC_NAMES)
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--time-limit", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bench", help="frame condition vs schema validity, frame by frame")
    p.add_argument("--property", required=True, choices=properties.PROPERTY_IDS)
    p.add_argument("--max-worlds", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_bench)

    return top


PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        return _fail(f"syntax error: {exc}")
    except hilbert.ProofFormatError as exc:
        return _fail(f"bad proof file: {exc}")
    except model.FrameError as exc:
        return _fail(f"bad model: {exc}")
    except SearchTimeout as exc:
        return _fail(f"search budget exhausted: {exc}")
    except OSError as exc:
        return _fail(str(exc))
    except json.JSONDecodeError as exc:
        return _fail(f"bad JSON: {exc}")
    except ValueError as exc:  # FrameSizeError too
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
