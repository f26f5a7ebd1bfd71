"""Command-line front end.

Graphs and orientations travel in their text file formats so subcommands can
be piped (``orient ... | solve --f 1``); analysis commands emit JSON. Exit
codes: 0 success or suite pass, 1 suite failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import families as gen
from .bounds import BoundHints, bound_report
from .game import StrategyFault, replay, simulate
from .graphs import (
    Graph,
    GraphError,
    read_graph,
    read_orientation,
    to_dot,
    write_graph,
    write_orientation,
)
from .orient import RECIPES, apply_recipe
from .solve import SolverLimitError, solve_best_orientation, solve_orientation, solve_undirected
from .strategies import STRATEGIES, make_strategy
from .verify import SUITES, run_suite


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=False) + "\n", out)


def _family_params(args) -> dict:
    params = {}
    for key in ("n", "p", "q", "k", "w", "h", "d", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return params


def _build_family(args) -> Graph:
    """Generate from --family, passing only the flags its builder accepts."""
    import inspect

    if args.family not in gen.FAMILIES:
        raise GraphError(f"unknown family '{args.family}'")
    builder = gen.FAMILIES[args.family]
    accepted = inspect.signature(builder).parameters
    params = {k: v for k, v in _family_params(args).items() if k in accepted}
    return builder(**params)


def _load_graph(args) -> Graph:
    if getattr(args, "family", None):
        return _build_family(args)
    return read_graph(_read_text(getattr(args, "infile", None)))


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", metavar="FILE", help="input file ('-' for stdin)")
    p.add_argument("--family", choices=sorted(gen.FAMILIES), help="generate the input instead of reading it")
    for flag in ("--n", "--p", "--q", "--k", "--w", "--h", "--d"):
        p.add_argument(flag, type=int)
    p.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="firebreak", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a graph from a named family")
    p.add_argument("--family", required=True, choices=sorted(gen.FAMILIES))
    for flag in ("--n", "--p", "--q", "--k", "--w", "--h", "--d"):
        p.add_argument(flag, type=int)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of the graph format")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("orient", help="apply a named orientation recipe")
    p.add_argument("--recipe", required=True, choices=sorted(RECIPES))
    _add_family_flags(p)
    p.add_argument("--root", type=int, default=None, help="root vertex for the tree recipe")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_orient)

    p = sub.add_parser("simulate", help="play one game under a named strategy")
    p.add_argument("--in", dest="infile", metavar="FILE", help="orientation file ('-' for stdin)")
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--f", type=int, default=1)
    p.add_argument("--strategy", default="greedy-outdeg", choices=sorted(STRATEGIES))
    p.add_argument("--script", metavar="FILE", help="JSON {time: [vertices]} for the scripted strategy")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("solve", help="exact optimal play on a fixed orientation")
    p.add_argument("--in", dest="infile", metavar="FILE", help="orientation file ('-' for stdin)")
    p.add_argument("--f", type=int, default=1)
    p.add_argument("--start", type=int, default=None)
    p.add_argument("--max-vertices", type=int, default=24)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("solve-best", help="exact best orientation over all 2^m choices")
    _add_family_flags(p)
    p.add_argument("--f", type=int, default=1)
    p.add_argument("--budget-ms", type=float, default=None)
    p.add_argument("--max-edges", type=int, default=21)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=cmd_solve_best)

    p = sub.add_parser("solve-undirected", help="classic firefighting with both arc directions")
    _add_family_flags(p)
    p.add_argument("--f", type=int, default=1)
    p.add_argument("--start", type=int, default=None)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=cmd_solve_undirected)

    p = sub.add_parser("bounds", help="evaluate every bound formula on a graph")
    _add_family_flags(p)
    p.add_argument("--f", type=int, default=1)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--slow", action="store_true", help="include the expensive checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit the suite result as JSON")
    p.set_defaults(fn=cmd_verify)
    return parser


def cmd_generate(args) -> int:
    g = _build_family(args)
    _emit(to_dot(g) if args.dot else write_graph(g), args.out)
    return 0


def cmd_orient(args) -> int:
    standalone = args.recipe in ("grid-rect", "grid-tri", "grid-hex") or (
        args.recipe == "complete" and args.n is not None
    )
    graph = None
    if args.infile or args.family or not standalone:
        graph = _load_graph(args)
    params = _family_params(args)
    if args.root is not None:
        params["root"] = args.root
    o = apply_recipe(args.recipe, graph, **params)
    _emit(to_dot(o) if args.dot else write_orientation(o), args.out)
    return 0


def cmd_simulate(args) -> int:
    o = read_orientation(_read_text(args.infile))
    params = {}
    if args.script is not None:
        params["script"] = json.loads(_read_text(args.script))
    strat = make_strategy(args.strategy, **params)
    trace = simulate(o, args.start, args.f, strat)
    check = replay(o, trace)
    obj = trace.to_json_obj()
    obj["strategy"] = args.strategy
    obj["replay_valid"] = check.valid
    _emit_json(obj, args.out)
    return 0


def _source_label(args) -> str:
    if getattr(args, "family", None):
        return args.family
    infile = getattr(args, "infile", None)
    return infile if infile not in (None, "-") else "stdin"


def cmd_solve(args) -> int:
    o = read_orientation(_read_text(args.infile))
    gv = solve_orientation(o, f=args.f, start=args.start, max_vertices=args.max_vertices)
    obj = gv.to_json_obj()
    obj["graph"] = _source_label(args)
    obj["n"] = o.n
    _emit_json(obj, args.out)
    return 0


def cmd_solve_best(args) -> int:
    g = _load_graph(args)
    gv = solve_best_orientation(g, f=args.f, budget_ms=args.budget_ms, max_edges=args.max_edges)
    obj = gv.to_json_obj()
    obj["graph"] = _source_label(args)
    obj["n"] = g.n
    obj["m"] = g.m
    if args.seed is not None:
        obj["seed"] = args.seed
    _emit_json(obj, args.out)
    return 0


def cmd_solve_undirected(args) -> int:
    g = _load_graph(args)
    gv = solve_undirected(g, f=args.f, start=args.start)
    obj = gv.to_json_obj()
    obj["saved"] = g.n - gv.beta
    _emit_json(obj, args.out)
    return 0


def cmd_bounds(args) -> int:
    g = _load_graph(args)
    hints = BoundHints(k=args.k)
    entries = [e.to_json_obj() for e in bound_report(g, args.f, hints)]
    _emit_json(entries, args.out)
    return 0


def cmd_verify(args) -> int:
    result = run_suite(args.suite, slow=args.slow, seed=args.seed)
    if args.json:
        _emit_json(result.to_json_obj(), None)
    else:
        for check in result.checks:
            print(check.line())
        print(result.summary())
    return 0 if result.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, SolverLimitError, StrategyFault, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
