"""Command-line front end.

Graphs and orientations travel in their text file formats so subcommands can
be piped (``orient ... | solve --f 1``); analysis commands emit JSON. Exit
codes: 0 success or suite pass, 1 suite failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from . import families as gen
from .bounds import bound_report
from .game import replay, scripted, simulate
from .graphs import (
    Graph,
    GraphError,
    read_graph,
    read_orientation,
    to_dot,
    write_graph,
    write_orientation,
)
from .orient import RECIPES
from .solve import _MAX_EDGES, _MAX_VERTICES, solve_best_orientation, solve_orientation, solve_undirected
from .strategies import STRATEGIES
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


def _call(registry, kind: str, name: str, /, *args, **flags):
    """Call ``registry[name]`` with ``args`` and the flags its signature
    names. A flag left at None is unset, and a flag the callee does not name
    is dropped, since one command line feeds both a family and a recipe. A
    required parameter that no flag sets is a usage error."""
    fn = registry[name]
    params = list(inspect.signature(fn).parameters.values())[len(args):]
    given = {p.name: flags[p.name] for p in params if flags.get(p.name) is not None}
    missing = [f"--{p.name}" for p in params if p.default is p.empty and p.name not in given]
    if missing:
        raise GraphError(f"{kind} '{name}' needs {' and '.join(missing)}")
    return fn(*args, **given)


def _build_family(args) -> Graph:
    return _call(gen.FAMILIES, "family", args.family, **vars(args))


def _load_graph(args) -> Graph:
    if getattr(args, "family", None):
        return _build_family(args)
    return read_graph(_read_text(getattr(args, "infile", None)))


def _add_size_flags(p: argparse.ArgumentParser) -> None:
    for flag in ("--n", "--p", "--q", "--k", "--w", "--h", "--d"):
        p.add_argument(flag, type=int)
    p.add_argument("--seed", type=int, default=None)


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", metavar="FILE", help="input file ('-' for stdin)")
    p.add_argument("--family", choices=sorted(gen.FAMILIES), help="generate the input instead of reading it")
    _add_size_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="firebreak", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a graph from a named family")
    p.add_argument("--family", required=True, choices=sorted(gen.FAMILIES))
    _add_size_flags(p)
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
    p.add_argument("--max-vertices", type=int, default=_MAX_VERTICES)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("solve-best", help="exact best orientation over all 2^m choices")
    _add_family_flags(p)
    p.add_argument("--f", type=int, default=1)
    p.add_argument("--budget-ms", type=float, default=None)
    p.add_argument("--max-edges", type=int, default=_MAX_EDGES)
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
    standalone = args.recipe.startswith("grid-") or (args.recipe == "complete" and args.n is not None)
    graph = _load_graph(args) if args.infile or args.family or not standalone else None
    o = _call(RECIPES, "recipe", args.recipe, graph, **vars(args))
    _emit(to_dot(o) if args.dot else write_orientation(o), args.out)
    return 0


def cmd_simulate(args) -> int:
    o = read_orientation(_read_text(args.infile))
    strat = STRATEGIES[args.strategy]
    if strat is scripted:
        if args.script is None:
            raise GraphError("strategy 'scripted' needs --script")
        strat = scripted(json.loads(_read_text(args.script)))
    elif args.script is not None:
        raise GraphError(f"strategy '{args.strategy}' takes no --script")
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
    entries = [e.to_json_obj() for e in bound_report(g, args.f, k=args.k)]
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
