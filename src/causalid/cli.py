"""Command-line front end.

Exit codes: 0 success (including a SEPARATED/CONNECTED verdict),
1 documented negative verdicts (not identified, corpus failures,
positivity violations), 2 usage or parse errors, 3 internal invariant
breaches.  With ``--json`` a single JSON document goes to stdout and
diagnostics go to stderr.  Output is byte-deterministic for identical
inputs; the only environment variable honored is NO_COLOR (output is
plain text already).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import product
from pathlib import Path

from .catalog import catalog as corpus_entries
from .catalog import run_entry, unavailable
from .dsep import connecting_path, observationally_equivalent, pattern
from .dsl import ParseError, parse_graph, parse_model
from .expr import (ExprError, base_name, evaluate, free_variables, parse,
                   render)
from .graph import GraphError, ScaleError
from .identify import (DEFAULT_BUDGET, IDENTIFIED, KNOWN_NON_IDENTIFIABLE,
                       NOT_WITHIN_BUDGET, EngineInvariantError, Query,
                       identify)
from .scm import ModelError, PositivityError

SCHEMA = 1


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _Failure(2, f"cannot read {path}: {exc.strerror}") from None


def _variables(g, flag: str, s: str | None) -> tuple[str, ...]:
    """The variables a comma-separated flag names, each known to ``g``
    and named once."""
    names = tuple(t for t in (x.strip() for x in (s or "").split(",")) if t)
    for i, n in enumerate(names):
        g.index(n)
        if n in names[:i]:
            raise _Failure(2, f"{flag} names {n!r} twice")
    return names


def _emit_json(doc: dict) -> None:
    doc = {"schema": SCHEMA, **doc}
    print(json.dumps(doc, indent=2))


# -- dsep ----------------------------------------------------------------

def cmd_dsep(args) -> int:
    g = parse_graph(_read(args.graph))
    ci = _variables(g, "--cut-incoming", args.cut_incoming)
    co = _variables(g, "--cut-outgoing", args.cut_outgoing)
    if ci or co:
        g = g.mutilate(cut_incoming=ci, cut_outgoing=co)
    X = _variables(g, "--x", args.x)
    Y = _variables(g, "--y", args.y)
    Z = _variables(g, "--given", args.given)
    witness = connecting_path(g, X, Y, Z)
    separated = witness is None
    if args.json:
        _emit_json({
            "command": "dsep",
            "x": list(X), "y": list(Y), "given": list(Z),
            "separated": separated,
            "witness": None if witness is None else witness.render(),
        })
    elif separated:
        print("SEPARATED")
    else:
        print(f"CONNECTED {witness.render()}")
    return 0


# -- identify --------------------------------------------------------------

def _status_line(res) -> str:
    detail = {IDENTIFIED: f" ({res.budget_spent} steps)",
              NOT_WITHIN_BUDGET: f" ({res.budget_spent})",
              KNOWN_NON_IDENTIFIABLE: ""}[res.status]
    return res.status.upper() + detail


def cmd_identify(args) -> int:
    if args.budget < 1:
        raise _Failure(2, "--budget must be at least 1")
    g = parse_graph(_read(args.graph))
    X, Y = _variables(g, "--x", args.x), _variables(g, "--y", args.y)
    query = Query(g, X, Y)
    res = identify(query, budget=args.budget)
    fmt = "latex" if args.latex else "text"
    if args.json:
        _emit_json({
            "command": "identify",
            "x": list(query.treatment), "y": list(query.outcome),
            "status": res.status,
            "budget_spent": res.budget_spent,
            "formula": None if res.formula is None
            else render(res.formula, fmt),
            "derivation": [s.to_json(i)
                           for i, s in enumerate(res.derivation, 1)],
        })
    else:
        print(f"query: p({','.join(query.outcome)}|"
              f"do({','.join(query.treatment)}))")
        print(f"status: {_status_line(res)}")
        if res.formula is not None:
            print(f"formula: {render(res.formula, fmt)}")
        if res.derivation:
            print("derivation:")
            for i, s in enumerate(res.derivation, 1):
                guard = "" if s.guard is None else f" [{s.guard.render()}]"
                print(f"  {i}. {s.rule}{guard}")
                print(f"     = {render(s.after, fmt)}")
    return 0 if res.status == IDENTIFIED else 1


# -- eval -----------------------------------------------------------------

def _do_items(items):
    fixed, free = {}, []
    for item in items or []:
        name, eq, value = item.partition("=")
        if name in fixed or name in free:
            raise _Failure(2, f"--do names {name!r} twice")
        if eq:
            fixed[name] = value
        else:
            free.append(name)
    return fixed, free


def cmd_eval(args) -> int:
    m = parse_model(_read(args.model))
    g = m.graph
    if not args.formula and not args.do:
        raise _Failure(2, "eval needs --formula or --do")

    fixed, free_do = _do_items(args.do)
    for n, v in fixed.items():
        g.index(n)
        if v not in m.domains[n]:
            raise _Failure(2, f"value {v!r} not in domain of {n!r}")
    for n in free_do:
        g.index(n)
    targets = _variables(g, "--target", args.target)
    if set(targets) & (set(fixed) | set(free_do)):
        raise _Failure(2, "--target and --do must be disjoint")

    # the row axes under each do-assignment: the targets, then the
    # formula's other free variables
    axes = list(targets)
    formula = None
    if args.formula:
        formula = parse(args.formula)
        fvars = sorted(free_variables(formula))
        for n in fvars:
            g.index(base_name(n))
        if args.check and not (args.do and targets):
            raise _Failure(2, "--check on a formula needs --do and "
                           "--target to name the oracle quantity")
        absent = [t for t in targets if t not in fvars]
        if args.check and absent:
            raise _Failure(2, f"--check target {absent[0]!r} is not a "
                           "free variable of the formula")
        bound = set(fixed) | set(free_do) | set(targets)
        axes += [n for n in fvars if n not in bound]
    else:
        if not targets:
            raise _Failure(2, "--do needs --target")
        if len(fixed) + len(free_do) != 1:
            raise _Failure(2, "eval --do takes exactly one intervention "
                           "variable")

    rows = []
    axis_doms = [m.domains[base_name(v)] for v in axes]
    for do_values in product(*(m.domains[n] for n in free_do)):
        do_assign = {**fixed, **dict(zip(free_do, do_values))}
        # this assignment's oracle tables, built on the first row that
        # reads them
        surgery = truncated = None
        for values in product(*axis_doms):
            binding = {**do_assign, **dict(zip(axes, values))}
            outcome = {t: binding[t] for t in targets}
            if formula is not None:
                value = evaluate(formula, m, binding)
            else:
                if surgery is None:
                    surgery = m.do_marginal(do_assign, targets)
                value = surgery.p(outcome)
            row = {"binding": binding,
                   "exact": str(value),
                   "approx": float(value)}
            if args.check:
                if formula is not None:
                    if surgery is None:
                        surgery = m.do_marginal(do_assign, targets)
                    oracle = surgery.p(outcome)
                else:
                    # independent route: truncated product factorization
                    if truncated is None:
                        (var, val), = do_assign.items()
                        truncated = m.truncated(var, val).marginal(targets)
                    oracle = truncated.p(outcome)
                row["check_diff"] = str(value - oracle)
            rows.append(row)

    if args.json:
        _emit_json({"command": "eval", "rows": rows})
    else:
        for row in rows:
            label = " ".join(f"{k}={v}" for k, v in row["binding"].items())
            line = f"{label}: {row['exact']} = {row['approx']!r}"
            if "check_diff" in row:
                line += f"  check-diff: {row['check_diff']}"
            print(line)
    return 0


# -- equiv / pattern ---------------------------------------------------------

def cmd_equiv(args) -> int:
    g1 = parse_graph(_read(args.graph_a))
    g2 = parse_graph(_read(args.graph_b))
    equivalent = observationally_equivalent(g1, g2)
    detail = ""
    if not equivalent:
        sk1, sk2 = g1.skeleton(), g2.skeleton()
        if sk1 != sk2:
            only = sorted(sk1 ^ sk2)
            where = args.graph_a if only[0] in sk1 else args.graph_b
            detail = f"skeleton edge {only[0][0]}-{only[0][1]} " \
                     f"only in {where}"
        else:
            vs1, vs2 = g1.v_structures(), g2.v_structures()
            only = sorted(vs1 ^ vs2)
            where = args.graph_a if only[0] in vs1 else args.graph_b
            detail = f"v-structure ({','.join(only[0])}) only in {where}"
    if args.json:
        _emit_json({"command": "equiv", "equivalent": equivalent,
                    "detail": detail})
    else:
        print("EQUIVALENT" if equivalent else f"DISTINCT {detail}")
    return 0


def cmd_pattern(args) -> int:
    g = parse_graph(_read(args.graph))
    pat = pattern(g)
    directed = [f"{a}->{b}" for a, b in pat.directed]
    undirected = [f"{a}-{b}" for a, b in pat.undirected]
    if args.json:
        _emit_json({"command": "pattern",
                    "directed": [list(e) for e in pat.directed],
                    "undirected": [list(e) for e in pat.undirected]})
    else:
        print("  ".join(directed + undirected) if (directed or undirected)
              else "(no edges)")
    return 0


# -- corpus -----------------------------------------------------------------

def cmd_corpus(args) -> int:
    entries = corpus_entries()
    if args.filter:
        entries = tuple(e for e in entries if args.filter in e.name)
    if args.list:
        if args.json:
            _emit_json({
                "command": "corpus",
                "entries": [{
                    "name": e.name,
                    "nodes": len(e.graph.names),
                    "latent": len(e.graph.latent_names),
                    "treatment": list(e.treatment),
                    "outcome": list(e.outcome),
                    "expectation": e.expectation.kind,
                    "reconstructed": e.reconstructed,
                    "description": e.description,
                } for e in entries],
                "unavailable": [{"name": n, "note": note}
                                for n, note in unavailable()],
            })
        else:
            for e in entries:
                flags = " [reconstructed]" if e.reconstructed else ""
                print(f"{e.name}: {len(e.graph.names)} nodes "
                      f"({len(e.graph.latent_names)} latent), "
                      f"expect {e.expectation.kind}{flags}")
            print("unavailable:")
            for n, note in unavailable():
                print(f"  {n}: {note}")
        return 0

    results = [(e.name, *run_entry(e)) for e in entries]
    failures = [r for r in results if not r[1]]
    if args.json:
        _emit_json({
            "command": "corpus",
            "results": [{"name": n, "passed": ok, "detail": d}
                        for n, ok, d in results],
            "passed": len(results) - len(failures),
            "failed": len(failures),
        })
    else:
        for n, ok, d in results:
            print(f"{'PASS' if ok else 'FAIL'} {n}: {d}")
        print(f"{len(results) - len(failures)}/{len(results)} passed")
    return 1 if failures else 0


# -- entry point --------------------------------------------------------------

# built on the first `main` call, not at import, and kept for the process:
# building it costs about sixteen times what parsing one command line does
@cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="causalid",
        description="Causal identifiability engine: d-separation, "
                    "adjustment criteria, do-calculus rewriting, exact "
                    "discrete-model evaluation.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dsep", help="decide d-separation on a graph file")
    p.add_argument("graph")
    p.add_argument("--x", required=True, help="comma-separated variables")
    p.add_argument("--y", required=True)
    p.add_argument("--given", default="")
    p.add_argument("--cut-incoming", default="",
                   help="drop edges into these nodes first")
    p.add_argument("--cut-outgoing", default="",
                   help="drop edges out of these nodes first")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dsep)

    p = sub.add_parser("identify",
                       help="derive a do-free formula for p(y|do(x))")
    p.add_argument("graph")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--latex", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("eval", help="evaluate formulas or interventional "
                                    "marginals on a model file")
    p.add_argument("model")
    p.add_argument("--formula", help="expression in the text grammar")
    p.add_argument("--do", action="append", default=[],
                   metavar="VAR[=VALUE]",
                   help="intervention; bare VAR iterates its domain")
    p.add_argument("--target", default="", help="comma-separated outcomes")
    p.add_argument("--check", action="store_true",
                   help="also run the graph-surgery oracle and print the "
                        "difference")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("equiv", help="observational equivalence of two "
                                     "graph files")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("pattern", help="equivalence-class pattern of a "
                                       "graph file")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("corpus", help="list or run the built-in diagram "
                                      "corpus")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true")
    mode.add_argument("--run", action="store_true")
    p.add_argument("--filter", default="",
                   help="substring filter on entry names")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_corpus)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except PositivityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, GraphError, ExprError, ModelError,
            ScaleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
