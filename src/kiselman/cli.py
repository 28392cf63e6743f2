"""Command-line front end.

Exit codes: 0 success, 1 verification counterexample or failed relation,
2 usage or parse error, 3 resource guard.  ``--json`` switches every command
to a single JSON document (top-level ``"schema": 1``) on stdout; diagnostics
go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .canonical import canonical_form, enumerate_kn, multiply
from .conjectures import conjecture_sweep
from .errors import HkDisagreementError, ResourceGuardError
from .hecke import MAX_VERTICES, enumerate_hk
from .sds import (
    check_hk_relations,
    check_vertex_count,
    complete_dag,
    dag_from_json,
    dag_to_json,
    system_from_json,
)
from .universal import (
    exhaustive_words,
    random_words,
    verify_isomorphism,
    verify_theorem,
)
from .words import format_word, join, parse_word

SCHEMA = 1


def _emit_json(payload: dict):
    print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))


def _load_graph(source: str):
    """Read a graph, refusing more vertices than HK enumeration allows
    before any edge is built."""
    if source.startswith("complete:"):
        n = int(source.split(":", 1)[1])
        check_vertex_count(n, MAX_VERTICES)
        return complete_dag(n)
    with open(source, encoding="utf-8") as fh:
        return dag_from_json(json.load(fh), max_vertices=MAX_VERTICES)


def _load_system(path: str):
    with open(path, encoding="utf-8") as fh:
        return system_from_json(json.load(fh))


def _cmd_canon(args) -> int:
    w = parse_word(" ".join(args.word))
    result = canonical_form(w)
    if args.json:
        _emit_json({"input": format_word(w, args.format),
                    "canonical": format_word(result, args.format)})
    else:
        print(format_word(result, args.format))
    return 0


def _cmd_mult(args) -> int:
    u, v = parse_word(args.left), parse_word(args.right)
    result = multiply(u, v)
    if args.json:
        _emit_json({"left": format_word(u, args.format),
                    "right": format_word(v, args.format),
                    "product": format_word(result, args.format)})
    else:
        print(format_word(result, args.format))
    return 0


def _cmd_join(args) -> int:
    u, v = parse_word(args.left), parse_word(args.right)
    result = join(u, v)
    if args.json:
        _emit_json({"left": format_word(u, args.format),
                    "right": format_word(v, args.format),
                    "join": format_word(result, args.format)})
    else:
        print(format_word(result, args.format))
    return 0


def _cmd_enum_kn(args) -> int:
    monoid = enumerate_kn(args.n, max_elements=args.max_elements)
    canons = sorted((e.canon for e in monoid), key=lambda w: (len(w), w))
    if args.json:
        payload = {"n": args.n, "size": len(monoid)}
        if args.list:
            payload["elements"] = [format_word(c, args.format) for c in canons]
        _emit_json(payload)
    elif args.list:
        for c in canons:
            print(format_word(c, args.format))
    else:
        print(len(monoid))
    return 0


def _cmd_enum_hk(args) -> int:
    dag = _load_graph(args.graph)
    classes = enumerate_hk(dag)
    reps = sorted(classes.representatives_original(), key=lambda w: (len(w), w))
    if args.json:
        payload = {**dag_to_json(dag), "size": classes.size,
                   "representatives": [format_word(r, args.format) for r in reps]}
        _emit_json(payload)
    elif args.list:
        for r in reps:
            print(format_word(r, args.format))
    else:
        print(classes.size)
    return 0


def _cmd_simulate(args) -> int:
    system = _load_system(args.system)
    schedule = parse_word(args.schedule)
    if args.initial is not None:
        state = tuple(args.initial.split(","))
        if len(state) != system.graph.n:
            raise ValueError(
                f"initial state needs {system.graph.n} comma-separated tokens"
            )
    else:
        state = system.initial_state()
    final = system.evolve(schedule, state)
    if args.json:
        _emit_json({"state": [str(tok) for tok in final]})
    else:
        print(",".join(str(tok) for tok in final))
    return 0


def _cmd_dynamics(args) -> int:
    system = _load_system(args.system)
    limit = 10 ** 6 if args.max_elements is None else args.max_elements
    monoid = system.dynamics_monoid(max_size=limit)
    if args.json:
        payload = {"state_count": system.state_count(), "size": monoid.size}
        if args.list:
            payload["witnesses"] = [
                format_word(m.witness, args.format) for m in monoid
            ]
        _emit_json(payload)
    else:
        print(monoid.size)
        if args.list:
            for m in monoid:
                print(format_word(m.witness, args.format))
    return 0


def _cmd_check_relations(args) -> int:
    system = _load_system(args.system)
    report = check_hk_relations(system)
    if args.json:
        _emit_json({
            "ok": report.ok,
            "checked": len(report.checks),
            "failures": [
                {"kind": c.kind, "vertices": list(c.vertices)}
                for c in report.failures()
            ],
        })
    else:
        for c in report.checks:
            status = "ok" if c.ok else "FAIL"
            print(f"{c.kind} {c.vertices}: {status}")
    return 0 if report.ok else 1


def _cmd_verify_theorem(args) -> int:
    if args.random is not None:
        words = random_words(args.n, args.random, args.max_len, args.seed)
    else:
        words = exhaustive_words(args.n, args.exhaustive_len)
    report = verify_theorem(args.n, words)
    if args.json:
        _emit_json(report.to_json(args.format))
    else:
        print(f"checked {report.checked} words, "
              f"{len(report.counterexamples)} counterexamples")
        for ce in report.counterexamples:
            print(f"  {format_word(ce['word'], args.format)}: {ce['kind']}")
    return 0 if report.ok else 1


def _cmd_verify_iso(args) -> int:
    report = verify_isomorphism(args.n, pair_samples=args.pairs, seed=args.seed)
    if args.json:
        _emit_json({**report.to_json(args.format), "checked": report.checked})
    else:
        print(f"|K_{args.n}| = {report.kn_size}, |D| = {report.dynamics_size}, "
              f"pairs checked: {report.checked}, "
              f"counterexamples: {len(report.counterexamples)}")
    return 0 if report.ok else 1


def _cmd_conjecture_sweep(args) -> int:
    report = conjecture_sweep(
        max_vertices=args.max_vertices,
        search_on_mismatch=args.search_on_mismatch,
        seed=args.seed,
    )
    payload = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"schema": SCHEMA, **payload}, fh, sort_keys=True, indent=2)
    if args.json:
        _emit_json(payload)
    else:
        for row in report.rows:
            mark = "skip" if row.skipped else ("match" if row.match else "MISMATCH")
            edges = ",".join(f"{i}->{j}" for i, j in row.dag.sorted_edges()) or "-"
            print(f"n={row.dag.n} edges=[{edges}] hk={row.hk_size} "
                  f"dynamics={row.dynamics_size} {mark}")
        print(f"matched {report.matched}, mismatched {report.mismatched}, "
              f"skipped {report.skips}")
    return 0 if report.ok else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit one JSON document on stdout")
    common.add_argument("--seed", type=int, default=0, help="RNG seed")
    common.add_argument("--max-elements", type=_positive_int, default=None,
                        help="element guard for enumerations")
    common.add_argument("--format", choices=("letters", "indices"),
                        default="letters", help="word rendering")

    parser = argparse.ArgumentParser(
        prog="kiselman",
        description="Kiselman monoid combinatorics and update-system dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", parents=[common],
                       help="canonical form of a word")
    p.add_argument("word", nargs="+")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("mult", parents=[common],
                       help="product of two classes, as a canonical word")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_mult)

    p = sub.add_parser("join", parents=[common],
                       help="shortest word with the left as quasi-subword, right as suffix")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_join)

    p = sub.add_parser("enum-kn", parents=[common],
                       help="enumerate Kiselman's monoid K_n")
    p.add_argument("n", type=int)
    p.add_argument("--list", action="store_true", help="print the elements")
    p.set_defaults(func=_cmd_enum_kn)

    p = sub.add_parser("enum-hk", parents=[common],
                       help="enumerate the Hecke-Kiselman monoid of a DAG")
    p.add_argument("--graph", required=True, metavar="PATH|complete:N")
    p.add_argument("--list", action="store_true", help="print representatives")
    p.set_defaults(func=_cmd_enum_hk)

    p = sub.add_parser("simulate", parents=[common],
                       help="evolve a system state along a schedule word")
    p.add_argument("--system", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--initial", default=None,
                   help="comma-separated state tokens (default: first of each)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("dynamics", parents=[common],
                       help="enumerate the dynamics monoid of a system")
    p.add_argument("--system", required=True)
    p.add_argument("--list", action="store_true", help="print witness words")
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("check-relations", parents=[common],
                       help="verify the defining relations on a system")
    p.add_argument("--system", required=True)
    p.set_defaults(func=_cmd_check_relations)

    p = sub.add_parser("verify-theorem", parents=[common],
                       help="check the universal system against canonical forms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exhaustive-len", type=int, default=6,
                   help="check all words up to this length")
    p.add_argument("--random", type=int, default=None, metavar="COUNT",
                   help="check random words instead")
    p.add_argument("--max-len", type=int, default=20,
                   help="length bound for random words")
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("verify-iso", parents=[common],
                       help="compare |D| of the universal system with |K_n|")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pairs", type=int, default=200,
                   help="sampled word pairs for the map-equality check")
    p.set_defaults(func=_cmd_verify_iso)

    p = sub.add_parser("conjecture-sweep", parents=[common],
                       help="compare HK size with join-based dynamics on small DAGs")
    p.add_argument("--max-vertices", type=int, default=4)
    p.add_argument("--search-on-mismatch", action="store_true")
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.set_defaults(func=_cmd_conjecture_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except HkDisagreementError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
