"""Command-line front end.

Exit codes: 0 success, 1 verification counterexample or failed relation,
2 usage or parse error, 3 resource guard.  ``--json`` switches every command
to a single JSON document (top-level ``"schema": 1``) on stdout; diagnostics
go to stderr.  Each ``_cmd_*`` handler returns its exit code, its JSON
payload and its text lines, and ``main`` prints one or the other.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .canonical import canonical_form, enumerate_kn, multiply
from .conjectures import conjecture_sweep
from .errors import HkDisagreementError, ResourceGuardError, check_vertex_count
from .hecke import enumerate_hk
from .sds import (
    Dag,
    check_hk_relations,
    complete_dag,
    dag_to_json,
    parse_graph,
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
    """Read a graph, refusing more than MAX_VERTICES vertices before any
    edge is built."""
    if source.startswith("complete:"):
        n, edges = int(source.split(":", 1)[1]), None
    else:
        with open(source, encoding="utf-8") as fh:
            n, edges = parse_graph(json.load(fh))
    check_vertex_count(n)
    return complete_dag(n) if edges is None else Dag(n, edges)


def _load_system(path: str):
    with open(path, encoding="utf-8") as fh:
        return system_from_json(json.load(fh))


def _cmd_canon(args):
    w = parse_word(" ".join(args.word))
    result = format_word(canonical_form(w), args.format)
    return 0, {"input": format_word(w, args.format), "canonical": result}, [result]


def _cmd_binary(args):
    """``mult`` and ``join``: ``args.op`` of two words, reported under ``args.key``."""
    u, v = parse_word(args.left), parse_word(args.right)
    result = format_word(args.op(u, v), args.format)
    return 0, {"left": format_word(u, args.format), "right": format_word(v, args.format),
               args.key: result}, [result]


def _cmd_enum_kn(args):
    monoid = enumerate_kn(args.n)
    payload = {"n": args.n, "size": len(monoid)}
    lines = [len(monoid)]
    if args.list:
        payload["elements"] = lines = [format_word(c, args.format) for c in monoid]
    return 0, payload, lines


def _cmd_enum_hk(args):
    dag = _load_graph(args.graph)
    classes = enumerate_hk(dag)
    reps = [format_word(r, args.format)
            for r in sorted(classes.representatives_original(), key=lambda w: (len(w), w))]
    payload = {**dag_to_json(dag), "size": classes.size,
               "representatives": reps, "stats": classes.stats}
    return 0, payload, reps if args.list else [classes.size]


def _cmd_simulate(args):
    system = _load_system(args.system)
    schedule = parse_word(args.schedule)
    if args.initial is not None:
        state = tuple(args.initial.split(","))
        if len(state) != system.graph.n:
            raise ValueError(
                f"initial state needs {system.graph.n} comma-separated tokens"
            )
        for v, (tok, states) in enumerate(zip(state, system.state_sets), start=1):
            if tok not in states:
                raise ValueError(f"initial token {tok!r} is not a state of vertex {v}")
    else:
        state = system.initial_state()
    final = [str(tok) for tok in system.evolve(schedule, state)]
    return 0, {"state": final}, [",".join(final)]


def _cmd_dynamics(args):
    system = _load_system(args.system)
    monoid = system.dynamics_monoid()
    payload = {"state_count": system.state_count(), "size": monoid.size,
               "stats": monoid.stats}
    lines = [monoid.size]
    if args.list:
        payload["witnesses"] = [format_word(m.witness, args.format) for m in monoid]
        lines += payload["witnesses"]
    return 0, payload, lines


def _cmd_check_relations(args):
    report = check_hk_relations(_load_system(args.system))
    payload = {"ok": report.ok, "checked": len(report.checks),
               "failures": report.failures()}
    lines = [f"{c.kind} {c.vertices}: {'ok' if c.ok else 'FAIL'}" for c in report.checks]
    return 0 if report.ok else 1, payload, lines


def _cmd_verify_theorem(args):
    if args.random is None:
        if args.seed is not None:
            raise ValueError("--seed needs --random; without it every word is checked")
        words = exhaustive_words(args.n, 6 if args.max_len is None else args.max_len)
    else:
        max_len = 20 if args.max_len is None else args.max_len
        words = random_words(args.n, args.random, max_len, args.seed or 0)
    report = verify_theorem(args.n, words)
    lines = [f"checked {report.checked} words, "
             f"{len(report.counterexamples)} counterexamples"]
    lines += [f"  {format_word(ce['word'], args.format)}: {ce['kind']}"
              for ce in report.counterexamples]
    return 0 if report.ok else 1, report.to_json(args.format), lines


def _cmd_verify_iso(args):
    report = verify_isomorphism(args.n)
    lines = [f"|K_{args.n}| = {report.kn_size}, "
             f"orbit of all-STAR: {report.orbit_size}, "
             f"failed relations: {len(report.failures)}"]
    lines += [f"  {f['kind']} {tuple(f['vertices'])}: FAIL" for f in report.failures]
    return 0 if report.ok else 1, asdict(report), lines


def _cmd_conjecture_sweep(args):
    report = conjecture_sweep(max_vertices=args.max_vertices)
    lines = []
    for row in report.rows:
        mark = "skip" if row.skipped else ("match" if row.match else "MISMATCH")
        edges = ",".join(f"{i}->{j}" for i, j in row.dag.sorted_edges()) or "-"
        lines.append(f"n={row.dag.n} edges=[{edges}] hk={row.hk_size} "
                     f"dynamics={row.dynamics_size} {mark}")
    lines.append(f"matched {report.matched}, mismatched {report.mismatched}, "
                 f"skipped {report.skips}")
    return 0 if report.ok else 1, report.to_json(), lines


def _int_at_least(low: int):
    """The argparse type of an integer no smaller than ``low``."""
    def bounded_int(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return bounded_int


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit one JSON document on stdout")
    common.add_argument("--format", choices=("letters", "indices"),
                        default=None,
                        help="word rendering (default: letters, or indices "
                             "for a word with a letter above z = 26)")

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
    p.set_defaults(func=_cmd_binary, op=multiply, key="product")

    p = sub.add_parser("join", parents=[common],
                       help="shortest word with the left as quasi-subword, right as suffix")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_binary, op=join, key="join")

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
    p.add_argument("--max-len", type=_int_at_least(0), default=None,
                   help="longest word checked (default: 6, or 20 with --random)")
    p.add_argument("--random", type=_int_at_least(1), default=None, metavar="COUNT",
                   help="check COUNT random words instead of all words")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed for --random (default: 0)")
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("verify-iso", parents=[common],
                       help="certify that D of the universal system is K_n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_verify_iso)

    p = sub.add_parser("conjecture-sweep", parents=[common],
                       help="compare HK size with join-based dynamics on small DAGs")
    p.add_argument("--max-vertices", type=int, default=4)
    p.set_defaults(func=_cmd_conjecture_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, lines = args.func(args)
        if args.json:
            _emit_json(payload)
        else:
            for line in lines:
                print(line)
        return code
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
