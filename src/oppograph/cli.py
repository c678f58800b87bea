"""Command-line front end: recognize, orient, aux, oracle, and sweep.

Exit codes: 0 member, 1 non-member, 2 undecided, 3 a sweep or --oracle
disagreement or a --verify rejection, 10 parse error, 11 usage error.
recognize, orient and sweep take a flip cap, a budget for each connected
component, set by --flip-cap (default 2^20).
"""

from __future__ import annotations

import argparse
import json
import sys

from .constraints import ConstraintGraph, bipartition_or_odd_walk
from .generate import random_distance_hereditary, random_ptolemaic, random_tree
from .graphs import Graph, GraphError, emit_dot, encode_graph6, parse_edge_list, parse_graph6
from .oracle import OracleCapError, oracle_coalition, oracle_generalized_opposition, oracle_opposition
from .p4 import COALITION, GENERALIZED_OPPOSITION, OPPOSITION
from .recognize import (
    DEFAULT_FLIP_CAP,
    MEMBER,
    NON_MEMBER,
    UNDECIDED,
    PtolemaicOrientationError,
    ptolemaic_opposition_orient,
    recognize_coalition,
    recognize_generalized_opposition,
    recognize_opposition,
    verdict_payload,
)
from .verify import check_verdict

EXIT_MEMBER = 0
EXIT_NON_MEMBER = 1
EXIT_UNDECIDED = 2
EXIT_DISAGREEMENT = 3
EXIT_PARSE = 10
EXIT_USAGE = 11

_DECISION_EXIT = {MEMBER: EXIT_MEMBER, NON_MEMBER: EXIT_NON_MEMBER, UNDECIDED: EXIT_UNDECIDED}


_FLIP_CAP_HELP = (
    "flip vectors each connected component with a cyclic side 0 may try "
    "before the verdict is undecided (default: 2^20)"
)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(f"{self.prog}: error: {message}", EXIT_USAGE)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc


def load_graph(path: str, fmt: str) -> Graph:
    """Read one graph; format auto-detection falls back to edge list."""
    text = _read_text(path)
    first = next((ln for ln in text.splitlines() if ln.strip()), "").strip()
    if fmt == "auto" and path.endswith(".g6"):
        fmt = "graph6"
    elif fmt == "auto" and first and " " not in first and "\t" not in first:
        try:
            return parse_graph6(first)
        except GraphError:
            pass
    try:
        if fmt == "graph6":
            return parse_graph6(first)
        return parse_edge_list(text)
    except GraphError as exc:
        raise CliError(f"{path}: {exc}", EXIT_PARSE) from exc


def _oracle(graph_class: str):
    return {
        OPPOSITION: oracle_opposition,
        GENERALIZED_OPPOSITION: oracle_generalized_opposition,
        COALITION: oracle_coalition,
    }[graph_class]


def _run_recognizer(g: Graph, graph_class: str, flip_cap: int, want_witness: bool):
    if graph_class == OPPOSITION:
        return recognize_opposition(g, flip_cap=flip_cap, want_witness=want_witness)
    if graph_class == COALITION:
        return recognize_coalition(g, flip_cap=flip_cap, want_witness=want_witness)
    return recognize_generalized_opposition(g)


def _write_certificate(out, cert: dict, indent: str = "  ") -> None:
    """The lines under a certificate payload's kind line."""
    if cert["kind"] == "orientation":
        arcs = " ".join(f"{t}->{h}" for t, h in cert["arcs"])
        out.write(f"{indent}arcs: {arcs}\n")
    elif cert["kind"] == "odd-closed-walk":
        walk = " ".join(f"({x},{y})" for x, y in cert["walk"])
        out.write(f"{indent}walk[{len(cert['walk']) - 1}]: {walk}\n")
    elif cert["kind"] == "flip-exhaustion":
        out.write(f"{indent}flips exhausted: {len(cert['entries'])}\n")
        for entry in cert["entries"]:
            flips = "".join(str(b) for b in entry["flips"])
            out.write(f"{indent}flips {flips or '-'}: cycle {'->'.join(entry['cycle'])}\n")
    elif cert["kind"] == "induced-subgraph":
        inner = cert["certificate"]
        out.write(f"{indent}vertices: {' '.join(cert['vertices'])}\n")
        out.write(f"{indent}certificate: {inner['kind']}\n")
        _write_certificate(out, inner, indent + "  ")


def _print_human(out, g: Graph, verdict, show_witness: bool) -> None:
    payload = verdict_payload(verdict, g)
    out.write(f"class: {payload['class']}\n")
    out.write(f"decision: {payload['decision']}\n")
    out.write(f"method: {payload['method']}\n")
    cert = payload["certificate"]
    out.write(f"certificate: {cert['kind']}\n")
    _write_certificate(out, cert)
    if show_witness and "witness" in payload:
        wit = payload["witness"]
        pairs = " ".join(f"{k}:{v}" for k, v in sorted(wit["map"].items(), key=lambda kv: int(kv[0])))
        out.write(f"witness: {wit['pattern']} at {pairs}\n")
    stats = payload["stats"]
    shown = {k: v for k, v in stats.items() if v is not None}
    if shown:
        out.write("stats: " + " ".join(f"{k}={v}" for k, v in sorted(shown.items())) + "\n")


def cmd_recognize(args, out) -> int:
    g = load_graph(args.input, args.format)
    verdict = _run_recognizer(g, args.graph_class, args.flip_cap, args.witness)
    try:  # before any output: a capped oracle is a usage error with nothing printed
        res = _oracle(args.graph_class)(g) if args.oracle else None
    except OracleCapError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    if args.output == "json":
        payload = verdict_payload(verdict, g)
        payload["input"] = args.input
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    elif args.output == "dot":
        if verdict.is_member:
            out.write(emit_dot(g, verdict.certificate))
        else:
            marked = verdict.witness.mapping if verdict.witness is not None else None
            out.write(emit_dot(g, highlight=marked))
    else:
        _print_human(out, g, verdict, args.witness)
    code = _DECISION_EXIT[verdict.decision]
    if args.verify:
        ok, msg = check_verdict(g, verdict)
        out.write("verify: ok\n" if ok else f"verify: rejected: {msg}\n")
        code = code if ok else EXIT_DISAGREEMENT
    if res is not None:
        out.write(f"oracle: {res.decision}\n")
        if (res.decision == MEMBER) != verdict.is_member and verdict.decision != UNDECIDED:
            out.write("oracle disagreement\n")
            return EXIT_DISAGREEMENT
    return code


def cmd_orient(args, out) -> int:
    if args.method == "ptolemaic" and args.graph_class == COALITION:
        raise CliError("--method ptolemaic builds opposition orientations, not coalition ones", EXIT_USAGE)
    g = load_graph(args.input, args.format)
    if args.method == "ptolemaic":
        try:
            orientation = ptolemaic_opposition_orient(g)
        except (ValueError, PtolemaicOrientationError) as exc:
            # non-members still deserve their certificate and exit code
            verdict = _run_recognizer(g, args.graph_class, args.flip_cap, want_witness=True)
            if verdict.decision == NON_MEMBER:
                _print_human(out, g, verdict, show_witness=True)
                return EXIT_NON_MEMBER
            raise CliError(f"ptolemaic constructor: {exc}", EXIT_USAGE) from exc
    else:
        verdict = _run_recognizer(g, args.graph_class, args.flip_cap, want_witness=True)
        if verdict.decision == UNDECIDED:
            out.write("undecided: flip cap hit\n")
            return EXIT_UNDECIDED
        if not verdict.is_member:
            _print_human(out, g, verdict, show_witness=True)
            return EXIT_NON_MEMBER
        orientation = verdict.certificate
    if args.output == "dot":
        out.write(emit_dot(g, orientation))
    else:
        for t, h in orientation.arcs():
            out.write(f"{g.label(t)} {g.label(h)}\n")
    return EXIT_MEMBER


def cmd_aux(args, out) -> int:
    g = load_graph(args.input, args.format)
    kind = OPPOSITION if args.kind == "opposition" else COALITION
    cg = ConstraintGraph(kind, g)
    if not args.check_bipartite:
        out.write(cg.to_dot())
        return EXIT_MEMBER
    res = bipartition_or_odd_walk(cg)
    if res is not None:
        walk = " ".join(f"({g.label(x)},{g.label(y)})" for x, y in res.walk)
        out.write(f"non-bipartite: odd walk of length {res.length()}: {walk}\n")
        return EXIT_NON_MEMBER
    colors = ("lightblue", "lightyellow")
    out.write(cg.to_dot([
        f'style=filled, fillcolor={colors[side ^ j]}, comment="component {k}"'
        for k, side in zip(cg.edge_class, cg.edge_side) for j in (0, 1)
    ]))
    out.write(f"// bipartite, {len(cg.class_bad)} component(s)\n")
    return EXIT_MEMBER


def cmd_oracle(args, out) -> int:
    g = load_graph(args.input, args.format)
    try:
        res = _oracle(args.graph_class)(g)
    except OracleCapError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    if args.output == "json":
        payload = {
            "schema": "oppograph.oracle/1",
            "class": res.graph_class,
            "decision": res.decision,
            "witness_order": list(res.witness_order) if res.witness_order else None,
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        out.write(f"class: {res.graph_class}\ndecision: {res.decision}\n")
        if res.witness_order:
            out.write("order: " + " ".join(g.label(v) for v in res.witness_order) + "\n")
    return _DECISION_EXIT[res.decision]


def _sweep_graphs(args):
    if args.generator == "stdin":
        for lineno, line in enumerate(sys.stdin, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield f"line {lineno}", parse_graph6(line)
            except GraphError as exc:
                raise CliError(f"stdin line {lineno}: {exc}", EXIT_PARSE) from exc
    else:
        make = {
            "tree": random_tree,
            "dh": random_distance_hereditary,
            "ptolemaic": random_ptolemaic,
        }[args.generator]
        for i in range(args.count):
            n = 1 + ((args.seed + i) * 2654435761 + i) % args.max_n
            yield f"{args.generator}#{i}", make(n, args.seed + i)


def cmd_sweep(args, out) -> int:
    if args.max_n < 1:
        raise CliError("--max-n must be at least 1", EXIT_USAGE)
    if args.count < 0:
        raise CliError("--count must be at least 0", EXIT_USAGE)
    classes = [args.graph_class] if args.graph_class else list((OPPOSITION, GENERALIZED_OPPOSITION, COALITION))
    counts = {c: {"graphs": 0, MEMBER: 0, NON_MEMBER: 0, UNDECIDED: 0, "oracle": 0} for c in classes}
    bad: list[str] = []
    for name, g in _sweep_graphs(args):
        for graph_class in classes:
            verdict = _run_recognizer(g, graph_class, args.flip_cap, want_witness=False)
            tally = counts[graph_class]
            tally["graphs"] += 1
            tally[verdict.decision] += 1
            if verdict.decision == UNDECIDED:
                continue
            try:
                res = _oracle(graph_class)(g)
            except OracleCapError:
                continue
            tally["oracle"] += 1
            if res.is_member != verdict.is_member:
                bad.append(f"{name} {graph_class} recognizer={verdict.decision} oracle={res.decision} {encode_graph6(g)}")
    for graph_class in classes:
        tally = counts[graph_class]
        out.write(
            f"{graph_class}: graphs={tally['graphs']} member={tally[MEMBER]} "
            f"non-member={tally[NON_MEMBER]} undecided={tally[UNDECIDED]} "
            f"oracle-checked={tally['oracle']}\n"
        )
    out.write(f"disagreements: {len(bad)}\n")
    for line in bad:
        out.write(f"  {line}\n")
    return EXIT_DISAGREEMENT if bad else EXIT_MEMBER


def build_parser() -> _Parser:
    parser = _Parser(prog="oppograph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_class=True):
        if with_class:
            p.add_argument(
                "--class",
                dest="graph_class",
                choices=[OPPOSITION, GENERALIZED_OPPOSITION, COALITION],
                required=True,
            )
        p.add_argument("--format", choices=["auto", "edgelist", "graph6"], default="auto")
        p.add_argument("input", help="input file, or - for stdin")

    p = sub.add_parser("recognize", help="decide membership with a certificate")
    common(p)
    p.add_argument("--flip-cap", type=int, default=DEFAULT_FLIP_CAP, help=_FLIP_CAP_HELP)
    p.add_argument("--output", choices=["human", "json", "dot"], default="human")
    p.add_argument("--witness", action="store_true", help="also locate a forbidden pattern on rejection")
    p.add_argument("--oracle", action="store_true", help="cross-check with the brute-force oracle")
    p.add_argument("--verify", action="store_true", help="re-check the verdict with oppograph.verify")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("orient", help="emit a verified orientation of a member")
    common(p)
    p.add_argument("--flip-cap", type=int, default=DEFAULT_FLIP_CAP, help=_FLIP_CAP_HELP)
    p.add_argument("--output", choices=["arcs", "dot"], default="dot")
    p.add_argument("--method", choices=["auto", "ptolemaic"], default="auto")
    p.set_defaults(func=cmd_orient)

    p = sub.add_parser("aux", help="emit the auxiliary constraint graph as DOT")
    common(p, with_class=False)
    p.add_argument("--kind", choices=["opposition", "coalition"], required=True)
    p.add_argument("--check-bipartite", action="store_true")
    p.set_defaults(func=cmd_aux)

    p = sub.add_parser("oracle", help="brute-force membership on small graphs")
    common(p)
    p.add_argument("--output", choices=["human", "json"], default="human")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="recognizer-vs-oracle agreement over a corpus")
    p.add_argument(
        "--class",
        dest="graph_class",
        choices=[OPPOSITION, GENERALIZED_OPPOSITION, COALITION],
        default=None,
        help="sweep a single class (default: all three)",
    )
    p.add_argument("--generator", choices=["stdin", "tree", "dh", "ptolemaic"], default="stdin")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-n", type=int, default=9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--flip-cap", type=int, default=DEFAULT_FLIP_CAP, help=_FLIP_CAP_HELP)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "flip_cap" in args and args.flip_cap < 1:
            raise CliError("--flip-cap must be at least 1", EXIT_USAGE)
        return args.func(args, out)
    except CliError as exc:
        print(exc, file=sys.stderr)
        return exc.code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
