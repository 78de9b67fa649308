"""Command line interface.

Exit codes: 0 success, 1 input error, 2 cap or budget exceeded, 3 a
verification or certification failed; 0 also when the reader closes stdout.
"""

import argparse
import json
import os
import sys

from .bounds import lower_bounds
from .errors import (
    BudgetExhaustedError,
    CapExceededError,
    GraphParseError,
    MultiresError,
)
from .generators import all_connected, gen, parse_family_spec
from .graph import parse_edge_list, parse_graph6, to_edge_list, to_graph6
from .multisets import Variant
from .solver import SOLVER_CAP_DEFAULT, SolverOptions, certify, dimension, show_value

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_VERIFY = 3


def _solver_cap():
    raw = os.environ.get("MULTIRES_CAP")
    if raw is None:
        return SOLVER_CAP_DEFAULT
    try:
        return int(raw)
    except ValueError:
        raise MultiresError(f"MULTIRES_CAP must be an integer, got {raw!r}") from None


def _read_graph(args):
    if args.gen is not None:
        if args.graph is not None:
            raise MultiresError("give a graph file or --gen, not both")
        return gen(parse_family_spec(args.gen))
    try:
        if args.graph is None or args.graph == "-":
            text = sys.stdin.read()
        else:
            with open(args.graph, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"input is not UTF-8 text ({exc.reason})") from None
    text = text.removeprefix("\ufeff")  # a byte order mark, as Windows editors write
    if args.format == "graph6":
        return parse_graph6(text)
    return parse_edge_list(text)


def _variants(name):
    if name == "all":
        return list(Variant)
    return [Variant.from_name(name)]


def _parse_witness(text):
    try:
        return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError:
        raise MultiresError(f"bad witness {text!r}; expected e.g. 0,2,5") from None


def _emit(args, payload, table_lines):
    if args.output == "json":
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for line in table_lines:
            print(line)


def cmd_compute(args):
    g = _read_graph(args)
    opts = SolverOptions(subset_budget=args.budget, cap=_solver_cap())
    results = {v: dimension(g, v, opts=opts) for v in _variants(args.variant)}
    payload = {
        "n": g.n,
        "results": [results[v].to_json_dict() for v in results],
    }
    lines = [f"{'variant':<8} {'value':>8}  witness"]
    for v, r in results.items():
        witness = "-" if r.witness is None else ",".join(map(str, r.witness))
        lines.append(f"{v.name.lower():<8} {str(show_value(r.value)):>8}  {witness}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_certify(args):
    g = _read_graph(args)
    witness = _parse_witness(args.witness)
    cert = certify(g, witness, Variant.from_name(args.variant))
    lines = [f"valid: {cert.valid}"]
    lines += [f"violating pair: {u} {v}" for u, v in cert.violating]
    _emit(args, cert.to_json_dict(), lines)
    return EXIT_OK if cert.valid else EXIT_VERIFY


def cmd_gen(args):
    g = gen(parse_family_spec(args.spec))
    if args.format == "graph6":
        print(to_graph6(g))
    else:
        print(to_edge_list(g).rstrip("\n"))
    return EXIT_OK


def cmd_bounds(args):
    g = _read_graph(args)
    report = lower_bounds(g)
    lines = [f"n: {report.n}"]
    for v, b in sorted(report.lower.items(), key=lambda kv: kv[0].name):
        lines.append(f"lower {v.name.lower()}: {b.value} ({b.provenance})")
    for v, u in sorted(report.upper.items(), key=lambda kv: kv[0].name):
        lines.append(f"upper {v.name.lower()}: {u}")
    for c in report.certificates:
        lines.append(f"infinite {c.variant.name.lower()}: {c.kind} {c.witness}")
    for note in report.skipped:
        lines.append(f"skipped: {note}")
    _emit(args, report.to_json_dict(), lines)
    return EXIT_OK


def cmd_verify(args):
    from .verify import THEOREMS, run_theorem

    ids = args.theorem or sorted(THEOREMS)
    unknown = [t for t in ids if t not in THEOREMS]
    if unknown:
        raise MultiresError(f"unknown theorem ids {unknown}; known: {sorted(THEOREMS)}")
    payload = [run_theorem(tid, args.n_max).to_json_dict() for tid in ids]
    lines = []  # the table shows what the JSON shows
    for c in payload:
        lines.append(
            f"{c['theorem']:<24} {'pass' if c['passed'] else 'FAIL'}"
            f" ({c['instances']} instances)"
        )
        for f in c["failures"][:10]:
            lines.append(
                f"    {f['instance']} {f['quantity']}:"
                f" expected {f['expected']}, computed {f['computed']}"
            )
            if f["note"]:
                lines.append(f"        {f['note']}")
    _emit(args, payload, lines)
    return EXIT_OK if all(c["passed"] for c in payload) else EXIT_VERIFY


def cmd_enumerate(args):
    for g in all_connected(args.n):
        print(to_graph6(g))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 1); exit 2 is for caps and budgets."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="multires",
        description="Exact resolvability invariants of connected graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_input(p):
        p.add_argument(
            "graph",
            nargs="?",
            help="edge-list or graph6 file ('-' or omitted reads stdin)",
        )
        p.add_argument(
            "--format", choices=("edges", "graph6"), default="edges",
            help="input format (default: edges)",
        )
        p.add_argument("--gen", help="generate the input graph from a family spec")

    def add_output(p):
        p.add_argument("--output", choices=("json", "table"), default="table")

    p = sub.add_parser("compute", help="solve dimensions exactly")
    add_graph_input(p)
    add_output(p)
    p.add_argument(
        "--variant",
        choices=[v.name.lower() for v in Variant] + ["all"],
        default="all",
    )
    p.add_argument(
        "--budget", type=int, default=None, help="max subsets examined per variant"
    )
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("certify", help="validate a candidate resolving set")
    add_graph_input(p)
    add_output(p)
    p.add_argument("--variant", required=True,
                   choices=[v.name.lower() for v in Variant])
    p.add_argument("--witness", required=True, help="comma-separated vertices")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("gen", help="emit a generated family member")
    p.add_argument("spec", help='family spec, e.g. "wheel:8" or "corona:path:3/2,2,2"')
    p.add_argument("--format", choices=("edges", "graph6"), default="edges")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bounds", help="report bounds and infiniteness certificates")
    add_graph_input(p)
    add_output(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run the theorem harness")
    add_output(p)
    p.add_argument(
        "--theorem", action="append",
        help="theorem id (repeatable; default: all)",
    )
    p.add_argument(
        "--n-max", type=int, default=5,
        help="corpus size for exhaustive checks (default: 5)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="stream all labeled connected graphs")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        # the reader has gone: the interpreter's last flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (CapExceededError, BudgetExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (MultiresError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
