"""Command-line interface.

Subcommands: quadratize, verify, analyze, convert, list-gadgets.
Exit codes: 0 success, 1 verification failed (counterexample printed),
2 parse/schema error, 3 enumeration cap exceeded, 4 no applicable gadget.
Human diagnostics go to stderr; machine output goes to stdout.

Each command imports the library modules it uses when it runs, so building
the parser and `--help` load only argparse, json and errors.  The state cap
(`--max-states`, else QUADRATIZER_MAX_STATES, else verify.DEFAULT_STATE_CAP)
must be a positive integer; it is read after parsing, only for the commands
that take it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import errors

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_NO_GADGET = 4

# Strategy keyword arguments per preset; Strategy's defaults fill the rest.
STRATEGY_PRESETS = {
    "default": {},
    "log-aux": {"positive_route": ("ptr_bcr4",)},
    "counter": {"positive_route": ("ptr_bcr3",)},
    "bg": {"positive_route": ("ptr_bg",)},
    "rosenberg": {"multi_term": "rosenberg"},
    "fgbz": {"multi_term": "fgbz"},
    "odd-split": {"odd_split": True},
}
# The guarantee label each `verify --mode` proves.
VERIFY_MODES = {"pointwise": "pointwise-min", "groundstate": "ground-state",
                "conditional": "conditional-min"}
CAP_HELP = "enumeration cap, a positive integer (default: $QUADRATIZER_MAX_STATES, else 2^20)"


def _state_cap(text: str) -> int:
    """`--max-states`: a positive integer, else argparse exits 2."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return cap


def _default_cap() -> int:
    value = os.environ.get("QUADRATIZER_MAX_STATES")
    if value:
        try:
            cap = int(value)
        except ValueError:
            print(f"ignoring malformed QUADRATIZER_MAX_STATES={value!r}", file=sys.stderr)
        else:
            if cap <= 0:
                raise errors.InvalidParameter(
                    f"QUADRATIZER_MAX_STATES must be a positive integer, got {value!r}"
                )
            return cap
    from .verify import DEFAULT_STATE_CAP

    return DEFAULT_STATE_CAP


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path, text: str):
    if not text.endswith("\n"):
        text += "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _build_strategy(args):
    from .pipeline import Strategy

    overrides = dict(STRATEGY_PRESETS[args.strategy])
    for clause in args.route or []:
        for part in clause.split(","):
            if not part:
                continue
            if "=" not in part:
                raise errors.InvalidParameter(f"route clauses look like key=value, got {part!r}")
            key, value = part.split("=", 1)
            key = key.strip().replace("-", "_")
            if key in ("positive", "positive_route"):
                overrides["positive_route"] = tuple(value.split("|"))
            elif key in ("negative", "negative_route"):
                overrides["negative_route"] = tuple(value.split("|"))
            elif key == "multi_term":
                overrides["multi_term"] = None if value in ("off", "none") else value
            elif key == "odd_split":
                on, off = ("1", "true", "yes", "on"), ("0", "false", "no", "off")
                if value.lower() not in on + off:
                    raise errors.InvalidParameter(f"odd_split takes {on + off}, got {value!r}")
                overrides["odd_split"] = value.lower() in on
            else:
                raise errors.InvalidParameter(f"unknown route key {key!r}")
    return Strategy(
        **overrides,
        verify_after=args.verify,
        allow_experimental=args.allow_experimental,
        max_states=args.max_states,
    )


def _cmd_quadratize(args) -> int:
    from .pipeline import quadratize
    from .textio import format_polynomial, load_polynomial, polynomial_to_json, qubo_to_json

    p = load_polynomial(_read(args.input))
    strategy = _build_strategy(args)
    result = quadratize(p, strategy)
    if args.format == "text":
        output = format_polynomial(result.output)
    elif args.format == "json":
        output = polynomial_to_json(result.output)
    else:
        output = qubo_to_json(result.output, result.aux_map, result.guarantee)
    _write(args.output, output)
    if result.report is not None:
        print(f"verification: {result.report}", file=sys.stderr)
    return EXIT_OK


def _resolve_aux(registry, spec: str):
    aux = []
    for token in (spec or "").split(","):
        token = token.strip()
        if not token:
            continue
        var = registry.by_label(token)
        if var is None:
            if not token.isdigit():
                raise errors.SchemaError(f"unknown auxiliary {token!r}")
            var = int(token)
        aux.append(var)
    return aux


def _cmd_verify(args) -> int:
    from .textio import format_fraction, load_polynomial, parse_polynomial
    from .verify import check_claim

    transformed = load_polynomial(_read(args.quadratized))
    registry = transformed.registry
    original_text = _read(args.original)
    if original_text.lstrip().startswith("{"):
        raise errors.SchemaError(
            "--original must be grammar text so it can share the quadratized "
            "polynomial's variables"
        )
    original = parse_polynomial(original_text, registry)
    aux = _resolve_aux(registry, args.aux) if args.aux else registry.auxiliaries()
    if args.mode == "conditional" and aux:
        raise errors.InvalidParameter(
            f"--mode conditional takes no auxiliaries, got {len(set(aux))};"
            " use --mode pointwise or groundstate"
        )
    report = check_claim(VERIFY_MODES[args.mode], original, transformed, aux, args.max_states)
    payload = {
        "mode": report.mode,
        "passed": report.passed,
        "states": report.stats.states_enumerated,
        "min_original": format_fraction(report.stats.min_original),
        "min_transformed": format_fraction(report.stats.min_transformed),
    }
    if report.counterexample is not None:
        payload["counterexample"] = {
            registry.display_name(v): value
            for v, value in sorted(report.counterexample.items())
        }
    _write(None, json.dumps(payload, sort_keys=True, indent=2))
    if not report.passed:
        print(f"verification failed: {report}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from .poly import Domain
    from .textio import format_fraction, load_polynomial

    p = load_polynomial(_read(args.input))
    histogram = {}
    for mono, _ in p.items():
        degree = sum(e for _, e in mono)
        histogram[str(degree)] = histogram.get(str(degree), 0) + 1
    payload = {
        "degree": p.degree(),
        "terms": len(p.terms),
        "variables": len(p.variables()),
        "term_degree_histogram": histogram,
        "max_abs_coefficient": format_fraction(
            max((abs(c) for c in p.terms.values()), default=0)
        ),
    }
    boolean = all(p.registry.domain(v) is Domain.BOOLEAN for v in p.variables())
    if boolean and p.degree() <= 2:
        profile = p.quadratic_profile()
        payload["submodularity"] = {
            "non_submodular_quadratics": profile.non_submodular,
            "quadratic_terms": profile.quadratic_terms,
        }
    _write(None, json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_convert(args) -> int:
    from .textio import format_polynomial, load_polynomial, polynomial_to_json

    p = load_polynomial(_read(args.input))
    if args.to == "spin":
        output = format_polynomial(p.to_spin())
    elif args.to == "boolean":
        output = format_polynomial(p.to_boolean())
    elif args.to == "json":
        output = polynomial_to_json(p)
    else:
        output = format_polynomial(p)
    _write(args.output, output)
    return EXIT_OK


def _cmd_list_gadgets(args) -> int:
    from .gadgets import GADGETS, experimental_reports

    rows = []
    reports = experimental_reports(args.max_states) if args.verdicts else {}
    for name in sorted(GADGETS):
        descriptor = GADGETS[name]
        top = "*" if descriptor.max_degree is None else str(descriptor.max_degree)
        row = {
            "name": name,
            "sign": descriptor.sign,
            "domain": descriptor.domain.tag,
            "degrees": f"{descriptor.min_degree}..{top}",
            "guarantee": descriptor.guarantee,
            "status": descriptor.status,
            "summary": descriptor.summary,
        }
        if name in reports:
            row["oracle_verdict"] = "passed" if reports[name].passed else "failed"
        rows.append(row)
    _write(None, json.dumps(rows, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadratizer",
        description="Reduce higher-degree pseudo-Boolean/spin objectives to "
        "quadratic form with enumeration-verified gadgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quad = sub.add_parser("quadratize", help="reduce a polynomial to degree <= 2")
    quad.add_argument("--in", dest="input", required=True, help="input file or -")
    quad.add_argument("--out", dest="output", default=None, help="output file (stdout)")
    quad.add_argument("--format", choices=("text", "json", "qubo"), default="qubo")
    quad.add_argument("--strategy", choices=sorted(STRATEGY_PRESETS), default="default")
    quad.add_argument(
        "--route",
        action="append",
        metavar="KEY=VALUE",
        help="strategy overrides, e.g. positive=ptr_bcr4,negative=ntr_kzfd",
    )
    quad.add_argument("--verify", action="store_true", help="prove the result by enumeration")
    quad.add_argument("--allow-experimental", action="store_true")
    quad.add_argument("--max-states", type=_state_cap, help=CAP_HELP)
    quad.set_defaults(func=_cmd_quadratize)

    ver = sub.add_parser("verify", help="check a quadratization against its original")
    ver.add_argument("--original", required=True)
    ver.add_argument("--quadratized", required=True)
    ver.add_argument("--aux", default="", help="comma-separated auxiliary labels or ids")
    ver.add_argument("--mode", choices=tuple(VERIFY_MODES), default="pointwise")
    ver.add_argument("--max-states", type=_state_cap, help=CAP_HELP)
    ver.set_defaults(func=_cmd_verify)

    ana = sub.add_parser("analyze", help="degree/term/submodularity report")
    ana.add_argument("--in", dest="input", required=True)
    ana.set_defaults(func=_cmd_analyze)

    conv = sub.add_parser("convert", help="domain or format conversion")
    conv.add_argument("--in", dest="input", required=True)
    conv.add_argument("--out", dest="output", default=None)
    conv.add_argument("--to", choices=("spin", "boolean", "json", "text"), required=True)
    conv.set_defaults(func=_cmd_convert)

    lst = sub.add_parser("list-gadgets", help="descriptors, guarantees, status")
    lst.add_argument("--verdicts", action="store_true", help="also run the experimental probes")
    lst.add_argument("--max-states", type=_state_cap, help=CAP_HELP)
    lst.set_defaults(func=_cmd_list_gadgets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "max_states" in vars(args) and args.max_states is None:
            args.max_states = _default_cap()
        return args.func(args)
    except errors.VerificationFailed as error:
        print(f"error: {error}", file=sys.stderr)
        if error.report is not None and error.report.counterexample is not None:
            print(
                "counterexample: "
                + json.dumps(
                    {str(k): v for k, v in sorted(error.report.counterexample.items())}
                ),
                file=sys.stderr,
            )
        return EXIT_VERIFICATION
    except errors.QuadratizerError as error:
        print(f"error: {error}", file=sys.stderr)
        if isinstance(error, errors.EnumerationCapExceeded):
            return EXIT_CAP
        return EXIT_NO_GADGET if isinstance(error, errors.NoApplicableGadget) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
