"""Command-line interface.

Subcommands: quadratize, verify, analyze, convert, list-gadgets.
Exit codes: 0 success, 1 verification failed (counterexample printed),
2 parse/schema/file error, 3 enumeration cap exceeded, 4 no applicable gadget.
Human diagnostics go to stderr; machine output goes to stdout.

Importing this module loads only os and sys, and the module is kept small,
since a process without a bytecode cache compiles it on every launch.
build_parser imports argparse and builds each subcommand of COMMANDS from
the options it names in OPTIONS; main imports the errors module and runs
`_cmd_<subcommand>`, which imports the library modules it uses (and json, to
print JSON).  The state cap (`--max-states`, else QUADRATIZER_MAX_STATES,
else verify.DEFAULT_STATE_CAP) must be a positive integer; it is read after
parsing, only for the commands that take it.
"""

import os
import sys

# Each preset is `--route` clauses, read before the command line's own;
# Strategy's defaults fill the rest.
STRATEGY_PRESETS = {
    "default": "", "log-aux": "positive=ptr_bcr4", "counter": "positive=ptr_bcr3",
    "bg": "positive=ptr_bg", "rosenberg": "multi_term=rosenberg", "fgbz": "multi_term=fgbz",
    "odd-split": "odd_split=on",
}
# The Strategy field each `--route` key sets.
ROUTE_KEYS = {
    "positive": "positive_route", "positive_route": "positive_route",
    "negative": "negative_route", "negative_route": "negative_route",
    "multi_term": "multi_term", "odd_split": "odd_split",
}
# The spellings `odd_split=` takes for on and for off.
ON, OFF = ("1", "true", "yes", "on"), ("0", "false", "no", "off")
# The guarantee label each `verify --mode` proves.
VERIFY_MODES = {"pointwise": "pointwise-min", "groundstate": "ground-state",
                "conditional": "conditional-min"}


def _state_cap(text):
    """`--max-states`: a positive integer, else argparse exits 2."""
    try:
        if int(text) > 0:
            return int(text)
    except ValueError:
        pass
    import argparse

    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _default_cap():
    value = os.environ.get("QUADRATIZER_MAX_STATES")
    if value:
        try:
            cap = int(value)
        except ValueError:
            print(f"ignoring malformed QUADRATIZER_MAX_STATES={value!r}", file=sys.stderr)
        else:
            if cap > 0:
                return cap
            from .errors import InvalidParameter

            raise InvalidParameter(
                f"QUADRATIZER_MAX_STATES must be a positive integer, got {value!r}"
            )
    from .verify import DEFAULT_STATE_CAP

    return DEFAULT_STATE_CAP


def _file(path, text=None):
    """Read `path` ("-" is stdin), or write `text` and a final newline to it
    (None or "-" is stdout).  A file that cannot be opened, read, decoded or
    written is a QuadratizerError, so the CLI exits 2."""
    try:
        if text is None:
            if path == "-":
                return sys.stdin.buffer.read().decode("utf-8")
            with open(path, encoding="utf-8") as handle:
                return handle.read()
        text += "" if text.endswith("\n") else "\n"
        if path in (None, "-"):
            return sys.stdout.write(text)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except (OSError, UnicodeDecodeError) as error:
        from .errors import QuadratizerError

        reason = getattr(error, "strerror", None) or error
        raise QuadratizerError(f"cannot {'read' if text is None else 'write'} {path!r}: {reason}")


def _load(path):
    from .textio import load_polynomial

    return load_polynomial(_file(path))


def _print_json(payload, sort_keys=True):
    import json

    _file(None, json.dumps(payload, sort_keys=sort_keys, indent=2))


def _build_strategy(args):
    from .errors import InvalidParameter
    from .pipeline import Strategy

    overrides = {}
    clauses = [STRATEGY_PRESETS[args.strategy], *(args.route or ())]
    for part in filter(None, ",".join(clauses).split(",")):
        key, equals, value = part.partition("=")
        key = key.strip().replace("-", "_")
        field = ROUTE_KEYS.get(key)
        if not equals:
            raise InvalidParameter(f"route clauses look like key=value, got {part!r}")
        if field is None:
            raise InvalidParameter(f"unknown route key {key!r}")
        if field == "odd_split":
            if value.lower() not in ON + OFF:
                raise InvalidParameter(f"odd_split takes {ON + OFF}, got {value!r}")
            value = value.lower() in ON
        elif field == "multi_term":
            value = None if value in ("off", "none") else value
        else:
            value = tuple(value.split("|"))
        overrides[field] = value
    return Strategy(**overrides, verify_after=args.verify,
                    allow_experimental=args.allow_experimental, max_states=args.max_states)


def _cmd_quadratize(args):
    from .pipeline import quadratize
    from .textio import format_polynomial, polynomial_to_json, qubo_to_json

    result = quadratize(_load(args.input), _build_strategy(args))
    if args.format == "qubo":
        output = qubo_to_json(result.output, result.aux_map, result.guarantee)
    else:
        output = (polynomial_to_json if args.format == "json" else format_polynomial)(result.output)
    _file(args.output, output)
    if result.report is not None:
        print(f"verification: {result.report}", file=sys.stderr)
    return 0


def _cmd_verify(args):
    from .errors import SchemaError
    from .textio import format_fraction, parse_polynomial
    from .verify import check_claim

    transformed = _load(args.quadratized)
    registry = transformed.registry
    original = _file(args.original)
    if original.lstrip().startswith("{"):
        raise SchemaError("--original must be grammar text so it can share the quadratized "
                          "polynomial's variables")
    original = parse_polynomial(original, registry)
    aux = [] if args.aux else registry.auxiliaries()
    for token in filter(None, map(str.strip, args.aux.split(","))):
        var = registry.by_label(token)
        if var is None and token.isdigit():
            try:
                var = int(token)
            except ValueError:  # a digit int() does not read, or too many of them
                pass
        if var is None:
            raise SchemaError(f"unknown auxiliary {token!r}")
        aux.append(var)
    report = check_claim(VERIFY_MODES[args.mode], original, transformed, aux, args.max_states)
    stats = report.stats
    payload = {"mode": report.mode, "passed": report.passed, "states": stats.states_enumerated,
               "min_original": format_fraction(stats.min_original),
               "min_transformed": format_fraction(stats.min_transformed)}
    if report.counterexample is not None:
        payload["counterexample"] = {
            registry.display_name(v): x for v, x in sorted(report.counterexample.items())
        }
    _print_json(payload)
    if report.passed:
        return 0
    print(f"verification failed: {report}", file=sys.stderr)
    return 1


def _cmd_analyze(args):
    from collections import Counter

    from .poly import Domain, monomial_degree
    from .textio import format_fraction

    p = _load(args.input)
    payload = {"degree": p.degree(), "terms": len(p.terms), "variables": len(p.variables()),
               "term_degree_histogram": Counter(str(monomial_degree(m)) for m in p.terms),
               "max_abs_coefficient": format_fraction(max(map(abs, p.terms.values()), default=0))}
    if p.degree() <= 2 and all(p.registry.domain(v) is Domain.BOOLEAN for v in p.variables()):
        profile = p.quadratic_profile()
        payload["submodularity"] = {"non_submodular_quadratics": profile.non_submodular,
                                    "quadratic_terms": profile.quadratic_terms}
    _print_json(payload)
    return 0


def _cmd_convert(args):
    from .textio import format_polynomial, polynomial_to_json

    p = _load(args.input)
    if args.to in ("spin", "boolean"):
        p = getattr(p, "to_" + args.to)()
    _file(args.output, polynomial_to_json(p) if args.to == "json" else format_polynomial(p))
    return 0


def _cmd_list_gadgets(args):
    from .gadgets import GADGETS, experimental_reports

    reports = experimental_reports(args.max_states) if args.verdicts else {}
    rows = []
    for name, row in sorted(GADGETS.items()):
        rows.append({"name": name, "sign": row.sign, "domain": row.domain.tag,
                     "degrees": f"{row.min_degree}..{row.max_degree or '*'}",
                     "guarantee": row.guarantee, "status": row.status, "summary": row.summary})
        if name in reports:
            rows[-1]["oracle_verdict"] = "passed" if reports[name].passed else "failed"
    _print_json(rows, sort_keys=False)
    return 0


# Every subcommand option, declared once by its flag.
OPTIONS = {
    "--in": {"dest": "input", "required": True, "help": "input file or -"},
    "--out": {"dest": "output", "help": "output file (stdout)"},
    "--format": {"choices": ("text", "json", "qubo"), "default": "qubo"},
    "--strategy": {"choices": sorted(STRATEGY_PRESETS), "default": "default"},
    "--route": {"action": "append", "metavar": "KEY=VALUE",
                "help": "strategy overrides, e.g. positive=ptr_bcr4,negative=ntr_kzfd"},
    "--verify": {"action": "store_true", "help": "prove the result by enumeration"},
    "--allow-experimental": {"action": "store_true"},
    "--max-states": {"type": _state_cap, "help": "enumeration cap, a positive integer "
                     "(default: $QUADRATIZER_MAX_STATES, else 2^20)"},
    "--original": {"required": True},
    "--quadratized": {"required": True},
    "--aux": {"default": "", "help": "comma-separated auxiliary labels or ids"},
    "--mode": {"choices": tuple(VERIFY_MODES), "default": "pointwise"},
    "--to": {"choices": ("spin", "boolean", "json", "text"), "required": True},
    "--verdicts": {"action": "store_true", "help": "also run the experimental probes"},
}
# Each subcommand's help line and options; `main` runs `_cmd_<subcommand>`.
COMMANDS = {
    "quadratize": ("reduce a polynomial to degree <= 2", "--in --out --format --strategy --route "
                   "--verify --allow-experimental --max-states"),
    "verify": ("check a quadratization against its original",
               "--original --quadratized --aux --mode --max-states"),
    "analyze": ("degree/term/submodularity report", "--in"),
    "convert": ("domain or format conversion", "--in --out --to"),
    "list-gadgets": ("descriptors, guarantees, status", "--verdicts --max-states"),
}


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="quadratizer",
        description="Reduce higher-degree pseudo-Boolean/spin objectives to "
        "quadratic form with enumeration-verified gadgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, flags) in COMMANDS.items():
        command = sub.add_parser(name, help=help)
        for flag in flags.split():
            command.add_argument(flag, **OPTIONS[flag])
    return parser


def main(argv=None):
    from . import errors

    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "max_states", 0) is None:
            args.max_states = _default_cap()
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except errors.QuadratizerError as error:
        print(f"error: {error}", file=sys.stderr)
        report = getattr(error, "report", None)
        if report is not None and report.counterexample is not None:
            import json

            counterexample = {str(k): v for k, v in sorted(report.counterexample.items())}
            print("counterexample: " + json.dumps(counterexample), file=sys.stderr)
        # the exit code of each error class that does not exit 2
        for cls, code in ((errors.VerificationFailed, 1), (errors.EnumerationCapExceeded, 3),
                          (errors.NoApplicableGadget, 4)):
            if isinstance(error, cls):
                return code
        return 2
