"""CLI behavior: subcommands, exit codes, machine output."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadratizer
from quadratizer import cli, errors
from quadratizer.cli import main
from quadratizer.textio import parse_polynomial, qubo_from_json
from quadratizer.verify import enumerate_min

from conftest import CUBIC_OBJECTIVE, SPIN_INSTANCE


@pytest.fixture
def cubic_file(tmp_path):
    path = tmp_path / "cubic.txt"
    path.write_text(CUBIC_OBJECTIVE + "\n")
    return path


def test_quadratize_verify_roundtrip(tmp_path, cubic_file, capsys):
    out = tmp_path / "out.json"
    rc = main(
        [
            "quadratize",
            "--in",
            str(cubic_file),
            "--out",
            str(out),
            "--verify",
        ]
    )
    assert rc == 0
    rebuilt, aux, guarantee = qubo_from_json(out.read_text())
    assert guarantee == "pointwise-min"
    minimum, _ = enumerate_min(rebuilt)
    assert minimum == -2


def test_quadratize_text_format_stdout(cubic_file, capsys):
    rc = main(["quadratize", "--in", str(cubic_file), "--format", "text"])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    p = parse_polynomial(printed)
    assert p.degree() <= 2


def test_quadratize_route_override(cubic_file, capsys):
    rc = main(
        [
            "quadratize",
            "--in",
            str(cubic_file),
            "--format",
            "json",
            "--route",
            "negative=ntr_abcg,positive=ptr_bcr4",
        ]
    )
    assert rc == 0


def test_verify_subcommand_passes(tmp_path, cubic_file):
    out = tmp_path / "out.json"
    assert main(["quadratize", "--in", str(cubic_file), "--out", str(out)]) == 0
    rc = main(
        [
            "verify",
            "--original",
            str(cubic_file),
            "--quadratized",
            str(out),
            "--mode",
            "pointwise",
        ]
    )
    assert rc == 0


def test_verify_detects_corruption(tmp_path, cubic_file, capsys):
    out = tmp_path / "out.json"
    main(["quadratize", "--in", str(cubic_file), "--out", str(out)])
    payload = json.loads(out.read_text())
    key = sorted(payload["quadratic"])[0]
    payload["quadratic"][key] = "9"
    corrupted = tmp_path / "bad.json"
    corrupted.write_text(json.dumps(payload))
    rc = main(
        [
            "verify",
            "--original",
            str(cubic_file),
            "--quadratized",
            str(corrupted),
            "--mode",
            "pointwise",
        ]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert "counterexample" in captured.out


def test_convert_round_trip_bytes(tmp_path, cubic_file, capsys):
    spin = tmp_path / "spin.txt"
    rc = main(["convert", "--in", str(cubic_file), "--to", "spin", "--out", str(spin)])
    assert rc == 0
    back = tmp_path / "back.txt"
    rc = main(["convert", "--in", str(spin), "--to", "boolean", "--out", str(back)])
    assert rc == 0
    canonical = tmp_path / "canonical.txt"
    rc = main(["convert", "--in", str(cubic_file), "--to", "text", "--out", str(canonical)])
    assert rc == 0
    assert back.read_bytes() == canonical.read_bytes()


def test_analyze_report(cubic_file, capsys):
    rc = main(["analyze", "--in", str(cubic_file)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degree"] == 3
    assert payload["term_degree_histogram"] == {"2": 3, "3": 1}


def test_list_gadgets(capsys):
    rc = main(["list-gadgets"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    names = {row["name"] for row in rows}
    assert {"ntr_kzfd", "ptr_ishikawa", "ptr_bcr3", "ntr_lhz"} <= names
    statuses = {row["name"]: row["status"] for row in rows}
    assert statuses["ntr_kzfd"] == "must-pass"
    assert statuses["ptr_rbl_3to2"] == "experimental"


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5 b1")
    assert main(["analyze", "--in", str(bad)]) == 2


def test_exit_code_cap_exceeded(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text(" ".join(f"b{i}" for i in range(1, 9)))  # degree-8 product
    rc = main(
        ["quadratize", "--in", str(path), "--verify", "--max-states", "64"]
    )
    assert rc == 3


def test_exit_code_no_gadget(tmp_path):
    path = tmp_path / "ternary.txt"
    path.write_text("t1 t2 t3")
    assert main(["quadratize", "--in", str(path)]) == 4


@pytest.mark.parametrize(
    "route,code", [("positive=ptr_bcr1|ptr_ishikawa", 0), ("positive=ptr_bcr1", 4)]
)
def test_even_degree_routes_past_ptr_bcr1(tmp_path, capsys, route, code):
    """ptr_bcr1 is stated for odd k only, so a quartic moves on to the next
    routed gadget, or finds none."""
    path = tmp_path / "quartic.txt"
    path.write_text("b1 b2 b3 b4")
    rc = main(["quadratize", "--in", str(path), "--allow-experimental", "--route", route])
    assert rc == code, capsys.readouterr().err


def test_exit_code_forced_experimental_failure(tmp_path, capsys):
    path = tmp_path / "spin.txt"
    path.write_text("z1 z2 z3")
    rc = main(
        [
            "quadratize",
            "--in",
            str(path),
            "--route",
            "positive=ptr_rbl_3to2",
            "--allow-experimental",
        ]
    )
    assert rc == 1
    assert "counterexample" in capsys.readouterr().err


def test_quadratize_deterministic_bytes(tmp_path, cubic_file):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    main(["quadratize", "--in", str(cubic_file), "--out", str(first)])
    main(["quadratize", "--in", str(cubic_file), "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "flags",
    [["--seed", "1"], ["--strategy", "submodular"], ["--route", "objective=min_aux"]],
    ids=["seed", "submodular-preset", "objective-route-key"],
)
def test_removed_knobs_exit_2(cubic_file, flags):
    try:
        rc = main(["quadratize", "--in", str(cubic_file), *flags])
    except SystemExit as exit:  # argparse rejects an unknown flag or choice
        rc = exit.code
    assert rc == 2


@pytest.mark.parametrize(
    "route, bare", [("positive", "positive"), ("positive=ptr_bg,odd_split", "odd_split")]
)
def test_route_clause_without_equals_exits_2(cubic_file, capsys, route, bare):
    rc = main(["quadratize", "--in", str(cubic_file), "--route", route])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: route clauses look like key=value, got {bare!r}\n")


@pytest.mark.parametrize("value", ["banana", "", "2", "onn", " on"])
def test_odd_split_rejects_unknown_spellings(cubic_file, capsys, value):
    rc = main(["quadratize", "--in", str(cubic_file), "--route", f"odd_split={value}"])
    assert rc == 2
    assert "odd_split" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value, on",
    [("1", True), ("true", True), ("YES", True), ("On", True),
     ("0", False), ("false", False), ("No", False), ("OFF", False)],
)
def test_odd_split_spellings(cubic_file, value, on):
    from quadratizer.cli import _build_strategy, build_parser

    args = build_parser().parse_args(
        ["quadratize", "--in", str(cubic_file), "--route", f"odd_split={value}"]
    )
    assert _build_strategy(args).odd_split is on


def test_env_var_overrides_default_cap(tmp_path, monkeypatch):
    path = tmp_path / "big.txt"
    path.write_text(" ".join(f"b{i}" for i in range(1, 9)))
    monkeypatch.setenv("QUADRATIZER_MAX_STATES", "64")
    assert main(["quadratize", "--in", str(path), "--verify"]) == 3
    monkeypatch.setenv("QUADRATIZER_MAX_STATES", "1048576")
    assert main(["quadratize", "--in", str(path), "--verify"]) == 0


@pytest.mark.parametrize("command, warnings", [("analyze", 0), ("quadratize", 1)])
def test_malformed_env_cap_warns_once_and_only_where_read(
    cubic_file, monkeypatch, capsys, command, warnings
):
    monkeypatch.setenv("QUADRATIZER_MAX_STATES", "abc")
    assert main([command, "--in", str(cubic_file)]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines.count("ignoring malformed QUADRATIZER_MAX_STATES='abc'") == warnings
    assert len(lines) == warnings


@pytest.mark.parametrize("cap", ["0", "-5", "abc"])
@pytest.mark.parametrize("command", ["quadratize", "verify", "list-gadgets"])
def test_non_positive_cap_flag_exits_2(cubic_file, capsys, cap, command):
    inputs = {
        "quadratize": ["--in", str(cubic_file), "--verify"],
        "verify": ["--original", str(cubic_file), "--quadratized", str(cubic_file)],
        "list-gadgets": ["--verdicts"],
    }[command]
    with pytest.raises(SystemExit) as exit:
        main([command, *inputs, f"--max-states={cap}"])
    assert exit.value.code == 2
    assert f"must be a positive integer, got {cap!r}" in capsys.readouterr().err


@pytest.mark.parametrize("cap", [20, 48, 255])
def test_list_gadgets_verdicts_under_a_small_cap_exit_3(capsys, cap):
    assert main(["list-gadgets", "--verdicts", f"--max-states={cap}"]) == 3
    assert f"exceed the cap of {cap}" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_non_positive_env_cap_exits_2(cubic_file, monkeypatch, capsys, cap):
    monkeypatch.setenv("QUADRATIZER_MAX_STATES", cap)
    assert main(["quadratize", "--in", str(cubic_file), "--verify"]) == 2
    err = capsys.readouterr().err
    assert f"QUADRATIZER_MAX_STATES must be a positive integer, got {cap!r}" in err
    assert "exceed" not in err
    # a command without a state cap never reads the variable
    assert main(["analyze", "--in", str(cubic_file)]) == 0


@pytest.mark.parametrize(
    "payload",
    [
        '{"vars": [1, 2], "terms": []}',
        '{"vars": [{"id": 0, "domain": "b"}], "terms": 5}',
    ],
    ids=["vars-not-objects", "terms-not-a-list"],
)
def test_exit_code_malformed_polynomial_json(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    assert main(["analyze", "--in", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_malformed_qubo_linear_key(tmp_path, cubic_file, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "offset": "0",
                "linear": {"x": "1"},
                "quadratic": {},
                "var_map": {"0": {"label": "b1", "kind": "orig", "domain": "b"}},
            }
        )
    )
    rc = main(["verify", "--original", str(cubic_file), "--quadratized", str(path)])
    assert rc == 2
    assert "linear key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [
        '{"vars": [{"id": 0, "domain": []}], "terms": []}',
        '{"vars": [{"id": 0, "domain": "b", "label": []}], "terms": []}',
        '{"vars": [{"id": 0, "domain": "b", "label": "b1"},'
        ' {"id": 1, "domain": "b", "label": "b1"}], "terms": []}',
    ],
    ids=["domain-not-a-string", "label-not-a-string", "duplicate-label"],
)
def test_exit_code_malformed_variable_record(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    assert main(["analyze", "--in", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_duplicate_qubo_label(tmp_path, cubic_file, capsys):
    record = {"label": "b1", "kind": "orig", "domain": "b"}
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "offset": "0",
                "linear": {},
                "quadratic": {},
                "var_map": {"0": record, "1": record},
            }
        )
    )
    rc = main(["verify", "--original", str(cubic_file), "--quadratized", str(path)])
    assert rc == 2
    assert "labels" in capsys.readouterr().err


_LONG = "9" * 5000  # more digits than CPython's int/str conversion reads by default


@pytest.mark.parametrize(
    "text,aux,where",
    [
        (f"b1 + {_LONG} b2 b3", None, "(line 1, column 6)"),
        (f"b1 +\n 1/{_LONG} b2", None, "(line 2, column 4)"),
        (f"b1^{_LONG} b2", None, "(line 1, column 4)"),
        (f"b1 b{_LONG}", None, "(line 1, column 5)"),
        ('{"vars": [], "terms": [], "x": %s}' % _LONG, None, "invalid JSON"),
        ('{"x": %s%s}' % ("[" * 100_000, "]" * 100_000), None, "invalid JSON"),
        ("b1 b2 b3", "\u00b2", "unknown auxiliary"),
        ("b1 b2 b3", _LONG, "unknown auxiliary"),
    ],
    ids=["coefficient", "denominator", "exponent", "variable-index", "json-integer",
         "json-nesting", "aux-superscript-digit", "aux-too-long"],
)
def test_oversized_input_exits_2_without_a_traceback(tmp_path, text, aux, where):
    """Integers too long for int() and JSON too deep for the decoder exit 2
    with one error line, in a fresh interpreter as a user runs it."""
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    if aux is None:
        argv = ["analyze", "--in", str(path)]
    else:
        argv = ["verify", "--original", str(path), "--quadratized", str(path), "--aux", aux]
    package_root = os.path.dirname(os.path.dirname(quadratizer.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "quadratizer", *argv], capture_output=True, text=True,
        encoding="utf-8", env={**os.environ, "PYTHONPATH": package_root},
    )
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    assert where in run.stderr


@pytest.mark.parametrize(
    "text", ["z1 z2 z3", "- z1 z2 z3", SPIN_INSTANCE], ids=["positive", "negative", "mixed"]
)
def test_quadratize_spin_objective_verifies(tmp_path, text):
    source = tmp_path / "spin.txt"
    source.write_text(text)
    out = tmp_path / "out.json"
    assert main(["quadratize", "--in", str(source), "--verify", "--out", str(out)]) == 0
    qubo = json.loads(out.read_text())
    assert qubo["guarantee"] == "pointwise-min"
    used = {int(k) for k in qubo["linear"]} | {
        int(v) for key in qubo["quadratic"] for v in key.split(",")
    }
    assert {qubo["var_map"][str(v)]["domain"] for v in used} == {"b"}


@pytest.mark.parametrize(
    "text", ["z1 z2 z3", "- z1 z2 z3", SPIN_INSTANCE], ids=["positive", "negative", "mixed"]
)
def test_verify_reads_spin_qubo(tmp_path, text, capsys):
    """The QUBO of a spin objective lists the spin originals with their {0,1}
    partners, so verify checks it against the original's twin image."""
    source = tmp_path / "spin.txt"
    source.write_text(text)
    out = tmp_path / "spin.json"
    assert main(["quadratize", "--in", str(source), "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["verify", "--original", str(source), "--quadratized", str(out)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_verify_rejects_bad_spin_partner(tmp_path, capsys):
    source = tmp_path / "spin.txt"
    source.write_text("z1 z2 z3")
    out = tmp_path / "spin.json"
    assert main(["quadratize", "--in", str(source), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    payload["var_map"]["0"]["partner"] = 4  # the twin of z2, not of z1
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", "--original", str(source), "--quadratized", str(out)]) == 2
    assert "partner" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", ["z1 z2 z3", "- z1 z2 z3", SPIN_INSTANCE], ids=["positive", "negative", "mixed"]
)
def test_verify_reads_spin_polynomial_json(tmp_path, text, capsys):
    """Polynomial JSON carries the {0,1} partners too, so a spin objective's
    `--format json` output verifies against the original."""
    source = tmp_path / "spin.txt"
    source.write_text(text)
    out = tmp_path / "spin.json"
    assert main(["quadratize", "--in", str(source), "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["verify", "--original", str(source), "--quadratized", str(out)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_verify_rejects_bad_spin_partner_in_polynomial_json(tmp_path, capsys):
    source = tmp_path / "spin.txt"
    source.write_text("z1 z2 z3")
    out = tmp_path / "spin.json"
    assert main(["quadratize", "--in", str(source), "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    payload["vars"][0]["partner"] = 4  # the twin of z2, not of z1
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", "--original", str(source), "--quadratized", str(out)]) == 2
    assert "partner" in capsys.readouterr().err


def test_verify_reads_polynomial_json_with_a_variable_named_offset(tmp_path, capsys):
    """The reader is chosen from the parsed payload's keys, so a label equal
    to a QUBO key does not send polynomial JSON to the QUBO reader."""
    source = tmp_path / "cubic.txt"
    source.write_text(CUBIC_OBJECTIVE)
    out = tmp_path / "out.json"
    assert main(["quadratize", "--in", str(source), "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    payload["vars"][-1]["label"] = "offset"  # an auxiliary, which the original does not name
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", "--original", str(source), "--quadratized", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["convert", "--to", "text"], ["quadratize", "--format", "text"]],
    ids=["analyze", "convert", "quadratize"],
)
def test_qubo_json_is_read_wherever_a_polynomial_is(tmp_path, cubic_file, argv, capsys):
    qubo = tmp_path / "out.qubo.json"
    assert main(["quadratize", "--in", str(cubic_file), "--out", str(qubo)]) == 0
    assert main(["quadratize", "--in", str(cubic_file), "--format", "text"]) == 0
    quadratic = parse_polynomial(capsys.readouterr().out)
    assert main([argv[0], "--in", str(qubo), *argv[1:]]) == 0
    printed = capsys.readouterr().out
    if argv[0] == "analyze":
        assert json.loads(printed)["terms"] == len(quadratic.terms)
    else:
        # the QUBO is already quadratic, so quadratize passes it through
        assert parse_polynomial(printed) == quadratic


def test_exit_code_mixed_domain_cubic(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text("b1 z2 z3")
    assert main(["quadratize", "--in", str(path)]) == 4


# -- fuzzing: every input ends with a documented exit code --------------------

_NAMES = [f"{letter}{index}" for letter in "bzt" for index in range(1, 7)]
_TOKENS = _NAMES + ["+", "-", "\u2212", "2", "3/2", "1/0", "^2", "^0", ".5", "x"]
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 7),
    st.sampled_from(["b", "z", "t", "aux", "b1", "1", "1/2", "0,1", "x"]),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["0", "1", "id", "m", "c"]), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _grammar(draw):
    if draw(st.booleans()):
        return " ".join(draw(st.lists(st.sampled_from(_TOKENS), max_size=12)))
    terms = [
        draw(st.sampled_from(["", "2 ", "3/2 ", "- ", "- 4 "]))
        + " ".join(draw(st.lists(st.sampled_from(_NAMES), max_size=4)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return " + ".join(terms)


@st.composite
def _polynomial_json(draw):
    records = [
        {
            "id": draw(st.one_of(st.just(index), _SCALARS)),
            "domain": draw(st.one_of(st.sampled_from("bzt"), _JSON)),
            "label": draw(st.one_of(st.sampled_from(_NAMES), _JSON)),
            "kind": draw(st.sampled_from(["orig", "aux"])),
        }
        for index in range(draw(st.integers(0, 6)))
    ]
    monomials = st.dictionaries(
        st.sampled_from([str(i) for i in range(-1, 7)]), st.integers(-1, 3), max_size=4
    )
    terms = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "m": st.one_of(monomials, _JSON),
                    "c": st.one_of(st.sampled_from(["1", "-2", "3/2", "1/0"]), _JSON),
                }
            ),
            max_size=4,
        )
    )
    return json.dumps(
        {
            "vars": draw(st.one_of(st.just(records), _JSON)),
            "terms": draw(st.one_of(st.just(terms), _JSON)),
        }
    )


@st.composite
def _qubo_json(draw):
    count = draw(st.integers(0, 6))
    keys = [str(i) for i in range(-1, count + 1)]
    var_map = {
        str(i): {
            "label": draw(st.one_of(st.sampled_from(_NAMES[:6] + ["a1"]), _JSON)),
            "kind": draw(st.sampled_from(["orig", "aux"])),
            "domain": draw(st.sampled_from("bbz")),
        }
        for i in range(count)
    }
    values = st.sampled_from(["1", "-3", "2/3"])
    pairs = [f"{i},{j}" for i in keys for j in keys] + ["1"]
    return json.dumps(
        {
            "offset": draw(st.one_of(st.sampled_from(["0", "1/2"]), _JSON)),
            "linear": draw(st.dictionaries(st.sampled_from(keys + ["x"]), values, max_size=4)),
            "quadratic": draw(st.dictionaries(st.sampled_from(pairs), values, max_size=4)),
            "var_map": draw(st.one_of(st.just(var_map), _JSON)),
        }
    )


_INPUTS = st.one_of(_grammar(), _polynomial_json())


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(["quadratize", "verify", "analyze", "convert"]))
    if command == "quadratize":
        argv = [
            "quadratize", "--in", "{a}",
            "--format", draw(st.sampled_from(["text", "json", "qubo"])),
            "--strategy", draw(st.sampled_from(["default", "log-aux", "fgbz", "odd-split"])),
        ]
        argv += draw(st.sampled_from([[], ["--verify"]]))
        return argv, draw(_INPUTS), None
    if command == "verify":
        argv = [
            "verify", "--original", "{b}", "--quadratized", "{a}",
            "--mode", draw(st.sampled_from(["pointwise", "groundstate", "conditional"])),
            "--aux", draw(st.sampled_from(["", "a1", "b2", "7", "x"])),
        ]
        return argv, draw(st.one_of(_qubo_json(), _INPUTS)), draw(_INPUTS)
    if command == "analyze":
        return ["analyze", "--in", "{a}"], draw(_INPUTS), None
    target = draw(st.sampled_from(["spin", "boolean", "json", "text"]))
    return ["convert", "--in", "{a}", "--to", target], draw(_INPUTS), None


@given(_invocations())
@settings(max_examples=50, deadline=None)
def test_cli_fuzz_exits_with_documented_codes(tmp_path_factory, invocation):
    argv, first, second = invocation
    folder = tmp_path_factory.mktemp("fuzz")
    paths = {"a": folder / "a", "b": folder / "b"}
    paths["a"].write_text(first, encoding="utf-8")
    paths["b"].write_text(second or "", encoding="utf-8")
    argv = [arg.format(**paths) for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2, 3, 4)


def test_verify_repeated_aux_label_is_one_variable(tmp_path, capsys):
    """`--aux a1,a2,a1` names two auxiliaries: 4 + 2 {0,1} variables make 64
    states, which fit a cap of 100."""
    original = tmp_path / "dup.txt"
    original.write_text("b1 b2 b3 - 2 b1 b2 b3 b4\n")
    out = tmp_path / "dup.json"
    assert main(["quadratize", "--in", str(original), "--out", str(out)]) == 0
    argv = ["verify", "--original", str(original), "--quadratized", str(out), "--max-states", "100"]
    assert main(argv + ["--aux", "a1,a2,a1"]) == 0
    repeated = json.loads(capsys.readouterr().out)
    assert repeated["states"] == 64 and repeated["passed"]
    assert main(argv + ["--aux", "a1,a2"]) == 0
    assert json.loads(capsys.readouterr().out) == repeated


def test_verify_conditional_refuses_auxiliaries(tmp_path, capsys):
    """Conditional mode checks zero-auxiliary rewrites, so it exits 2 when
    the quadratized file's registry or `--aux` names an auxiliary, instead of
    comparing argmin sets over the auxiliaries too."""
    original = tmp_path / "cond.txt"
    original.write_text("b1 b2 b3 - 2 b1 b2 b3 b4\n")
    out = tmp_path / "cond.json"
    assert main(["quadratize", "--in", str(original), "--out", str(out)]) == 0
    argv = ["verify", "--original", str(original), "--quadratized", str(out), "--mode", "conditional"]
    message = (
        "error: conditional-min takes no auxiliaries, got 2;"
        " check pointwise-min or ground-state instead\n"
    )
    for aux in ([], ["--aux", "a1,a2,a1"]):
        capsys.readouterr()
        assert main(argv + aux) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)
    assert main(["verify", "--original", str(original), "--quadratized", str(out)]) == 0
    assert main(argv[:4] + [str(original), "--mode", "conditional"]) == 0


def test_verify_proves_a_spin_identity_over_the_spins(tmp_path, capsys):
    """Polynomial JSON whose spins carry twin links and whose one term is
    z1 z2 is the identity quadratization of z1 z2.  It uses no twin, so
    verify proves it over the spins instead of the twin image."""
    quadratized = tmp_path / "identity.json"
    quadratized.write_text(json.dumps({
        "vars": [
            {"id": 0, "domain": "z", "label": "z1", "partner": 2},
            {"id": 1, "domain": "z", "label": "z2", "partner": 3},
            {"id": 2, "domain": "b", "label": "b1", "partner": 0},
            {"id": 3, "domain": "b", "label": "b2", "partner": 1},
        ],
        "terms": [{"m": {"0": 1, "1": 1}, "c": "1"}],
    }))
    original = tmp_path / "original.txt"
    original.write_text("z1 z2\n")
    argv = ["verify", "--original", str(original), "--quadratized", str(quadratized)]
    for mode in ("pointwise", "groundstate", "conditional"):
        capsys.readouterr()
        assert main(argv + ["--mode", mode]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "mode": mode, "passed": True, "states": 4, "min_original": "-1", "min_transformed": "-1",
        }


def _error_classes(base=errors.QuadratizerError):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


EXPECTED_EXIT = {
    errors.VerificationFailed: 1,
    errors.EnumerationCapExceeded: 3,
    errors.NoApplicableGadget: 4,
}


@pytest.mark.parametrize(
    "error_class", [errors.QuadratizerError, *_error_classes()], ids=lambda cls: cls.__name__
)
def test_each_library_error_maps_to_its_exit_code(cubic_file, monkeypatch, capsys, error_class):
    """A library error raised inside a command exits with its documented code
    and prints `error: <message>` on stderr: verification 1, cap 3, no gadget
    4, anything else 2."""
    error = error_class("boom")

    def command(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_analyze", command)
    assert main(["analyze", "--in", str(cubic_file)]) == EXPECTED_EXIT.get(error_class, 2)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


# -- file errors: one `error:` line and exit 2, never a traceback -------------


def _file_error_exit(argv, capsys):
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot ") and captured.err.count("\n") == 1
    return code, captured.err


@pytest.mark.parametrize("kind, reason", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
    ("non-utf8", "'utf-8' codec can't decode byte 0xff"),
])
@pytest.mark.parametrize("flag", ["--in", "--original", "--quadratized"])
def test_unreadable_input_exits_2(tmp_path, cubic_file, capsys, flag, kind, reason):
    bad = {"missing": tmp_path / "absent.txt", "directory": tmp_path}.get(kind, tmp_path / "latin1.txt")
    if kind == "non-utf8":
        bad.write_bytes(b"\xff b1 b2 b3\n")
    quadratized = tmp_path / "out.json"
    assert main(["quadratize", "--in", str(cubic_file), "--out", str(quadratized)]) == 0
    argv = {
        "--in": ["analyze", "--in", str(bad)],
        "--original": ["verify", "--original", str(bad), "--quadratized", str(quadratized)],
        "--quadratized": ["verify", "--original", str(cubic_file), "--quadratized", str(bad)],
    }[flag]
    code, err = _file_error_exit(argv, capsys)
    assert code == 2
    assert err.startswith(f"error: cannot read {str(bad)!r}: ") and reason in err


def _stdin(monkeypatch, data):
    # the interpreter's own stdin decodes with the locale's error handler
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(cli.sys, "stdin", stream)


def test_stdin_is_read_as_strict_utf8_like_a_file(tmp_path, monkeypatch, capsys):
    data = b"\xff b1 b2 b3\n"
    path = tmp_path / "latin1.txt"
    path.write_bytes(data)
    _, file_err = _file_error_exit(["analyze", "--in", str(path)], capsys)
    _stdin(monkeypatch, data)
    code, err = _file_error_exit(["analyze", "--in", "-"], capsys)
    assert code == 2
    assert err == file_err.replace(repr(str(path)), "'-'")
    assert err == (
        "error: cannot read '-': 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )
    _stdin(monkeypatch, "b1 b2 b3 − 2 b1\n".encode())  # U+2212 MINUS SIGN
    assert main(["convert", "--in", "-", "--to", "json"]) == 0
    assert '"c": "-2"' in capsys.readouterr().out


@pytest.mark.parametrize("target", ["missing-folder", "directory"])
@pytest.mark.parametrize("command", ["quadratize", "convert"])
def test_unwritable_output_exits_2(tmp_path, cubic_file, capsys, command, target):
    out = tmp_path / "absent" / "out.json" if target == "missing-folder" else tmp_path
    argv = [command, "--in", str(cubic_file), "--out", str(out)]
    code, err = _file_error_exit(argv + (["--to", "json"] if command == "convert" else []), capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {str(out)!r}: ")
