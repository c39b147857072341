"""CLI behavior: subcommands, exit codes, machine output."""

import json

import pytest

from quadratizer.cli import main
from quadratizer.textio import parse_polynomial, qubo_from_json
from quadratizer.verify import enumerate_min

from conftest import CUBIC_OBJECTIVE


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
    path = tmp_path / "spin.txt"
    path.write_text("z1 z2 z3")
    assert main(["quadratize", "--in", str(path)]) == 4


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
    main(["quadratize", "--in", str(cubic_file), "--out", str(first), "--seed", "1"])
    main(["quadratize", "--in", str(cubic_file), "--out", str(second), "--seed", "1"])
    assert first.read_bytes() == second.read_bytes()


def test_env_var_overrides_default_cap(tmp_path, monkeypatch):
    path = tmp_path / "big.txt"
    path.write_text(" ".join(f"b{i}" for i in range(1, 9)))
    monkeypatch.setenv("QUADRATIZER_MAX_STATES", "64")
    assert main(["quadratize", "--in", str(path), "--verify"]) == 3
    monkeypatch.setenv("QUADRATIZER_MAX_STATES", "1048576")
    assert main(["quadratize", "--in", str(path), "--verify"]) == 0


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
