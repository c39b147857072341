"""What importing the package loads.  Each check runs in a fresh
interpreter, since this one has already imported the whole library."""

import json
import os
import subprocess
import sys

import quadratizer

PACKAGE_ROOT = os.path.dirname(os.path.dirname(quadratizer.__file__))
PUBLIC = {
    "Assignment", "CheckStats", "CostReport", "DEFAULT_STATE_CAP", "Domain",
    "GadgetDescriptor", "GadgetResult", "Guarantee", "Monomial", "Polynomial",
    "QuadratizationResult", "QuadraticProfile", "QuadratizerError", "Strategy",
    "VariableRegistry", "VerificationReport", "check_conditional", "check_groundstate",
    "check_pointwise", "check_spectrum", "compare_strategies", "cost_report",
    "enumerate_min", "flip_to_submodular", "format_polynomial", "parse_polynomial",
    "polynomial_from_json", "polynomial_to_json", "quadratize", "qubo_from_json",
    "qubo_to_json",
}


def _fresh(code: str):
    """Run `code` in a new interpreter and return what it prints as JSON."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
    )
    return json.loads(out.stdout)


def test_package_cli_and_help_import_only_errors():
    loaded = _fresh(
        "import contextlib, io, json, sys; import quadratizer, quadratizer.cli\n"
        "ours = lambda: sorted(m for m in sys.modules if m.startswith('quadratizer'))\n"
        "imported = ours()\n"
        "with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):\n"
        "    quadratizer.cli.main(['--help'])\n"
        "print(json.dumps([imported, ours()]))"
    )
    assert loaded == [["quadratizer", "quadratizer.cli", "quadratizer.errors"]] * 2


def test_every_public_name_is_its_submodules_object():
    mismatched = _fresh(
        "import importlib, json, quadratizer\n"
        "bad = [name for name in quadratizer.__all__ if getattr(quadratizer, name) is not\n"
        "       getattr(importlib.import_module('quadratizer.' + quadratizer._SUBMODULE[name]), name)]\n"
        "print(json.dumps(bad))"
    )
    assert mismatched == []


def test_star_import_dir_and_unknown_name():
    result = _fresh(
        "import json, quadratizer\n"
        "listed, resolved = dir(quadratizer), sorted(set(vars(quadratizer)) & set(quadratizer.__all__))\n"
        "scope = {}\n"
        "exec('from quadratizer import *', scope)\n"
        "try:\n"
        "    quadratizer.no_such_name\n"
        "    error = None\n"
        "except AttributeError as raised:\n"
        "    error = str(raised)\n"
        "print(json.dumps({'all': quadratizer.__all__, 'bound': sorted(set(scope) - {'__builtins__'}),\n"
        "                  'dir': listed, 'resolved': resolved, 'error': error,\n"
        "                  'kept': sorted(set(vars(quadratizer)) & set(quadratizer.__all__))}))"
    )
    assert set(result["all"]) == PUBLIC
    assert result["bound"] == sorted(PUBLIC)
    # dir() lists every public name before any is resolved; once resolved,
    # each is kept in the namespace (where by-name patching finds it)
    assert result["resolved"] == []
    assert PUBLIC <= set(result["dir"])
    assert "__version__" in result["dir"]
    assert result["kept"] == sorted(PUBLIC)
    assert result["error"] == "module 'quadratizer' has no attribute 'no_such_name'"


def test_submodule_imports_still_fill_the_gadget_catalog():
    # gadgets/__init__ registers the catalog; any import under the package
    # must run it, so the table is whole whichever module comes first
    expected = _fresh(
        "import json, quadratizer.cli, quadratizer.pipeline, quadratizer.rewrites;"
        "from quadratizer.gadgets import GADGETS, multi_term, single_term, structured;"
        "print(json.dumps(sorted(GADGETS)))"
    )
    assert {"ntr_kzfd", "ptr_ishikawa", "ptr_bcr4", "ntr_lhz"} <= set(expected)
    for first in ("quadratizer.gadgets.base", "quadratizer.rewrites"):
        names = _fresh(
            f"import json, {first}; from quadratizer.gadgets.base import GADGETS;"
            "print(json.dumps(sorted(GADGETS)))"
        )
        assert names == expected, first
