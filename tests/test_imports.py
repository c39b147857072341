"""What importing the package loads.  Each check runs in a fresh
interpreter, since this one has already imported the whole library."""

import ast
import json
import os
import pathlib
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
    # json and argparse are imported by the probe itself only after the
    # import under test, so the first list shows what the cli module loads
    loaded = _fresh(
        "import sys; import quadratizer, quadratizer.cli\n"
        "ours = lambda: sorted(m for m in sys.modules if m.startswith('quadratizer'))\n"
        "imported = ours() + sorted({'argparse', 'json'} & set(sys.modules))\n"
        "import contextlib, io, json\n"
        "with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):\n"
        "    quadratizer.cli.main(['--help'])\n"
        "print(json.dumps([imported, ours()]))"
    )
    assert loaded == [
        ["quadratizer", "quadratizer.cli"],
        ["quadratizer", "quadratizer.cli", "quadratizer.errors"],
    ]


def test_default_quadratize_loads_no_multi_term_or_structured_gadgets(tmp_path):
    path = tmp_path / "cubic.txt"
    path.write_text("b1 b2 b3 - 2 b1 b2 b3 b4\n")
    lazy = ["quadratizer.gadgets.multi_term", "quadratizer.gadgets.structured"]
    loaded = {
        strategy: _fresh(
            "import contextlib, io, json, sys; from quadratizer import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    code = cli.main(['quadratize', '--in', {str(path)!r}, '--verify',"
            f" '--strategy', {strategy!r}])\n"
            f"print(json.dumps([code, sorted(set(sys.modules) & set({lazy!r}))]))"
        )
        for strategy in ("default", "rosenberg")
    }
    assert loaded == {
        "default": [0, []],
        "rosenberg": [0, ["quadratizer.gadgets.multi_term"]],
    }


def test_every_gadgets_name_is_its_submodules_object():
    result = _fresh(
        "import importlib, json\n"
        "gadgets = importlib.import_module('quadratizer.gadgets')\n"
        "modules = [importlib.import_module('quadratizer.gadgets.' + m)\n"
        "           for m in ('base', 'single_term', 'multi_term', 'structured')]\n"
        "owner = lambda name: [m.__name__ for m in modules if name in vars(m)\n"
        "                      and getattr(gadgets, name) is vars(m)[name]]\n"
        "print(json.dumps({name: owner(name) for name in gadgets.__all__}))"
    )
    del result["experimental_reports"]  # defined in the package itself
    assert all(owners for owners in result.values()), result
    # nothing leaks into the export list: no helper module, type or submodule
    assert not {"Fraction", "Domain", "Polynomial", "VariableRegistry", "check_claim",
                "annotations", "importlib", "base", "single_term", "multi_term",
                "structured"} & set(result)


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
    for first in ("quadratizer.gadgets", "quadratizer.gadgets.base", "quadratizer.pipeline",
                  "quadratizer.rewrites"):
        names = _fresh(
            f"import json, {first}; from quadratizer.gadgets.base import GADGETS;"
            "print(json.dumps(sorted(GADGETS)))"
        )
        assert names == expected, first


# Module-level imports kept for their effect, not their name: importing
# single_term fills GADGETS, and base re-exports Guarantee to the gadgets.
IMPORTED_FOR_EFFECT = {("gadgets/__init__.py", "single_term"), ("gadgets/base.py", "Guarantee")}


def test_every_module_level_import_is_used():
    package = pathlib.Path(quadratizer.__file__).parent
    unused = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                where = (path.relative_to(package).as_posix(), name)
                if name not in names and where not in IMPORTED_FOR_EFFECT:
                    unused.append(where)
    assert unused == []


def _calls(name: str, node, scope=()):
    """The enclosing class and function names of each call of `name` under `node`."""
    if isinstance(node, ast.Call):
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
            yield scope
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope += (node.name,)
    for child in ast.iter_child_nodes(node):
        yield from _calls(name, child, scope)


def test_only_verification_report_require_raises_verification_failed():
    # a refuted proof turns into VerificationFailed in one place
    package = pathlib.Path(quadratizer.__file__).parent
    calls = [
        (path.relative_to(package).as_posix(), scope)
        for path in sorted(package.rglob("*.py"))
        for scope in _calls("VerificationFailed", ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert calls == [("verify.py", ("VerificationReport", "require"))]


def test_the_multi_term_pass_scans_no_degree():
    # each pass ends when its own index of the terms of degree >= 3 offers no
    # step, so the rule "a term of degree >= 3 is left" is not written again
    path = pathlib.Path(quadratizer.__file__).parent / "pipeline.py"
    scopes = list(_calls("degree", ast.parse(path.read_text(encoding="utf-8"))))
    assert scopes and not [scope for scope in scopes if "_apply_multi_term" in scope]


def _pair_tests(node, scope=()):
    """The enclosing function names of each `i in ...` or `j in ...` under `node`."""
    if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
            and node.left.id in ("i", "j") and isinstance(node.ops[0], (ast.In, ast.NotIn))):
        yield scope
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope += (node.name,)
    for child in ast.iter_child_nodes(node):
        yield from _pair_tests(child, scope)


def test_only_pair_terms_tests_whether_a_monomial_holds_the_pair():
    # the PairAbsent check, the automatic penalty and the rewrite of a
    # Rosenberg step all read the one list of the terms that hold both i and j
    path = pathlib.Path(quadratizer.__file__).parent / "gadgets" / "multi_term.py"
    scopes = list(_pair_tests(ast.parse(path.read_text(encoding="utf-8"))))
    assert scopes == [("_pair_terms",)] * 2
