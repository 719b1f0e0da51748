"""Package surface: lazy exports, version, attribute resolution, README example."""

import ast
import importlib
import io
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import scmest


def test_import_defers_numpy():
    # the CLI relies on this to set BLAS thread caps before numpy loads
    code = (
        "import sys; import scmest; "
        "sys.exit(1 if 'numpy' in sys.modules else 0)"
    )
    proc = subprocess.run([sys.executable, "-c", code])
    assert proc.returncode == 0


def test_attributes_resolve_to_their_modules():
    from scmest.scfun import omega
    from scmest.estimate import fit_erm

    assert scmest.omega is omega
    assert scmest.fit_erm is fit_erm


def test_export_table_matches_each_module_all():
    # a public name missing from _EXPORTS would not resolve as scmest.<name>
    for mod, names in scmest._EXPORTS.items():
        assert list(names) == importlib.import_module(f"scmest.{mod}").__all__, mod


def test_dir_lists_exports():
    names = dir(scmest)
    for expected in ("omega", "fit_erm", "ConfidenceSet", "bootstrap_quantile", "run_test"):
        assert expected in names


def test_version():
    assert scmest.__version__ == "0.1.0"


def test_unknown_attribute():
    with pytest.raises(AttributeError):
        scmest.nonexistent_name


def test_readme_quick_start_runs_and_gives_its_commented_results():
    # a statement whose trailing comment is a Python literal, such as
    # "report.reject  # False", must evaluate to that literal
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    source = section.split("```python\n", 1)[1].split("```", 1)[0]
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        try:
            expected = ast.literal_eval(comments.get(stmt.end_lineno, ""))
        except (ValueError, SyntaxError):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(stmt, ast.Expr)
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert value == expected, ast.unparse(stmt)
        checked += 1
    assert checked >= 3
