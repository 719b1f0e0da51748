"""Package surface: lazy exports, version, attribute resolution, README examples."""

import ast
import importlib
import io
import json
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import scmest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_import_defers_numpy():
    # the CLI relies on this to set BLAS thread caps before numpy loads;
    # the error classes, searched first, load none either
    code = (
        "import sys; import scmest; scmest.ScmestError; "
        "sys.exit(1 if 'numpy' in sys.modules else 0)"
    )
    proc = subprocess.run([sys.executable, "-c", code])
    assert proc.returncode == 0


def test_simdata_does_not_load_estimate():
    # data generation and I/O stand apart from the fitting machinery
    code = "import sys; import scmest.simdata; sys.exit('scmest.estimate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code])
    assert proc.returncode == 0


def test_simdata_does_not_load_losses():
    # a dataset is its arrays: simdata needs no per-sample loss objects
    code = "import sys; import scmest.simdata; sys.exit('scmest.losses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code])
    assert proc.returncode == 0


def test_no_module_imports_scipy_stats():
    # importing scipy.stats would double the start-up time of every command;
    # the package takes its two quantile formulas from scipy.special.  Only
    # the explicit-constant radius needs scipy.linalg, and imports it when
    # called, unless scipy.special already loads it, as older scipy releases do
    code = (
        "import importlib, sys, scipy.special\n"
        "preloaded = 'scipy.linalg' in sys.modules\n"
        "import scmest, scmest.cli\n"
        "for mod in scmest._SUBMODULES:\n"
        "    importlib.import_module(f'scmest.{mod}')\n"
        "sys.exit(2 if 'scipy.stats' in sys.modules else\n"
        "         3 if 'scipy.linalg' in sys.modules and not preloaded else 0)"
    )
    proc = subprocess.run([sys.executable, "-c", code])
    assert proc.returncode == 0


def test_attributes_resolve_to_their_modules():
    from scmest.scfun import omega
    from scmest.estimate import fit_erm, replicate

    assert scmest.omega is omega
    assert scmest.fit_erm is fit_erm
    assert scmest.replicate is replicate


def test_public_names_resolve_from_each_module_all():
    # each public name is declared once, in the __all__ of its module
    seen = {}
    for mod in scmest._SUBMODULES:
        module = importlib.import_module(f"scmest.{mod}")
        for name in module.__all__:
            assert name not in seen, (name, seen.get(name), mod)
            seen[name] = mod
            assert getattr(scmest, name) is getattr(module, name), name
    assert scmest.__all__ == sorted(seen) + ["__version__"]
    assert set(scmest.__all__) <= set(dir(scmest))


def test_private_names_do_not_import_submodules():
    code = (
        "import sys, scmest\n"
        "for name in ('_EXPORTS', '_anything', '__wrapped__'):\n"
        "    try:\n"
        "        getattr(scmest, name)\n"
        "    except AttributeError:\n"
        "        continue\n"
        "    sys.exit(2)\n"
        "sys.exit(1 if 'scmest.errors' in sys.modules else 0)"
    )
    proc = subprocess.run([sys.executable, "-c", code])
    assert proc.returncode == 0


def test_submodules_import_as_names():
    code = "from scmest import cli, estimate; print(cli.main, estimate.fit_erm)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_python_dash_m_runs_the_command_line():
    argv = ["fit", "--threads", "1", "--model", "squared", "--process", "linear_wellspec"]
    proc = subprocess.run(
        [sys.executable, "-m", "scmest", *argv, "--d", "2", "--n", "50"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert len(payload["theta_n"]) == 2 and payload["converged"] is True


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
    section = README.read_text().split("## Quick start", 1)[1]
    source = section.split("```python\n", 1)[1].split("```", 1)[0]
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(source).body:
        try:
            expected = ast.literal_eval(comments.get(stmt.end_lineno, ""))
        except (ValueError, SyntaxError):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(stmt, ast.Expr)
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert value == expected, ast.unparse(stmt)
        shown.append(value)
    # the fit converges and certifies, the set covers theta0, the test keeps H0
    assert shown == [(True, True), True, False]


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    # every scmest line of the block exits 0, in a directory holding the
    # mydata.csv it reads (logistic, d = 5); "echo 'text' > file" lines
    # write their file
    from scmest.cli import main
    from scmest.simdata import Process, generate, theta0_equispaced, write_csv

    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    lines = [ln for ln in block.splitlines() if ln.strip() and not ln.startswith("#")]
    monkeypatch.chdir(tmp_path)
    process = Process(kind="logistic_wellspec", theta0=theta0_equispaced(5))
    write_csv(generate(process, 500, 0), "mydata.csv")
    ran = 0
    for line in lines:
        argv = shlex.split(line)
        if argv[0] == "echo":
            assert len(argv) == 4 and argv[2] == ">", line
            Path(argv[3]).write_text(argv[1] + "\n")
            continue
        assert argv[0] == "scmest", line
        assert main(argv[1:]) == 0, line
        ran += 1
    assert ran == 7
