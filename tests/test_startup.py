"""Start-up cost and packaging guards.

* ``python -m repro.experiments.runner`` must start without runpy's
  "found in sys.modules" ``RuntimeWarning``.
* Importing the CLI or the kernels must not load scipy or networkx: a
  ``--jobs N`` worker pays every import again.
* The third-party imports of the tree must be installable from the CI
  install lines.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_runner_module_starts_without_runtime_warning():
    proc = _run_python("-W", "error::RuntimeWarning",
                       "-m", "repro.experiments.runner", "--help")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["repro.experiments.runner", "repro.kernels"])
def test_startup_import_loads_no_heavy_libraries(module):
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))")
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


#: third-party top-level modules each tree may import.  Mirrors the CI
#: install lines in .github/workflows/ci.yml: ``pip install numpy scipy``
#: (examples-smoke and the other runtime jobs) and ``pip install numpy
#: scipy pytest pytest-benchmark hypothesis`` (test, experiments-smoke);
#: pytest-benchmark is used only through its ``benchmark`` fixture.
ALLOWED_THIRD_PARTY = {
    "src": {"numpy", "scipy"},
    "examples": {"numpy", "scipy"},
    "tests": {"numpy", "scipy", "pytest", "hypothesis"},
    "benchmarks": {"numpy", "scipy", "pytest", "hypothesis"},
}


def _third_party_imports(tree: pathlib.Path) -> dict:
    """Map each third-party top-level module imported under ``tree`` to a file."""
    local = {"repro"} | {path.stem for path in tree.glob("*.py")}
    found = {}
    for path in sorted(tree.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    found.setdefault(top, str(path.relative_to(REPO_ROOT)))
    return found


@pytest.mark.parametrize("tree", sorted(ALLOWED_THIRD_PARTY))
def test_third_party_imports_match_ci_install(tree):
    imported = _third_party_imports(REPO_ROOT / tree)
    extra = {name: path for name, path in imported.items()
             if name not in ALLOWED_THIRD_PARTY[tree]}
    assert not extra, f"imports CI does not install: {extra}"
