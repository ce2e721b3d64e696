"""Layout guard for ``repro.matching``: small modules, an acyclic import
graph, and every kernel module importable on its own.

Without cached bytecode every run compiles each module from source, and
compiling holds a module's whole syntax tree at once, so one oversized
module sets the process's peak memory. The WBM kernel is therefore one
module per decision, and a cycle between those modules would make their
import order load-bearing.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.matching

PKG = Path(repro.matching.__file__).parent
MAX_LINES = 800
#: the WBM kernel's modules, one decision each
KERNEL_MODULES = ("launch_env", "gen_candidates", "level_batch", "dfs", "stealing", "wbm")


def module_name(path: Path) -> str:
    if path.stem == "__init__":
        return "repro.matching"
    return f"repro.matching.{path.stem}"


MODULES = {module_name(p): p for p in sorted(PKG.glob("*.py"))}


def imported_modules(path: Path) -> set[str]:
    """The ``repro.matching`` modules ``path`` imports anywhere in its
    body (function-level imports included): ``import a.b``, ``from a.b
    import x`` and ``from a import b`` for a submodule ``b``."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path.name}: relative import"
            targets = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found.update(t for t in targets if t in MODULES)
    return found


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle of ``graph`` as a closed path, or ``None``."""
    state: dict[str, int] = {}  # 1 = on the current path, 2 = done
    path: list[str] = []

    def visit(node: str) -> list[str] | None:
        state[node] = 1
        path.append(node)
        for nxt in sorted(graph[node]):
            if state.get(nxt) == 1:
                return path[path.index(nxt) :] + [nxt]
            if nxt not in state:
                cycle = visit(nxt)
                if cycle:
                    return cycle
        path.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node)
            if cycle:
                return cycle
    return None


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_is_small(name):
    n_lines = len(MODULES[name].read_text().splitlines())
    assert n_lines <= MAX_LINES, f"{name} has {n_lines} lines (max {MAX_LINES})"


def test_import_graph_is_acyclic():
    graph = {name: imported_modules(path) - {name} for name, path in MODULES.items()}
    cycle = find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_find_cycle_detects_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


@pytest.mark.parametrize("module", KERNEL_MODULES)
def test_kernel_module_imports_alone(module):
    """A fresh interpreter imports the module first, before anything
    else of the package is loaded explicitly."""
    env = dict(os.environ, PYTHONPATH=str(PKG.parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", f"import repro.matching.{module}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
