"""tools/unreached.py: which statements count as unreached for a set of
traced lines, and that every statement of the engine is reached. The
module is loaded by path; importing it runs nothing."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("unreached_tool", ROOT / "tools" / "unreached.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

SOURCE = '''\
def f(x):
    """doc"""
    if x:
        return (1,
                2)
    try:
        y = 2
    except ValueError:
        y = 3
    raise KeyError(y)
'''


def test_statements_without_a_line_event_are_listed():
    tree = ast.parse(SOURCE)
    # the docstring and the raise are never listed; a try counts as
    # reached through its body, a multi-line statement through any line
    assert tool.unreached(tree, {1, 3, 5}) == [6, 7, 9]
    assert tool.unreached(tree, {1, 3, 4, 7}) == [9]
    assert tool.unreached(tree, set()) == [1, 3, 4, 6, 7, 9]


def _formatter_lines() -> list[int]:
    """Lines of phasespace.py from the _G17_MIN setting to the end of
    export_csv, then those of export_pgm: the 17-digit formatter, its
    tables and helpers, and both text writers."""
    tree = ast.parse((ROOT / "src" / "zenocavity" / "phasespace.py").read_text(encoding="utf-8"))
    first = next(node.lineno for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["_G17_MIN"])
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    pgm = functions["export_pgm"]
    return [*range(first, functions["export_csv"].end_lineno + 1),
            *range(pgm.lineno, pgm.end_lineno + 1)]


def test_every_engine_statement_is_reached():
    # a mode that no preset, sweep or workload reaches must not grow back
    # into the engine or the raster text writers. The CSV's per-row %.17g
    # template is reached by every small raster; its per-value texts for
    # near-ties are one masked statement that runs on every numpy block,
    # empty or not (a raster of the fig2c preset holds one such value,
    # -4.5493391347508499e-23). The tool runs all of them once (a few
    # seconds)
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "unreached.py")],
                         capture_output=True, text=True, timeout=300, check=True).stdout
    assert out.rstrip().endswith("unreached statements")
    assert [line for line in out.splitlines() if line.startswith("src/zenocavity/zeno.py:")] == []
    formatter = _formatter_lines()
    assert len(formatter) > 100
    assert [line for line in out.splitlines() if line.startswith("src/zenocavity/phasespace.py:")
            and int(line.split(":")[1]) in formatter] == []
