"""tools/unreached.py: which statements count as unreached for a set of
traced lines. The module is loaded by path; importing it runs nothing."""

import ast
import importlib.util
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
