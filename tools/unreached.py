"""Statements of zenocavity that no bundled run reaches.

    python tools/unreached.py [CHECKOUT]

Imports zenocavity from CHECKOUT/src (default: the checkout holding this
script) and the benchmark's workloads from CHECKOUT/perfbench, with one
BLAS thread, and line-traces the package with sys.settrace while it:

- runs every bundled preset and both digest sweeps, as
  tools/artifact_digest.py does;
- serves and checks one round of each benchmark workload, seeded with 1.

It then prints `path:line: source` for every statement of the package,
other than `raise`, on which no line event fired, and a count. A compound
statement counts as reached when its header line or any statement in it
is. Docstrings, `global` and `nonlocal` compile to no line and are not
listed. Outputs go to a temporary directory and are deleted.
"""

import ast
import os
import sys
import tempfile
from pathlib import Path

_SILENT = (ast.Raise, ast.Global, ast.Nonlocal)


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def unreached(tree: ast.Module, hit: set[int]) -> list[int]:
    """First lines of the statements of tree that no line in hit belongs to."""
    missed: list[int] = []

    def visit(body: list[ast.stmt]) -> bool:
        any_reached = False
        for k, node in enumerate(body):
            if _is_docstring(node) and k == 0 or isinstance(node, _SILENT):
                continue
            start = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            if hasattr(node, "body"):  # compound: every block is visited
                blocks = [node.body, getattr(node, "orelse", []), getattr(node, "finalbody", [])]
                inner = [visit(b) for b in blocks + [h.body for h in getattr(node, "handlers", [])]]
                stop = max(node.body[0].lineno, node.lineno + 1)
                reached = any(inner) or not hit.isdisjoint(range(start, stop))
            else:
                reached = not hit.isdisjoint(range(start, node.end_lineno + 1))
            if not reached:
                missed.append(node.lineno)
            any_reached |= reached
        return any_reached

    visit(tree.body)
    return sorted(missed)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    # before numpy loads: the same BLAS setting as the digests and the benchmark
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    checkout = Path(argv[0] if argv else Path(__file__).parent.parent).resolve()
    package = checkout / "src" / "zenocavity"
    files = {str(p): p for p in sorted(package.glob("*.py"))}
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench"),
                    str(Path(__file__).resolve().parent)]
    lines: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename in lines else None

    sys.settrace(on_call)
    try:
        import numpy as np
        from artifact_digest import write_artifacts

        with tempfile.TemporaryDirectory() as tmp:
            write_artifacts(Path(tmp) / "digest")
            import workloads

            for name, cls in workloads.WORKLOADS.items():
                workload = cls(np.random.default_rng(1))
                for k, inp in enumerate(workload.round()):
                    out = Path(tmp) / name / str(k)
                    out.mkdir(parents=True)
                    workload.check(inp, out, workload.run(inp, out))
    finally:
        sys.settrace(None)
    count = 0
    for name, path in files.items():
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for n in unreached(ast.parse(source), lines[name]):
            print(f"{path.relative_to(checkout).as_posix()}:{n}: {text[n - 1].strip()}")
            count += 1
    print(f"{count} unreached statements")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
