"""Every zenocavity name the benchmark reaches exists, and every name the
package exports is one that its code uses or the benchmark traces.

perfbench/tracing.py wraps package functions by (module, name) and reports
the metrics of a name that is gone as null, which makes the benchmark
refuse its result; perfbench/workloads.py calls the package directly.
Both files are read here as they are, without importing perfbench's
helper modules by name.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zenocavity"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()


@pytest.mark.parametrize("mod, name", TRACING.SPANNED + TRACING.COUNTED)
def test_traced_name_exists(mod, name):
    assert hasattr(importlib.import_module(f"zenocavity.{mod}"), name)


def test_displacement_cache_is_visible():
    # the cache metrics read displacement_op's lru_cache counters
    assert hasattr(importlib.import_module("zenocavity.fock").displacement_op, "cache_info")


def test_workload_names_exist():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "zenocavity"
               for alias in node.names}
    assert {"runner", "config", "cli", "phasespace", "openquantum"} <= modules
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert ("runner", "run_config") in used  # the walk finds the calls
    missing = sorted(f"{mod}.{name}" for mod, name in used
                     if not hasattr(importlib.import_module(f"zenocavity.{mod}"), name))
    assert not missing, "perfbench/workloads.py uses " + ", ".join(missing)


def test_exported_names_are_used_by_the_package():
    # a name that only tests call belongs in tests/reference.py; the ones
    # the benchmark traces stay until it stops tracing them
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = [(node.module, alias.name) for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            # a def or class that only refers to itself does not use its name
            own = getattr(top, "name", None)
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top)
                     if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    traced = set(TRACING.SPANNED + TRACING.COUNTED)
    unused = sorted(f"{mod}.{name}" for mod, name in exported
                    if name not in used and (mod, name) not in traced)
    assert not unused, "no package code uses " + ", ".join(unused)


def test_step_counter_reads_package_schedules():
    # the benchmark's zeno.steps and zeno.kicks come from schedule.steps and
    # step.kicks of what zeno_run is given, positionally or by keyword
    from zenocavity.atomkick import PulseParams
    from zenocavity.protocols import build_tweezer_schedule, linear_trajectory
    from zenocavity.zeno import KickSpec, uniform_schedule

    pulse = PulseParams(omega=3e5, rabi_drive=3e4, theta=2.0, s=1)
    crush = [linear_trajectory(-2.5, 0, 25), linear_trajectory(2.5, 0, 25)]
    cases = [
        (uniform_schedule(45, 0.1, [KickSpec(6)]), 45, 45),
        (uniform_schedule(20, 0.1, [KickSpec(1), KickSpec(1, 0.5j)], pulse), 20, 40),
        # the circles meet in the last round, which kicks once
        (build_tweezer_schedule(crush), 26, 51),
        (build_tweezer_schedule(crush, interleave="sequential", pulse=pulse), 52, 52),
    ]
    for schedule, steps, kicks in cases:
        for args, kwargs in (((None, schedule), {}), ((None,), {"schedule": schedule})):
            tracer = TRACING.Tracer()
            tracer._count_steps(0, args, kwargs, None, None)
            assert tracer.counts == {"zeno.steps": steps, "zeno.kicks": kicks}
