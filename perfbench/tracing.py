"""Spans around zenocavity's public functions, recorded from outside.

install() replaces each listed function, in every zenocavity module that
holds it, by a wrapper that records a span (name, start, end, parent
span, request id) while a timed request is open. Spans stay in compact
in-memory arrays until the run ends. lindblad_rhs runs about 10^5 times
per damped request, so it is only counted. A function that no longer
exists is left unwrapped and its metrics are reported as absent (null).

Per-layer values are means per timed request ("/req" units), except the
ratios and rates, which are taken over the whole run, and the cache
size, which is read at the end of the run.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

#: (module, function) pairs that get a span
SPANNED = [
    ("fock", "displacement_op"),
    ("zeno", "zeno_run"),
    ("atomkick", "pulse_block_unitary"),
    ("atomkick", "conditioned_field_diagonal"),
    ("openquantum", "evolve_master"),
    ("openquantum", "evolve_damped"),
    ("protocols", "tweezer_run"),
    ("protocols", "build_tweezer_schedule"),
    ("phasespace", "wigner_grid"),
    ("phasespace", "export_csv"),
    ("phasespace", "export_pgm"),
    ("config", "parse_config"),
    ("runner", "run_config"),
    ("runner", "realistic_point"),
    ("cli", "run_sweep"),
]
#: functions that are only counted
COUNTED = [("openquantum", "lindblad_rhs")]

#: per-layer metrics: name, unit, function whose absence makes it absent
PER_LAYER = [
    ("fock.displacement_op.calls", "count/req", "fock.displacement_op"),
    ("fock.displacement_op.builds", "count/req", "fock.displacement_op.cache"),
    ("fock.displacement_op.build_s", "s/req", "fock.displacement_op.cache"),
    ("fock.displacement_op.hit_ratio", "ratio", "fock.displacement_op.cache"),
    ("fock.displacement_op.cache_mb", "MB", "fock.displacement_op.cache"),
    ("zeno.zeno_run.s", "s/req", "zeno.zeno_run"),
    ("zeno.zeno_run.calls", "count/req", "zeno.zeno_run"),
    ("zeno.steps", "count/req", "zeno.zeno_run"),
    ("zeno.kicks", "count/req", "zeno.zeno_run"),
    ("zeno.steps_per_s", "1/s", "zeno.zeno_run"),
    ("atomkick.pulse_block_unitary.s", "s/req", "atomkick.pulse_block_unitary"),
    ("atomkick.pulse_block_unitary.calls", "count/req", "atomkick.pulse_block_unitary"),
    ("atomkick.conditioned_field_diagonal.s", "s/req", "atomkick.conditioned_field_diagonal"),
    ("atomkick.conditioned_field_diagonal.calls", "count/req",
     "atomkick.conditioned_field_diagonal"),
    ("openquantum.evolve_master.s", "s/req", "openquantum.evolve_master"),
    ("openquantum.evolve_master.self_s", "s/req", "openquantum.evolve_master"),
    ("openquantum.evolve_damped.s", "s/req", "openquantum.evolve_damped"),
    ("openquantum.evolve_damped.calls", "count/req", "openquantum.evolve_damped"),
    ("openquantum.lindblad_rhs.calls", "count/req", "openquantum.lindblad_rhs"),
    ("protocols.tweezer_run.s", "s/req", "protocols.tweezer_run"),
    ("protocols.build_tweezer_schedule.s", "s/req", "protocols.build_tweezer_schedule"),
    ("protocols.build_tweezer_schedule.calls", "count/req",
     "protocols.build_tweezer_schedule"),
    ("phasespace.wigner_grid.s", "s/req", "phasespace.wigner_grid"),
    ("phasespace.wigner_grid.calls", "count/req", "phasespace.wigner_grid"),
    ("phasespace.raster_points", "count/req", "phasespace.wigner_grid"),
    ("phasespace.points_per_s", "1/s", "phasespace.wigner_grid"),
    ("phasespace.export_csv.s", "s/req", "phasespace.export_csv"),
    ("phasespace.export_csv.mb", "MB/req", "phasespace.export_csv"),
    ("phasespace.export_pgm.s", "s/req", "phasespace.export_pgm"),
    ("phasespace.export_pgm.mb", "MB/req", "phasespace.export_pgm"),
    ("config.parse_config.s", "s/req", "config.parse_config"),
    ("config.parse_config.calls", "count/req", "config.parse_config"),
    ("runner.run_config.s", "s/req", "runner.run_config"),
    ("runner.run_config.self_s", "s/req", "runner.run_config"),
    ("runner.realistic_point.s", "s/req", "runner.realistic_point"),
    ("runner.realistic_point.calls", "count/req", "runner.realistic_point"),
    ("cli.run_sweep.s", "s/req", "cli.run_sweep"),
    ("cli.run_sweep.self_s", "s/req", "cli.run_sweep"),
]


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.stack: list[int] = []
        self.current = -1  # id of the open timed request, -1 when none is open
        self.counts: Counter[str] = Counter()
        self.builds = array("i")  # spans of displacement_op calls that missed the cache
        self.present: set[str] = set()
        self.cache = None

    def _spanned(self, label: str, fn, before=None, after=None):
        nid = len(self.labels)
        self.labels.append(label)

        def wrapper(*args, **kwargs):
            if self.current < 0:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.request.append(self.current)
            self.stack.append(idx)
            token = before(args, kwargs) if before else None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.start[idx], self.end[idx] = t0, t1
            if after:
                after(idx, args, kwargs, result, token)
            return result

        return wrapper

    def _counted(self, label: str, fn):
        def wrapper(*args, **kwargs):
            if self.current >= 0:
                self.counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _misses(self, args, kwargs):
        return self.cache.cache_info().misses

    def _count_build(self, idx, args, kwargs, result, misses):
        if self.cache.cache_info().misses > misses:
            self.builds.append(idx)

    def _count_steps(self, idx, args, kwargs, result, token):
        schedule = args[1] if len(args) > 1 else kwargs["schedule"]
        self.counts["zeno.steps"] += len(schedule.steps)
        self.counts["zeno.kicks"] += sum(len(step.kicks) for step in schedule.steps)

    def _count_points(self, idx, args, kwargs, result, token):
        self.counts["phasespace.raster_points"] += result.nx * result.ny

    @staticmethod
    def _tell(args, kwargs):
        fh = args[1] if len(args) > 1 else kwargs["fh"]
        try:
            return fh.tell()
        except (AttributeError, OSError, ValueError):
            return None

    def _bytes_counter(self, label: str):
        def after(idx, args, kwargs, result, pos):
            end = self._tell(args, kwargs)
            if pos is not None and end is not None:
                self.counts[label] += end - pos

        return after

    def install(self) -> None:
        """Wrap every listed function that exists, in every module that holds it."""
        modules = {k.split(".", 1)[1]: m for k, m in sys.modules.items()
                   if k.startswith("zenocavity.")}
        hooks = {
            "zeno.zeno_run": (None, self._count_steps),
            "phasespace.wigner_grid": (None, self._count_points),
            "phasespace.export_csv": (self._tell, self._bytes_counter("export_csv.bytes")),
            "phasespace.export_pgm": (self._tell, self._bytes_counter("export_pgm.bytes")),
        }
        for mod, func in SPANNED + COUNTED:
            label = f"{mod}.{func}"
            orig = getattr(modules.get(mod), func, None)
            if orig is None:
                continue
            self.present.add(label)
            if (mod, func) in COUNTED:
                wrapped = self._counted(label, orig)
            elif label == "fock.displacement_op" and hasattr(orig, "cache_info"):
                self.cache = orig
                self.present.add("fock.displacement_op.cache")
                wrapped = self._spanned(label, orig, self._misses, self._count_build)
            else:
                wrapped = self._spanned(label, orig, *hooks.get(label, (None, None)))
            for m in modules.values():
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)

    def metrics(self, n_requests: int, dim: int) -> dict[str, dict]:
        """Per-layer metrics over the spans of n_requests timed requests."""
        dur = np.array(self.end) - np.array(self.start)
        name = np.array(self.name)
        parent = np.array(self.parent)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - covered[: dur.size]
        ids = {label: k for k, label in enumerate(self.labels)}

        def total(label, values=dur):
            return float(values[name == ids[label]].sum()) if label in ids else 0.0

        def calls(label):
            return int(np.count_nonzero(name == ids[label])) if label in ids else 0

        n = max(n_requests, 1)
        disp_calls = calls("fock.displacement_op")
        builds = len(self.builds)
        steps = self.counts["zeno.steps"]
        points = self.counts["phasespace.raster_points"]
        entries = self.cache.cache_info().currsize if self.cache else 0
        zeno_s = total("zeno.zeno_run")
        wigner_s = total("phasespace.wigner_grid")
        raw = {
            "fock.displacement_op.calls": disp_calls / n,
            "fock.displacement_op.builds": builds / n,
            "fock.displacement_op.build_s":
                float(dur[np.array(self.builds, dtype=int)].sum()) / n,
            "fock.displacement_op.hit_ratio":
                (disp_calls - builds) / disp_calls if disp_calls else 0.0,
            "fock.displacement_op.cache_mb": entries * dim * dim * 16 / 1e6,
            "zeno.steps": steps / n,
            "zeno.kicks": self.counts["zeno.kicks"] / n,
            "zeno.steps_per_s": steps / zeno_s if zeno_s else 0.0,
            "phasespace.raster_points": points / n,
            "phasespace.points_per_s": points / wigner_s if wigner_s else 0.0,
            "phasespace.export_csv.mb": self.counts["export_csv.bytes"] / 1e6 / n,
            "phasespace.export_pgm.mb": self.counts["export_pgm.bytes"] / 1e6 / n,
            "openquantum.lindblad_rhs.calls": self.counts["openquantum.lindblad_rhs"] / n,
        }
        out = {}
        for metric, unit, needs in PER_LAYER:
            if metric in raw:
                value = raw[metric]
            else:
                label, _, kind = metric.rpartition(".")
                if kind == "calls":
                    value = calls(label) / n
                elif kind == "self_s":
                    value = total(label, self_time) / n
                else:
                    value = total(label) / n
            out[metric] = {"value": value if needs in self.present else None, "unit": unit}
        return out

    def save(self, path: Path) -> None:
        """Write the spans, one array per field, with the name table."""
        np.savez_compressed(
            path,
            names=np.array(self.labels),
            start=np.array(self.start),
            end=np.array(self.end),
            name=np.array(self.name),
            parent=np.array(self.parent),
            request=np.array(self.request),
        )
