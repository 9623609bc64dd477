"""Command-line entry point.

Subcommands:
    run <config.json>          execute one configuration
    preset <name>              execute a bundled preset
    sweep <config.json> <ranges...>
                               run the config once per point of the
                               cartesian product of the ranges, e.g.
                               `kick_theta=6.283,2,1,0.5 dim=40,48`
    list-presets               show bundled preset names

Exit code 0 on success, 2 on configuration errors, 1 on runtime failures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any

from .config import ConfigError, list_presets, parse_config, preset_raw, read_config
from .runner import run_config


def _apply_override(raw: dict[str, Any], dotted: str, value: Any) -> None:
    keys = dotted.split(".")
    node = raw
    for depth, k in enumerate(keys[:-1], 1):
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            path = ".".join(keys[:depth])
            raise ConfigError([f"range {dotted!r}: {path} holds {node!r}, not an object"])
    node[keys[-1]] = value


def _parse_range(arg: str) -> tuple[str, list[float]]:
    if "=" not in arg:
        raise ConfigError([f"range {arg!r}: expected key=v1,v2,..."])
    key, _, values = arg.partition("=")
    try:
        parsed = [float(v) for v in values.split(",") if v != ""]
    except ValueError:
        raise ConfigError([f"range {arg!r}: values must be numbers"]) from None
    if not parsed:
        raise ConfigError([f"range {arg!r}: no values"])
    return key, parsed


def _sweep_point(args: tuple[int, dict[str, Any], str]) -> dict[str, Any]:
    index, raw, outdir = args
    row: dict[str, Any] = {"index": index}
    try:
        cfg = parse_config(raw)
        summary = run_config(cfg, Path(outdir) / f"point_{index:04d}")
        row["fidelity"] = summary.get("fidelity")
        row["energy"] = summary.get("energy")
        row["leak"] = summary.get("leak")
        row["error"] = ""
    except Exception as exc:  # individual failures recorded, sweep continues
        row["fidelity"] = row["energy"] = row["leak"] = None
        row["error"] = str(exc).replace("\n", "; ")
    return row


def run_sweep(
    raw: dict[str, Any],
    ranges: list[str],
    outdir: Path,
    workers: int = 1,
) -> list[dict[str, Any]]:
    parsed = [_parse_range(r) for r in ranges]
    keys = [k for k, _ in parsed]
    points = list(itertools.product(*(vals for _, vals in parsed)))
    jobs = []
    for index, combo in enumerate(points):
        point_raw = json.loads(json.dumps(raw))  # deep copy
        for key, value in zip(keys, combo):
            _apply_override(point_raw, key, value)
        jobs.append((index, point_raw, str(outdir)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            rows = list(pool.map(_sweep_point, jobs))
    else:
        rows = [_sweep_point(j) for j in jobs]
    rows.sort(key=lambda r: r["index"])
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "sweep.csv", "w", encoding="utf-8") as fh:
        fh.write("index," + ",".join(keys) + ",fidelity,energy,leak,error\n")
        for row, combo in zip(rows, points):
            cells = [str(row["index"])]
            cells += [f"{v:.17g}" for v in combo]
            for field in ("fidelity", "energy", "leak"):
                v = row[field]
                cells.append("" if v is None else f"{v:.17g}")
            cells.append('"%s"' % row["error"].replace('"', "'"))
            fh.write(",".join(cells) + "\n")
    return rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenocavity",
        description="Quantum Zeno dynamics simulator for a driven cavity field",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--dim", type=int, default=0, help="override basis size")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p_run = sub.add_parser("run", help="execute a configuration file")
    p_run.add_argument("config")
    common(p_run)

    p_preset = sub.add_parser("preset", help="execute a bundled preset")
    p_preset.add_argument("name")
    common(p_preset)

    p_sweep = sub.add_parser("sweep", help="scan parameter ranges")
    p_sweep.add_argument("config")
    p_sweep.add_argument("ranges", nargs="+", help="key=v1,v2,... (dotted keys ok)")
    p_sweep.add_argument("--workers", type=int, default=1)
    common(p_sweep)

    sub.add_parser("list-presets", help="list bundled presets")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if getattr(args, "quiet", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "list-presets":
            for name in list_presets():
                print(name)
            return 0
        outdir = Path(args.out)
        if args.command == "preset":
            raw = preset_raw(args.name)
        else:
            raw = read_config(args.config)
        if args.dim:
            raw["dim"] = args.dim
        if args.command == "sweep":
            rows = run_sweep(raw, args.ranges, outdir, workers=args.workers)
            failures = [r for r in rows if r["error"]]
            if not args.quiet:
                print(f"sweep: {len(rows)} points, {len(failures)} failed; "
                      f"table in {outdir / 'sweep.csv'}")
            return 0
        summary = run_config(parse_config(raw), outdir)
        if not args.quiet:
            print(json.dumps(summary, indent=2, sort_keys=True, default=float))
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
