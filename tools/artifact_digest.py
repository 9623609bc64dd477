"""Digest of every artifact the bundled presets and two sweeps write.

    python tools/artifact_digest.py CHECKOUT OUTDIR

Imports zenocavity from CHECKOUT/src with one BLAS thread and writes,
under OUTDIR:

- each bundled preset, with dump_states on wherever its protocol takes
  it, in OUTDIR/preset/NAME;
- `fig3` swept over kick_theta=0,6.4,6.1 and beta=0.099,0.101, and `qze`
  over kick_theta=6.0,1.0 and s=0,1,3, in OUTDIR/sweep/NAME. Both bases
  set kick_rabi_drive = 2 pi x 5 kHz, so that the dressed points run
  instead of failing validation.

It then prints one `sha256 path` line per file, sorted by path relative
to OUTDIR. summary.json is hashed without its wall_time_s line. Two
checkouts leave every artifact byte-identical when their outputs agree:

    python tools/artifact_digest.py . /tmp/new > new.txt
    python tools/artifact_digest.py ../parent /tmp/old > old.txt
    diff old.txt new.txt
"""

import os
import sys

# before numpy loads: a threaded BLAS may change the last digits of a raster
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import math  # noqa: E402
from pathlib import Path  # noqa: E402

SWEEPS = {
    "fig3": ["kick_theta=0,6.4,6.1", "beta=0.099,0.101"],
    "qze": ["kick_theta=6.0,1.0", "s=0,1,3"],
}


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.lstrip().startswith(b'"wall_time_s":'))
    return hashlib.sha256(data).hexdigest()


def write_artifacts(outdir: Path) -> None:
    """Run every preset and both sweeps into outdir, with the zenocavity
    that sys.path finds."""
    from zenocavity import cli, config, runner

    for name in config.list_presets():
        raw = config.preset_raw(name)
        if hasattr(config.parse_config(raw), "dump_states"):
            raw["dump_states"] = True
        runner.run_config(config.parse_config(raw), outdir / "preset" / name)
    for name, ranges in SWEEPS.items():
        raw = {**config.preset_raw(name), "kick_rabi_drive": 2 * math.pi * 5e3}
        cli.run_sweep(raw, ranges, outdir / "sweep" / name, workers=1)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    checkout, outdir = Path(argv[0]).resolve(), Path(argv[1])
    sys.path.insert(0, str(checkout / "src"))
    write_artifacts(outdir)
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        print(digest(path), path.relative_to(outdir).as_posix())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
