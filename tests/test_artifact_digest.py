"""tools/artifact_digest.py on this checkout: two runs hash alike.

The README promises bit-identical artifacts for identical configs on one
machine with the same BLAS thread count; each run below writes every
bundled preset and both sweeps in its own process and directory.
"""

import subprocess
import sys
from pathlib import Path

from zenocavity.config import list_presets

ROOT = Path(__file__).resolve().parent.parent


def test_two_digest_runs_are_identical(tmp_path):
    outputs = []
    for side in ("a", "b"):
        done = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "artifact_digest.py"), str(ROOT),
             str(tmp_path / side)],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    paths = [line.split(" ", 1)[1] for line in outputs[0].splitlines()]
    assert {p.split("/")[1] for p in paths if p.startswith("preset/")} == set(list_presets())
    assert outputs[0] == outputs[1]
