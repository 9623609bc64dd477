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
    # both runs start before either is waited for
    runs = [subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "artifact_digest.py"), str(ROOT),
         str(tmp_path / side)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) for side in ("a", "b")]
    outputs = []
    for run in runs:
        try:
            stdout, stderr = run.communicate(timeout=300)
        except subprocess.TimeoutExpired:
            for other in runs:
                other.kill()
            raise
        assert run.returncode == 0, stderr
        outputs.append(stdout)
    paths = [line.split(" ", 1)[1] for line in outputs[0].splitlines()]
    assert {p.split("/")[1] for p in paths if p.startswith("preset/")} == set(list_presets())
    assert outputs[0] == outputs[1]
