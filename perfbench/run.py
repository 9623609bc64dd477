"""Benchmark of zenocavity on four workloads of the paper's kind.

    python3 perfbench/run.py --workload rasters --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports the package from its src/.
One process is one closed-loop client: it sends the next request only
after the previous one has completed and been checked. Times are wall
times divided by the host-speed factor of probe.py. It prints one JSON
object as the last line of standard output: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Exit code 0 when every
output passed its checks, 1 when one did not, 2 when the package cannot
be imported.
"""

import os

# one BLAS thread: the single-threaded baseline, and the only setting
# under which requests repeat on a shared host; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def process_start() -> float:
    """perf_counter() reading at the moment this process started."""
    now = time.perf_counter()
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rpartition(")")[2].split()
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        age = uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return now
    return now - max(age, 0.0)


T_PROCESS = process_start()


def tail_percentile(times: list[float]) -> tuple[float, float] | None:
    """(p, value) of the highest percentile with at least 10 requests above it."""
    if len(times) < 40:
        return None
    ordered = sorted(times)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["rasters", "tweezers", "damped", "sweep"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import numpy as np
        import workloads
        import zenocavity
        from probe import HostProbe
        from tracing import Tracer
    except ImportError as exc:
        print(f"perfbench: cannot import zenocavity from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(zenocavity.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        print(f"perfbench: zenocavity comes from {zenocavity.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed))
    out = HERE / "out" / f"{args.workload}-{os.getpid()}"
    correct = True

    def serve(inp, request_id: int):
        """One request, timed; then its checks. Returns the wall time or None."""
        nonlocal correct
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if tracer:
            tracer.current = request_id
        t0 = time.perf_counter()
        try:
            result = workload.run(inp, out)
        except Exception:  # a failed request is counted, the run goes on
            traceback.print_exc()
            return None
        finally:
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.current = -1
        try:
            workload.check(inp, out, result)
        except workloads.CheckFailed as exc:
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            correct = False
        return elapsed

    batch = workload.round()
    if serve(batch[0], -1) is None:  # untimed warm-up
        correct = False
    batch = workload.round()
    setup_wall = time.perf_counter() - T_PROCESS
    probe = HostProbe()
    setup_s = setup_wall / statistics.median(probe.factor() for _ in range(3))

    times: list[float] = []  # wall time / host-speed factor
    walls: list[float] = []
    attempted = failed = 0
    t_first = time.perf_counter()
    while True:
        for inp in batch:
            attempted += 1
            elapsed = serve(inp, attempted)
            factor = probe.factor()
            if elapsed is None:
                failed += 1
            else:
                times.append(elapsed / factor)
                walls.append(elapsed)
        if time.perf_counter() - t_first >= args.seconds:
            break
        batch = workload.round()
    shutil.rmtree(out, ignore_errors=True)

    p50 = statistics.median(times) if times else float("nan")
    tail = tail_percentile(times)
    tail_text = f"p{tail[0]:.1f} {tail[1]:.4f} s" if tail else "no tail below 40 requests"
    wall_p50 = statistics.median(walls) if walls else float("nan")
    print(f"perfbench {args.workload} seed {args.seed}: {len(times)} requests, "
          f"p50 {p50:.4f} s, {tail_text}, setup {setup_s:.3f} s "
          f"(wall: p50 {wall_p50:.4f} s, setup {setup_wall:.3f} s)", file=sys.stderr)

    if tracer:
        metrics = tracer.metrics(len(times), workload.dim)
        tracer.save(HERE / "out" / f"spans-{args.workload}.npz")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "request_s.p50": {"value": p50, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    correct = correct and bool(times)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
