"""Benchmark of the nemus-icl learn pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Each workload runs in its own single-threaded worker process
(``perfbench/worker.py``), which imports the package from ``src/`` of the
checkout.  With ``--trace 0`` the last line of stdout holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
Set-up is measured in separate worker processes that stop once their first
task is ready: ``setup_s`` is the median of their CPU time (user plus
system) from process start until then.  Their wall times, which also count
waits for the shared disk and scheduler, are printed for reference.  All
workers of a run write the same KB files into one run directory: the first
creates them and the others rewrite them in place.  Creating files after a
deletion cost 0.09-0.28 s for the corpus on the shared disk, rewriting them
0.05 s.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_RUNS = 9  # set-up-only workers; the measuring worker adds a tenth sample
RUN_DIR = ".perfbench_run"  # generated KB files, removed when the run ends
WORKER_TIMEOUT_S = 150


def _worker(args, rundir: str, setup_only: bool) -> tuple:
    """Run one worker to its end: (set-up CPU seconds, set-up wall seconds,
    stdout lines after the ready line)."""
    # -S: the worker needs nothing from site-packages, whose start-up hooks
    # belong to the host, not to the program
    cmd = [sys.executable, "-S", os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--rundir", rundir]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: the {args.workload} worker ran past {WORKER_TIMEOUT_S} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise SystemExit(f"perfbench: the {args.workload} worker exited with {proc.returncode}")
    _, cpu, ready = lines[0].split()
    return float(cpu), float(ready) - start, lines[1:]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "nemus_icl", "__init__.py")):
        raise SystemExit("perfbench: run from the root of a nemus-icl checkout (no src/nemus_icl)")
    rundir = os.path.join(RUN_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup = [] if args.trace else [
            _worker(args, rundir, True)[:2] for _ in range(SETUP_RUNS)]
        cpu, wall, lines = _worker(args, rundir, False)
        setup.append((cpu, wall))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass  # missing, or another run still uses it

    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(f"workload {args.workload}: {result['attempted']} attempted, "
          f"{result['failed']} failed, {result.pop('passes')} passes")
    if not args.trace:
        print("setup CPU seconds: " + " ".join(f"{cpu:.3f}" for cpu, _ in setup))
        print("setup wall seconds: " + " ".join(f"{wall:.3f}" for _, wall in setup))
        result["metrics"]["setup_s"] = {"value": statistics.median(c for c, _ in setup),
                                        "unit": "s"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
