"""One workload in one single-threaded process: set up, run whole passes,
check the outputs.

``run.py`` starts this file; it is not meant to be run by hand.  Once the
first task can start, the worker prints ``ready <cpu seconds> <wall clock>``:
the CPU time it has used since it started, and ``time.monotonic()``.  Its last
line is one JSON object with its results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback

import checker
import workloads
from tracer import Tracer

FAILS_SAMPLE = 200  # Fails(...) lines checked per enumerate task


def _argvs(task, path) -> list:
    argvs = [["learn", path, "--json"]]
    if task.enumerate_args:
        argvs.append(["enumerate", path, *task.enumerate_args])
    return argvs


def _call(cli, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = f"exit {exc.code}"
        except Exception:  # the program crashed: the operation failed
            rc = "raised " + traceback.format_exc()
    return rc, out.getvalue()


def run_pass(cli, jobs, after_task) -> list:
    """Run every task once and hand each output to ``after_task(i, output)``
    outside the timed region; returns the seconds per task."""
    times = []
    for i, argvs in enumerate(jobs):
        start = time.perf_counter()
        output = [_call(cli, argv) for argv in argvs]
        times.append(time.perf_counter() - start)
        after_task(i, output)
    return times


def _digest(output) -> str:
    return hashlib.sha256(repr(output).encode()).hexdigest()


# --- checking -------------------------------------------------------------------


def _check_learn(kb, rc, out) -> tuple:
    """(problem or None, sets printed, rendered sets)."""
    if rc not in (0, 1):
        return f"learn returned {rc}", 0, []
    try:
        doc = json.loads(out)
        sets = [[checker.clause_from_json(c) for c in h["clauses"]] for h in doc["hypotheses"]]
    except (ValueError, KeyError, TypeError, checker.CheckError) as exc:
        return f"unreadable learn output: {exc}", 0, []
    if (rc == 0) != bool(sets):
        return f"learn returned {rc} with {len(sets)} sets", len(sets), []
    for clauses in sets:
        try:
            failed = checker.verdict(kb, clauses)
        except checker.CheckError as exc:
            return f"emitted set unreadable: {exc}", len(sets), []
        if failed is not None:
            return (f"emitted set {sorted(checker.render(clauses))} fails {failed}",
                    len(sets), [])
    return None, len(sets), [checker.render(c) for c in sets]


def _check_enumerate(kb, rc, out, rng) -> tuple:
    """(problem or None, sets printed)."""
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("config: "):
        return "enumerate output has no config line", 0
    rows = []
    for line in lines[:-1]:
        tag, _, text = line.partition("  ")
        rows.append((tag, text))
    verified = [text for tag, text in rows if tag == "Verified"]
    fails = [(tag, text) for tag, text in rows if tag.startswith("Fails(")]
    if len(verified) + len(fails) != len(rows):
        return "enumerate printed a row that is neither Verified nor Fails", len(rows)
    if rc != (0 if verified else 1):
        return f"enumerate returned {rc} with {len(verified)} verified sets", len(rows)
    pred = kb.target[0]
    try:
        for text in verified:
            failed = checker.verdict(kb, checker.parse_clauses(text))
            if failed is not None:
                return f"Verified set {text!r} fails {failed}", len(rows)
        for tag, text in rng.sample(fails, min(FAILS_SAMPLE, len(fails))):
            named = checker.parse_atom(tag[len("Fails("):-1])
            model = checker.least_model(kb.facts, checker.parse_clauses(text))
            underived_pos = named[0] == pred and named[1] in kb.positives and named not in model
            derived_neg = named[0] == pred and named[1] in kb.negatives and named in model
            if not (underived_pos or derived_neg):
                return f"{tag} names no failing example of {text!r}", len(rows)
    except checker.CheckError as exc:
        return f"unreadable enumerate row: {exc}", len(rows)
    return None, len(rows)


def check(task, output, rng) -> tuple:
    """(problem or None, sets printed, workload-level problem or None)."""
    kb = task.kb
    (rc, out), rest = output[0], output[1:]
    problem, n_sets, rendered = _check_learn(kb, rc, out)
    workload_problem = None
    if kb.name == "family" and problem is None and workloads.FAMILY_SOLUTION not in rendered:
        workload_problem = "the README family solution is not among the learned sets"
    if problem is None and rest:
        rc, out = rest[0]
        problem, n_rows = _check_enumerate(kb, rc, out, rng)
        n_sets += n_rows
    return problem, n_sets, workload_problem


# --- metrics --------------------------------------------------------------------


def tail(samples_ms):
    """The highest of p50/p75/p90/p95/p99/p99.9 with at least ten samples
    beyond it, as (percentile, value, samples beyond); None under forty samples."""
    n = len(samples_ms)
    if n < 40:
        return None
    ordered = sorted(samples_ms)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            best = (p, ordered[rank - 1], n - rank)
    return best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from nemus_icl import cli, engine, oracle

    task_list = workloads.tasks(args.workload, args.seed)
    paths = workloads.write_inputs(task_list, args.rundir)
    jobs = [_argvs(t, p) for t, p in zip(task_list, paths)]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"ready {usage.ru_utime + usage.ru_stime!r} {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return

    # the first pass's outputs are checked as they arrive and then dropped,
    # so that what the worker keeps does not depend on the task order
    rng = random.Random(f"check:{args.seed}")
    checks, digests = [], []
    deterministic = True

    def check_first(i, output):
        checks.append(check(task_list[i], output, rng))
        digests.append(_digest(output))

    def compare(i, output):
        nonlocal deterministic
        deterministic = deterministic and _digest(output) == digests[i]

    pass_times, task_ms = [], []
    tracer = Tracer({"cli": cli, "engine": engine, "oracle": oracle}) if args.trace else None
    traced_counts, traced_times, traced_walls = [], [], []
    measured, passes = 0.0, 0
    while measured < args.seconds or (args.trace and not traced_walls):
        # a traced run alternates untraced and traced passes: the difference
        # between them is the tracing overhead
        traced = args.trace and passes % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            times = run_pass(cli, jobs, compare if passes else check_first)
        finally:
            if traced:
                tracer.uninstall()
        passes += 1
        measured += sum(times)
        if passes == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if traced:
            counts, layer_ms = tracer.counts_and_times()
            traced_counts.append(counts)
            traced_times.append(layer_ms)
            traced_walls.append(sum(times))
        else:
            pass_times.append(sum(times))
            task_ms.extend(t * 1e3 for t in times)

    sets_per_pass = sum(n for _, n, _ in checks)
    failed_tasks = [(t.kb.name, p) for t, (p, _, _) in zip(task_list, checks) if p is not None]
    workload_problems = sorted({w for _, _, w in checks if w is not None})
    for name, problem in failed_tasks:
        print(f"failed: {name}: {problem}", file=sys.stderr)
    for problem in workload_problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    if not deterministic:
        print("incorrect: outputs differ between passes", file=sys.stderr)
    correct = deterministic and not workload_problems

    if args.trace:
        if any(c != traced_counts[0] for c in traced_counts[1:]):
            print("incorrect: per-layer counts differ between passes", file=sys.stderr)
            correct = False
        metrics = {k: (v, "ratio" if k.endswith("_ratio") else "count")
                   for k, v in traced_counts[0].items()}
        for name in traced_times[0]:
            metrics[name] = (statistics.median(t[name] for t in traced_times), "ms")
        traced, untraced = statistics.median(traced_walls), statistics.median(pass_times)
        metrics["trace.overhead_ms"] = ((traced - untraced) * 1e3, "ms")
        metrics["trace.overhead_pct"] = ((traced / untraced - 1) * 100, "%")
    else:
        # a shared host's speed drifts over tens of seconds: average every pass
        wall = statistics.mean(pass_times)
        print("pass seconds: " + " ".join(f"{t:.3f}" for t in pass_times))
        metrics = {
            "tasks_per_s": (len(jobs) / wall, "1/s"),
            "task_ms_p50": (statistics.median(task_ms), "ms"),
            "sets_per_s": (sets_per_pass / wall, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        reference = tail(task_ms)
        if reference is not None:
            p, value, beyond = reference
            print(f"reference: task_ms_tail p{p} = {value:.3f} ms over {len(task_ms)} tasks "
                  f"({beyond} beyond)")

    print(json.dumps({
        "correct": correct,
        "attempted": passes * len(jobs),
        "failed": passes * len(failed_tasks),
        "passes": passes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
