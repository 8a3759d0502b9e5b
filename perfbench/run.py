"""The permdec benchmark: seeded, closed-loop, single-threaded workloads.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload atlas_small --seed 1 --seconds 50 --trace 0

With ``--trace 0`` it repeats passes over the workload's operations
until ``--seconds`` have gone by, setting the workload up in a fresh
process before each pass and once after the last. It reports one pass
with each operation at its fastest (``wall_s``, see ``best_pass``), the
fastest of those set-ups (``setup_s``) and the process's peak resident
memory (``peak_rss_mb``). With
``--trace 1`` it alternates untraced and traced passes for the same time
and reports the per-layer metrics, writing the spans to
``.perfbench/out/``. The last line of standard output is the JSON
result; the line before it holds the run's metadata.

Run every workload for one seed and print a summary table:

    python3 perfbench/run.py --all --seed 1

Each operation is checked against an independent reference. An operation
that raises, times out or answers wrongly counts as failed; the run goes
on. permdec is imported from ``src/`` of the checkout and from nowhere
else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench" / "out"
OPERATION_CAP_S = 90.0
RUN_LIMIT_S = 150.0
CHAIN_LIMIT_K = 1100


def load_permdec():
    """Import permdec from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import permdec
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import permdec from {src}: {exc}") from None
    if Path(permdec.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: permdec came from {permdec.__file__}, not {src}")
    return permdec


# --- operations under a time cap ---------------------------------------------


class OperationTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OperationTimeout("operation exceeded its time cap")


def run_operation(op, cap):
    """(answer, correct, error) of one operation, stopped after cap seconds."""
    if cap <= 0:
        return None, False, "run time limit reached before the operation"
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            answer, correct = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as exc:  # every failure is counted, none ends the run
        return None, False, f"{op.name}: {type(exc).__name__}: {exc}"
    return answer, correct, None if correct else f"{op.name}: wrong answer"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, correct, error):
        self.attempted += 1
        if not correct:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)


def run_pass(workload, tally, deadline):
    """Answers and per-operation wall times of one pass over the workload."""
    answers, times = [], []
    for op in workload.operations:
        start = time.perf_counter()
        answer, correct, error = run_operation(op, min(OPERATION_CAP_S, deadline - start))
        times.append(time.perf_counter() - start)
        tally.add(correct, error)
        answers.append(answer)
    return answers, times


def best_pass(passes):
    """One pass with every operation at its fastest over the passes made.

    The machine's speed drifts in phases of seconds to minutes, and a slow
    phase only ever adds time, so each operation's fastest run is the
    steadiest estimate of its own cost.
    """
    return sum(min(times) for times in zip(*passes))


def keep_going(started, seconds, deadline, passes):
    now = time.perf_counter()
    return now - started < seconds and now + max(map(sum, passes)) < deadline


# --- set-up time --------------------------------------------------------------


def setup_probe(args):
    """Child side: set up the workload, then print the clock and stop."""
    load_permdec()
    import workloads

    workload = workloads.build(args.workload, args.seed, ROOT)
    ready = time.perf_counter()
    workload.close()
    print(repr(ready))


def measure_setup(args):
    """Seconds from process start to the first timed call, one fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - start


# --- metadata -------------------------------------------------------------------


def git_sha():
    """HEAD of the checkout, or None outside a git checkout."""
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def metadata(args, workload):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "operations": [op.name for op in workload.operations],
        "inputs": workload.info,
    }


# --- per-layer metrics ------------------------------------------------------------

# (metric, span name, total) read from Tracer.totals()
SPAN_METRICS = (
    ("group.chain.builds", "group.chain", "calls"),
    ("group.chain.self_s", "group.chain", "self_s"),
    ("group.chain.products", "group.chain", "products"),
    ("group.elements.listed", "group.elements", "count"),
    ("group.elements.self_s", "group.elements", "self_s"),
    ("group.point_stabiliser.self_s", "group.point_stabiliser", "self_s"),
    ("group.from_generators.self_s", "group.from_generators", "self_s"),
    ("structure.normaliser_in.calls", "structure.normaliser_in", "calls"),
    ("structure.normaliser_in.self_s", "structure.normaliser_in", "self_s"),
    ("structure.intersect.calls", "structure.intersect", "calls"),
    ("structure.intersect.self_s", "structure.intersect", "self_s"),
    ("structure.intersect.products", "structure.intersect", "products"),
    ("structure.setwise_stabiliser.calls", "structure.setwise_stabiliser", "calls"),
    ("structure.setwise_stabiliser.self_s", "structure.setwise_stabiliser", "self_s"),
    ("structure.interval_subgroups.self_s", "structure.interval_subgroups", "self_s"),
    ("structure.coset_action.self_s", "structure.coset_action", "self_s"),
    ("structure.coset_action.sifts", "structure.coset_action", "sifts"),
    ("structure.centraliser.self_s", "structure.centraliser", "self_s"),
    ("factor.is_factorisation.self_s", "factor.is_factorisation", "self_s"),
    ("factor.conjugation_transitivity.self_s", "factor.conjugation_transitivity", "self_s"),
    ("factor.find_conjugator.self_s", "factor.find_conjugator", "self_s"),
    ("factor.equivalent_factorisations.self_s", "factor.equivalent_factorisations", "self_s"),
    ("factor.strong_multiple.self_s", "factor.strong_multiple", "self_s"),
    ("cartesian.enumerate.calls", "cartesian.enumerate", "calls"),
    ("cartesian.enumerate.results", "cartesian.enumerate", "count"),
    ("cartesian.enumerate.self_s", "cartesian.enumerate", "self_s"),
    ("cartesian.to_system.calls", "cartesian.to_system", "calls"),
    ("cartesian.to_system.self_s", "cartesian.to_system", "self_s"),
    ("cartesian.to_decomposition.calls", "cartesian.to_decomposition", "calls"),
    ("cartesian.to_decomposition.self_s", "cartesian.to_decomposition", "self_s"),
    ("cartesian.validate_system.calls", "cartesian.validate_system", "calls"),
    ("cartesian.validate_system.self_s", "cartesian.validate_system", "self_s"),
    ("cartesian.round_trip.self_s", "cartesian.round_trip", "self_s"),
    ("wreath.full_stabiliser.self_s", "wreath.full_stabiliser", "self_s"),
    ("atlas.load_case.self_s", "atlas.load_case", "self_s"),
    ("atlas.verify_case.self_s", "atlas.verify_case", "self_s"),
)


def layer_metrics(tracer):
    """Per-layer values of one traced pass, as {metric: (value, unit)}."""
    totals = tracer.totals()
    sift = tracer.sift_totals

    def overall(key):
        return sum(row[key] for row in totals.values()) + sift.get(key, 0)

    out = {
        "perm.mul.calls": (overall("products"), "count"),
        "perm.mul.points": (overall("points"), "count"),
        "perm.mul.self_s": (overall("mul_s"), "s"),
        "perm.inverse.calls": (overall("inverses"), "count"),
        "group.contains.calls": (sift["calls"], "count"),
        "group.contains.self_s": (sift["self_s"], "s"),
        "structure.normaliser_in.scanned": (
            tracer.descendant_count("structure.normaliser_in", "group.elements"), "count"),
    }
    for metric, span, key in SPAN_METRICS:
        out[metric] = (totals.get(span, {}).get(key, 0), "s" if key == "self_s" else "count")
    return out


# --- the two kinds of run -----------------------------------------------------------


def timed_run(args, workload, deadline):
    tally = Tally()
    passes, setup = [], []
    started = time.perf_counter()
    while not passes or keep_going(started, args.seconds, deadline, passes):
        setup.append(measure_setup(args))
        passes.append(run_pass(workload, tally, deadline)[1])
    setup.append(measure_setup(args))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": (best_pass(passes), "s"),
        # like wall_s: a slow phase of the machine only ever adds time
        "setup_s": (min(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    detail = {"pass_wall_s": [sum(p) for p in passes], "operation_s": passes,
              "setup_samples_s": setup}
    return tally, metrics, detail, True


def traced_run(args, workload, deadline):
    from tracer import Tracer

    tally = Tally()
    plain_passes, traced_passes, layers = [], [], []
    answers_match = True
    started = time.perf_counter()
    while not layers or keep_going(started, args.seconds, deadline, plain_passes + traced_passes):
        plain, times = run_pass(workload, tally, deadline)
        plain_passes.append(times)
        tracer = Tracer()
        with tracer:
            traced, times = run_pass(workload, tally, deadline)
        traced_passes.append(times)
        answers_match = answers_match and plain == traced
        layers.append(layer_metrics(tracer))
        if len(layers) == 1:
            tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    metrics = {}
    for name, (value, unit) in layers[0].items():
        if unit == "s":
            value = statistics.median(p[name][0] for p in layers)
        metrics[name] = (value, unit)
    overhead = best_pass(traced_passes) - best_pass(plain_passes)
    metrics["trace.overhead_s"] = (overhead, "s")
    counts_repeat = all(
        p[name] == layers[0][name] for p in layers for name in p if p[name][1] == "count"
    )
    detail = {"plain_wall_s": [sum(p) for p in plain_passes],
              "traced_wall_s": [sum(p) for p in traced_passes],
              "traced_answers_match": answers_match, "counts_repeat": counts_repeat}
    return tally, metrics, detail, answers_match and counts_repeat


def measure(args):
    load_permdec()
    import workloads

    deadline = time.perf_counter() + RUN_LIMIT_S
    workload = workloads.build(args.workload, args.seed, ROOT)
    try:
        run = traced_run if args.trace else timed_run
        tally, metrics, detail, consistent = run(args, workload, deadline)
        meta = metadata(args, workload)
    finally:
        workload.close()
    meta.update(detail, errors=tally.errors)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": consistent and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


# --- every workload at once ------------------------------------------------------------


def chain_limit(args):
    """Child side: order of 2^k on 2k points, outside the scored workloads."""
    load_permdec()
    import workloads

    k = CHAIN_LIMIT_K
    pi = workloads.random_relabelling(2 * k, workloads.seeded_rng(args.seed, "limit"))
    gens = [workloads.conjugate_images(g, pi) for g in workloads.pair_swaps(k)]

    def order():
        value = workloads.make_group(gens, 2 * k).order()
        return value, value == 2**k

    start = time.perf_counter()
    _, correct, error = run_operation(workloads.Operation(f"order 2^{k}", order),
                                      OPERATION_CAP_S)
    print(json.dumps({"operation": f"order 2^{k}", "correct": correct, "error": error,
                      "seconds": time.perf_counter() - start}))


def run_all(args):
    load_permdec()
    import workloads

    print(f"{'workload':<18} {'wall_s':>10} {'setup_s':>9} {'peak_rss_mb':>12} {'fail_ratio':>18}")
    status = 0
    for name in workloads.NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(f"{name:<18} failed to run: {done.stderr.strip()[-300:]}")
            status = 1
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        failed, attempted = result["failed"], result["attempted"]
        ratio = f"{failed}/{attempted} = {failed / attempted:.3f}"
        print(f"{name:<18} {m['wall_s']:>8.3f} s {m['setup_s']:>7.3f} s "
              f"{m['peak_rss_mb']:>9.1f} MB {ratio:>18}")
        status |= 0 if result["correct"] else 1
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", str(args.seed), "--chain-limit"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    print("not scored, ROADMAP item 3 target:", done.stdout.strip() or done.stderr.strip()[-300:])
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, print a table")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--chain-limit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.chain_limit:
        return chain_limit(args)
    if not args.workload:
        parser.error("--workload or --all is required")
    if args.setup_probe:
        return setup_probe(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
