"""Run the benchmark on a parent and a change in alternating pairs; write BENCH_<n>.json.

Both sides are exported with ``git archive`` into fresh temporary
directories, so each runs only its own committed files. For each pair,
with its own seed, every workload runs once per side, parent first in
even pairs and change first in odd ones. Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 \\
        --seed 2201 --claim chain_scale:peak_rss_mb --out BENCH_22.json

Without ``--change`` the change is the working tree's tracked files
(``git stash create``, which touches no file or ref; HEAD when the tree is
clean). The workloads, run length, metrics, their direction and their
bounds are read from the change's ``BENCHMARK.json``. The output holds, per workload, side and
end-to-end metric, the median, quartiles and every sample, the pairs the
change won (ties count for neither), whether its median is within the
bound, and whether the runs resolve the bound at all: they do not when the
parent's interquartile range exceeds the bound's share of its median and
some change run fails to beat some parent run; per workload, failed and
attempted operations per side; and, for a claimed metric, whether the
change won at least nine pairs in ten by more, in the medians, than the
parent's interquartile range. It also holds each side's ``src_lines``, the
newlines in ``src/permdec/*.py`` as ``wc -l`` counts them. The method
records whether Python writes bytecode: with ``PYTHONDONTWRITEBYTECODE`` set
it does not, so each set-up probe, a fresh process, compiles ``src/``
again, and ``setup_s`` holds that compile time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout.strip()


def export(rev, into):
    """The files of rev, by git archive, in a new directory under into."""
    out = Path(tempfile.mkdtemp(prefix=f"bench-{rev[:12]}-", dir=into))
    archive = subprocess.run(["git", "archive", "--format=tar", rev], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(out)], input=archive.stdout, check=True)
    return out


def src_lines(checkout):
    """The lines of src/permdec/*.py in checkout, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (Path(checkout) / "src" / "permdec").glob("*.py"))


def run_once(checkout, workload, seed, seconds):
    """One benchmark run: {"metrics": {name: value}, "attempted": n, "failed": n}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {checkout} failed: "
                         f"{done.stderr.strip()[-500:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"]}


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": list(values)}


def summarise(pairs, metrics, claim=None):
    """Summary of runs in pairs.

    pairs maps each workload to a list of {"parent": run, "change": run},
    each run as ``run_once`` returns it; metrics maps each end-to-end metric
    to (better, bound), better "lower" or "higher" and bound the fraction by
    which the change's median may be worse. claim is (workload, metric) or None.
    """
    out = {}
    for workload, runs in pairs.items():
        entry = {}
        for metric, (better, bound) in metrics.items():
            sides = {s: [r[s]["metrics"][metric] for r in runs] for s in SIDES}
            sign = 1 if better == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
            row = {s: _spread(sides[s]) for s in SIDES}
            parent, change = row["parent"]["median"], row["change"]["median"]
            row["change_better_pairs"] = f"{wins}/{len(runs)}"
            row["bound"] = bound
            row["within_bound"] = sign * (change - parent) <= bound * abs(parent)
            iqr = row["parent"]["q3"] - row["parent"]["q1"]
            row["resolved"] = iqr <= bound * abs(parent) or all(
                sign * (c - p) < 0 for p in sides["parent"] for c in sides["change"])
            if claim == (workload, metric):
                row["claim_met"] = 10 * wins >= 9 * len(runs) and sign * (parent - change) > iqr
            entry[metric] = row
        entry["failed"] = {s: f"{sum(r[s]['failed'] for r in runs)}/"
                              f"{sum(r[s]['attempted'] for r in runs)}" for s in SIDES}
        out[workload] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", help="git revision of the change (default: working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--claim", help="workload:metric the change claims to improve")
    parser.add_argument("--description", default="")
    parser.add_argument("--workdir", help="where the checkouts go (default: the system temp dir)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")

    revs = {"parent": git("rev-parse", args.parent),
            "change": git("rev-parse", args.change) if args.change
            else git("stash", "create") or git("rev-parse", "HEAD")}
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        trees = {s: export(revs[s], tmp) for s in SIDES}
        lines = {s: src_lines(trees[s]) for s in SIDES}
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        seconds = bench["run_seconds"]
        workloads = [w["name"] for w in bench["workloads"]]
        metrics = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
        seeds = list(range(args.seed, args.seed + args.pairs))
        pairs = {w: [] for w in workloads}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for w in workloads:
                pair = {s: run_once(trees[s], w, seed, seconds) for s in order}
                pairs[w].append(pair)
                print(f"pair {i + 1}/{args.pairs} seed {seed} {w}: " + ", ".join(
                    f"{s} {pair[s]['metrics']}" for s in SIDES), file=sys.stderr, flush=True)

    report = {
        "description": args.description,
        "parent": revs["parent"],
        "change": revs["change"] if args.change else f"{revs['change']} (working tree)",
        "method": {
            "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                       f"--seconds {seconds:g} --trace 0",
            "pairs": args.pairs,
            "seeds": seeds,
            "order": "parent first in even pairs, change first in odd pairs; "
                     "every workload in each pair",
            "checkouts": "parent and change each exported by git archive to a fresh directory",
            "machine": f"{os.cpu_count()} CPUs, {platform.python_implementation()} "
                       f"{platform.python_version()}",
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        },
        "claimed": {"workload": claim[0], "metric": claim[1]} if claim else None,
        "src_lines": lines,
        "workloads": summarise(pairs, metrics, claim),
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
