#!/usr/bin/env python3
"""Alternating parent/change pairs of the translation benchmark.

Run from the repository root:

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --seeds 1801-1810 --out BENCH_18.json

Each side is the committed tree of a revision, exported with `git archive`
into its own directory under --work (so the repository's own checkout, index
and worktree list are left as they are); `--change .` runs the working tree
instead. For each workload and seed the script runs
`python3 perfbench/run.py --workload W --seed S --seconds X --trace 0` once
per side, one process at a time, the parent first on even pairs and the
change first on odd ones. Each side builds its benchmark package on its
first run (run.py rebuilds only when sources change).

It writes one JSON object per run, a line each, with the fields workload,
seed, side, first and result (run.py's last stdout line), and prints per
workload and metric the median and q1-q3 of each side and the number of
pairs the change won. Nothing under perfbench/ is changed.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

METRICS = [  # name, True when higher is better
    ("throughput_rec_s", True), ("setup_s", False), ("cached_mb", False),
    ("event_region_acc", True), ("region_acc", True), ("clean_pos_err_m", False),
    ("gap_coverage", True), ("gap_region_acc", True),
]


def seeds(spec):
    """'1801-1810' or '1801,1805' as a list of ints."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def export(rev, dest):
    """The committed files of `rev` in `dest`, via git archive."""
    os.makedirs(dest)
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", rev], stdout=tar, check=True)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as t:
            t.extractall(dest)
    return dest


def run(tree, workload, seed, secs, log):
    """run.py's result object for one run in `tree`; its stderr goes to `log`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(secs), "--trace", "0"]
    p = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=log, text=True)
    lines = [l for l in p.stdout.splitlines() if l.startswith("{")]
    if p.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def quartiles(xs):
    """q1, median and q3, interpolated between the order statistics."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(rows, workload):
    """Prints median and q1-q3 per side and the change's wins, per metric."""
    print(f"\n{workload}")
    by = {}
    for r in rows:
        if r["workload"] == workload:
            by[(r["seed"], r["side"])] = r["result"].get("metrics", {})
    pairs = sorted({s for s, _ in by if (s, "parent") in by and (s, "change") in by})
    for name, higher in METRICS:
        vals = {side: [by[(s, side)][name]["value"] for s in pairs if name in by[(s, side)]]
                for side in ("parent", "change")}
        if not vals["parent"] or len(vals["parent"]) != len(vals["change"]):
            continue
        p1, pm, p3 = quartiles(vals["parent"])
        c1, cm, c3 = quartiles(vals["change"])
        wins = sum((c > p) if higher else (c < p) for p, c in zip(vals["parent"], vals["change"]))
        same = sum(p == c for p, c in zip(vals["parent"], vals["change"]))
        print(f"  {name:18s} parent {pm:.6g} ({p1:.6g}-{p3:.6g})  change {cm:.6g} ({c1:.6g}-{c3:.6g})  "
              f"change better {wins}/{len(pairs)}, equal {same}/{len(pairs)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="revision of the parent side")
    ap.add_argument("--change", default=".", help="revision of the change side; '.' is the working tree")
    ap.add_argument("--workloads", default="week-dirty,week-bulk")
    ap.add_argument("--seeds", required=True, help="e.g. 1801-1810")
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("--out", required=True, help="result file, one JSON object per line")
    ap.add_argument("--work", default=None, help="directory for the exported trees (default: a temporary one)")
    a = ap.parse_args()
    if not os.path.isfile(os.path.join("perfbench", "run.py")):
        sys.exit("run from the repository root")

    work = a.work or tempfile.mkdtemp(prefix="bench_pairs_")
    keep = a.work is not None
    os.makedirs(work, exist_ok=True)
    try:
        trees = {"parent": export(a.parent, os.path.join(work, "parent"))}
        trees["change"] = os.getcwd() if a.change == "." else export(a.change, os.path.join(work, "change"))
        rows = []
        with open(os.path.join(work, "runs.log"), "a") as log, open(a.out, "w") as out:
            out.write("[\n")
            first_line = True
            for workload in a.workloads.split(","):
                for i, seed in enumerate(seeds(a.seeds)):
                    order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                    for side in order:
                        res = run(trees[side], workload, seed, a.seconds, log)
                        row = {"workload": workload, "seed": seed, "side": side, "first": order[0], "result": res}
                        rows.append(row)
                        out.write(("" if first_line else ",\n") + json.dumps(row))
                        out.flush()
                        first_line = False
                        tput = res.get("metrics", {}).get("throughput_rec_s", {}).get("value", float("nan"))
                        print(f"{workload} seed {seed} {side:6s} throughput {tput:.0f} rec/s", flush=True)
            out.write("\n]\n")
        for workload in a.workloads.split(","):
            report(rows, workload)
    finally:
        if not keep:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
