"""Cold CLI requests at reach scale, timed in fresh processes.

    python scripts/reach_bench.py --change DIR [--parent DIR] [--pairs 5]

Each request runs as `python -m fwburnside.cli ...` in a new process with
PYTHONPATH set to the tree's src directory. A pair runs it once in each
tree, and the pairs alternate which tree goes first. Per request it
prints each tree's median wall seconds with their range, the pairs the
change won, each tree's largest peak RSS (os.wait4, this child's own) and
the md5 of stdout. DIFF flags a request whose stdout differs between the
trees or between runs, EXIT one that exits nonzero. It gates nothing.
Standard library only.
"""

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time

C2_6 = "C2xC2xC2xC2xC2xC2"
GROUPS = ("A6", "S6", "D512", "C2xS4xS3", "SL(2,7)xC2", "S4xS4", C2_6)
SURVEYED = ("C4xC4xC4", "D512", "C2xD8xS3", "C2xS4xS3", "C2xC2xC2xC2xC2", "S4xS4",
            "SL(2,7)xC2", "S6", "A6", C2_6, C2_6 + "xC3")
CHECKS = (
    (C2_6 + "xC3", "def", "order=3:0"),
    (C2_6 + "xC3", "inf", "order=3:0"),
    ("S4xS4", "res", "order=288:0"),
    (C2_6, "fix", "order=8:0"),
    (C2_6, "ten", "order=32:0"),  # fails: walks to its certificate
)
CAP = ("--cap", "720")  # admits S6, the largest group listed


def requests(catalog_dir):
    """(label, argv) of each request; a survey reads a one-group catalog."""
    for g in GROUPS:
        for argv in (("lattice", g), ("marks", g, "--format", "csv"), ("idempotents", g)):
            yield " ".join(argv), (*argv, *CAP)
    for g in SURVEYED:
        path = os.path.join(catalog_dir, g + ".txt")
        with open(path, "w") as f:
            f.write(g + "\n")
        yield f"fw survey {g}", ("fw", "survey", "--catalog", path, *CAP)
    for g, op, sub in CHECKS:
        argv = ("fw", "check", g, "--op", op, "--sub", sub)
        yield " ".join(argv), (*argv, *CAP)


def run(tree, argv):
    """(seconds, peak RSS in MB, md5 of stdout, exit code) of one cold request."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "fwburnside.cli", *argv], stdout=subprocess.PIPE, env=env
    )
    digest = hashlib.md5()
    with child.stdout:
        for block in iter(lambda: child.stdout.read(1 << 16), b""):
            digest.update(block)
    # wait4 gives this child's own peak; RUSAGE_CHILDREN would give the
    # largest peak of all children reaped so far
    _, status, usage = os.wait4(child.pid, 0)
    secs = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return secs, usage.ru_maxrss / 1024, digest.hexdigest(), child.returncode


def timing(runs):
    secs = [r[0] for r in runs]
    return f"{statistics.median(secs):7.3f} ({min(secs):.3f}-{max(secs):.3f})"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--change", required=True, help="the source tree measured")
    ap.add_argument("--parent", help="a source tree to compare against")
    ap.add_argument("--pairs", type=int, default=5, help="runs per tree (default 5)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    trees = {"change": args.change}
    if args.parent:
        trees = {"parent": args.parent, "change": args.change}
    names = list(trees)
    print(f"{'request':<56}", *(f"{n + ' s (range)':>22} {n + ' MB':>10}" for n in names),
          "won" if args.parent else "", "md5 of stdout")
    with tempfile.TemporaryDirectory() as catalog_dir:
        for label, argv in requests(catalog_dir):
            runs = {n: [] for n in names}
            for i in range(args.pairs):
                for n in names if i % 2 == 0 else names[::-1]:
                    runs[n].append(run(trees[n], argv))
            cells = [f"{timing(runs[n]):>22} {max(r[1] for r in runs[n]):10.1f}" for n in names]
            won = ""
            if args.parent:
                wins = sum(c[0] < p[0] for p, c in zip(runs["parent"], runs["change"]))
                won = f"{wins}/{args.pairs}"
            md5s = {r[2] for n in names for r in runs[n]}
            codes = {r[3] for n in names for r in runs[n]} - {0}
            flags = (["DIFF"] if len(md5s) > 1 else []) + [f"EXIT {c}" for c in sorted(codes)]
            print(f"{label:<56}", *cells, won, runs["change"][0][2], *flags, flush=True)


if __name__ == "__main__":
    main()
