"""Benchmark for fwburnside: three workloads, each run in fresh interpreters.

    python3 perfbench/run.py --workload ladder|survey|cli --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seconds S   (all three workloads in turn)
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record

The program is the package under `src/` beside this directory; nothing is
installed or built. Workloads (see layers.json for why each exists):

  ladder  one cold pass of construct_group -> subgroup_lattice ->
          table_of_marks -> every idempotent over LADDER, per worker process
  survey  one cold survey_rows over SURVEY (the 41-group catalog plus 11
          many-class groups), per worker process
  cli     closed loop, one client: sequential `python -m fwburnside.cli`
          requests, in rounds that are seeded shuffles of CLI_POOL

ladder and survey run at least three passes and cli at least four rounds;
more follow while the next one fits in --seconds, and times are reported
as medians. With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 passes alternate between untraced
and traced (spans recorded by tracer.py from outside the package) and the
last line holds the per-layer metrics. Every output is checked against
expected.json and the formulas below; a mismatch counts as a failed
operation and the exit code is 1. --self-test runs tiny inputs and checks
the harness itself; --record rewrites expected.json from the current code.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = BENCH / "expected.json"
WORKLOADS = ("ladder", "survey", "cli")
DEADLINE_S = 170  # a run must end within 180 s
IMPORT_CODE = "import fwburnside, os; os.write(1, b'.')"
SETUP_EVERY_S = 3  # one set-up sample per 3 s of run, spread over the run
SETUP_MIN = 5
MIN_PASSES = 3  # ladder and survey report medians of at least three passes
MIN_ROUNDS = 4  # 4 x 26 requests, so cli's p90 has at least ten beyond it

LADDER = (
    "S4", "SL(2,3)", "A5", "S5", "SL(2,5)", "SL(2,7)",
    "D128", "C2xC2xC2xC2xC2", "C2xS4", "C2xC256",
)
CATALOG = tuple(f"C{n}" for n in range(1, 25)) + (
    "C2xC2", "C2xC4", "C2xC2xC2", "C3xC3", "S3", "S4", "A4", "A5", "D8", "D10",
    "D12", "Q8", "Q16", "Dic12", "Dic20", "SL(2,3)", "SL(2,5)",
)
SURVEY = CATALOG + (
    "C2xC2xC2xC2", "C2xC2xC4", "C4xC8", "C3xC3xC3", "C2xD8", "C2xQ8",
    "S3xS3", "SL(2,3)xC2", "Dic48", "Dic60", "C2xS4",
)
# md5 and row count of `fwburnside fw survey` over CATALOG, as documented
CATALOG_MD5 = "791bd615d15b01f7ff158a396abfa42b"
CATALOG_ROWS = 177

_Q8_DEF = '[["8:0", "1/1"], ["4:0", "-1/2"]]'
_ONE = '[["1:0", "1/1"]]'
CLI_POOL = (
    ("group", "S4"),
    ("lattice", "D8"),
    ("lattice", "C2xQ8"),
    ("lattice", "S4", "--format", "table"),
    ("marks", "S3", "--format", "table"),
    ("marks", "A4", "--format", "csv"),
    ("idempotents", "Q8"),
    ("op", "res", "D8", "center", _ONE),
    ("op", "ind", "Q8", "center", _ONE),
    ("op", "ten", "Q8", "center", _ONE),
    ("op", "inf", "Q8", "center", _ONE),
    ("op", "def", "Q8", "center", _Q8_DEF),
    ("op", "fix", "D8", "center", _ONE),
    ("fw", "apply", "Q8", '[["2:0", "1/1"]]'),
    ("fw", "apply", "Dic12", '[["3:0", "1/1"], ["6:0", "-1/2"]]'),
    ("fw", "check", "Q8", "--op", "def", "--sub", "center"),
    ("fw", "check", "C2xC2", "--op", "def", "--sub", "order=2:0"),
    ("fw", "check", "Dic20", "--op", "ten", "--sub", "center"),
    ("fw", "check", "S4", "--op", "res", "--sub", "order=6:0"),
    ("fw", "check", "C2xD8", "--op", "inf", "--sub", "frattini"),
    ("fw", "check", "D12", "--op", "fix", "--sub", "maxcyc"),
    ("fw", "check", "C4xC8", "--op", "ind", "--sub", "maxcyc"),
    ("group", "D7"),  # exit 1: dihedral order must be even
    ("op", "bogus", "S4", "center", _ONE),  # exit 1: usage
    ("group", "C1024"),  # exit 2: above the order cap
    ("fw", "check", "S4", "--op", "def", "--sub", "order=2:0"),  # exit 2: not normal
)
# The README's documented results for two pool requests.
README_EXAMPLES = {
    ("fw", "check", "Q8", "--op", "def", "--sub", "center"): {"commutes": True},
    ("fw", "check", "C2xC2", "--op", "def", "--sub", "order=2:0"): {
        "commutes": False,
        "checked": 2,
        "certificate": {
            "basis": "e[2]",
            "left": "-1/4[C2/1:0] + [C2/2:0]",
            "right": "1/4[C2/1:0]",
        },
    },
}


def _gaussian_binomial_2(n, k):
    num = den = 1
    for i in range(k):
        num *= 2 ** (n - i) - 1
        den *= 2 ** (i + 1) - 1
    return num // den


def _dihedral_subgroups(order):
    """D_2m has tau(m) + sigma(m) subgroups."""
    divisors = [d for d in range(1, order // 2 + 1) if (order // 2) % d == 0]
    return len(divisors) + sum(divisors)


# Subgroup counts known independently of the program.
SUBGROUP_COUNTS = {
    "S4": 30,
    "A5": 59,
    "S5": 156,
    "D128": _dihedral_subgroups(128),
    "C2xC2xC2xC2xC2": sum(_gaussian_binomial_2(5, k) for k in range(6)),
}

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
}
TRACED_UNITS = {  # from tracer.Tracer.layer_metrics
    "groups.construct_s": "s",
    "groups.construct_calls": "count",
    "groups.quotient_s": "s",
    "groups.quotient_calls": "count",
    "groups.embedding_s": "s",
    "lattice.build_s": "s",
    "lattice.builds": "count",
    "lattice.calls": "count",
    "lattice.hit_ratio": "ratio",
    "lattice.subgroups": "count",
    "lattice.classes": "count",
    "lattice.gcd_s": "s",
    "burnside.marks_s": "s",
    "burnside.idempotent_s": "s",
    "burnside.idempotent_calls": "count",
    "fw.context_s": "s",
    "fw.apply_s": "s",
    "fw.apply_calls": "count",
    "fw.check_inf_s": "s",
    "fw.check_ind_s": "s",
    "fw.check_ten_s": "s",
    "fw.check_def_s": "s",
    "fw.checks": "count",
    "fw.checked_idempotents": "count",
    "fw.commutes": "count",
    "fw.m_equality_s": "s",
    "survey.self_s": "s",
    "survey.rows": "count",
    "survey.error_rows": "count",
}
LAYER_UNITS = {
    **TRACED_UNITS,
    "cli.spawn_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.requests": "count",
    "cli.failed": "count",
    "host.calib_ms": "ms",
    "trace.overhead_s": "s",
}


def child_env():
    """The environment of every child: src/ first on the module path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Run:
    """The state of one benchmark run: deadline, outcome counts, samples."""

    def __init__(self, workload, seed, seconds, trace, expected):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.expected = expected
        self.deadline = perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.out_dir = OUT / f"{workload}-seed{seed}"
        self.metrics = {}
        self.notes = {}
        self.setup = []  # set-up samples, seconds

    def fail(self, count, why):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)

    def child(self, cmd):
        """Run a child in the checkout, with src/ on the path. Returns the
        completed process (returncode None on timeout) and its wall time."""
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=child_env(), capture_output=True,
                timeout=max(1.0, self.deadline - t0),
            )
        except subprocess.TimeoutExpired as exc:
            proc = subprocess.CompletedProcess(cmd, None, exc.stdout or b"", exc.stderr or b"")
        return proc, perf_counter() - t0

    def loop(self, min_steps, step):
        """Call step(k) for k = 0, 1, ... until the next call would overrun
        the run's seconds (judged by the longest call so far). Untraced,
        set-up samples are taken between steps, spread over the run."""
        start = perf_counter()
        longest = 0.0
        k = 0
        while k < min_steps or perf_counter() - start + longest <= self.seconds:
            if perf_counter() > self.deadline:
                break
            t0 = perf_counter()
            step(k)
            longest = max(longest, perf_counter() - t0)
            k += 1
            while not self.trace and len(self.setup) < (perf_counter() - start) / SETUP_EVERY_S:
                self.setup += spawn_times(IMPORT_CODE, 1)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def calibrate():
    """A fixed pure-Python loop; its time shows host speed drift."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(perf_counter() - t0)
    return median(times) * 1000


def spawn_times(code, count):
    """Seconds from spawning `python -c code` until it writes its first
    byte (or exits, if it writes nothing)."""
    times = []
    for _ in range(count):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ) as proc:
            first = proc.stdout.read(1)
            times.append(perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or (code != "pass" and first != b"."):
            raise RuntimeError(f"`python -c {code!r}` failed with exit {proc.returncode}")
    return times


def last_json(data):
    lines = data.decode(errors="replace").strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


# -- ladder and survey: one worker process per pass ---------------------------


def run_passes(run, specs):
    untraced, traced = [], []

    def step(k):
        cmd = [sys.executable, str(BENCH / "worker.py"), run.workload, json.dumps(specs)]
        traced_pass = run.trace and k % 2 == 1
        if traced_pass:
            cmd.append(str(run.out_dir / f"pass{k}.json"))
        proc, _ = run.child(cmd)
        res = last_json(proc.stdout) if proc.returncode == 0 else None
        if res is None:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            res = {"error": f"worker exit {proc.returncode}: {' '.join(tail)}"}
        elif not Path(res["module"]).resolve().is_relative_to(SRC):
            res = {"error": f"worker imported fwburnside from {res['module']}"}
        (traced if traced_pass else untraced).append(res)

    run.loop(2 if run.trace else MIN_PASSES, step)
    check = check_ladder if run.workload == "ladder" else check_survey
    for res in untraced + traced:
        check(run, specs, res)
    return untraced, traced


def check_ladder(run, specs, res):
    if "error" in res:
        run.attempted += len(specs)
        run.fail(len(specs), res["error"])
        return
    for rec in res["groups"]:
        run.attempted += 1
        why = ladder_problem(rec, run.expected["ladder"])
        if why:
            run.fail(1, f"ladder {rec['spec']}: {why}")


def ladder_problem(rec, expected):
    if "error" in rec:
        return rec["error"]
    want = expected.get(rec["spec"])
    if want is None:
        return "no recorded fingerprint"
    formula = SUBGROUP_COUNTS.get(rec["spec"])
    if formula is not None and rec["subgroups"] != formula:
        return f"{rec['subgroups']} subgroups, the formula gives {formula}"
    got = {k: rec[k] for k in ("subgroups", "classes", "sha256")}
    if got != want:
        return f"got {got}, recorded {want}"
    return None


def check_survey(run, specs, res):
    expected = run.expected["survey"]
    sizes = [expected["groups"][s]["rows"] for s in specs]
    run.attempted += sum(sizes)
    if "error" in res:
        run.fail(sum(sizes), res["error"])
        return
    bad = set()
    for i, rec in enumerate(res["groups"]):
        want = expected["groups"][rec["spec"]]["md5"]
        if "error" in rec:
            bad.add(i)
            run.fail(sizes[i], f"survey {rec['spec']}: {rec['error']}")
        elif _md5(rec["csv"]) != want:
            bad.add(i)
            run.fail(sizes[i], f"survey {rec['spec']}: rows differ from the recorded ones")
    whole = [(CATALOG_MD5, len(CATALOG))]
    if tuple(specs) == SURVEY:
        whole.append((expected["md5"], len(SURVEY)))
    for want, n in whole:
        if tuple(specs[:n]) != SURVEY[:n] or bad & set(range(n)):
            continue
        csv = res["csv_header"] + "\n" + "".join(rec["csv"] for rec in res["groups"][:n])
        rows = csv.count("\n") - 1
        if _md5(csv) != want or (n == len(CATALOG) and rows != CATALOG_ROWS):
            run.fail(sum(sizes[:n]), f"survey CSV over the first {n} groups: md5 {_md5(csv)}, want {want}")


def _md5(text):
    return hashlib.md5(text.encode()).hexdigest()


def pass_workload(run, specs):
    untraced, traced = run_passes(run, specs)
    good = [r for r in untraced if "error" not in r]
    walls = [r["wall_s"] for r in good]
    run.notes["passes"] = len(untraced)
    run.notes["pass_wall_s"] = " ".join(f"{w:.3f}" for w in walls)
    if not run.trace:
        # wall_s sums each group's median across passes, since bursts of host
        # load hit different groups in different passes; the latency of one
        # operation (a whole cold pass) is taken over the passes themselves
        per_group = [
            median([r["groups"][i]["seconds"] for r in good if "seconds" in r["groups"][i]])
            for i in range(len(specs))
        ]
        run.notes["latency_samples"] = f"{len(good)} passes"
        run.metrics.update(
            wall_s=sum(per_group),
            p50_ms=percentile(walls, 50) * 1000,
            p90_ms=percentile(walls, 90) * 1000,
        )
        return
    traced_good = [r for r in traced if "error" not in r]
    run.notes["traced_passes"] = len(traced)
    layers = {k: median([r["layers"][k] for r in traced_good]) for k in TRACED_UNITS}
    _fix_hit_ratio(layers)
    run.metrics.update(layers)
    run.metrics.update({
        "cli.import_ms": 0.0, "cli.main_ms": 0.0, "cli.requests": 0, "cli.failed": 0,
        "trace.overhead_s": median([r["wall_s"] for r in traced_good]) - median(walls),
    })


def _fix_hit_ratio(layers):
    calls, builds = layers["lattice.calls"], layers["lattice.builds"]
    layers["lattice.hit_ratio"] = (calls - builds) / calls if calls else 0.0


# -- cli: closed loop, one client ---------------------------------------------


def cli_workload(run, pool):
    rng = random.Random(run.seed)
    order = []
    # round -> {"traced", "busy" (sum of its request times), "done", "traces"};
    # set-up samples taken between requests do not count toward "busy"
    rounds = {}
    latencies = []
    failed_before = run.failed

    def step(k):
        r, pos = divmod(k, len(pool))
        if pos == 0:
            order[:] = rng.sample(range(len(pool)), len(pool))
            rounds[r] = {"traced": run.trace and r % 2 == 1, "busy": 0.0, "traces": []}
        rnd = rounds[r]
        argv = list(pool[order[pos]])
        if rnd["traced"]:
            spans = run.out_dir / f"request{k}.json"
            cmd = [sys.executable, str(BENCH / "cli_entry.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "fwburnside.cli", *argv]
        proc, elapsed = run.child(cmd)
        rnd["busy"] += elapsed
        run.attempted += 1
        why = cli_problem(argv, proc, run.expected["cli"])
        info = None
        if rnd["traced"] and why is None:
            try:
                info = json.loads(spans.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                why = f"no trace written: {exc}"
        if why:
            run.fail(1, f"cli {' '.join(argv)}: {why}")
        if rnd["traced"]:
            rnd["traces"].append(info)
        else:
            latencies.append(elapsed * 1000)
        rnd["done"] = pos == len(pool) - 1

    run.loop(len(pool) * (2 if run.trace else MIN_ROUNDS), step)
    complete = [rnd for rnd in rounds.values() if rnd["done"]]
    walls = [rnd["busy"] for rnd in complete if not rnd["traced"]]
    run.notes["rounds"] = f"{len(complete)} complete of {len(rounds)}, {len(pool)} requests each"
    if not run.trace:
        run.notes["latency_samples"] = f"{len(latencies)} requests"
        run.metrics.update(
            wall_s=median(walls),
            p50_ms=percentile(latencies, 50),
            p90_ms=percentile(latencies, 90),
        )
        return
    per_round = [
        {k: sum(i["layers"][k] for i in rnd["traces"]) for k in TRACED_UNITS}
        for rnd in complete
        if rnd["traced"] and None not in rnd["traces"]
    ]
    layers = {k: median([t[k] for t in per_round]) for k in TRACED_UNITS}
    _fix_hit_ratio(layers)
    run.metrics.update(layers)
    traced_ok = [i for rnd in rounds.values() for i in rnd["traces"] if i is not None]
    traced_walls = [rnd["busy"] for rnd in complete if rnd["traced"]]
    run.metrics.update({
        "cli.import_ms": median([i["import_ms"] for i in traced_ok]),
        "cli.main_ms": median([i["main_ms"] for i in traced_ok]),
        "cli.requests": run.attempted,
        "cli.failed": run.failed - failed_before,
        "trace.overhead_s": median(traced_walls) - median(walls),
    })


def cli_problem(argv, proc, expected):
    if proc.returncode is None:
        return "timed out"
    want = expected.get(json.dumps(argv))
    if want is None:
        return "no recorded result"
    if proc.returncode != want["exit"]:
        return f"exit {proc.returncode}, want {want['exit']}"
    if hashlib.sha256(proc.stdout).hexdigest() != want["stdout_sha256"]:
        return "stdout differs from the recorded bytes"
    documented = README_EXAMPLES.get(tuple(argv))
    if documented:
        payload = json.loads(proc.stdout)
        if any(payload.get(k) != v for k, v in documented.items()):
            return "output differs from the README example"
    return None


# -- entry point --------------------------------------------------------------


def host_facts():
    return {
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def execute(workload, seed, seconds, trace, expected, inputs=None):
    """One run of a workload; returns the Run with metrics filled in."""
    run = Run(workload, seed, seconds, trace, expected)
    calib_ms = calibrate()
    if trace:
        shutil.rmtree(run.out_dir, ignore_errors=True)
        run.out_dir.mkdir(parents=True)
    else:
        spawn_times(IMPORT_CODE, 1)  # compiles bytecode; not a sample
    if workload == "cli":
        cli_workload(run, inputs or CLI_POOL)
    else:
        pass_workload(run, inputs or (LADDER if workload == "ladder" else SURVEY))
    if trace:
        run.metrics["host.calib_ms"] = calib_ms
        run.metrics["cli.spawn_ms"] = median(spawn_times("pass", 5)) * 1000
    else:
        run.setup += spawn_times(IMPORT_CODE, max(0, SETUP_MIN - len(run.setup)))
        run.notes["setup_samples"] = len(run.setup)
        run.metrics["setup_s"] = median(run.setup)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        run.metrics["peak_rss_mb"] = peak_kb / 1024
    run.notes["host.calib_ms"] = calib_ms
    return run


def report(run):
    units = LAYER_UNITS if run.trace else E2E_UNITS
    print(f"workload {run.workload}  seed {run.seed}  seconds {run.seconds}  trace {int(run.trace)}")
    print("host " + "  ".join(f"{k} {v}" for k, v in host_facts().items()))
    print("load: one process, one client, closed loop")
    for key, value in run.notes.items():
        print(f"{key}: {value}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"fail_ratio = {ratio:g} ({run.failed} of {run.attempted} operations)")
    for why in run.problems:
        print(f"FAILED {why}")
    for name in sorted(units):
        print(f"{name} = {run.metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": run.metrics[n], "unit": units[n]} for n in sorted(units)},
    }))


def load_expected():
    with open(EXPECTED, encoding="utf-8") as f:
        return json.load(f)


def require_checkout():
    if not (SRC / "fwburnside" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fwburnside package under {SRC}; run from a checkout of the repository")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    require_checkout()
    if args.self_test:
        from selftest import self_test

        return self_test()
    if args.record:
        record()
        return 0
    if args.workload is None:
        # every workload, each in its own harness process so that peak RSS
        # (read over the harness's children) stays per workload
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
            ).returncode
            for w in WORKLOADS
        ]
        return max(codes)
    run = execute(args.workload, args.seed, args.seconds, bool(args.trace), load_expected())
    report(run)
    return 0 if run.failed == 0 and run.attempted > 0 else 1


def record():
    """Rewrite expected.json from the current program. The documented
    catalog md5 must still match, or nothing is written."""
    run = Run("record", 0, 0, False, None)
    ladder = {}
    proc, _ = run.child([sys.executable, str(BENCH / "worker.py"), "ladder", json.dumps(LADDER + ("Q8",))])
    for rec in last_json(proc.stdout)["groups"]:
        ladder[rec["spec"]] = {k: rec[k] for k in ("subgroups", "classes", "sha256")}
    proc, _ = run.child([sys.executable, str(BENCH / "worker.py"), "survey", json.dumps(SURVEY)])
    res = last_json(proc.stdout)
    groups = {rec["spec"]: {"rows": rec["csv"].count("\n"), "md5": _md5(rec["csv"])} for rec in res["groups"]}
    csv = res["csv_header"] + "\n" + "".join(rec["csv"] for rec in res["groups"])
    catalog_csv = res["csv_header"] + "\n" + "".join(rec["csv"] for rec in res["groups"][: len(CATALOG)])
    if _md5(catalog_csv) != CATALOG_MD5:
        sys.exit(f"catalog survey md5 is {_md5(catalog_csv)}, documented {CATALOG_MD5}; not recording")
    cli = {}
    for argv in CLI_POOL:
        proc, _ = run.child([sys.executable, "-m", "fwburnside.cli", *argv])
        cli[json.dumps(list(argv))] = {
            "exit": proc.returncode,
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
        }
    expected = {
        "ladder": ladder,
        "survey": {"md5": _md5(csv), "rows": csv.count("\n") - 1, "groups": groups},
        "cli": cli,
    }
    with open(EXPECTED, "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {EXPECTED.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
