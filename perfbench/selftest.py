"""Self-test of the harness on tiny inputs: `python3 perfbench/run.py --self-test`.

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the exact counts repeat across two consecutive traced runs, and that
a deliberately corrupted expected value trips each workload's gate.
"""

import copy
import json
import numbers

import run as bench

TINY = {
    "ladder": ("S4", "Q8"),
    "survey": ("S3", "Q8", "C2xC2"),
    "cli": (
        ("fw", "check", "Q8", "--op", "def", "--sub", "center"),
        ("fw", "check", "C2xC2", "--op", "def", "--sub", "order=2:0"),
        ("marks", "S3", "--format", "table"),
        ("group", "D7"),
        ("fw", "check", "S4", "--op", "def", "--sub", "order=2:0"),
    ),
}
EXACT = ("lattice.builds", "lattice.subgroups", "lattice.classes", "fw.checks",
         "fw.checked_idempotents", "survey.rows")


def _corrupt(expected, workload):
    bad = copy.deepcopy(expected)
    if workload == "ladder":
        bad["ladder"]["S4"]["sha256"] = "0" * 64
    elif workload == "survey":
        bad["survey"]["groups"]["Q8"]["md5"] = "0" * 32
    else:
        bad["cli"][json.dumps(["group", "D7"])]["exit"] = 0
    return bad


def self_test():
    expected = bench.load_expected()
    with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        declared = json.load(f)
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for trace, key, units in ((False, "end_to_end", bench.E2E_UNITS), (True, "per_layer", bench.LAYER_UNITS)):
        names = {m["name"]: m["unit"] for m in declared[key]}
        expect(names == units, f"BENCHMARK.json {key} names and units match the harness")
        for workload, inputs in TINY.items():
            runs = [bench.execute(workload, 0, 0, trace, expected, inputs) for _ in range(1 + trace)]
            for run in runs:
                expect(run.attempted > 0 and run.failed == 0,
                       f"{workload} trace={int(trace)}: {run.attempted} attempted, problems {run.problems}")
                missing = [n for n in units if not isinstance(run.metrics.get(n), numbers.Real)]
                expect(not missing, f"{workload} trace={int(trace)} emits every {key} metric {missing or ''}")
            if trace:
                first, second = (tuple(r.metrics[k] for k in EXACT) for r in runs)
                expect(first == second, f"{workload} exact counts repeat across two traced runs: {first}")

    for workload, inputs in TINY.items():
        run = bench.execute(workload, 0, 0, False, _corrupt(expected, workload), inputs)
        expect(run.failed > 0, f"{workload}: a corrupted expected value trips the gate ({run.failed} failed)")

    print("self-test " + ("passed" if not problems else f"FAILED ({len(problems)} problems)"))
    return 0 if not problems else 1
