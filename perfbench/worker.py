"""One cold pass of the ladder or survey workload, in a fresh interpreter.

    python worker.py ladder|survey SPECS_JSON [SPANS_PATH]

Prints one JSON line: the pass's wall time, per-group timings and the
values run.py checks for correctness. With SPANS_PATH the pass is traced:
the per-layer metrics join the JSON line and the spans go to that file.
Fingerprints and CSV text are computed after the timed phase and after
the tracer's metrics are taken, so they cost neither time nor spans.
"""

import contextlib
import hashlib
import io
import json
import sys
from time import perf_counter

import fwburnside
from tracer import Tracer


def ladder_pass(specs):
    groups = []
    for spec in specs:
        rec = {"spec": spec}
        try:
            t0 = perf_counter()
            G = fwburnside.construct_group(spec)
            t1 = perf_counter()
            lat = fwburnside.subgroup_lattice(G)
            t2 = perf_counter()
            fwburnside.table_of_marks(lat)
            t3 = perf_counter()
            for c in range(lat.n_classes()):
                fwburnside.idempotent(lat, c)
            t4 = perf_counter()
        except Exception as exc:  # a failing group is reported, the pass goes on
            rec["error"] = f"{type(exc).__name__}: {exc}"
        else:
            rec["stages_s"] = [t1 - t0, t2 - t1, t3 - t2, t4 - t3]
            rec["seconds"] = t4 - t0
        groups.append(rec)
    return groups


def ladder_fingerprints(groups):
    """Subgroup counts and a hash of the `lattice`, `marks` and
    `idempotents` CLI output, the documented form of the ladder results."""
    from fwburnside.cli import main

    for rec in groups:
        if "error" in rec:
            continue
        digest = hashlib.sha256()
        for verb in ("lattice", "marks", "idempotents"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main([verb, rec["spec"]])
            if code != 0:
                rec["error"] = f"`{verb} {rec['spec']}` exited {code}"
                break
            text = buf.getvalue()
            digest.update(text.encode())
            if verb == "lattice":
                payload = json.loads(text)
                rec["subgroups"] = payload["subgroup_count"]
                rec["classes"] = payload["class_count"]
        else:
            rec["sha256"] = digest.hexdigest()


def survey_pass(specs):
    groups = []
    for spec in specs:
        rec = {"spec": spec}
        try:
            t0 = perf_counter()
            rows = fwburnside.survey_rows(fwburnside.SurveyConfig(specs=(spec,)))
            rec["seconds"] = perf_counter() - t0
        except Exception as exc:  # a failing group is reported, the pass goes on
            rec["error"] = f"{type(exc).__name__}: {exc}"
        else:
            rec["rows"] = rows
        groups.append(rec)
    return groups


def survey_csv(groups):
    """Replace each group's row dicts by its CSV lines (header dropped)."""
    header = None
    for rec in groups:
        if "rows" not in rec:
            continue
        buf = io.StringIO()
        fwburnside.write_survey_csv(rec.pop("rows"), buf)
        header, _, body = buf.getvalue().partition("\n")
        rec["csv"] = body
    return header


def main(argv):
    workload, specs = argv[0], json.loads(argv[1])
    spans_path = argv[2] if len(argv) > 2 else None
    tracer = None
    if spans_path:
        tracer = Tracer()
        tracer.install()
    run_pass = ladder_pass if workload == "ladder" else survey_pass
    t0 = perf_counter()
    groups = run_pass(specs)
    wall = perf_counter() - t0
    result = {"wall_s": wall, "module": fwburnside.__file__}
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write(spans_path)
    if workload == "ladder":
        ladder_fingerprints(groups)
    else:
        result["csv_header"] = survey_csv(groups)
    result["groups"] = groups
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
