"""Per-layer spans recorded from outside the package.

`Tracer.install()` replaces the public functions of each layer with a
timing wrapper, in every module namespace that binds them (the defining
module, the package root, and each module that imported the name). Each
call records a span (name, start, end, parent) in memory; `write()` puts
them on disk when the run ends and `layer_metrics()` turns them into the
per-layer metrics. A layer's self time is its span minus its child spans.

The wrappers read only public results (lattice sizes, report fields, row
dicts); the package's own caches are never read or cleared.
"""

import json
import sys
from collections import Counter
from time import perf_counter_ns

MODULES = (
    "fwburnside",
    "fwburnside.groups",
    "fwburnside.lattice",
    "fwburnside.burnside",
    "fwburnside.fw",
    "fwburnside.survey",
    "fwburnside.cli",
)

# public function -> span name (a callable picks the name per call)
SPAN_NAMES = {
    "construct_group": "groups.construct",
    "quotient_group": "groups.quotient",
    "subgroup_embedding": "groups.embedding",
    "subgroup_lattice": None,  # lattice.build or lattice.hit, see _lattice_name
    "check_gcd_property": "lattice.gcd",
    "table_of_marks": "burnside.marks",
    "idempotent": "burnside.idempotent",
    "fw_context": "fw.context",
    "fw_apply": "fw.apply",
    "check_commutes": None,  # fw.check_<op>
    "check_m_equality": "fw.m_equality",
    "survey_rows": "survey.rows",
}

COUNT_KEYS = (
    "lattice.subgroups",
    "lattice.classes",
    "fw.checks",
    "fw.checked_idempotents",
    "fw.commutes",
    "survey.rows",
    "survey.error_rows",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._seen_groups = {}  # id -> Group, held so ids are not reused
        self._installed = []  # (module, attribute, original)

    def install(self):
        wrappers = {}
        for modname in MODULES:
            module = sys.modules.get(modname)
            if module is None:
                continue
            for attr in SPAN_NAMES:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(attr, fn)
                self._installed.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _wrap(self, attr, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        fixed = SPAN_NAMES[attr]
        namer = {"subgroup_lattice": self._lattice_name, "check_commutes": _check_name}.get(attr)
        after = {
            "subgroup_lattice": self._after_lattice,
            "check_commutes": _after_check,
            "survey_rows": _after_survey,
        }.get(attr)

        def wrapper(*args, **kwargs):
            name = namer(args, kwargs) if namer else fixed
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)
            if after is not None:
                after(counts, name, result)
            return result

        return wrapper

    def _lattice_name(self, args, kwargs):
        G = args[0] if args else kwargs["G"]
        if id(G) in self._seen_groups:
            return "lattice.hit"
        self._seen_groups[id(G)] = G
        return "lattice.build"

    @staticmethod
    def _after_lattice(counts, name, lat):
        if name == "lattice.build":
            counts["lattice.subgroups"] += len(lat.subgroups)
            counts["lattice.classes"] += lat.n_classes()

    def self_times(self):
        """Span name -> (calls, self seconds)."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_ns = Counter(), Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child[i]
        return {name: (calls[name], self_ns[name] / 1e9) for name in calls}

    def layer_metrics(self):
        st = self.self_times()

        def secs(name):
            return st.get(name, (0, 0.0))[1]

        def calls(name):
            return st.get(name, (0, 0.0))[0]

        builds = calls("lattice.build")
        lattice_calls = builds + calls("lattice.hit")
        m = {
            "groups.construct_s": secs("groups.construct"),
            "groups.construct_calls": calls("groups.construct"),
            "groups.quotient_s": secs("groups.quotient"),
            "groups.quotient_calls": calls("groups.quotient"),
            "groups.embedding_s": secs("groups.embedding"),
            "lattice.build_s": secs("lattice.build"),
            "lattice.builds": builds,
            "lattice.calls": lattice_calls,
            "lattice.hit_ratio": (lattice_calls - builds) / lattice_calls if lattice_calls else 0.0,
            "lattice.gcd_s": secs("lattice.gcd"),
            "burnside.marks_s": secs("burnside.marks"),
            "burnside.idempotent_s": secs("burnside.idempotent"),
            "burnside.idempotent_calls": calls("burnside.idempotent"),
            "fw.context_s": secs("fw.context"),
            "fw.apply_s": secs("fw.apply"),
            "fw.apply_calls": calls("fw.apply"),
            "fw.m_equality_s": secs("fw.m_equality"),
            "survey.self_s": secs("survey.rows"),
        }
        for op in ("inf", "ind", "ten", "def"):
            m[f"fw.check_{op}_s"] = secs(f"fw.check_{op}")
        for key in COUNT_KEYS:
            m[key] = self.counts[key]
        return m

    def write(self, path, **extra):
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    **extra,
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "names": names,
                    "spans": [[code[n], s, e, p] for n, s, e, p in self.spans],
                },
                f,
                separators=(",", ":"),
            )


def _check_name(args, kwargs):
    op = args[1] if len(args) > 1 else kwargs.get("op")
    return f"fw.check_{op}"


def _after_check(counts, name, report):
    counts["fw.checks"] += 1
    counts["fw.checked_idempotents"] += report.checked
    counts["fw.commutes"] += bool(report.commutes)


def _after_survey(counts, name, rows):
    counts["survey.rows"] += len(rows)
    counts["survey.error_rows"] += sum(1 for r in rows if r["error"])
