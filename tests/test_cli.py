import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from fwburnside import (
    OPERATIONS,
    SURVEY_COLUMNS,
    BurnsideElement,
    SurveyConfig,
    construct_group,
    deflate,
    element_to_json,
    fixed_points,
    format_rational,
    idempotent,
    induce,
    inflate,
    operation,
    quotient_group,
    restrict,
    subgroup_embedding,
    subgroup_lattice,
    survey_rows,
    table_of_marks,
    tensor_induce,
    write_survey_csv,
)
import fwburnside.fw
import fwburnside.groups
from fwburnside import cli
from fwburnside.cli import build_parser, main, resolve_selector


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_json_shape(capsys):
    code, out, err = run_cli(capsys, "group", "S3")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload == {
        "spec": "S3",
        "label": "S3",
        "order": 6,
        "abelian": False,
        "exponent": 6,
        "center_order": 1,
        "element_order_counts": {"1": 1, "2": 3, "3": 2},
    }


def test_lattice_json(capsys):
    code, out, _ = run_cli(capsys, "lattice", "Q8")
    assert code == 0
    payload = json.loads(out)
    assert payload["subgroup_count"] == 6
    assert payload["class_count"] == 6
    assert payload["frattini"] == "2:0"
    assert payload["max_cyclic_intersection"] == "2:0"
    assert [c["label"] for c in payload["classes"]] == [
        "1:0", "2:0", "4:0", "4:1", "4:2", "8:0",
    ]


def test_marks_table_s3(capsys):
    code, out, _ = run_cli(capsys, "marks", "S3", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["class", "1:0", "2:0", "3:0", "6:0"]
    assert lines[1].split() == ["1:0", "6", "0", "0", "0"]
    assert lines[4].split() == ["6:0", "1", "1", "1", "1"]


def test_marks_csv(capsys):
    code, out, _ = run_cli(capsys, "marks", "C6", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "class,1:0,2:0,3:0,6:0"


def test_idempotents_resolve(capsys):
    code, out, _ = run_cli(capsys, "idempotents", "S3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["idempotents"]) == 4


def test_mconst(capsys):
    code, out, _ = run_cli(capsys, "mconst", "Q8", "order=8:0", "center")
    assert code == 0
    assert json.loads(out)["m"] == "1/1"


def test_op_inflate_then_deflate_roundtrip(capsys):
    elem = json.dumps([["2:0", "3/2"], ["1:0", "-1/1"]])
    code, out, _ = run_cli(capsys, "op", "inf", "Q8", "center", elem)
    assert code == 0
    inflated = json.dumps(json.loads(out)["element"])
    code, out, _ = run_cli(capsys, "op", "def", "Q8", "center", inflated)
    assert code == 0
    assert json.loads(out)["element"] == [["1:0", "-1/1"], ["2:0", "3/2"]]


def test_op_selectors(capsys):
    # all four selectors resolve to the center of Q8
    for sel in ("center", "frattini", "maxcyc", "order=2:0"):
        code, out, _ = run_cli(capsys, "op", "fix", "Q8", sel, "[]")
        assert code == 0
        assert json.loads(out)["group"] == "Q8/2@0"


def test_fw_apply_identity(capsys):
    code, out, _ = run_cli(capsys, "fw", "apply", "Q8", '[["8:0", "1/1"]]')
    assert code == 0
    payload = json.loads(out)
    assert payload["source"] == "C8"
    assert payload["element"] == [["8:0", "1/1"]]


def test_fw_check_commuting(capsys):
    code, out, _ = run_cli(capsys, "fw", "check", "Q8", "--op", "def", "--sub", "center")
    assert code == 0
    payload = json.loads(out)
    assert payload["commutes"] is True
    assert payload["certificate"] is None


# commuting squares of all six operations: group, op, selector, the
# subgroup's label and the number of divisors reported checked
COMMUTING_CHECKS = [
    ("S4", "res", "order=6:0", "6:0", 8),
    ("Dic20", "ind", "center", "2:0", 2),
    ("Dic20", "ten", "center", "2:0", 2),
    ("Q8", "inf", "center", "2:0", 3),
    ("Q8", "def", "center", "2:0", 4),
    ("S4", "def", "order=1:0", "1:0", 8),
    ("C12", "def", "order=3:0", "3:0", 6),
    ("D12", "fix", "center", "2:0", 6),
]


@pytest.mark.parametrize("spec, op, selector, label, checked", COMMUTING_CHECKS)
def test_commuting_fw_check_builds_no_cyclic_group(capsys, monkeypatch, spec, op, selector,
                                                  label, checked):
    # the verdict needs only G's lattice: a commuting request never builds
    # the cyclic group of G's order, and prints the walk's report
    def refuse(n):
        raise AssertionError(f"built the cyclic group of order {n}")

    monkeypatch.setattr(fwburnside.groups, "_GROUP_CACHE", {})
    monkeypatch.setattr(fwburnside.fw, "cyclic_group", refuse)
    monkeypatch.setattr(cli, "cyclic_group", refuse, raising=False)
    code, out, err = run_cli(capsys, "fw", "check", spec, "--op", op, "--sub", selector)
    assert (code, err) == (0, "")
    assert out == (
        f'{{\n  "group": "{spec}",\n  "op": "{op}",\n  "sub": "{label}",\n'
        f'  "commutes": true,\n  "checked": {checked},\n  "certificate": null\n}}\n'
    )


def test_fw_check_counterexample(capsys):
    code, out, _ = run_cli(
        capsys, "fw", "check", "C2xC2", "--op", "def", "--sub", "order=2:0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["commutes"] is False
    assert payload["certificate"]["basis"] == "e[2]"
    assert payload["certificate"]["left"] == "-1/4[C2/1:0] + [C2/2:0]"
    assert payload["certificate"]["right"] == "1/4[C2/1:0]"


def test_fw_survey_default_catalog_row(capsys, tmp_path):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("C2xC2\n# a comment\n\nQ8\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "fw", "survey", "--catalog", str(catalog))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("group,order,subgroup,sub_order,gcd")
    assert "C2xC2,4,order=2:0,2,false,true,true,false,false,false,false,false," in lines
    assert "Q8,8,order=2:0,2,true,true,true,true,true,true,true,true," in lines


def test_outputs_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "marks", "S4")
    _, second, _ = run_cli(capsys, "marks", "S4")
    assert first == second
    _, s1, _ = run_cli(capsys, "fw", "survey", "--catalog", "/dev/null")
    _, s2, _ = run_cli(capsys, "fw", "survey", "--catalog", "/dev/null")
    assert s1 == s2


# -- byte identity with the one-string rendering --------------------------------
#
# The CLI writes its output in pieces; these references build each output as
# one string, from the engine and the dense Fraction coefficients, and the
# pieces must join to exactly the same text.


def _ref_dump(obj):
    return json.dumps(obj, indent=2) + "\n"


def _ref_table(headers, rows):
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def _ref_lattice(lat, fmt):
    G = lat.group
    classes = [
        {
            "label": lat.class_label(c),
            "order": lat.class_rep(c).order,
            "class_size": len(lat.classes[c]),
            "normalizer_index": G.n // lat.normalizer(lat.class_rep(c)).order,
        }
        for c in range(lat.n_classes())
    ]
    if fmt == "table":
        headers = ("label", "order", "class_size", "normalizer_index")
        return _ref_table(headers, [tuple(str(c[h]) for h in headers) for c in classes])
    return _ref_dump(
        {
            "group": G.label,
            "order": G.n,
            "subgroup_count": len(lat.subgroups),
            "class_count": lat.n_classes(),
            "classes": classes,
            "frattini": lat.class_label_of(lat.frattini()),
            "max_cyclic_intersection": lat.class_label_of(G.max_cyclic_intersection()),
        }
    )


def _ref_marks(lat, fmt):
    tom = table_of_marks(lat)
    labels = [lat.class_label(c) for c in range(lat.n_classes())]
    if fmt == "table":
        rows = [(labels[i], *(str(v) for v in row)) for i, row in enumerate(tom)]
        return _ref_table(("class", *labels), rows)
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("class," + ",".join(labels) + "\n")
        for i, row in enumerate(tom):
            buf.write(labels[i] + "," + ",".join(str(v) for v in row) + "\n")
        return buf.getvalue()
    return _ref_dump({"group": lat.group.label, "classes": labels, "table": [list(r) for r in tom]})


def _ref_idempotents(lat, fmt):
    items = [
        {
            "class": lat.class_label(c),
            "coefficients": [
                [lat.class_label(k), format_rational(coef)]
                for k, coef in enumerate(idempotent(lat, c).coeffs)
                if coef != 0
            ],
        }
        for c in range(lat.n_classes())
    ]
    return _ref_dump({"group": lat.group.label, "idempotents": items})


_REFERENCES = {"lattice": _ref_lattice, "marks": _ref_marks, "idempotents": _ref_idempotents}


@pytest.mark.parametrize(
    "spec", ["S3", "S4", "Q8", "A4", "D8", "C2xQ8", "C2xS4", "SL(2,3)", "C2xC2xC2xC2xC2"]
)
@pytest.mark.parametrize(
    "verb, fmt",
    [("lattice", "json"), ("lattice", "table"), ("marks", "json"), ("marks", "csv"),
     ("marks", "table"), ("idempotents", "json")],
)
def test_output_matches_one_string_rendering(capsys, spec, verb, fmt):
    code, out, err = run_cli(capsys, verb, spec, "--format", fmt)
    assert code == 0 and err == ""
    lat = subgroup_lattice(construct_group(spec))
    assert out == _REFERENCES[verb](lat, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_survey_matches_one_string_rendering(capsys, tmp_path, fmt):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("S3\nQ8\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "fw", "survey", "--catalog", str(catalog), "--format", fmt)
    assert code == 0 and err == ""
    rows = survey_rows(SurveyConfig(specs=("S3", "Q8")))
    if fmt == "csv":
        buf = io.StringIO()
        write_survey_csv(rows, buf)
        expected = buf.getvalue()
    elif fmt == "json":
        expected = _ref_dump({"rows": rows})
    else:
        expected = _ref_table(tuple(rows[0].keys()), [tuple(r.values()) for r in rows])
    assert out == expected


def test_empty_survey_table_prints_the_header(capsys, tmp_path):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("# no groups\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "fw", "survey", "--catalog", str(catalog), "--format", "table")
    assert code == 0
    assert out == "  ".join(SURVEY_COLUMNS) + "\n"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["marks", "C2xC2xC2xC2xC2xC2xC2"], 2),  # above the subgroup budget
        (["idempotents", "D7"], 1),
        (["op", "def", "S4", "order=2:0", "[]"], 2),  # kernel not normal
    ],
)
def test_failed_request_writes_nothing(capsys, tmp_path, argv, expected):
    # every handler finishes its algebra before the first piece is written
    target = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == expected and out == ""
    assert len(err.splitlines()) == 1
    assert not target.exists()


def test_reader_closing_early_ends_quietly():
    # `fwburnside marks ... | head`: the output (1.3 MB) outgrows the pipe,
    # so the writes after the reader closes fail with EPIPE
    child = subprocess.Popen(
        [sys.executable, "-m", "fwburnside.cli", "marks", "C2xC2xC2xC2xC2", "--format", "table"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert child.stdout.read(5) == b"class"
    child.stdout.close()
    assert child.wait(timeout=60) == 0
    assert child.stderr.read() == b""
    child.stderr.close()


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "group", "C6", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["order"] == 6


def test_element_from_file(capsys, tmp_path):
    path = tmp_path / "elem.json"
    path.write_text('[["4:0", "2/1"]]', encoding="utf-8")
    code, out, _ = run_cli(capsys, "fw", "apply", "C12", str(path))
    assert code == 0
    assert json.loads(out)["element"] == [["4:0", "2/1"]]


def test_exit_code_parse_errors(capsys):
    assert run_cli(capsys, "group", "Zork")[0] == 1
    assert run_cli(capsys, "group", "C0")[0] == 1
    assert run_cli(capsys, "op", "res", "S3", "nonsense", "[]")[0] == 1
    assert run_cli(capsys, "fw", "apply", "S3", "[broken json")[0] == 1
    assert run_cli(capsys, "fw", "apply", "S3", "/no/such/file.json")[0] == 1


@pytest.mark.parametrize(
    "element",
    ['[["2:0", "1/0"]]', '[["2:0", "abc"]]', '[["2:0", 1.5]]', '[["2:0", "1/2/3"]]',
     '[["2:0", "1_0"]]', '[["2:0", "\u0661/2"]]'],
)
def test_bad_rational_exits_one_line(capsys, element):
    code, out, err = run_cli(capsys, "fw", "apply", "Q8", element)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "malformed rational" in err


def _contract(argv):
    """Run the CLI in-process and check the exit-code contract for input
    errors: exit 0, 1 or 2, at most one line on stderr, no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()
    return code


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "C1" + "0" * 5000],
        ["group", "SL(2," + "7" * 5000 + ")"],
        ["group", "perm:[(1," + "2" * 5000 + ")]"],
        ["group", "perm:[(1,\u00b2)]"],
        ["group", "C\u0663"],
        ["fw", "apply", "Q8", '[["2:0", "1' + "0" * 5000 + '"]]'],
        ["fw", "apply", "Q8", '[["2:0", 1' + "0" * 5000 + "]]"],
        ["fw", "apply", "Q8", "[" * 100000],
    ],
)
def test_malformed_numbers_and_nesting_exit_one(argv):
    assert _contract(argv) == 1


@pytest.mark.parametrize(
    "argv",
    [["group", "C6", "--out"], ["fw", "survey", "--out"]],
)
def test_unwritable_out_path_exits_one(tmp_path, capsys, argv):
    path = str(tmp_path / "missing" / "x")
    assert _contract(argv + [path]) == 1
    code, out, err = run_cli(capsys, *argv, path)
    assert code == 1 and out == ""
    assert err.startswith(f"usage error: cannot write output file {path!r}: ")


@pytest.mark.parametrize("flag", ["--cap", "--max-subgroups"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_cap_and_budget_below_one_are_usage_errors(capsys, flag, value):
    assert _contract(["lattice", "S4", flag, value]) == 1
    code, out, err = run_cli(capsys, "lattice", "S4", flag, value)
    assert code == 1 and out == ""
    assert err == f"usage error: argument {flag}: must be at least 1, not {value}\n"


@pytest.mark.parametrize(
    "argv, what",
    [(["fw", "survey", "--catalog"], "catalog"), (["fw", "apply", "Q8"], "element file")],
)
def test_undecodable_user_file_exits_one(tmp_path, capsys, argv, what):
    path = tmp_path / "not-utf8"
    path.write_bytes(b"S3\n\xff\xfe\n")
    assert _contract(argv + [str(path)]) == 1
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"parse error: cannot read {what} {str(path)!r}: 'utf-8' codec")


def test_perm_degree_is_bounded_by_named_points():
    assert _contract(["group", "perm:[(1,100000000)]", "--cap", "16"]) == 0


_small_int = st.integers(min_value=0, max_value=40).map(str)
_cycle = st.lists(st.integers(min_value=0, max_value=9).map(str), min_size=1, max_size=4)
_atom = st.one_of(
    st.tuples(st.sampled_from(["C", "D", "Q", "Dic", "S", "A"]), _small_int).map("".join),
    st.tuples(_small_int, _small_int).map(lambda t: f"SL({t[0]},{t[1]})"),
    st.lists(st.lists(_cycle, min_size=1, max_size=2), min_size=1, max_size=3).map(
        lambda gens: "perm:["
        + ";".join("".join("(" + ",".join(c) + ")" for c in g) for g in gens)
        + "]"
    ),
)
# free text stays under 13 characters, too short to name a permutation
# point above 999, so no draw asks for a large table
_spec = st.one_of(
    st.lists(_atom, min_size=1, max_size=3).map("x".join),
    st.text(alphabet="CDQSAicLxperm:()[],;0123456789 -\u00b2\u0663", max_size=12),
)


@settings(max_examples=200, deadline=None)
@given(_spec)
def test_fuzz_group_spec(spec):
    _contract(["group", spec, "--cap", "16"])


_scalar = st.one_of(
    st.tuples(st.integers(-9, 9), st.integers(-3, 4)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
)
_label = st.one_of(
    st.tuples(st.integers(0, 16), st.integers(0, 2)).map(lambda t: f"{t[0]}:{t[1]}"),
    _scalar,
)
_entry = st.one_of(st.tuples(_label, _scalar).map(list), st.lists(_scalar, max_size=3), _scalar)
# every draw starts with "[", so it is read as inline JSON and never as a path
_element = st.one_of(
    st.lists(_entry, max_size=4).map(json.dumps),
    st.text(max_size=20).map(lambda t: "[" + t),
)


@settings(max_examples=200, deadline=None)
@given(_element)
def test_fuzz_element_json(element):
    _contract(["fw", "apply", "Q8", element])


@pytest.mark.parametrize("selector", ["order=\u0662:0", "order=2:0\n"])
def test_selector_needs_ascii_digits_and_nothing_after(capsys, selector):
    code, out, err = run_cli(capsys, "fw", "check", "Q8", "--op", "def", "--sub", selector)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "unknown subgroup selector" in err


_OP_FUNCTIONS = {
    "res": restrict,
    "ind": induce,
    "ten": tensor_induce,
    "inf": inflate,
    "def": deflate,
    "fix": fixed_points,
}


@pytest.mark.parametrize("spec", ["Q8", "D8", "S4"])
def test_op_matches_operation_table(capsys, spec):
    # every operation at the center and at every class, through the CLI and
    # through operation(); quotient operations need a normal subgroup
    G = construct_group(spec)
    lat = subgroup_lattice(G)
    selectors = ["center"] + [f"order={lat.class_label(c)}" for c in range(lat.n_classes())]
    for selector in selectors:
        sub = resolve_selector(G, selector)
        for op in OPERATIONS:
            along_quotient = op in ("inf", "def", "fix")
            if along_quotient and not sub.is_normal():
                assert run_cli(capsys, "op", op, spec, selector, "[]")[0] == 2
                continue
            fn, f, src, dst = operation(op, sub)
            assert fn is _OP_FUNCTIONS[op]
            assert f is (quotient_group(G, sub) if along_quotient else subgroup_embedding(sub))
            pull = op in ("res", "inf")
            assert (src, dst) == ((f.target, f.source) if pull else (f.source, f.target))
            n = subgroup_lattice(src).n_classes()
            x = BurnsideElement(src, [Fraction((-1) ** c * (c + 1), c + 2) for c in range(n)])
            code, out, err = run_cli(
                capsys, "op", op, spec, selector, json.dumps(element_to_json(x))
            )
            assert code == 0 and err == ""
            assert json.loads(out) == {
                "group": dst.label,
                "operation": op,
                "element": element_to_json(fn(x, f)),
            }


def test_exit_code_usage_errors(capsys):
    assert run_cli(capsys, "lattice")[0] == 1
    assert run_cli(capsys, "marks", "S3", "--format", "bogus")[0] == 1
    assert run_cli(capsys, "group", "S3", "--format", "csv")[0] == 1
    # an unsupported --format is refused while parsing, before any group is
    # built: otherwise these exit 2, at the order cap, at the non-normal
    # kernel, and at the subgroup budget after enumerating up to it
    for argv in (
        ["group", "C1024", "--format", "csv"],
        ["fw", "check", "S4", "--op", "def", "--sub", "order=2:0", "--format", "csv"],
        ["lattice", "C2xC2xC2xC2xC2xC2xC2", "--format", "csv"],
    ):
        start = perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert perf_counter() - start < 1
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: argument --format: invalid choice: 'csv'")


def test_exit_code_preconditions(capsys):
    assert run_cli(capsys, "group", "C600")[0] == 2
    assert run_cli(capsys, "op", "def", "S4", "order=2:0", "[]")[0] == 2
    assert run_cli(capsys, "mconst", "S3", "order=6:0", "order=2:0")[0] == 2
    assert run_cli(capsys, "lattice", "S3", "--cap", "4")[0] == 2
    assert run_cli(capsys, "op", "res", "S3", "order=4:0", "[]")[0] == 2


@pytest.mark.parametrize("op", ("inf", "def", "fix"))
@pytest.mark.parametrize("order", (2, 3))
def test_fw_check_non_normal_kernel_exits_two(capsys, op, order):
    # the quotient is realized before any verdict, so the request fails as
    # the walk fails, with one line on stderr
    code, out, err = run_cli(capsys, "fw", "check", "S4", "--op", op, "--sub", f"order={order}:0")
    assert (code, out) == (2, "")
    assert err == f"precondition failed: subgroup of order {order} is not normal in S4\n"


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "fw", "--help")[0] == 0


@pytest.mark.parametrize(
    "verb",
    [["group"], ["lattice"], ["marks"], ["idempotents"], ["mconst"], ["op"],
     ["fw", "apply"], ["fw", "check"], ["fw", "survey"]],
)
def test_verb_help_exits_zero(capsys, verb):
    code, out, err = run_cli(capsys, *verb, "--help")
    assert code == 0 and err == ""
    assert out.startswith(f"usage: fwburnside {' '.join(verb)} ")


_VERB_WORDS = [["group"], ["lattice"], ["marks"], ["idempotents"], ["mconst"], ["op"],
               ["fw"], ["fw", "apply"], ["fw", "check"], ["fw", "survey"]]


@pytest.mark.parametrize(
    "argv",
    [["--help"]]
    + [[*words, "--help"] for words in _VERB_WORDS]
    + [
        [], ["fw"], ["bogus"], ["fw", "bogus"], ["-h", "group"], ["--cap", "5", "group", "S4"],
        ["lattice"], ["mconst", "S3", "center"], ["fw", "check", "Q8", "--op", "def"],
        ["op", "bogus", "S4", "center", "[]"],
        ["fw", "check", "Q8", "--op", "bogus", "--sub", "center"],
        ["group", "S3", "--format", "csv"], ["fw", "survey", "--format", "bogus"],
        ["group", "S4", "--cap", "0"], ["fw", "apply", "Q8", "[]", "--cap", "0"],
        ["group", "S4", "extra"], ["group", "S4"],
        ["fw", "check", "Q8", "--op", "def", "--sub", "center"],
    ],
)
def test_request_parser_matches_full_parser(capsys, monkeypatch, argv):
    scoped = run_cli(capsys, *argv)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=(): full_parser())
    assert run_cli(capsys, *argv) == scoped


def test_request_parser_holds_one_verb():
    every = "{group,lattice,marks,idempotents,mconst,op,fw}"
    assert build_parser().format_usage() == f"usage: fwburnside [-h] {every} ...\n"
    assert build_parser(["bogus"]).format_usage() == build_parser().format_usage()
    assert build_parser(["group", "S4"]).format_usage() == "usage: fwburnside [-h] {group} ...\n"
    assert build_parser(["fw", "check"]).format_usage() == "usage: fwburnside [-h] {fw} ...\n"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fwburnside.cli", "group", "C4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 4


def test_import_does_not_load_numpy():
    # neither numpy nor the test-only oracles and propositions load with the package
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, fwburnside, fwburnside.cli;"
            " print('numpy' in sys.modules, 'fwburnside.oracles' in sys.modules,"
            " 'fwburnside.propositions' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False False False"


def _modules_loaded_by(code):
    """sys.modules after running code in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "import sys; print(' '.join(sys.modules))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_does_not_load_dataclasses_or_inspect():
    # every CLI request imports the package cold, and dataclasses pulls in
    # inspect, ast, dis and tokenize; compared against a bare interpreter,
    # since site may preload modules
    added = _modules_loaded_by("import fwburnside, fwburnside.cli;") - _modules_loaded_by("")
    assert "fwburnside.cli" in added
    assert not added & {"dataclasses", "inspect"}


# made or used only by requests that need them: a Fraction, the survey CSV
RARE_MODULES = {"fractions", "decimal", "csv"}


def _imported_by(*args):
    """The modules `python -X importtime ARGS` imports that a bare
    interpreter does not, read from the import-time report on stderr."""

    def imported(args):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *args], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return {
            line.rpartition("|")[2].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }

    return imported(args) - imported(["-c", "pass"])


def test_import_does_not_load_fractions_or_csv():
    added = _modules_loaded_by("import fwburnside;") - _modules_loaded_by("")
    assert "fwburnside.survey" in added
    assert not added & RARE_MODULES


def test_basis_elements_do_not_load_fractions():
    # [G/H] is built from integer coefficients, with no Fraction
    code = (
        "from fwburnside import basis_element, construct_group, identity_element;"
        "G = construct_group('C2xS4'); [basis_element(G, c) for c in range(5)];"
        "identity_element(G);"
    )
    assert not _modules_loaded_by(code) & RARE_MODULES


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "S4"],
        ["lattice", "D8"],
        ["marks", "A4", "--format", "csv"],
        ["idempotents", "Q8"],
        ["op", "ind", "Q8", "center", '[["1:0","1/1"]]'],
        ["fw", "apply", "Q8", '[["2:0","1/1"]]'],
        ["fw", "check", "Q8", "--op", "def", "--sub", "center"],
    ],
)
def test_request_does_not_load_fractions_or_csv(argv):
    # under -m the cli runs as __main__, so the report names only its imports
    added = _imported_by("-m", "fwburnside.cli", *argv)
    assert {"argparse", "fwburnside.burnside"} <= added
    assert not added & RARE_MODULES


def test_propositions_and_oracles_do_not_load_dataclasses_or_inspect():
    # the records of propositions and oracles are named tuples as well
    code = "import fwburnside.propositions, fwburnside.oracles;"
    added = _modules_loaded_by(code) - _modules_loaded_by("")
    assert {"fwburnside.propositions", "fwburnside.oracles"} <= added
    assert not added & {"dataclasses", "inspect"}


@pytest.mark.parametrize("k", [7, 9])
def test_subgroup_budget_stops_elementary_abelian_groups(k):
    # C2^7 has 29,212 subgroups and takes about 2-3 s to enumerate
    # unbounded (test_lattice builds it so); the default budget of 10,000
    # stops it, and C2^9, in about 0.15 s on a 2-vCPU machine, so 5 s
    # leaves room for slower hosts
    spec = "x".join(["C2"] * k)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["lattice", spec])
    assert perf_counter() - start < 5
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue() == (
        f"precondition failed: {spec} has more than 10000 subgroups, above the subgroup budget\n"
    )


def test_max_subgroups_flag(tmp_path):
    # in a fresh process, so that no cached lattice answers
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "fwburnside.cli", *argv], capture_output=True, text=True
        )

    message = "S4 has more than 29 subgroups, above the subgroup budget"
    refused = run("lattice", "S4", "--max-subgroups", "29")
    built = run("lattice", "S4", "--max-subgroups", "30")
    assert refused.returncode == 2 and refused.stdout == ""
    assert refused.stderr.splitlines() == [f"precondition failed: {message}"]
    assert built.returncode == 0 and json.loads(built.stdout)["subgroup_count"] == 30
    # the survey records the refusal in the group's row and goes on
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("S4\nC2\n")
    survey = run("fw", "survey", "--catalog", str(catalog), "--max-subgroups", "29")
    rows = survey.stdout.splitlines()
    assert survey.returncode == 0 and len(rows) == 4
    assert rows[1].startswith("S4,24,") and rows[1].endswith(f'"{message}"')
    assert rows[2].startswith("C2,2,") and rows[3].startswith("C2,2,")
