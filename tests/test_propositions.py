"""The paper's closed forms for deflation against the engine's two routes,
and the boundary between the engine and the modules only tests import."""

import ast
from pathlib import Path

from conftest import SURVEY_EXTRAS
from fwburnside import check_commutes, construct_group, full_catalog, fw_context, subgroup_lattice
from fwburnside.fw import _route_pairs
from fwburnside.lattice import divisors
from fwburnside.propositions import deflation_closed_forms

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fwburnside"
TEST_ONLY = {"oracles", "propositions"}


def test_deflation_closed_forms_on_every_square():
    # at every divisor d, deflate(lift(e[d])) is the sum of t(H, N) e_{HN/N}
    # over the classes of H of order d, and lift(deflate(e[d])) is r times the
    # idempotents of G/N at order d / gcd(d, |N|); check_commutes must report
    # the first divisor where the two differ
    squares = 0
    for spec in full_catalog() + SURVEY_EXTRAS:
        G = construct_group(spec)
        ctx = fw_context(G)
        lat = subgroup_lattice(G)
        for nc in lat.normal_class_indices():
            N = lat.class_rep(nc)
            first_mismatch = None
            for k, (d, (label, left, right)) in enumerate(
                zip(divisors(G.n), _route_pairs(ctx, "def", N)), 1
            ):
                assert label == f"e[{d}]"
                ambient, cyclic = deflation_closed_forms(ctx, N, d)
                assert left == ambient, (spec, lat.class_label(nc), d)
                assert right == cyclic, (spec, lat.class_label(nc), d)
                if first_mismatch is None and ambient != cyclic:
                    first_mismatch = k
                squares += 1
            assert k == len(divisors(G.n))
            report = check_commutes(ctx, "def", N)
            assert report.commutes == (first_mismatch is None)
            assert report.checked == (first_mismatch or k)
    assert squares == 2248


def _imported_modules(path):
    """Names of the fwburnside modules a source file imports, relative
    imports resolved against the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "fwburnside" + ("." + base if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return {n.split(".", 2)[1] for n in names if n.startswith("fwburnside.")}


def test_engine_never_imports_test_only_modules():
    engine = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem not in TEST_ONLY]
    assert {p.stem for p in engine} >= {"__init__", "groups", "lattice", "burnside", "fw", "cli"}
    for path in engine:
        assert not _imported_modules(path) & TEST_ONLY, path.name
    # the scan sees the test-only modules' own imports of the engine
    assert "fw" in _imported_modules(PACKAGE / "propositions.py")
