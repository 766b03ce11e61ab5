"""The paper's closed forms for deflation against the engine's two routes,
and the boundary between the engine and the modules only tests import."""

import ast
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from conftest import SURVEY_EXTRAS, perm_spec, small_perm, two_perms_of_5
from fwburnside import (
    basis_element,
    check_commutes,
    construct_group,
    deflate,
    full_catalog,
    idempotent,
    quotient_group,
    subgroup_lattice,
)
from fwburnside.fw import _route_pairs
from fwburnside.lattice import divisors
from fwburnside.oracles import coset_space, decompose_gset, deflate_gset
from fwburnside.propositions import deflate_idempotent, deflation_closed_forms

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
        lat = subgroup_lattice(G)
        for nc in lat.normal_class_indices():
            N = lat.class_rep(nc)
            first_mismatch = None
            for k, (d, (label, left, right)) in enumerate(
                zip(divisors(G.n), _route_pairs("def", N)), 1
            ):
                assert label == f"e[{d}]"
                ambient, cyclic = deflation_closed_forms(G, N, d)
                assert left == ambient, (spec, lat.class_label(nc), d)
                assert right == cyclic, (spec, lat.class_label(nc), d)
                if first_mismatch is None and ambient != cyclic:
                    first_mismatch = k
                squares += 1
            assert k == len(divisors(G.n))
            report = check_commutes(G, "def", N)
            assert report.commutes == (first_mismatch is None)
            assert report.checked == (first_mismatch or k)
    assert squares == 2248


def _assert_deflation_routes_agree(G):
    """Criterion 06 on one group. At every normal N and every class H,
    deflating the basis element of G/H equals the orbit space (G/H)/N
    decomposed, and deflating H's idempotent equals its closed form
    t(H, N) e_{HN/N}. At every divisor, both routes around the def square
    equal their closed forms."""
    lat = subgroup_lattice(G)
    for nc in lat.normal_class_indices():
        N = lat.class_rep(nc)
        qm = quotient_group(G, N)
        for c in range(lat.n_classes()):
            H = lat.class_rep(c)
            via_sets = decompose_gset(deflate_gset(coset_space(G, H), qm))
            assert deflate(basis_element(G, c), qm) == via_sets, (G.label, nc, c)
            by_closed_form = deflate_idempotent(lat, H, qm)
            assert by_closed_form == deflate(idempotent(lat, c), qm), (G.label, nc, c)
        for d, (_, left, right) in zip(divisors(G.n), _route_pairs("def", N)):
            assert (left, right) == deflation_closed_forms(G, N, d), (G.label, nc, d)


@given(st.lists(small_perm, min_size=2, max_size=3))
def test_random_perm_deflation_routes_agree(gens):
    _assert_deflation_routes_agree(construct_group(perm_spec(gens)))


@settings(max_examples=10)
@given(two_perms_of_5)
# S5 and A5, which no small_perm group reaches
@example(((1, 2, 3, 4, 0), (1, 0, 2, 3, 4)))
@example(((1, 2, 3, 4, 0), (1, 2, 0, 3, 4)))
def test_random_s5_subgroup_deflation_routes_agree(gens):
    _assert_deflation_routes_agree(construct_group(perm_spec(gens)))


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
