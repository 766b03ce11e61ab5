"""The survey's CSV at reach scale, pinned byte for byte."""

import hashlib
import io

import pytest

import fwburnside.burnside
import fwburnside.fw
import fwburnside.groups
import fwburnside.survey
from fwburnside import (
    SubgroupLattice,
    SurveyConfig,
    survey_rows,
    write_survey_csv,
)

# md5 of write_survey_csv for each group alone, header included; CI pins
# the slower C2xD8xS3, C2xS4xS3 and S4xS4 the same way
REACH_SURVEY_MD5 = (
    ("C4xC4xC4", "cabb1589ad0b3b6d095bc2cf9d7f1fb9"),
    ("D512", "95aafd1cfca5befd7da801ce98a51116"),
    ("C2xC2xC2xC2xC2", "556363ef9ab62420043d2e7c911c4c6a"),
)


@pytest.mark.parametrize("spec, md5", REACH_SURVEY_MD5)
def test_reach_survey_csv_is_pinned(spec, md5):
    buf = io.StringIO()
    write_survey_csv(survey_rows(SurveyConfig(specs=(spec,))), buf)
    assert hashlib.md5(buf.getvalue().encode()).hexdigest() == md5


def test_survey_never_reads_the_dense_table_of_marks(monkeypatch):
    specs = ("S4", "C2xQ8", "SL(2,3)xC2")
    expected = survey_rows(SurveyConfig(specs=specs))

    def refuse(lat):
        raise RuntimeError("the dense table of marks is for output only")

    # fresh groups, so that no lattice built earlier holds a table already
    monkeypatch.setattr(fwburnside.groups, "_GROUP_CACHE", {})
    monkeypatch.setattr(fwburnside.burnside, "table_of_marks", refuse)
    rows = survey_rows(SurveyConfig(specs=specs))
    assert rows == expected and not any(r["error"] for r in rows)


def test_survey_builds_no_table_of_marks(monkeypatch):
    # every column is read off the containment map and the Moebius columns
    monkeypatch.setattr(fwburnside.groups, "_GROUP_CACHE", {})
    rows = survey_rows(SurveyConfig(specs=("C2xC2xC2xC2xC2", "S4", "SL(2,3)xC2")))
    assert not any(r["error"] for r in rows)
    lattices = [G._cache["lattice"] for G in fwburnside.groups._GROUP_CACHE.values()
                if "lattice" in G._cache]
    assert len(lattices) >= 3
    assert not any("marks" in lat._cache for lat in lattices)


def test_survey_decides_deflation_only_where_criterion_08_allows(monkeypatch):
    # a kernel along which deflation commutes has the gcd property and is
    # cyclic, central and m-equal, so no other row calls deflation_commutes
    real, calls = fwburnside.survey.deflation_commutes, []

    def counting(G, N):
        calls.append((G.label, N.order))
        return real(G, N)

    monkeypatch.setattr(fwburnside.survey, "deflation_commutes", counting)
    rows = survey_rows(SurveyConfig(specs=("C2xC2xC2xC2xC2", "C2xC2xC2xC2xC2xC2")))
    assert len(rows) == 374 + 2825 and not any(r["error"] for r in rows)
    gated = [
        (r["group"], int(r["sub_order"]))
        for r in rows
        if all(r[k] == "true" for k in ("gcd", "cyclic", "central", "m_equal"))
    ]
    assert calls == gated and len(calls) < 10


GATE_SPECS = ("C2xC2xC2xC2xC2", "S4", "C2xS4", "SL(2,3)xC2")


def test_survey_checks_m_equality_only_at_cyclic_kernels(monkeypatch):
    # P. Hall's Eulerian identity: the m-sum at T = N counts the x in N
    # with <x> = N, so a non-cyclic N fails m-equality at its own class
    real, calls = fwburnside.survey.check_m_equality, []

    def counting(G, N):
        calls.append(N.is_cyclic())
        return real(G, N)

    monkeypatch.setattr(fwburnside.survey, "check_m_equality", counting)
    rows = survey_rows(SurveyConfig(specs=GATE_SPECS))
    assert not any(r["error"] for r in rows)
    assert all(calls)
    assert len(calls) == sum(r["cyclic"] == "true" for r in rows) < len(rows)


def test_survey_decides_deflation_at_the_trivial_kernel_at_once(monkeypatch):
    # deflation along G -> G/1 is the identity, so deflation_commutes reads
    # no m-sum and no containment row for the trivial kernel
    reads, trivial = [], []
    real_m_sum, real_above = fwburnside.fw.m_sum, SubgroupLattice.above
    real_def = fwburnside.survey.deflation_commutes

    def m_sum(*args):
        reads.append("m_sum")
        return real_m_sum(*args)

    def above(self, kmask):
        reads.append("above")
        return real_above(self, kmask)

    def deflation_commutes(G, N):
        before = len(reads)
        result = real_def(G, N)
        if N.order == 1:
            trivial.append((G.label, result, reads[before:]))
        return result

    monkeypatch.setattr(fwburnside.fw, "m_sum", m_sum)
    monkeypatch.setattr(SubgroupLattice, "above", above)
    monkeypatch.setattr(fwburnside.survey, "deflation_commutes", deflation_commutes)
    rows = survey_rows(SurveyConfig(specs=GATE_SPECS))
    assert not any(r["error"] for r in rows)
    assert trivial == [(spec, True, []) for spec in GATE_SPECS]


def _map_keys(G):
    return {k for k in G._cache if isinstance(k, tuple) and k[0] in ("quotient", "embedding")}


def test_survey_realizes_no_quotient_of_a_noncyclic_group(monkeypatch):
    # every column is decided inside G's lattice and table of marks, and
    # deflation's cyclic route is a closed form, so the survey realizes no
    # quotient and no subgroup of any group, the shared cyclic ones included
    monkeypatch.setattr(fwburnside.groups, "_GROUP_CACHE", {})
    real, parents = fwburnside.groups.quotient_group, []

    def counting(G, N):
        parents.append(G)
        return real(G, N)

    for module in (fwburnside, fwburnside.groups, fwburnside.burnside):
        monkeypatch.setattr(module, "quotient_group", counting)
    rows = survey_rows(SurveyConfig(specs=("C2xC2xC2xC2xC2", "S4", "C12")))
    assert len(rows) == 374 + 4 + 6 and not any(r["error"] for r in rows)
    assert parents == []
    touched = list(fwburnside.groups._GROUP_CACHE.values())
    assert {"C2xC2xC2xC2xC2", "S4", "C12"} <= {G.label for G in touched}
    assert not any(_map_keys(G) for G in touched)


def test_survey_builds_no_idempotent_and_no_cyclic_group(monkeypatch):
    # every column is read off G's lattice, Moebius function and table of
    # marks, so no idempotent is summed and no C_|G| is built
    monkeypatch.setattr(fwburnside.groups, "_GROUP_CACHE", {})
    real, calls = fwburnside.burnside._idempotent_sum, []

    def counting(lat, classes):
        calls.append(lat.group.label)
        return real(lat, classes)

    for module in (fwburnside.burnside, fwburnside.fw):
        monkeypatch.setattr(module, "_idempotent_sum", counting)
    rows = survey_rows(SurveyConfig(specs=("C2xC2xC2xC2xC2", "S4", "C12")))
    assert len(rows) == 374 + 4 + 6 and not any(r["error"] for r in rows)
    assert calls == []
    assert not {"C32", "C24"} & set(fwburnside.groups._GROUP_CACHE)
