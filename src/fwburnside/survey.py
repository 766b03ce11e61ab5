"""Catalog survey: one row per (group, conjugacy class of normal subgroups)
recording the structural predicates next to the four commutativity outcomes.

Every column is read off G's subgroup lattice, its containment map and
its Moebius function. For a normal subgroup N, inf, ind and ten commute
exactly when N has the gcd property, so one test fills all three (and
the gcd column). Two columns are computed only where a theorem leaves
them open:
- m_equal is computed only for cyclic N. At T = N the m-sum is
  P. Hall's Eulerian sum over X <= N of |X| mu(X, N), the number of
  x in N with <x> = N (1936): phi(|N|) when N is cyclic and 0 otherwise,
  against phi(|N|) in the cyclic form. N's own class is the lowest above
  N, so check_m_equality reads it first, and a non-cyclic N fails there.
- commutes_def is computed only where N has the gcd property and is
  cyclic, central and m-equal, as deflation cannot commute elsewhere
  (criterion 08 of the paper). It is decided by fw.deflation_commutes,
  from Bouc's t(H, N) against the cyclic constant r.
No section, element, idempotent or table of marks of any group is
built, and neither is the cyclic group.

Rows never abort the run: a failing cell stores its error message in the
final column and leaves the unknown fields blank, so a survey over a large
catalog always produces a complete, deterministic table.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import AlgebraError
from .fw import check_m_equality, deflation_commutes
from .groups import DEFAULT_ORDER_CAP, construct_group
from .lattice import DEFAULT_SUBGROUP_BUDGET, check_gcd_property, subgroup_lattice

__all__ = ["SurveyConfig", "SURVEY_COLUMNS", "full_catalog", "survey_rows", "write_survey_csv"]

SURVEY_COLUMNS = (
    "group",
    "order",
    "subgroup",
    "sub_order",
    "gcd",
    "cyclic",
    "central",
    "m_equal",
    "commutes_inf",
    "commutes_ind",
    "commutes_ten",
    "commutes_def",
    "error",
)

_CATALOG = tuple(
    [f"C{n}" for n in range(1, 25)]
    + [
        "C2xC2",
        "C2xC4",
        "C2xC2xC2",
        "C3xC3",
        "S3",
        "S4",
        "A4",
        "A5",
        "D8",
        "D10",
        "D12",
        "Q8",
        "Q16",
        "Dic12",
        "Dic20",
        "SL(2,3)",
        "SL(2,5)",
    ]
)


def full_catalog():
    """Spec strings of the groups exercised by the acceptance suite."""
    return _CATALOG


SurveyConfig = namedtuple(
    "SurveyConfig",
    "specs cap max_subgroups",
    defaults=(DEFAULT_ORDER_CAP, DEFAULT_SUBGROUP_BUDGET),
)


def _bool(v):
    return "true" if v else "false"


def survey_rows(config):
    """One row dict per (group, normal subgroup class), in catalog order."""
    rows = []
    for spec in config.specs:
        order = ""  # known once the group is built, even if its lattice is refused
        try:
            G = construct_group(spec, cap=config.cap)
            order = str(G.n)
            lat = subgroup_lattice(G, max_subgroups=config.max_subgroups)
            normal_classes = lat.normal_class_indices()
        except (AlgebraError, AssertionError) as exc:
            row = {col: "" for col in SURVEY_COLUMNS}
            row.update(group=spec, order=order, error=str(exc))
            rows.append(row)
            continue
        for c in normal_classes:
            N = lat.class_rep(c)
            row = {col: "" for col in SURVEY_COLUMNS}
            row["group"] = spec
            row["order"] = order
            row["subgroup"] = f"order={lat.class_label(c)}"
            row["sub_order"] = str(N.order)
            try:
                # Every operand of the walk is a lifted idempotent, whose
                # mark at K is [|K| = d], so both routes of inf, ind and
                # ten are read off subgroup orders (check_commutes is the
                # oracle), and each commutes iff N has the gcd property:
                # - inf: KN/N has order |K| / |K ∩ N|; in C it has order
                #   |K| / gcd(|K|, |N|).
                # - ten: the mark at K is 1 iff every conjugate K' of K has
                #   |K' ∩ N| = d; in C it is [gcd(|K|, |N|) = d].
                # - ind: the mark at K is [|K| = d] times the number of
                #   cosets of N that K fixes; in C it is [|K| = d] [G : N].
                #   They agree iff every K whose order divides |N| lies in
                #   N, the gcd property's form (ii).
                gcd = row["gcd"] = _bool(check_gcd_property(G, N))
                cyclic = N.is_cyclic()
                row["cyclic"] = _bool(cyclic)
                row["central"] = _bool(N.mask & G.center().mask == N.mask)
                # Hall's identity: m-equality fails at T = N unless N is cyclic
                row["m_equal"] = _bool(cyclic and check_m_equality(G, N))
                row["commutes_inf"] = row["commutes_ind"] = row["commutes_ten"] = gcd
                # criterion 08, proved in the paper: deflation along G -> G/N
                # commutes only if N has all four properties
                row["commutes_def"] = _bool(
                    all(row[k] == "true" for k in ("gcd", "cyclic", "central", "m_equal"))
                    and deflation_commutes(G, N)
                )
            except (AlgebraError, AssertionError) as exc:
                row["error"] = str(exc)
            rows.append(row)
    return rows


def write_survey_csv(rows, fp):
    import csv

    writer = csv.DictWriter(fp, fieldnames=SURVEY_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
