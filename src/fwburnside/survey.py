"""Catalog survey: one row per (group, conjugacy class of normal subgroups)
recording the structural predicates next to the four commutativity outcomes.

The inf, ind and ten outcomes are read off the orders in G's subgroup
lattice (fw.commutes_by_orders), with no section realized and no
idempotent built: for a normal subgroup, inf and ten are its gcd
property, read once per row. Deflation has no such reading: its outcome
comes from the two routes over the idempotent basis, compared inside
B(G) through G's own table of marks, against the cyclic route's closed
form (fw.deflation_commutes). So the survey realizes no quotient or
subgroup of any group, cyclic ones included, and builds no idempotent of
the cyclic group.

Rows never abort the run: a failing cell stores its error message in the
final column and leaves the unknown fields blank, so a survey over a large
catalog always produces a complete, deterministic table.
"""

from __future__ import annotations

import csv
from collections import namedtuple

from .errors import AlgebraError
from .fw import check_m_equality, commutes_by_orders, deflation_commutes, fw_context
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
            ctx = fw_context(G)
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
                # for normal N, inf and ten commute iff N has the gcd
                # property (fw.commutes_by_orders), so it is read once
                gcd = row["gcd"] = _bool(check_gcd_property(G, N))
                row["cyclic"] = _bool(N.is_cyclic())
                row["central"] = _bool(N.mask & G.center().mask == N.mask)
                row["m_equal"] = _bool(check_m_equality(G, N))
                row["commutes_inf"] = gcd
                row["commutes_ind"] = _bool(commutes_by_orders(ctx, "ind", N))
                row["commutes_ten"] = gcd
                row["commutes_def"] = _bool(deflation_commutes(ctx, N))
            except (AlgebraError, AssertionError) as exc:
                row["error"] = str(exc)
            rows.append(row)
    return rows


def write_survey_csv(rows, fp):
    writer = csv.DictWriter(fp, fieldnames=SURVEY_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
