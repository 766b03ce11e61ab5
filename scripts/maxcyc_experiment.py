#!/usr/bin/env python3
"""Evidence gathering: deflation kernels versus the max-cyclic intersection.

Two observations are probed over the catalog, and the script reports
counts without asserting an answer:

  1. whenever deflation along N commutes with the lift, is N contained in
     the intersection M of all maximal cyclic subgroups?
  2. does deflation along M itself commute with the lift?

(1) is settled: a commuting N has the gcd property and is cyclic and
central (criterion 08), and those three put N inside every maximal cyclic
subgroup (the argument is in propositions.check_def_necessary). So a
"no" in column (1) would be an engine defect. (2) is open, and the
closing line of the output refers to it: M is characteristic, hence
normal, so it is always well posed, and a "no" is unremarkable, since
containment in M is necessary, not sufficient.
"""

from __future__ import annotations

import argparse
import sys

from fwburnside import (
    check_commutes,
    construct_group,
    full_catalog,
    subgroup_lattice,
)


def examine(spec, cap):
    G = construct_group(spec, cap=cap)
    lat = subgroup_lattice(G)
    M = G.max_cyclic_intersection()

    commuting = []
    contained = True
    for c in lat.normal_class_indices():
        N = lat.class_rep(c)
        if check_commutes(G, "def", N).commutes:
            commuting.append(lat.class_label(c))
            if not N <= M:
                contained = False
    m_commutes = check_commutes(G, "def", M).commutes
    return {
        "group": G.label,
        "maxcyc": lat.class_label(lat.class_index(M)),
        "maxcyc_order": M.order,
        "def_commuting": commuting,
        "all_contained": contained,
        "maxcyc_commutes": m_commutes,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cap", type=int, default=512)
    args = parser.parse_args(argv)

    rows = [examine(spec, args.cap) for spec in full_catalog()]

    width = max(len(r["group"]) for r in rows)
    print(f"{'group'.ljust(width)}  maxcyc  contained  maxcyc_commutes  def-commuting classes")
    violations = 0
    m_failures = []
    for r in rows:
        if not r["all_contained"]:
            violations += 1
        if not r["maxcyc_commutes"]:
            m_failures.append(r["group"])
        print(
            f"{r['group'].ljust(width)}  {r['maxcyc']:<6}  "
            f"{str(r['all_contained']).lower():<9}  "
            f"{str(r['maxcyc_commutes']).lower():<15}  "
            f"{' '.join(r['def_commuting'])}"
        )

    print()
    print(f"groups examined: {len(rows)}")
    print(f"containment violations (commuting N not inside maxcyc): {violations}")
    print(f"groups where maxcyc itself fails to commute: {len(m_failures)}"
          + (f" ({', '.join(m_failures)})" if m_failures else ""))
    print("evidence only; nothing here decides the general question")
    return 0


if __name__ == "__main__":
    sys.exit(main())
