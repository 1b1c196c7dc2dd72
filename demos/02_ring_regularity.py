#!/usr/bin/env python3
"""Brute-force regularity of small rings, three ways.

For each ring the check r = r*y*r is compared against two ideal-theoretic
characterizations: every principal one-sided ideal, and every ideal on at
most two generators, must be generated by an idempotent.  The three verdicts
always coincide on s-unital rings.
"""

from grl.catalog import named_ring
from grl.rings import (
    check_tominaga,
    check_vnr_characterization,
    common_unit,
    is_von_neumann_regular,
    left_ideal,
    multiples_ring,
)


def main():
    print(f"{'ring':8s} {'r=ryr':>6s} {'principal':>10s} {'<=2 gens':>9s}")
    for name in ("Z2", "Z3", "Z4", "Z6", "Z8", "Z9", "F4", "Z2xZ2"):
        rep = check_vnr_characterization(named_ring(name))
        print(f"{name:8s} {str(rep['vnr']):>6s} "
              f"{str(rep['principal_ideals_idempotent']):>10s} "
              f"{str(rep['finitely_generated_ideals_idempotent']):>9s}"
              + ("" if rep["vnr"] else
                 f"   (failing element {rep['vnr_failing']})"))

    print()
    z4 = named_ring("Z4")
    w = is_von_neumann_regular(z4)
    print(f"mod-4 integers: element {w.failing} satisfies r*y*r in "
          f"{sorted({z4.mul[z4.mul[w.failing][y]][w.failing] for y in z4.elements()})},"
          " never itself,")
    print(f"and its principal ideal {left_ideal(z4, [w.failing]).elements()} "
          "contains no idempotent generator.")

    print()
    print("Common units: in an s-unital ring any finite subset has one,")
    z6 = named_ring("Z6")
    print(f"  mod-6 integers, subset {{2, 3}}: common left unit = "
          f"{common_unit(z6, [2, 3])}")
    even = multiples_ring(2, 8)
    rep = check_tominaga(even)
    failing = [2 * i for i in rep["left"]["failing_subset"]]  # indices are residues/2
    print("  the even residues mod 8 are not s-unital, and indeed the subset "
          f"{failing} has no common left unit "
          f"(both sides agree: {rep['agree']})")


if __name__ == "__main__":
    main()
