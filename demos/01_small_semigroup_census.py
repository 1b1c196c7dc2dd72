#!/usr/bin/env python3
"""A census of all small semigroups.

Enumerates every associative Cayley table on up to three elements, counts
how many are regular, inverse, or groups, and confirms that "every element
has a weak inverse" and "every element has a two-sided inverse" single out
exactly the same tables.
"""

from collections import Counter

from grl.semigroups import (
    classify_semigroup,
    enumerate_semigroups,
    inverses,
    weak_inverses,
)


def main():
    for order in (1, 2, 3):
        tally = Counter()
        mismatches = 0
        for S in enumerate_semigroups(order):
            tally["total"] += 1
            cls = classify_semigroup(S)
            tally["regular"] += cls.is_regular
            tally["inverse"] += cls.is_inverse
            tally["group"] += cls.is_group
            q_all = all(len(weak_inverses(S, s)) > 0 for s in S.elements())
            v_all = all(len(inverses(S, s)) > 0 for s in S.elements())
            mismatches += q_all != v_all
        print(f"order {order}: {tally['total']:5d} associative tables | "
              f"{tally['regular']:4d} regular, {tally['inverse']:3d} inverse, "
              f"{tally['group']:2d} groups | Q/V mismatches: {mismatches}")

    print()
    print("Sample order-3 tables that are regular but not inverse:")
    shown = 0
    for S in enumerate_semigroups(3):
        cls = classify_semigroup(S)
        if cls.is_regular and not cls.is_inverse and shown < 3:
            witness = next(s for s in S.elements() if len(cls.inverse_sets[s]) != 1)
            print(f"  table {S.table.tolist()}  (element {witness} has "
                  f"{len(cls.inverse_sets[witness])} inverses)")
            shown += 1


if __name__ == "__main__":
    main()
