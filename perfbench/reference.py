"""Independent correctness references: plain-Python joins and aggregates.

Nothing here calls the engine.  Each workload's output is compared with
a reference computed from the same generated inputs by the most direct
code that can compute it, and every mismatched row counts as a failure
in ``error_rate``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Tuple


def chain_count(r_rows, s_rows, t_rows) -> Counter:
    """``SELECT T.t, COUNT(*) FROM R, S, T WHERE R.y = S.y AND
    S.z = T.z GROUP BY T.t`` over rows R(x, y), S(y, z), T(z, t)."""
    r_per_y = Counter(row[1] for row in r_rows)
    t_per_z = defaultdict(Counter)
    for z, t in t_rows:
        t_per_z[z][t] += 1
    counts: Counter = Counter()
    for y, z in s_rows:
        matches = r_per_y.get(y, 0)
        if matches:
            for t, n in t_per_z.get(z, {}).items():
                counts[t] += matches * n
    return counts


def tpch_brand_count(lineitem, partsupp, part) -> Counter:
    """``SELECT part.brand, COUNT(*) FROM lineitem, partsupp, part WHERE
    lineitem.partkey = partsupp.partkey AND lineitem.suppkey =
    partsupp.suppkey AND partsupp.partkey = part.partkey GROUP BY
    part.brand`` over the TPC-H column layouts of
    :mod:`repro.datasets.tpch`."""
    partsupp_per_key = Counter((row[0], row[1]) for row in partsupp)
    brands_per_part = defaultdict(Counter)
    for row in part:
        brands_per_part[row[0]][row[2]] += 1
    counts: Counter = Counter()
    for row in lineitem:
        matches = partsupp_per_key.get((row[1], row[2]), 0)
        if matches:
            for brand, n in brands_per_part.get(row[1], {}).items():
                counts[brand] += matches * n
    return counts


def equi_join(left: Iterable[tuple], right: Iterable[tuple],
              left_key: int, right_key: int) -> Counter:
    """Multiset of ``l + r`` for every pair with equal keys."""
    right_index: Dict[object, List[tuple]] = defaultdict(list)
    for row in right:
        right_index[row[right_key]].append(row)
    out: Counter = Counter()
    for row in left:
        for match in right_index.get(row[left_key], ()):
            out[row + match] += 1
    return out


def mismatches(expected: Counter, actual: Counter) -> int:
    """Rows in the multiset symmetric difference (lost plus spurious)."""
    lost = expected - actual
    spurious = actual - expected
    return sum(lost.values()) + sum(spurious.values())


def grouped_rows(counts: Counter) -> List[Tuple[object, int]]:
    """A ``GROUP BY key COUNT(*)`` result as sorted ``(key, count)`` rows."""
    return sorted(counts.items(), key=repr)
