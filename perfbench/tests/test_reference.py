"""The correctness references agree with brute force, and a reference
check catches a single wrong row in a real engine result."""

import itertools
import random
from collections import Counter

from repro.core.schema import Relation, Schema
from repro.engine.runner import run_plan
from repro.sql.catalog import SqlSession

from perfbench import reference
from perfbench.workloads import ChainInline


def small_chain(seed=0, n=60):
    rng = random.Random(seed)
    r = [(rng.randrange(n), rng.randrange(8)) for _ in range(n)]
    s = [(rng.randrange(8), rng.randrange(8)) for _ in range(n)]
    t = [(rng.randrange(8), rng.randrange(5)) for _ in range(n)]
    return r, s, t


def test_chain_count_matches_brute_force():
    r, s, t = small_chain()
    brute = Counter(
        tt for (_x, y), (y2, z), (z2, tt) in itertools.product(r, s, t)
        if y == y2 and z == z2)
    assert reference.chain_count(r, s, t) == brute


def test_tpch_brand_count_matches_brute_force():
    rng = random.Random(1)
    part = [(p, f"p{p}", f"Brand#{p % 3}", 1.0) for p in range(6)]
    partsupp = [(p, s, 1, 1.0) for p in range(6) for s in range(2)]
    lineitem = [(i, rng.randrange(6), rng.randrange(3), 1, 1.0, 0.0,
                 "d", "d", "A") for i in range(40)]
    brute = Counter(
        pa[2] for li, ps, pa in itertools.product(lineitem, partsupp, part)
        if li[1] == ps[0] and li[2] == ps[1] and ps[0] == pa[0])
    assert reference.tpch_brand_count(lineitem, partsupp, part) == brute


def test_equi_join_matches_brute_force():
    left = [(k, i) for i, k in enumerate([1, 2, 2, 3])]
    right = [(k, i) for i, k in enumerate([2, 3, 3, 4])]
    brute = Counter(a + b for a in left for b in right if a[0] == b[0])
    assert reference.equi_join(left, right, 0, 0) == brute


def test_mismatches_counts_lost_and_spurious_rows():
    expected = Counter({("a", 1): 1, ("b", 2): 1})
    assert reference.mismatches(expected, Counter(expected)) == 0
    assert reference.mismatches(expected, Counter({("a", 1): 1})) == 1
    assert reference.mismatches(
        expected, Counter({("a", 1): 1, ("b", 2): 2})) == 1
    assert reference.mismatches(
        expected, Counter({("a", 1): 1, ("b", 3): 1})) == 2


def test_reference_check_catches_one_injected_wrong_row():
    r, s, t = small_chain(seed=4)
    session = SqlSession()
    for name, cols, rows in (("R", ("x", "y"), r), ("S", ("y", "z"), s),
                             ("T", ("z", "t"), t)):
        session.register(Relation(name, Schema.of(*cols), rows))
    result = run_plan(session.plan(ChainInline.sql))
    expected = Counter(reference.grouped_rows(reference.chain_count(r, s, t)))
    actual = Counter(result.results)
    assert reference.mismatches(expected, actual) == 0
    key, count = sorted(actual)[0]
    actual[(key, count)] -= 1
    actual[(key, count + 1)] += 1
    assert reference.mismatches(expected, actual) == 2
