"""Search kernels against the brute-force oracles on edge cases and against
the exhaustive scans on random tables, bit for bit including tie-breaks,
and the regressions the branch-and-bound search must keep: no recursion
limit on long instances, budgets still counted on the full assignment
space, and exact results on values far beyond 64 bits."""

from __future__ import annotations

import random

import pytest

import mmskit as mk
from mmskit import _kernels_py
from mmskit.engine import _pad_families, half_pair_order

from conftest import (
    oracle_half_welfare,
    oracle_integral_welfare,
    oracle_partition,
    scan_best_choice_labels,
    scan_best_owner_labels,
    scan_max_min_labels,
)

# (n, m, largest entry): tie-heavy tables, all-zero tables, more bundles
# than items, no items, and a single bundle or agent
SHAPES = [
    (2, 5, 2), (3, 5, 2), (3, 6, 1), (2, 4, 0), (3, 3, 0),
    (4, 2, 5), (3, 1, 2), (2, 0, 3), (1, 5, 4), (1, 0, 2),
]


def _families(rng, n, m, hi):
    """Agent families of 1..3 rows each, so short families get padded."""
    return [
        [[rng.randint(0, hi) for _ in range(m)] for _ in range(rng.randint(1, 3))]
        for _ in range(n)
    ]


def _caps(rng, families, hi):
    # zero caps, caps at or above the whole table, and everything between
    total = sum(max(sum(row) for row in fam) for fam in families)
    return [rng.choice([0, total, total + 3, rng.randint(0, 2 * hi + 1)])
            for _ in families]


@pytest.mark.parametrize("n,m,hi", SHAPES)
def test_partition_kernel_matches_oracle(n, m, hi):
    rng = random.Random(100 * n + 10 * m + hi)
    for _ in range(6):
        rows = _families(rng, 1, m, hi)[0]
        flat = [x for row in rows for x in row]
        best, labels = _kernels_py.max_min_labels(flat, len(rows), m, n)
        want, want_labels = oracle_partition(rows, n, m)
        assert (best, tuple(labels)) == (want, want_labels)


@pytest.mark.parametrize("n,m,hi", SHAPES)
def test_integral_welfare_kernel_matches_oracle(n, m, hi):
    # integral welfare is the choice kernel with no split pairs and doubled
    # caps, returning twice the welfare
    n = min(n, 3)
    rng = random.Random(200 + 100 * n + 10 * m + hi)
    for _ in range(6):
        families = _families(rng, n, m, hi)
        caps = _caps(rng, families, hi)
        flat, nfmax = _pad_families(families, m)
        best, owners = _kernels_py.best_choice_labels(
            flat, [2 * c for c in caps], n, nfmax, m, [], []
        )
        want, want_owners = oracle_integral_welfare(families, caps, m)
        assert (best, tuple(owners)) == (2 * want, want_owners)


@pytest.mark.parametrize("n,m,hi", SHAPES)
def test_half_welfare_kernel_matches_oracle(n, m, hi):
    n = min(n, 3)
    m = min(m, 4)
    rng = random.Random(300 + 100 * n + 10 * m + hi)
    pairs = half_pair_order(n)
    for _ in range(4):
        families = _families(rng, n, m, hi)
        caps = _caps(rng, families, hi)
        flat, nfmax = _pad_families(families, m)
        best, choices = _kernels_py.best_choice_labels(
            flat, [2 * c for c in caps], n, nfmax, m,
            [a for a, _ in pairs], [b for _, b in pairs],
        )
        want, want_choices = oracle_half_welfare(families, caps, m)
        assert (best, tuple(choices)) == (2 * want, want_choices)


def test_search_depth_is_not_recursion_bound():
    m = 3000
    inst = mk.instance_from_lists([[[1 + j % 5 for j in range(m)]]])
    total = sum(1 + j % 5 for j in range(m))
    assert mk.mms(inst, 0).value == total
    assert mk.max_welfare_integral(inst, [total]).owner == (0,) * m
    frac = mk.max_welfare_half_integral(inst, [total])
    assert inst.valuations[0].fractional_value(frac.shares[0]) == total


def test_welfare_budgets_count_full_assignment_space():
    inst = mk.gen_instance("random-xos", n=2, m=6, l=1, maxval=3, seed=1)
    caps = [1, 1]
    with pytest.raises(mk.CapacityError):
        mk.max_welfare_integral(inst, caps, max_enum=2**6 - 1)
    assert len(mk.max_welfare_integral(inst, caps, max_enum=2**6).owner) == 6
    with pytest.raises(mk.CapacityError):
        mk.max_welfare_half_integral(inst, caps, max_enum=3**6 - 1)
    assert mk.max_welfare_half_integral(inst, caps, max_enum=3**6).n == 2


def tables(rng, rows, m, lo=0, hi=6):
    return [rng.randint(lo, hi) for _ in range(rows * m)]


def test_partition_kernels_agree():
    rng = random.Random(11)
    for _ in range(120):
        nfun = rng.randint(1, 3)
        m = rng.randint(1, 9)
        n = rng.randint(1, 4)
        flat = tables(rng, nfun, m, hi=4)  # small values force ties
        assert scan_max_min_labels(
            flat, nfun, m, n
        ) == _kernels_py.max_min_labels(flat, nfun, m, n)


def test_owner_kernels_agree():
    # integral welfare is the choice kernel with no split pairs, at twice
    # the value because whole shares count double on the half-share scale
    rng = random.Random(12)
    for _ in range(120):
        n = rng.randint(1, 3)
        nfmax = rng.randint(1, 3)
        m = rng.randint(1, 9)
        flat = tables(rng, n * nfmax, m, hi=4)
        caps = [rng.randint(0, 8) for _ in range(n)]
        caps2 = [2 * c for c in caps]
        welfare, owners = scan_best_owner_labels(flat, caps, n, nfmax, m)
        expected = (2 * welfare, owners)
        assert scan_best_choice_labels(
            flat, caps2, n, nfmax, m, [], []
        ) == expected
        assert _kernels_py.best_choice_labels(
            flat, caps2, n, nfmax, m, [], []
        ) == expected


def test_choice_kernels_agree():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(2, 3)
        nfmax = rng.randint(1, 2)
        m = rng.randint(1, 9 if n == 2 else 6)
        flat = tables(rng, n * nfmax, m, hi=4)
        caps = [rng.randint(0, 10) for _ in range(n)]
        pair_a = [a for a, _ in half_pair_order(n)]
        pair_b = [b for _, b in half_pair_order(n)]
        assert scan_best_choice_labels(
            flat, caps, n, nfmax, m, pair_a, pair_b
        ) == _kernels_py.best_choice_labels(flat, caps, n, nfmax, m, pair_a, pair_b)


def test_oversized_values_fall_back_exactly():
    # magnitudes past 2^63 overflow any 64-bit kernel; results must still
    # be exact, through unbounded ints
    big = 1 << 63
    inst = mk.instance_from_lists([[[big, big]], [[big, big]]])
    assert mk.mms(inst, 0).value == big
    alloc = mk.max_welfare_integral(inst, [big, big])
    assert alloc.owner == (0, 1)


def test_backend_argument_selects_pure():
    inst = mk.gen_instance("random-xos", n=2, m=5, l=2, maxval=8, seed=3)
    a = mk.mms(inst, 0, backend="python")
    with pytest.raises(ValueError, match="unknown backend"):
        mk.mms(inst, 0, backend="native")
    if not mk.has_compiled_backend():
        # no build provides the compiled backend; forcing it must refuse loudly
        with pytest.raises(ValueError):
            mk.mms(inst, 0, backend="compiled")
        return
    b = mk.mms(inst, 0, backend="compiled")
    assert a.value == b.value
    assert a.partition == b.partition
