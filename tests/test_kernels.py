"""Search kernels against the brute-force oracles on edge cases and against
the exhaustive scans on random tables, bit for bit including tie-breaks,
the value-first partition search against the single-phase search it
replaced at sizes the scans cannot reach, the C search loop against the
pure one node for node, with the routing between them and the fallback
when the C loop cannot be built, and the regressions the branch-and-bound
search must keep: no recursion limit on long instances, budgets still
counted on the full assignment space, and exact results on values far
beyond 64 bits."""

from __future__ import annotations

import itertools
import math
import os
import random
import shutil

import pytest

import mmskit as mk
from mmskit import _kernels_py, engine
from mmskit._kernels_py import _greedy_value, _max_min_search
from mmskit.engine import _pad_families, half_pair_order

from conftest import (
    lex_max_min_labels,
    oracle_half_welfare,
    oracle_integral_welfare,
    oracle_partition,
    scan_best_choice_labels,
    scan_best_owner_labels,
    scan_max_min_labels,
    F,
    suite_instances,
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


def test_partition_kernel_matches_single_phase_search():
    # m = 10..12 is past the scans; duplicated columns make the search meet
    # the same bundle sums again and again
    rng = random.Random(14)
    for _ in range(36):
        n = rng.randint(2, 5)
        m = rng.randint(10, 12)
        nfun = rng.randint(1, 3)
        flat = tables(rng, nfun, m, hi=rng.choice([1, 3, 20, 1000]))
        if rng.random() < 0.3:
            for _ in range(m // 2):
                a, b = rng.randrange(m), rng.randrange(m)
                for k in range(nfun):
                    flat[k * m + b] = flat[k * m + a]
        assert _kernels_py.max_min_labels(
            flat, nfun, m, n
        ) == lex_max_min_labels(flat, nfun, m, n)


# (rows, n) for the partition kernel: the greedy start below the optimum
# ({3, 3} | {2, 2, 2}, which greedy splits) and at it but below the root
# bound, so phase A searches and finds nothing better; largest entries
# tied across items, so the value-first order keeps input order among
# them; the grid's duplicated columns, where bundle states repeat.  More
# bundles than items, all-zero tables and a single bundle are in SHAPES.
EDGE_TABLES = {
    "greedy-below": ([[3, 3, 2, 2, 2]], 2),
    "greedy-at-optimum": ([[7, 3, 3, 3]], 2),
    "tied-largest": ([[5, 5, 0, 5, 2, 4, 5], [0, 5, 5, 1, 5, 5, 3]], 3),
    "grid3": ([[1 if k * 3 <= j < k * 3 + 3 else 0 for j in range(9)]
               for k in range(3)], 3),
    "duplicates": ([[2, 2, 2, 1, 1, 1, 1, 1, 1], [0, 0, 1, 1, 2, 2, 0, 0, 1]], 3),
}


@pytest.mark.parametrize("rows,n", EDGE_TABLES.values(), ids=list(EDGE_TABLES))
def test_partition_kernel_edge_tables(rows, n):
    m = len(rows[0])
    flat = [x for row in rows for x in row]
    assert _kernels_py.max_min_labels(
        flat, len(rows), m, n
    ) == scan_max_min_labels(flat, len(rows), m, n)


def test_greedy_start_is_a_lower_bound():
    below, at = EDGE_TABLES["greedy-below"][0], EDGE_TABLES["greedy-at-optimum"][0]
    assert _greedy_value(below, 2, 5) == 5
    assert _kernels_py.max_min_labels(below[0], 1, 5, 2) == (6, [0, 0, 1, 1, 1])
    # root bound 16 // 2 = 8 is above the optimum, so phase A runs
    assert _greedy_value(at, 2, 4) == 7
    assert _kernels_py.max_min_labels(at[0], 1, 4, 2) == (7, [0, 1, 1, 1])


def test_search_stops_at_first_labeling_reaching_target():
    # phase B's contract at every target: with the floor just below it, the
    # search returns the first labeling in lexicographic order worth at
    # least the target, and none once the floor is the optimum
    rng = random.Random(15)
    for _ in range(30):
        n = rng.randint(2, 3)
        m = rng.randint(2, 7)
        rows = [[rng.randint(0, 6) for _ in range(m)]
                for _ in range(rng.randint(1, 2))]
        labelings = list(itertools.product(range(n), repeat=m))
        worth = [
            min(max(sum(row[j] for j in range(m) if lab[j] == g) for row in rows)
                for g in range(n))
            for lab in labelings
        ]
        for t in range(max(worth) + 1):
            first = next(i for i, w in enumerate(worth) if w >= t)
            assert _max_min_search(rows, n, t - 1, t)[:2] == (
                worth[first], list(labelings[first]))
        assert _max_min_search(rows, n, max(worth), max(worth) + 1)[1] is None


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


# ---------------------------------------------------------------------------
# the C search loop


@pytest.fixture(scope="module")
def c_search():
    search = engine._compiled_search()
    if search is None:
        pytest.skip("the C search loop could not be built (no cc or Python.h)")
    return search


def _checked(c_search, nodes):
    """A search for max_min_labels that runs both loops, requires equal
    (best, labels, nodes) and logs the node count of each run."""
    def search(rows, n, floor, target):
        want = _max_min_search(rows, n, floor, target)
        assert c_search(rows, n, floor, target) == want
        nodes.append(want[2])
        return want
    return search


def test_c_loop_matches_pure_loop(c_search):
    # both phases as max_min_labels runs them, and whole searches from the
    # lowest floor; n > m, all-zero tables (maxval 0) and repeated columns
    # included, and n = 1 or m < 2, which max_min_labels answers directly
    rng = random.Random(16)
    for _ in range(300):
        n = rng.randint(1, 5)
        m = rng.randint(0, 12)
        nfun = rng.randint(1, 3)
        flat = tables(rng, nfun, m, hi=rng.choice([0, 1, 3, 20, 1000]))
        if m and rng.random() < 0.3:
            for _ in range(m // 2):
                a, b = rng.randrange(m), rng.randrange(m)
                for k in range(nfun):
                    flat[k * m + b] = flat[k * m + a]
        got = _kernels_py.max_min_labels(flat, nfun, m, n, _checked(c_search, []))
        assert got == _kernels_py.max_min_labels(flat, nfun, m, n)
        if n ** m <= 5000:
            assert got == scan_max_min_labels(flat, nfun, m, n)
        elif m <= 10:
            assert got == lex_max_min_labels(flat, nfun, m, n)
        if n >= 2 and m >= 2:
            rows = [flat[k * m:(k + 1) * m] for k in range(nfun)]
            assert c_search(rows, n, -1, 1 << 61) == _max_min_search(
                rows, n, -1, 1 << 61)


def _dense_table():
    rng = random.Random(1)
    return [rng.randint(1, 3) for _ in range(2 * 24)], 2, 24, 4


def _instance_table(inst):
    rows = [f.values for f in inst.valuations[0].functions]
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return [int(x * d) for row in rows for x in row], len(rows), inst.m, inst.n


# node counts of phase A (when it runs) and phase B, identical on both
# loops: a weaker bound or state rule keeps every answer exact and shows
# only here
NODE_TABLES = {
    "grid3": (lambda: _instance_table(mk.grid_instance(3)), [34, 15]),
    "mms-det": (lambda: _instance_table(mk.gen_instance(
        "random-xos", n=3, m=10, l=2, maxval=20, seed=3)), [531, 222]),
    "dense": (_dense_table, [902, 1292]),
}


@pytest.mark.parametrize("make,want", NODE_TABLES.values(), ids=list(NODE_TABLES))
def test_search_node_counts_are_pinned(make, want, c_search):
    flat, nfun, m, n = make()
    nodes = []
    _kernels_py.max_min_labels(flat, nfun, m, n, _checked(c_search, nodes))
    assert nodes == want


def _spy_on_c_loop(monkeypatch, c_search):
    calls = []

    def search(*args):
        calls.append(args)
        return c_search(*args)

    monkeypatch.setattr(engine, "_compiled_search", lambda: search)
    return calls


@pytest.mark.parametrize("rows,on_c", [
    ([[1 << 60] * 3 + [(1 << 60) - 1]], True),
    ([[1 << 60] * 4], False),
    # row sums of 2^61, but the largest entries of the items sum to 2^62
    ([[1 << 61, 0, 0], [0, 1 << 61, 0]], False),
], ids=["below-2^62", "at-2^62", "columns-at-2^62"])
def test_c_loop_runs_below_the_int64_guard(rows, on_c, c_search, monkeypatch):
    functions = [[F(x) for x in row] for row in rows]
    m = len(rows[0])
    want = engine.max_min_partition(functions, 2, m, backend="python")
    calls = _spy_on_c_loop(monkeypatch, c_search)
    assert engine.max_min_partition(functions, 2, m) == want
    assert bool(calls) == on_c
    flat = [x for row in rows for x in row]
    assert want == scan_max_min_labels(flat, len(rows), m, 2)[1]


def test_python_backend_bypasses_c_loop(c_search, monkeypatch):
    calls = _spy_on_c_loop(monkeypatch, c_search)
    inst = mk.gen_instance("random-xos", n=3, m=7, l=2, maxval=9, seed=5)
    pure = mk.mms(inst, 0, backend="python")
    assert calls == []
    assert mk.mms(inst, 0) == pure
    assert calls


def test_unavailable_c_loop_falls_back(monkeypatch):
    inst = mk.gen_instance("random-xos", n=3, m=8, l=2, maxval=20, seed=2)
    want = [mk.mms(inst, i) for i in range(inst.n)]
    monkeypatch.setattr(engine, "_compiled_search", lambda: None)
    assert mk.backend_name() == "python"
    assert not mk.has_compiled_backend()
    assert [mk.mms(inst, i) for i in range(inst.n)] == want
    with pytest.raises(ValueError, match="not available"):
        mk.mms(inst, 0, backend="compiled")


def test_library_build_and_its_failures(tmp_path, monkeypatch):
    source = os.path.join(os.path.dirname(engine.__file__), "_maxmin.c")
    rows = [[3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8, 1, 8]]
    if shutil.which("cc"):
        library = tmp_path / "built" / "_maxmin.so"
        search = engine._build_search(source, str(library))
        assert search(rows, 3, -1, 99) == _max_min_search(rows, 3, -1, 99)
        # a source newer than the library is compiled again
        os.utime(library, (0, 0))
        engine._build_search(source, str(library))
        assert os.path.getmtime(library) > 0
        broken = tmp_path / "broken.c"
        broken.write_text("not C\n")
        assert engine._build_search(str(broken), str(tmp_path / "b" / "x.so")) is None
        assert os.listdir(tmp_path / "b") == []  # no partial file is left
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    assert engine._build_search(source, str(tmp_path / "c" / "_maxmin.so")) is None
    assert os.listdir(tmp_path / "c") == []


def test_pipelines_identical_across_backends():
    for inst in suite_instances():
        assert mk.solve_deterministic(inst) == mk.solve_deterministic(
            inst, backend="python")
        assert mk.solve_randomized(inst) == mk.solve_randomized(
            inst, backend="python")
