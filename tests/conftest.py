"""Shared fixtures and independent brute-force oracles.

The oracles here enumerate with itertools over raw rational tables and never
touch the package's kernels, so a kernel bug cannot vouch for itself.  They
use the same fixed enumeration orders the package documents (labels as an
ascending odometer, per-item choices agents-first then index pairs), which
makes first-optimum comparisons exact.

The ``scan_*`` functions are exhaustive odometer scans over the kernels'
flat integer inputs.  They share no code with the branch-and-bound kernels
and run far faster than the itertools oracles, so they are the reference at
sizes those cannot reach.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import mmskit as mk

F = Fraction


# ---------------------------------------------------------------------------
# raw data access


def raw_functions(inst, agent):
    """Agent's additive rows as plain lists of Fractions."""
    return [list(fn.values) for fn in inst.valuations[agent].functions]


def raw_instance(inst):
    return [raw_functions(inst, i) for i in range(inst.n)]


# ---------------------------------------------------------------------------
# oracles


def xos_value(functions, items):
    best = F(0)
    for row in functions:
        total = sum((row[j] for j in items), F(0))
        if total > best:
            best = total
    return best


def xos_fractional(functions, shares):
    best = F(0)
    for row in functions:
        total = sum((row[j] * shares[j] for j in range(len(row))), F(0))
        if total > best:
            best = total
    return best


def oracle_partition(functions, n, m):
    """Best worst-bundle value over all n^m labelings, first optimum."""
    best = None
    best_labels = None
    for labels in itertools.product(range(n), repeat=m):
        worst = None
        for part in range(n):
            bundle = [j for j in range(m) if labels[j] == part]
            val = xos_value(functions, bundle)
            if worst is None or val < worst:
                worst = val
        if best is None or worst > best:
            best = worst
            best_labels = labels
    return best, best_labels


def oracle_integral_welfare(all_functions, caps, m):
    """Best capped utilitarian welfare over all owner maps, first optimum."""
    n = len(all_functions)
    best = None
    best_owner = None
    for owner in itertools.product(range(n), repeat=m):
        total = F(0)
        for i in range(n):
            bundle = [j for j in range(m) if owner[j] == i]
            total += min(caps[i], xos_value(all_functions[i], bundle))
        if best is None or total > best:
            best = total
            best_owner = owner
    return best, best_owner


def oracle_half_welfare(all_functions, caps, m):
    """Best capped welfare over whole/half per-item choices, first optimum."""
    n = len(all_functions)
    pairs = list(itertools.combinations(range(n), 2))
    nch = n + len(pairs)
    best = None
    best_choice = None
    for choice in itertools.product(range(nch), repeat=m):
        shares = [[F(0)] * m for _ in range(n)]
        for j, c in enumerate(choice):
            if c < n:
                shares[c][j] = F(1)
            else:
                a, b = pairs[c - n]
                shares[a][j] = F(1, 2)
                shares[b][j] = F(1, 2)
        total = F(0)
        for i in range(n):
            total += min(caps[i], xos_fractional(all_functions[i], shares[i]))
        if best is None or total > best:
            best = total
            best_choice = choice
    return best, best_choice


def random_half_integral(n, m, seed):
    """Seeded complete half-integral allocation: per item a whole owner or a
    half-half pair."""
    rng = random.Random(seed)
    shares = [[F(0)] * m for _ in range(n)]
    for j in range(m):
        if n >= 2 and rng.random() < 0.5:
            a, b = rng.sample(range(n), 2)
            shares[a][j] = F(1, 2)
            shares[b][j] = F(1, 2)
        else:
            shares[rng.randrange(n)][j] = F(1)
    return mk.FractionalAllocation(tuple(tuple(r) for r in shares))


# ---------------------------------------------------------------------------
# exhaustive scans on the kernels' flat integer inputs
#
# Each walks every label sequence in ascending lexicographic order with an
# odometer, updating bundle sums incrementally, and keeps the strictly best
# objective seen first.  Returns (best objective, labels).


def scan_max_min_labels(flat, nfun, m, n):
    """Max-min partition of m items into n bundles; flat is nfun x m."""
    sums = [0] * (n * nfun)
    val = [0] * n
    lab = [0] * m

    def move(g, j, delta):
        base = g * nfun
        for k in range(nfun):
            sums[base + k] += delta * flat[k * m + j]
        val[g] = max(sums[base:base + nfun])

    for j in range(m):
        move(0, j, 1)
    best = -1
    best_lab = list(lab)
    while True:
        obj = min(val)
        if obj > best:
            best = obj
            best_lab = list(lab)
        j = m - 1
        while j >= 0 and lab[j] == n - 1:
            move(n - 1, j, -1)
            lab[j] = 0
            move(0, j, 1)
            j -= 1
        if j < 0:
            break
        move(lab[j], j, -1)
        lab[j] += 1
        move(lab[j], j, 1)
    return best, best_lab


def scan_best_owner_labels(flat, caps, n, nfmax, m):
    """Integral capped welfare: one owner per item; flat is n x nfmax x m
    (short families padded with zero rows), caps on the same scale."""
    sums = [0] * (n * nfmax)
    val = [0] * n
    lab = [0] * m
    total = 0

    def move(i, j, delta):
        nonlocal total
        base = i * nfmax
        for k in range(nfmax):
            sums[base + k] += delta * flat[(base + k) * m + j]
        new = min(caps[i], max(sums[base:base + nfmax]))
        total += new - val[i]
        val[i] = new

    for j in range(m):
        move(0, j, 1)
    best = -1
    best_lab = list(lab)
    while True:
        if total > best:
            best = total
            best_lab = list(lab)
        j = m - 1
        while j >= 0 and lab[j] == n - 1:
            move(n - 1, j, -1)
            lab[j] = 0
            move(0, j, 1)
            j -= 1
        if j < 0:
            break
        move(lab[j], j, -1)
        lab[j] += 1
        move(lab[j], j, 1)
    return best, best_lab


def scan_best_choice_labels(flat, caps, n, nfmax, m, pair_a, pair_b):
    """Half-integral capped welfare: per item whole to agent c < n, else
    split between (pair_a[c-n], pair_b[c-n]).  A whole share adds twice the
    table entry, so caps must be pre-doubled to match."""
    nch = n + len(pair_a)
    sums = [0] * (n * nfmax)
    val = [0] * n
    lab = [0] * m
    total = 0

    def bump(i, j, delta):
        nonlocal total
        base = i * nfmax
        for k in range(nfmax):
            sums[base + k] += delta * flat[(base + k) * m + j]
        new = min(caps[i], max(sums[base:base + nfmax]))
        total += new - val[i]
        val[i] = new

    def move(c, j, sign):
        if c < n:
            bump(c, j, 2 * sign)
        else:
            bump(pair_a[c - n], j, sign)
            bump(pair_b[c - n], j, sign)

    for j in range(m):
        move(0, j, 1)
    best = -1
    best_lab = list(lab)
    while True:
        if total > best:
            best = total
            best_lab = list(lab)
        j = m - 1
        while j >= 0 and lab[j] == nch - 1:
            move(nch - 1, j, -1)
            lab[j] = 0
            move(0, j, 1)
            j -= 1
        if j < 0:
            break
        move(lab[j], j, -1)
        lab[j] += 1
        move(lab[j], j, 1)
    return best, best_lab


# ---------------------------------------------------------------------------
# suite schedule shared by the guarantee tests and the acceptance gate


def suite_params(count=200):
    for i in range(count):
        yield dict(n=2 + i % 2, m=2 + i % 6, l=1 + i % 3, maxval=8, seed=1000 + i)


def suite_instances(count=200):
    for p in suite_params(count):
        yield mk.gen_instance("random-xos", **p)


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture
def lemma1():
    return mk.gen_instance("lemma1")


@pytest.fixture
def grid2():
    return mk.gen_instance("grid", n=2)


@pytest.fixture
def grid3():
    return mk.gen_instance("grid", n=3)
