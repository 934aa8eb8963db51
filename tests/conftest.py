"""Shared fixtures and independent brute-force oracles.

The oracles here enumerate with itertools over raw rational tables and never
touch the package's kernels, so a kernel bug cannot vouch for itself.  They
use the same fixed enumeration orders the package documents (labels as an
ascending odometer, per-item choices agents-first then index pairs), which
makes first-optimum comparisons exact.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
import shutil
import subprocess
import sysconfig
from fractions import Fraction
from pathlib import Path

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


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    """The committed compiled kernels, built with ``cc`` into a temporary
    directory and loaded from there.

    Nothing is written next to the sources, so the package under test keeps
    the backend it imported with; backend comparisons use this module
    directly or patch it into ``engine``.
    """
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler (cc) to build the compiled kernels")
    include = sysconfig.get_paths()["include"]
    if not Path(include, "Python.h").exists():
        pytest.skip(f"no Python headers (Python.h) under {include}")
    source = Path(__file__).resolve().parents[1] / "src" / "mmskit" / "_kernels.c"
    target = tmp_path_factory.mktemp("kernels") / (
        "_kernels" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    build = subprocess.run(
        [cc, "-O2", "-shared", "-fPIC", f"-I{include}", str(source), "-o", str(target)],
        capture_output=True, text=True,
    )
    if build.returncode != 0:
        pytest.fail(f"building {source.name} failed:\n{build.stderr}")
    spec = importlib.util.spec_from_file_location("mmskit._kernels", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
