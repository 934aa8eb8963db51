"""Compiled and pure-Python kernels must agree bit for bit, including
tie-breaks, and oversized inputs must fall back safely.

The agreement tests run the committed compiled kernels, built by the
``compiled_kernels`` fixture; its exhaustive scans are an independent
reference for the pure branch-and-bound search at sizes the itertools
oracles cannot reach."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import mmskit as mk
from mmskit import _kernels_py, engine
from mmskit.engine import half_pair_order


def tables(rng, rows, m, lo=0, hi=6):
    return [rng.randint(lo, hi) for _ in range(rows * m)]


def test_backend_is_compiled_by_default():
    pytest.importorskip("mmskit._kernels", reason="compiled backend not built")
    if os.environ.get("MMSKIT_BACKEND") == "python":
        pytest.skip("suite forced to the pure backend")
    assert mk.backend_name() == "compiled"
    assert mk.has_compiled_backend()


def test_partition_kernels_agree(compiled_kernels):
    rng = random.Random(11)
    for _ in range(120):
        nfun = rng.randint(1, 3)
        m = rng.randint(1, 9)
        n = rng.randint(1, 4)
        flat = tables(rng, nfun, m, hi=4)  # small values force ties
        assert compiled_kernels.max_min_labels(
            flat, nfun, m, n
        ) == _kernels_py.max_min_labels(flat, nfun, m, n)


def test_owner_kernels_agree(compiled_kernels):
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
        welfare, owners = compiled_kernels.best_owner_labels(flat, caps, n, nfmax, m)
        expected = (2 * welfare, owners)
        assert compiled_kernels.best_choice_labels(
            flat, caps2, n, nfmax, m, [], []
        ) == expected
        assert _kernels_py.best_choice_labels(
            flat, caps2, n, nfmax, m, [], []
        ) == expected


def test_choice_kernels_agree(compiled_kernels):
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(2, 3)
        nfmax = rng.randint(1, 2)
        m = rng.randint(1, 9 if n == 2 else 6)
        flat = tables(rng, n * nfmax, m, hi=4)
        caps = [rng.randint(0, 10) for _ in range(n)]
        pair_a = [a for a, _ in half_pair_order(n)]
        pair_b = [b for _, b in half_pair_order(n)]
        assert compiled_kernels.best_choice_labels(
            flat, caps, n, nfmax, m, pair_a, pair_b
        ) == _kernels_py.best_choice_labels(flat, caps, n, nfmax, m, pair_a, pair_b)


def test_env_override_forces_pure_backend():
    code = (
        "import mmskit as mk; "
        "print(mk.backend_name())"
    )
    env = dict(os.environ, MMSKIT_BACKEND="python")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "python"


def test_oversized_values_fall_back_exactly():
    # magnitudes near 2^62 exceed the compiled kernel's safe range; results
    # must still be exact, which forces the unbounded pure path
    big = 1 << 63
    inst = mk.instance_from_lists([[[big, big]], [[big, big]]])
    assert mk.mms(inst, 0).value == big
    alloc = mk.max_welfare_integral(inst, [big, big])
    assert alloc.owner == (0, 1)


def test_backend_argument_selects_pure():
    inst = mk.gen_instance("random-xos", n=2, m=5, l=2, maxval=8, seed=3)
    a = mk.mms(inst, 0, backend="python")
    if not mk.has_compiled_backend():
        # env override unloads the extension; forcing it must refuse loudly
        with pytest.raises(ValueError):
            mk.mms(inst, 0, backend="compiled")
        return
    b = mk.mms(inst, 0, backend="compiled")
    assert a.value == b.value
    assert a.partition == b.partition


def test_pipelines_identical_across_backends(compiled_kernels, monkeypatch):
    monkeypatch.setattr(engine, "_compiled", compiled_kernels)
    for seed in range(10):
        inst = mk.gen_instance("random-xos", n=2 + seed % 2, m=3 + seed % 4,
                               l=1 + seed % 3, maxval=8, seed=600 + seed)
        det_c = mk.solve_deterministic(inst, backend="compiled")
        det_p = mk.solve_deterministic(inst, backend="python")
        assert det_c.allocation.owner == det_p.allocation.owner
        rand_c = mk.solve_randomized(inst, backend="compiled")
        rand_p = mk.solve_randomized(inst, backend="python")
        assert rand_c.randomized.support == rand_p.randomized.support
