#!/usr/bin/env python3
"""Timing comparison of the compiled and pure search kernels.

Runs the three exact searches on seeded integer workloads through both
backends, checks the answers agree exactly, and prints the best-of-N wall
times with the ratio of pure to compiled time.  The compiled kernels scan
every assignment; the pure ones prune by branch and bound.  --scale grows
the item count.

Usage: python3 benchmarks/bench_kernels.py [--repeat 3] [--scale 0]
"""

import argparse
import random
import time
from fractions import Fraction

from mmskit import engine


def _family(rng, nfun, m, hi=9):
    return [[Fraction(rng.randint(0, hi)) for _ in range(m)] for _ in range(nfun)]


def _time(fn, repeat):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    return out, best


def _run(label, make_call, repeat, budget=10**9):
    pure_out, pure_t = _time(lambda: make_call("python"), repeat)
    if engine.has_compiled_backend():
        comp_out, comp_t = _time(lambda: make_call("compiled"), repeat)
        if comp_out != pure_out:
            raise SystemExit(f"{label}: backends disagree")
        ratio = pure_t / comp_t if comp_t > 0 else float("inf")
        print(f"{label:34s} pure {pure_t * 1e3:9.1f} ms   compiled {comp_t * 1e3:8.2f} ms   x{ratio:,.1f}")
    else:
        print(f"{label:34s} pure {pure_t * 1e3:9.1f} ms   (no compiled backend)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="best-of-N timing")
    ap.add_argument("--scale", type=int, default=0, help="extra items per kernel")
    args = ap.parse_args()

    rng = random.Random(17)
    print(f"active backend: {engine.backend_name()}")

    n, m = 3, 12 + args.scale
    fam = _family(rng, 2, m)
    _run(
        f"max_min_partition n={n} m={m}",
        lambda b: engine.max_min_partition(fam, n, m, backend=b, max_enum=10**9),
        args.repeat,
    )

    n, m = 3, 10 + args.scale
    fams = [_family(rng, 2, m) for _ in range(n)]
    caps = [Fraction(rng.randint(5, 20)) for _ in range(n)]
    _run(
        f"best_integral_welfare n={n} m={m}",
        lambda b: engine.best_integral_welfare(fams, caps, m, backend=b, max_enum=10**9),
        args.repeat,
    )

    n, m = 2, 11 + args.scale
    fams2 = [_family(rng, 2, m) for _ in range(n)]
    caps2 = [Fraction(rng.randint(5, 20)) for _ in range(n)]
    _run(
        f"best_half_integral n={n} m={m}",
        lambda b: engine.best_half_integral_welfare(fams2, caps2, m, backend=b, max_enum=10**9),
        args.repeat,
    )


if __name__ == "__main__":
    main()
