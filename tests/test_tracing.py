"""The benchmark's tracer against the package it wraps.

``pipebench/tracing.py`` wraps the package's layer boundaries and computes
counts from the wrapped calls' positional arguments: the kernels' first
argument must stay nested rows of numbers and their caps rationals.  Here
the tracer is loaded from its file, unchanged, and one tiny instance per
pipeline is solved and verified under it, so a broken argument shows up in
well under a second rather than in the benchmark's own smoke run.
"""

from __future__ import annotations

import importlib.util
import os

import mmskit as mk

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pipebench", "tracing.py"
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("pipebench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pipelines_nest_and_count():
    tracing = _load_tracing()
    # entries 10..11 with m = 10: no single item reaches 1/4 of a share of
    # at least 50, so the randomized pipeline reaches its welfare search
    dense = mk.instance_from_lists(
        [[[10 + (i + k + j) % 2 for j in range(10)] for k in range(2)] for i in range(2)]
    )
    xos = mk.gen_instance("random-xos", n=3, m=6, l=2, maxval=9, seed=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op, (inst, solve) in enumerate(
            [(xos, "solve_deterministic"), (dense, "solve_randomized")]
        ):
            tracer.op = op
            with tracer.span("op"):
                res = getattr(mk, solve)(inst)
                alloc = getattr(res, "allocation", None) or res.randomized
                # mms_values left out, so verify recomputes through ``mms``
                assert mk.verify(inst, alloc, mk.RAND_EX_POST).passed
    finally:
        tracer.restore()
    assert mk.solve_deterministic.__module__ == "mmskit.algorithms"
    assert tracing.check_nesting(tracer.spans) == []
    counts = tracing.layer_metrics(tracer.spans)["counts"]
    assert counts["engine.max_min_partition.over_int64"] == 0
    assert counts["engine.best_half_integral_welfare.over_int64"] == 0
    assert counts["verify.mms_recomputed"] == xos.n + dense.n
    names = {s["name"] for s in tracer.spans}
    assert {"algorithms.normalize", "mms", "engine.max_min_partition",
            "algorithms.max_welfare_half_integral",
            "engine.best_half_integral_welfare", "verify"} <= names
