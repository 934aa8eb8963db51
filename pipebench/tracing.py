"""Spans at the layer boundaries of mmskit, recorded from outside the package.

``Tracer.install`` replaces each traced function with a wrapper under the
name its caller resolves: ``mmskit.algorithms.normalize`` rather than
``mmskit.mms.normalize``, ``engine.max_min_partition`` on the engine module,
``mms`` in both ``mmskit.mms`` and ``mmskit.verify``.  A wrapper records a
span (name, start, end, parent, op id) and counts computed from the call's
arguments and result.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# The engine routes a kernel call to pure Python once its scaled bound
# reaches this value (headroom below 2**63).
INT64_SAFE = 1 << 62

# Layer that a span's self time is charged to.  Engine spans are charged to
# the layer that called the kernel; structural spans count as "other".
LAYER = {
    "op": "other",
    "algorithms.solve": "other",
    "algorithms.normalize": "other",
    "mms": "mms",
    "algorithms.large_item_phase": "algorithms.phases",
    "algorithms.tuple_phase": "algorithms.phases",
    "algorithms.max_welfare_integral": "algorithms.welfare_int",
    "algorithms.max_welfare_half_integral": "algorithms.welfare_half",
    "rounding.round_half_integral": "rounding",
    "verify": "verify",
    "instancefile.serialize_result": "instancefile",
}


def _mms_counts(args, kwargs, result):
    inst = args[0]
    return {"search_space": inst.n ** inst.m}


def _denominator(fracs):
    d = 1
    for x in fracs:
        d = math.lcm(d, x.denominator)
    return d


def _partition_bound(functions) -> int:
    """The bound ``engine.max_min_partition`` checks: largest scaled row sum."""
    denom = _denominator(x for row in functions for x in row)
    return int(max(sum(row) for row in functions) * denom)


def _partition_counts(args, kwargs, result):
    return {"over_int64": int(_partition_bound(args[0]) >= INT64_SAFE)}


def _welfare_kernel_counts(factor):
    """Over-int64 test of a welfare kernel's bound; factor 2 for half shares."""
    def counts(args, kwargs, result):
        families, caps = args[0], list(args[1])
        denom = _denominator([x for fam in families for row in fam for x in row] + caps)
        bound = denom * factor * sum(
            max(cap, max((sum(row) for row in fam), default=0))
            for fam, cap in zip(families, caps))
        return {"over_int64": int(bound >= INT64_SAFE)}
    return counts


def _welfare_counts(choices_per_n):
    def counts(args, kwargs, result):
        inst = args[0]
        return {"search_space": choices_per_n(inst.n) ** inst.m}
    return counts


def _phase_counts(args, kwargs, result):
    return {"removed_agents": len(args[0].agents) - len(result.agents)}


def _rounding_counts(args, kwargs, result):
    return {"two_outcome": int(len(result.support) == 2)}


def _verify_counts(args, kwargs, result):
    recomputed = args[0].n if kwargs.get("mms_values") is None else 0
    return {"mms_recomputed": recomputed}


def _serialize_counts(args, kwargs, result):
    return {"bytes": len(result.encode())}


class Tracer:
    """Span recorder that wraps functions in place until ``restore``."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": time.monotonic(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.monotonic()

    def _wrap(self, owner, attr: str, name: str, counter=None):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if counter is not None:
                    record["counts"] = counter(args, kwargs, result)
                return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the pipeline's layer boundaries."""
        pkg = importlib.import_module("mmskit")
        algorithms = importlib.import_module("mmskit.algorithms")
        # mmskit.mms and mmskit.verify are re-exported functions that shadow
        # their submodules as package attributes
        mms_mod = importlib.import_module("mmskit.mms")
        verify_mod = importlib.import_module("mmskit.verify")
        engine = importlib.import_module("mmskit.engine")
        half = lambda n: n + n * (n - 1) // 2
        for attr in ("solve_deterministic", "solve_randomized"):
            self._wrap(pkg, attr, "algorithms.solve")
        self._wrap(pkg, "verify", "verify", _verify_counts)
        self._wrap(pkg, "serialize_result", "instancefile.serialize_result",
                   _serialize_counts)
        self._wrap(algorithms, "normalize", "algorithms.normalize")
        self._wrap(algorithms, "large_item_phase", "algorithms.large_item_phase",
                   _phase_counts)
        self._wrap(algorithms, "tuple_phase", "algorithms.tuple_phase", _phase_counts)
        self._wrap(algorithms, "max_welfare_integral", "algorithms.max_welfare_integral",
                   _welfare_counts(lambda n: n))
        self._wrap(algorithms, "max_welfare_half_integral",
                   "algorithms.max_welfare_half_integral", _welfare_counts(half))
        self._wrap(algorithms, "round_half_integral", "rounding.round_half_integral",
                   _rounding_counts)
        self._wrap(mms_mod, "mms", "mms", _mms_counts)
        self._wrap(verify_mod, "mms", "mms", _mms_counts)
        self._wrap(engine, "max_min_partition", "engine.max_min_partition",
                   _partition_counts)
        self._wrap(engine, "best_integral_welfare", "engine.best_integral_welfare",
                   _welfare_kernel_counts(1))
        self._wrap(engine, "best_half_integral_welfare",
                   "engine.best_half_integral_welfare", _welfare_kernel_counts(2))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer totals over every op span: busy seconds, calls and counts.

    A span's self time is its duration minus its children's; it is charged
    to the span's layer, or for engine spans to the nearest ancestor's.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def layer(s):
        while s["name"] not in LAYER:
            s = by_id[s["parent"]]
        return LAYER[s["name"]]

    busy = defaultdict(float)
    calls = Counter()
    counts = Counter()
    for s in spans:
        busy[layer(s)] += s["end"] - s["start"] - child_time[s["id"]]
        calls[s["name"]] += 1
        for key, value in s["counts"].items():
            counts[f"{s['name']}.{key}"] += value
    return {"busy": busy, "calls": calls, "counts": counts}


def check_nesting(spans: list[dict]) -> list[str]:
    """Problems with span nesting: a child outside its parent or another op."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} ends before it starts")
        if s["parent"] is None:
            if s["name"] != "op":
                problems.append(f"span {s['id']} {s['name']} has no parent")
            continue
        p = by_id[s["parent"]]
        if not (p["start"] <= s["start"] and s["end"] <= p["end"]):
            problems.append(f"span {s['id']} {s['name']} lies outside parent {p['name']}")
        if p["op"] != s["op"]:
            problems.append(f"span {s['id']} {s['name']} belongs to another op")
    return problems
