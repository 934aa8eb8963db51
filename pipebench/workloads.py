"""Seeded workloads of the pipeline benchmark and the operation each one runs.

A workload is a fixed list of jobs built from the workload seed.  One pass
runs every job once, in list order; the benchmark repeats whole passes, so
every run sees the same mix of instance sizes.  A job is one instance plus
the pipeline it goes through: ``det`` (3/13) or ``rand`` (1/4 ex ante, 1/8
ex post).

The dense instance family used here, which ``mmskit.generators`` lacks, is
generated in this module.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

import mmskit as api
from mmskit import engine


@dataclass(frozen=True)
class Job:
    label: str
    algorithm: str  # "det" or "rand"
    instance: api.Instance


class OpFailed(Exception):
    """An operation reported a failed check."""


def _rng(name: str, seed: int) -> random.Random:
    # str seeds hash through SHA-512, so the stream does not depend on
    # PYTHONHASHSEED
    return random.Random(f"{name}:{seed}")


def _dense(rng, n, m, l, lo, hi):
    """Entries uniform in lo..hi.

    With n = 2 and 4 * hi < (m // 2) * lo, every agent's maximin share is at
    least (m // 2) * lo (split any one row into two halves), so no item
    reaches 1/4 of it: phase 1 removes nobody and the whole instance goes to
    the half-integral welfare search.
    """
    return api.instance_from_lists(
        [[[rng.randint(lo, hi) for _ in range(m)] for _ in range(l)] for _ in range(n)]
    )


def build(name: str, seed: int, tiny: bool) -> list[Job]:
    """The jobs of one pass.  ``tiny`` shrinks every instance for smoke runs."""
    rng = _rng(name, seed)
    if name == "mms-det":
        # op times fall in three cost classes, (3,9) < (3,10) < (4,8), of
        # 1/5, 2/5 and 2/5 of the ops: the median sits inside the (3,10)
        # class and the tail (about p80 to p90 in a run) inside the (4,8)
        # class, not on a border where it would jump from run to run
        sizes = ((3, 6), (2, 7), (3, 5), (3, 6), (2, 7)) if tiny else (
            (3, 10), (4, 8), (3, 9), (3, 10), (4, 8))
        return [
            Job(f"xos-n{n}-m{m}-{k}", "det", api.gen_instance(
                "random-xos", n=n, m=m, l=2, maxval=20, seed=rng.randrange(2**32)))
            for k, (n, m) in enumerate(sizes)
        ]
    if name == "welfare-rand":
        # m=11 rather than 10: an op of about 1 s averages the host's
        # sub-second speed swings, which made the median of shorter ops jump
        m, lo, hi = (6, 10, 12) if tiny else (11, 10, 12)
        return [
            Job(f"dense-m{m}-{k}", "rand", _dense(rng, 2, m, 3, lo, hi))
            for k in range(4)
        ]
    raise ValueError(f"unknown workload {name!r}")


def run_op(job: Job, backend: str | None = None) -> str:
    """Solve, verify at the paper's guarantee and serialize; the document."""
    if job.algorithm == "det":
        res = api.solve_deterministic(job.instance, backend=backend)
        result = res.allocation
        report = api.verify(job.instance, result, api.DET_GUARANTEE,
                            mms_values=res.mms_values)
        doc = api.ResultDocument("det", allocation=result, mms=res.mms_values,
                                 report=report.to_dict())
    else:
        res = api.solve_randomized(job.instance, backend=backend)
        result = res.randomized
        report = api.verify(job.instance, result, api.RAND_EX_POST,
                            ex_ante_alpha=api.RAND_EX_ANTE,
                            mms_values=res.mms_values)
        doc = api.ResultDocument("rand", randomized=result, mms=res.mms_values,
                                 report=report.to_dict())
    if not report.passed:
        raise OpFailed(f"{job.label}: verification failed")
    return api.serialize_result(doc)


def projection(doc_text: str) -> list:
    """What the digest covers: MMS values, owners or lottery, pass flags.

    The rest of the document (verification details, any statistics a later
    version adds) stays out, so it can grow without moving the digest.
    """
    doc = json.loads(doc_text)
    report = doc["report"]
    return [
        doc["algorithm"],
        doc["mms"],
        doc.get("allocation"),
        doc.get("randomized"),
        report["pass"],
        [a["pass"] for a in report["agents"]],
    ]


def digest(projections: list) -> str:
    text = json.dumps(projections, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_backends(jobs: list[Job]) -> None:
    """With a compiled backend, re-solve the workload's smallest job on pure Python.

    Raises OpFailed on any difference.  Without one there is nothing to
    compare, and the run records ``backend: python``.
    """
    if not engine.has_compiled_backend():
        return
    # the smallest search, because the pure re-solve counts as set-up
    job = min(jobs, key=lambda j: j.instance.n ** j.instance.m)
    if projection(run_op(job)) != projection(run_op(job, backend="python")):
        raise OpFailed(f"{job.label}: compiled and pure backends disagree")
