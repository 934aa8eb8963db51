"""One benchmark process: set up a workload, then run it in a closed loop.

``run.py`` starts this script once per set-up sample (with --setup-only) and
once for the measured run.  It prints one JSON object on its last line of
standard output.  Set-up ends at ``ready_at`` (a ``time.monotonic`` stamp,
comparable with the parent's clock): the package is imported, the jobs are
built and, when a compiled backend exists, checked against the pure one.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import workloads  # noqa: E402  (needs SRC on the path)
from tracing import Tracer, layer_metrics  # noqa: E402


class Loop:
    """Runs whole passes over the jobs and checks every result."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.first: dict[str, list] = {}  # job label -> projection of its first result
        self.attempted = 0
        self.failed = 0
        self.tracer: Tracer | None = None

    def _op(self, job):
        if self.tracer is None:
            return workloads.projection(workloads.run_op(job))
        self.tracer.op = self.attempted
        with self.tracer.span("op"):
            return workloads.projection(workloads.run_op(job))

    def run(self, seconds: float) -> tuple[list[float], float]:
        """Op wall times and elapsed time of whole passes lasting ``seconds``."""
        times = []
        start = time.monotonic()
        while True:
            for job in self.jobs:
                self.attempted += 1
                t0 = time.monotonic()
                try:
                    proj = self._op(job)
                except Exception:  # an op that raises is a failed op; keep going
                    traceback.print_exc()
                    self.failed += 1
                    proj = None
                times.append(time.monotonic() - t0)
                if proj is not None and self.first.setdefault(job.label, proj) != proj:
                    print(f"{job.label}: result differs from its first solve", file=sys.stderr)
                    self.failed += 1
            elapsed = time.monotonic() - start
            if elapsed >= seconds:
                return times, elapsed

    def digest(self) -> str | None:
        if len(self.first) < len(self.jobs):
            return None
        return workloads.digest([self.first[job.label] for job in self.jobs])


def cli_probe(job, repeat=3) -> float:
    """Median wall time of a command-line ``mmskit solve`` of ``job``'s instance."""
    workroot = os.path.join(HERE, "_work")
    os.makedirs(workroot, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workroot) as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(workloads.api.serialize_instance(job.instance))
        argv = [sys.executable, "-m", "mmskit.cli", "solve", "--algorithm", job.algorithm, path]
        samples = []
        for _ in range(repeat):
            t0 = time.monotonic()
            subprocess.run(argv, env=dict(os.environ, PYTHONPATH=SRC),
                           stdout=subprocess.DEVNULL, check=True, timeout=120)
            samples.append(time.monotonic() - t0)
    return statistics.median(samples)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args()

    jobs = workloads.build(args.workload, args.seed, args.tiny)
    workloads.check_backends(jobs)
    out = {"ready_at": time.monotonic()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    loop = Loop(jobs)
    phase = args.seconds / 2 if args.trace else args.seconds
    out["op_times"], out["elapsed"] = loop.run(phase)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        loop.tracer = Tracer()
        loop.tracer.install()
        try:
            out["traced_op_times"], _ = loop.run(phase)
        finally:
            loop.tracer.restore()
        out["layers"] = layer_metrics(loop.tracer.spans)
        out["cli_process_s"] = cli_probe(jobs[0])
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(loop.tracer.spans, fh)
    out.update(
        attempted=loop.attempted,
        failed=loop.failed,
        digest=loop.digest(),
        backend=workloads.engine.backend_name(),
        instances=len(jobs),
        jobs=[job.label for job in jobs],
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
