#!/usr/bin/env python3
"""Pipeline benchmark of mmskit: verified solves on seeded workloads.

Usage:
  python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One client runs the workload's jobs in a closed loop: each op (solve, verify
at the paper's guarantee, serialize) starts when the previous one has
returned.  Every result is checked.  Standard output ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``, holding the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The lines before it give the same numbers with units, and the run metadata.

Set-up is measured as several fresh processes, each from its start until it
is ready for its first op, and reported as their median.  A traced run
spends half its time untraced and half traced, and reports the difference
between the two medians as the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("mms-det", "welfare-rand")
DEFAULT_SEED = 1
SETUP_SAMPLES = 7  # set-up probes, the measured run's own set-up included
IMPORT_SAMPLES = 5


def calibrate() -> float:
    """Median time of a fixed pure-Python integer loop: the host's speed now."""
    samples = []
    for _ in range(3):
        t0 = time.monotonic()
        acc = 0
        for i in range(1_000_000):
            acc = (acc * 31 + i) % 1_000_003
        samples.append(time.monotonic() - t0)
    return statistics.median(samples)


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least ten samples above it.

    Returns (value, percentile, samples above).  With fewer than eleven
    samples it falls back to the smallest value.
    """
    xs = sorted(values)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def worker(args, *extra) -> tuple[dict, float]:
    """Run worker.py; its JSON result and the time just before it started."""
    argv = [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]
    if args.tiny:
        argv.append("--tiny")
    spawned = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=150)
    if proc.returncode != 0:
        raise SystemExit(f"error: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def import_probe() -> float:
    """Median wall time of a process that only imports mmskit.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.monotonic()
        subprocess.run([sys.executable, "-c", "import mmskit.cli"], env=env,
                       check=True, timeout=60)
        samples.append(time.monotonic() - t0)
    return statistics.median(samples)


def expected_digest(workload: str, seed: int, tiny: bool) -> str | None:
    if seed != DEFAULT_SEED or tiny:
        return None
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def per_layer(res: dict, calib: float, import_s: float) -> dict:
    """The traced phase's layer totals as per-op figures and shares."""
    layers = res["layers"]
    busy, calls, counts = layers["busy"], layers["calls"], layers["counts"]
    ops = len(res["traced_op_times"])
    op_total = sum(res["traced_op_times"])
    half = "algorithms.max_welfare_half_integral"
    whole = "algorithms.max_welfare_integral"
    phases = ("algorithms.large_item_phase", "algorithms.tuple_phase")

    def rate(space, layer):
        return space / busy[layer] if busy.get(layer) else 0.0

    def count(name, key):
        return counts.get(f"{name}.{key}", 0)

    engine_calls = sum(v for k, v in calls.items() if k.startswith("engine."))
    over = sum(v for k, v in counts.items()
               if k.startswith("engine.") and k.endswith(".over_int64"))
    mms_space = count("mms", "search_space")
    half_space = count(half, "search_space")
    untraced_p50 = statistics.median(res["op_times"])
    traced_p50 = statistics.median(res["traced_op_times"])
    return {
        "mms.calls": (calls.get("mms", 0) / ops, "count/op"),
        "mms.busy_s": (busy.get("mms", 0.0) / ops, "s/op"),
        "mms.share": (busy.get("mms", 0.0) / op_total, "ratio"),
        "mms.search_space": (mms_space / ops, "count/op"),
        "mms.space_per_s": (rate(mms_space, "mms"), "1/s"),
        "engine.calls": (engine_calls / ops, "count/op"),
        "engine.over_int64_calls": (over / ops, "count/op"),
        "algorithms.welfare_half.calls": (calls.get(half, 0) / ops, "count/op"),
        "algorithms.welfare_half.share": (
            busy.get("algorithms.welfare_half", 0.0) / op_total, "ratio"),
        "algorithms.welfare_half.search_space": (half_space / ops, "count/op"),
        "algorithms.welfare_half.space_per_s": (
            rate(half_space, "algorithms.welfare_half"), "1/s"),
        "algorithms.welfare_int.calls": (calls.get(whole, 0) / ops, "count/op"),
        "algorithms.welfare_int.share": (
            busy.get("algorithms.welfare_int", 0.0) / op_total, "ratio"),
        "algorithms.phases.busy_s": (busy.get("algorithms.phases", 0.0) / ops, "s/op"),
        "algorithms.phases.removed_agents": (
            sum(count(p, "removed_agents") for p in phases) / ops, "count/op"),
        "rounding.calls": (calls.get("rounding.round_half_integral", 0) / ops, "count/op"),
        "rounding.share": (busy.get("rounding", 0.0) / op_total, "ratio"),
        "rounding.two_outcome": (
            count("rounding.round_half_integral", "two_outcome") / ops, "count/op"),
        "verify.busy_s": (busy.get("verify", 0.0) / ops, "s/op"),
        "verify.mms_recomputed": (count("verify", "mms_recomputed") / ops, "count/op"),
        "instancefile.busy_s": (busy.get("instancefile", 0.0) / ops, "s/op"),
        "instancefile.bytes": (count("instancefile.serialize_result", "bytes") / ops, "B/op"),
        "cli.import_s": (import_s, "s"),
        "cli.process_s": (res["cli_process_s"], "s"),
        "other.self_s": (busy.get("other", 0.0) / ops, "s/op"),
        "host.calib_s": (calib, "s"),
        "trace.overhead_s": (traced_p50 - untraced_p50, "s"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every instance (for the smoke check)")
    ap.add_argument("--spans", default=None,
                    help="with --trace 1, write the spans here as JSON "
                         "(default pipebench/out/spans-WORKLOAD-SEED.json)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "mmskit", "__init__.py")):
        print(f"error: no mmskit package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    setup = []

    def setup_probe():
        res, spawned = worker(args, "--setup-only")
        setup.append(res["ready_at"] - spawned)

    calib_before = calibrate()
    # set-up samples come half before and half after the measured run, so
    # their median spans the host's state over the whole run
    for _ in range(SETUP_SAMPLES // 2):
        setup_probe()
    extra = []
    if args.trace:
        spans = args.spans or os.path.join(
            HERE, "out", f"spans-{args.workload}-{args.seed}.json")
        os.makedirs(os.path.dirname(os.path.abspath(spans)), exist_ok=True)
        extra = ["--spans", spans]
    res, spawned = worker(args, *extra)
    setup.append(res["ready_at"] - spawned)
    for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2):
        setup_probe()
    import_s = import_probe() if args.trace else None
    calib_after = calibrate()

    failed = res["failed"]
    expected = expected_digest(args.workload, args.seed, args.tiny)
    digest_ok = res["digest"] is not None and expected in (None, res["digest"])
    if not digest_ok:
        failed = res["attempted"]  # a digest mismatch fails every op of the run
    times = res["op_times"]
    tail_s, tail_pct, beyond = tail(times)
    if args.trace:
        metrics = per_layer(res, (calib_before + calib_after) / 2, import_s)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_s.p50": (statistics.median(times), "s"),
            "op_s.tail": (tail_s, "s"),
            "ops_per_s": (len(times) / res["elapsed"], "1/s"),
            "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        }

    print(f"workload {args.workload}  seed {args.seed}  backend {res['backend']}  "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_s.tail":
            note = f"  (p{tail_pct:.1f}: {beyond} of {len(times)} samples beyond it)"
        elif name == "setup_s":
            note = f"  (median of {len(setup)})"
        print(f"  {name:40s} {value:.6g} {unit}{note}")
    print(f"  {'failed_ratio':40s} {failed / res['attempted']:.6g} ratio  "
          f"({failed} of {res['attempted']} ops)")
    print(f"  {'host.calib_s':40s} before {calib_before:.4f} s, after {calib_after:.4f} s")
    print(f"  digest {res['digest']}"
          + ("" if expected is None else
             "  (matches digests.json)" if digest_ok else f"  (MISMATCH, expected {expected})"))
    meta = {
        "git_revision": git_revision(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "backend": res["backend"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "instances": res["instances"],
        "jobs": res["jobs"],
        "ops": len(times),
        "op_s.tail": {"percentile": tail_pct, "samples": len(times), "beyond": beyond},
        "setup_s_samples": setup,
        "host.calib_s": {"before": calib_before, "after": calib_after},
        "digest": res["digest"],
        "digest_expected": expected,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
