#!/usr/bin/env python3
"""Smoke check of the benchmark itself, on tiny instances.

Usage: python3 pipebench/smoke.py

Runs every workload once untraced and once traced with --tiny and checks
that every metric of BENCHMARK.json prints with its unit, that no op
failed, and that every traced span nests inside its parent.  Exits 1 and
names each problem when a check fails.  Takes under a minute.
"""

import json
import os
import subprocess
import sys
import tempfile

from tracing import check_nesting

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    with tempfile.TemporaryDirectory(dir=HERE, prefix="_smoke-") as tmp:
        for workload in (w["name"] for w in bench["workloads"]):
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                spans = os.path.join(tmp, f"spans-{workload}.json")
                argv = [sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--tiny", "--spans", spans]
                proc = subprocess.run(argv, capture_output=True, text=True,
                                      cwd=ROOT, timeout=170)
                where = f"{workload} --trace {trace}"
                if proc.returncode != 0:
                    problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                    continue
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                for metric in bench[group]:
                    name, unit = metric["name"], metric["unit"]
                    got = result["metrics"].get(name)
                    if got is None or got["unit"] != unit:
                        problems.append(f"{where}: {name} missing or not in {unit}")
                    if not any(line.split()[:1] == [name] and f" {unit}" in line
                               for line in lines[:-1]):
                        problems.append(f"{where}: no printed line for {name} in {unit}")
                if result["failed"] != 0 or not result["correct"]:
                    problems.append(f"{where}: failed_ratio is "
                                    f"{result['failed']}/{result['attempted']}")
                if trace:
                    with open(spans, encoding="utf-8") as fh:
                        problems += [f"{where}: {p}" for p in check_nesting(json.load(fh))]
                print(f"{where}: checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke check:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
