"""Command-line interface.

Subcommands: mms, solve, verify, gen, bound2, sample.  Exit code 0 means
every verification passed; 1 means a verification failed; 2 means the
input was unusable (bad arguments, malformed files, or a blown
enumeration budget).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from . import __version__
from .algorithms import (
    DET_GUARANTEE,
    RAND_EX_ANTE,
    RAND_EX_POST,
    solve_deterministic,
    solve_randomized,
)
from .engine import DEFAULT_MAX_ENUM
from .errors import CapacityError, ParseError
from .generators import FAMILIES, gen_instance
from .instancefile import (
    ResultDocument,
    load_instance_document,
    load_result,
    serialize_instance,
    serialize_result,
)
from .mms import share_certificates
from .verify import best_two_agent_split, verify


def _rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("ratio must be non-negative")
    return value


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2))


def _cmd_mms(args) -> int:
    inst = load_instance_document(args.instance).instance
    certs = share_certificates(inst, max_enum=args.max_enum)
    if args.json:
        _print_json(
            {
                "mms": [str(c.value) for c in certs],
                "partitions": [
                    [sorted(b) for b in c.partition] for c in certs
                ],
            }
        )
    else:
        for i, c in enumerate(certs):
            bundles = ", ".join("{" + ", ".join(map(str, sorted(b))) + "}" for b in c.partition)
            print(f"agent {i}: mms={c.value} partition=[{bundles}]")
    return 0


def _solve_doc(args, inst):
    if args.algorithm == "det":
        res = solve_deterministic(inst, max_enum=args.max_enum)
        alpha = args.alpha if args.alpha is not None else DET_GUARANTEE
        ex_ante = args.ex_ante
        report = verify(
            inst, res.allocation, alpha, ex_ante_alpha=ex_ante,
            mms_values=res.mms_values, max_enum=args.max_enum,
        )
        doc = ResultDocument(
            algorithm="det",
            allocation=res.allocation,
            mms=res.mms_values,
            report=report.to_dict(),
        )
        return doc, report
    res = solve_randomized(inst, max_enum=args.max_enum)
    alpha = args.alpha if args.alpha is not None else RAND_EX_POST
    ex_ante = args.ex_ante if args.ex_ante is not None else RAND_EX_ANTE
    report = verify(
        inst, res.randomized, alpha, ex_ante_alpha=ex_ante,
        mms_values=res.mms_values, max_enum=args.max_enum,
    )
    doc = ResultDocument(
        algorithm="rand",
        randomized=res.randomized,
        mms=res.mms_values,
        report=report.to_dict(),
    )
    return doc, report


def _cmd_solve(args) -> int:
    inst = load_instance_document(args.instance).instance
    doc, report = _solve_doc(args, inst)
    text = serialize_result(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.json:
        sys.stdout.write(text)
    else:
        if doc.allocation is not None:
            for i in range(inst.n):
                items = sorted(doc.allocation.bundle(i))
                print(f"agent {i}: items {items}")
        else:
            for idx, (alloc, p) in enumerate(doc.randomized.support):
                print(f"outcome {idx} (probability {p}):")
                for i in range(inst.n):
                    print(f"  agent {i}: items {sorted(alloc.bundle(i))}")
        print(str(report))
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    inst = load_instance_document(args.instance).instance
    doc = load_result(args.result, inst.m)
    report = verify(
        inst,
        doc.result,
        args.alpha,
        ex_ante_alpha=args.ex_ante,
        max_enum=args.max_enum,
    )
    if args.json:
        _print_json(report.to_dict())
    else:
        print(str(report))
    return 0 if report.passed else 1


def _cmd_gen(args) -> int:
    inst = gen_instance(
        args.family, n=args.n, m=args.m, l=args.l, maxval=args.maxval, seed=args.seed
    )
    meta = {"name": args.family, "family": args.family}
    for key in ("n", "m", "l", "maxval", "seed"):
        value = getattr(args, key)
        if value is not None:
            meta[key] = value
    text = serialize_instance(inst, meta=meta)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bound2(args) -> int:
    inst = load_instance_document(args.instance).instance
    value, witness = best_two_agent_split(inst, max_enum=args.max_enum)
    if args.json:
        _print_json({"value": str(value), "witness": sorted(witness)})
    else:
        print(f"best split value: {value}")
        print(f"witness set for agent 0: {sorted(witness)}")
    return 0


def _cmd_sample(args) -> int:
    doc = load_result(args.result)
    if doc.randomized is None:
        print("error: result document holds no randomized allocation", file=sys.stderr)
        return 2
    rand = doc.randomized
    # draw exactly: scale probabilities to a common denominator and pick a slot
    denom = 1
    for _, p in rand.support:
        denom = math.lcm(denom, p.denominator)
    draw = random.Random(args.seed).randrange(denom)
    acc = 0
    chosen = rand.support[-1][0]
    for alloc, p in rand.support:
        acc += int(p * denom)
        if draw < acc:
            chosen = alloc
            break
    if args.json:
        _print_json({"seed": args.seed, "owner": list(chosen.owner)})
    else:
        print(f"sampled outcome (seed {args.seed}): owners {list(chosen.owner)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmskit",
        description="Exact maximin-share allocation toolkit for XOS valuations",
    )
    parser.add_argument("--version", action="version", version=f"mmskit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_instance=True):
        if needs_instance:
            p.add_argument("instance", help="instance file (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--max-enum",
            type=int,
            default=DEFAULT_MAX_ENUM,
            help="enumeration budget (default %(default)s)",
        )

    p = sub.add_parser("mms", help="exact maximin shares with witness partitions")
    common(p)
    p.set_defaults(func=_cmd_mms)

    p = sub.add_parser("solve", help="run an allocation pipeline and verify it")
    p.add_argument(
        "--algorithm", choices=("det", "rand"), required=True,
        help="det: 3/13 guarantee; rand: 1/4 ex ante, 1/8 ex post",
    )
    p.add_argument("--alpha", type=_rational, default=None, help="override the ex-post target ratio")
    p.add_argument("--ex-ante", type=_rational, default=None, help="override the ex-ante target ratio")
    p.add_argument("--out", default=None, help="also write the result document here")
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a result document against an instance")
    p.add_argument("instance", help="instance file (JSON)")
    p.add_argument("result", help="result document from solve")
    p.add_argument("--alpha", type=_rational, required=True, help="ex-post target ratio P/Q")
    p.add_argument("--ex-ante", type=_rational, default=None, help="ex-ante target ratio P/Q")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--max-enum", type=int, default=DEFAULT_MAX_ENUM)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, default=None, help="number of agents")
    p.add_argument("--m", type=int, default=None, help="number of items")
    p.add_argument("--l", type=int, default=None, help="additive functions per agent")
    p.add_argument("--maxval", type=int, default=None, help="largest integer value")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bound2", help="best split of the items between two agents")
    common(p)
    p.set_defaults(func=_cmd_bound2)

    p = sub.add_parser("sample", help="draw one outcome from a randomized result")
    p.add_argument("result", help="result document from solve --algorithm rand")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, CapacityError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
