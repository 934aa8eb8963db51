"""Exact verification of allocations against maximin-share targets.

Everything is checked in the instance's original units: the oracle
recomputes (or reuses) each agent's maximin share, and the achieved values
are exact rationals, so a reported pass is a proof at the stated ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .engine import DEFAULT_MAX_ENUM
from .errors import CapacityError
# ``mms`` is unused here but stays a name of this module: the benchmark's
# tracer (pipebench/tracing.py) wraps ``mmskit.verify.mms``
from .mms import mms, share_values  # noqa: F401
from .values import Instance, ONE
from .allocations import (
    Allocation,
    RandomizedAllocation,
    ex_post_min,
    expected_value,
)


@dataclass(frozen=True)
class AgentReport:
    agent: int
    mms: Fraction
    ex_post: Fraction
    ex_ante: Fraction
    ex_post_ratio: Fraction | None
    ex_ante_ratio: Fraction | None
    passed: bool

    def to_dict(self) -> dict:
        opt = lambda x: None if x is None else str(x)
        return {
            "agent": self.agent,
            "mms": str(self.mms),
            "ex_post_min": str(self.ex_post),
            "ex_ante": str(self.ex_ante),
            "ex_post_ratio": opt(self.ex_post_ratio),
            "ex_ante_ratio": opt(self.ex_ante_ratio),
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    alpha: Fraction
    ex_ante_alpha: Fraction | None
    agents: tuple[AgentReport, ...]
    passed: bool
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc = {
            "pass": self.passed,
            "alpha": str(self.alpha),
            "ex_ante_alpha": None if self.ex_ante_alpha is None else str(self.ex_ante_alpha),
            "agents": [a.to_dict() for a in self.agents],
            "failures": [a.to_dict() for a in self.agents if not a.passed],
        }
        if self.metadata:
            doc["metadata"] = self.metadata
        return doc

    def __str__(self) -> str:
        lines = []
        target = f"alpha={self.alpha}"
        if self.ex_ante_alpha is not None:
            target += f", ex-ante alpha={self.ex_ante_alpha}"
        lines.append(f"verification ({target}): {'PASS' if self.passed else 'FAIL'}")
        for a in self.agents:
            ratio = "n/a" if a.ex_post_ratio is None else str(a.ex_post_ratio)
            lines.append(
                f"  agent {a.agent}: mms={a.mms} ex-post={a.ex_post} "
                f"ex-ante={a.ex_ante} ratio={ratio} "
                f"{'ok' if a.passed else 'FAIL'}"
            )
        return "\n".join(lines)


def verify(
    inst: Instance,
    result: Allocation | RandomizedAllocation,
    alpha: Fraction,
    *,
    ex_ante_alpha: Fraction | None = None,
    mms_values=None,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> VerificationReport:
    """Check a (possibly randomized) allocation against per-agent targets.

    Requires ex_post_min >= alpha * mms for every agent over every outcome,
    and, when ``ex_ante_alpha`` is given, expected value >= ex_ante_alpha *
    mms as well.  Agents with zero maximin share pass trivially and report
    no ratio.
    """
    alpha = Fraction(alpha)
    if ex_ante_alpha is not None:
        ex_ante_alpha = Fraction(ex_ante_alpha)
    if isinstance(result, Allocation):
        rand = RandomizedAllocation(((result, ONE),))
    elif isinstance(result, RandomizedAllocation):
        rand = result
    else:
        raise TypeError("result must be an Allocation or RandomizedAllocation")
    for alloc in rand.outcomes:
        if alloc.m != inst.m:
            raise ValueError(
                f"allocation covers {alloc.m} items, instance has {inst.m}"
            )
        if any(o >= inst.n for o in alloc.owner):
            raise ValueError("allocation references agents outside the instance")
    if mms_values is None:
        mms_values = share_values(inst, max_enum=max_enum)
    else:
        mms_values = tuple(Fraction(x) for x in mms_values)
        if len(mms_values) != inst.n:
            raise ValueError("need one maximin-share value per agent")

    agents = []
    for i in range(inst.n):
        v = inst.valuations[i]
        share = mms_values[i]
        worst = ex_post_min(rand, v, i)
        mean = expected_value(rand, v, i)
        ok = worst >= alpha * share
        if ex_ante_alpha is not None:
            ok = ok and mean >= ex_ante_alpha * share
        agents.append(
            AgentReport(
                agent=i,
                mms=share,
                ex_post=worst,
                ex_ante=mean,
                ex_post_ratio=None if share == 0 else worst / share,
                ex_ante_ratio=None if share == 0 else mean / share,
                passed=ok,
            )
        )
    return VerificationReport(
        alpha=alpha,
        ex_ante_alpha=ex_ante_alpha,
        agents=tuple(agents),
        passed=all(a.passed for a in agents),
    )


def best_two_agent_split(
    inst: Instance, *, max_enum: int = DEFAULT_MAX_ENUM
) -> tuple[Fraction, frozenset[int]]:
    """max over S of v_0(S) + v_1(complement), by exhausting all subsets.

    Two-agent instances only.  Returns the optimum and the first witness S
    in ascending bitmask order (bit j set means item j is in S).
    """
    if inst.n != 2:
        raise ValueError("defined for exactly two agents")
    if 2**inst.m > max_enum:
        raise CapacityError(
            f"subset scan needs 2^{inst.m} evaluations, over the budget of {max_enum}"
        )
    v0, v1 = inst.valuations
    everything = frozenset(range(inst.m))
    best_val = None
    best_set = frozenset()
    for bits in range(2**inst.m):
        s = frozenset(j for j in range(inst.m) if bits >> j & 1)
        val = v0.value(s) + v1.value(everything - s)
        if best_val is None or val > best_val:
            best_val = val
            best_set = s
    return best_val, best_set
