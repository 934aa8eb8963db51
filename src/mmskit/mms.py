"""Exact maximin-share oracle and the reductions built on it.

The maximin share of an agent is the best worst-bundle value she can secure
by partitioning the items into n bundles herself.  The oracle certifies the
first optimum among the n^m labeled assignments (bundles may be empty) in
lexicographic label order, so results are reproducible down to the witness
partition.  The search is exact: it proves the optimum value first, then
finds the first labeling that reaches it, pruning by branch and bound all
the way, which changes its cost but not its answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import engine
from .engine import DEFAULT_MAX_ENUM
from .values import (
    HALF,
    ZERO,
    FractionalSet,
    Instance,
    XosValuation,
    restrict_instance,
)


@dataclass(frozen=True)
class MmsCertificate:
    """Maximin-share value plus a witnessing partition into n bundles."""

    value: Fraction
    partition: tuple[frozenset[int], ...]

    @property
    def n(self) -> int:
        return len(self.partition)


def mms(inst: Instance, agent: int, *, max_enum: int = DEFAULT_MAX_ENUM,
        backend: str | None = None) -> MmsCertificate:
    """Maximin share of one agent, with a witness partition.

    The value is the max-min over the assignments of the m items to n
    bundle labels; the certificate is the lexicographically smallest
    optimal label sequence.  Raises CapacityError when n^m exceeds
    ``max_enum``, a budget on the full assignment count however much the
    search prunes.
    """
    if inst.n < 1:
        raise ValueError("instance has no agents")
    if agent < 0 or agent >= inst.n:
        raise IndexError(f"agent index {agent} out of range")
    v = inst.valuations[agent]
    labels = engine.max_min_partition(
        v.int_table[1], inst.n, inst.m,
        max_enum=max_enum, backend=backend,
    )
    partition = tuple(
        frozenset(j for j in range(inst.m) if labels[j] == g) for g in range(inst.n)
    )
    value = min(v.value(b) for b in partition)
    return MmsCertificate(value=value, partition=partition)


def share_certificates(inst: Instance, *, max_enum: int = DEFAULT_MAX_ENUM,
                       backend: str | None = None) -> tuple[MmsCertificate, ...]:
    """Every agent's ``mms`` certificate, one search per distinct family.

    An agent whose additive functions equal an earlier agent's (same rows
    in the same order, so the same integer table) has the same search, so
    it reuses that certificate.
    """
    families = [v.int_table for v in inst.valuations]
    certs = []
    for i, fam in enumerate(families):
        first = families.index(fam)
        certs.append(
            certs[first] if first < i
            else mms(inst, i, max_enum=max_enum, backend=backend)
        )
    return tuple(certs)


def share_values(inst: Instance, *, max_enum: int = DEFAULT_MAX_ENUM,
                 backend: str | None = None) -> tuple[Fraction, ...]:
    """Every agent's maximin share, one search per distinct family."""
    return tuple(c.value for c in share_certificates(
        inst, max_enum=max_enum, backend=backend))


def proportional_share(inst: Instance, agent: int) -> Fraction:
    """v_i(all items) / n, an upper-bound benchmark on fair shares."""
    if inst.n < 1:
        raise ValueError("instance has no agents")
    return inst.valuations[agent].value(range(inst.m)) / inst.n


def normalize(
    inst: Instance,
    *,
    mms_values: tuple[Fraction, ...] | None = None,
    max_enum: int = DEFAULT_MAX_ENUM,
    backend: str | None = None,
) -> tuple[Instance, tuple[Fraction, ...]]:
    """Divide each agent's entries by her maximin share.

    Agents whose maximin share is zero are left untouched; the returned
    factors are the original maximin shares, so callers can convert
    normalized guarantees back to original units.  Agents with identical
    families share one search (``share_values``).
    """
    if mms_values is None:
        mms_values = share_values(inst, max_enum=max_enum, backend=backend)
    else:
        mms_values = tuple(Fraction(x) for x in mms_values)
        if len(mms_values) != inst.n:
            raise ValueError("need one maximin-share value per agent")
    scaled = tuple(
        v.scaled(1 / s) if s > 0 else v for v, s in zip(inst.valuations, mms_values)
    )
    return Instance(m=inst.m, valuations=scaled, normalized=True), mms_values


def reduce_instance(inst: Instance, agent: int, item: int) -> Instance:
    """Remove one agent and one item, re-indexing the rest.

    The key monotonicity fact, exercised heavily by the test suite: every
    surviving agent's maximin share (now over n-1 bundles) never decreases.
    Removing the last agent leaves an agentless instance; its items become
    leftovers for the caller to place.
    """
    if agent < 0 or agent >= inst.n:
        raise IndexError(f"agent index {agent} out of range")
    if item < 0 or item >= inst.m:
        raise IndexError(f"item index {item} out of range")
    agents = [i for i in range(inst.n) if i != agent]
    items = [j for j in range(inst.m) if j != item]
    return restrict_instance(inst, agents, items)


def halving_split(valuation: XosValuation, certificate: MmsCertificate) -> tuple[FractionalSet, ...]:
    """Split a maximin certificate into 2n half-bundles.

    Each certificate bundle yields two identical fractional sets holding a
    half share of every item in the bundle.  For a normalized agent
    (certificate value at least 1) each half-bundle is worth at least 1/2,
    and the 2n sets exactly cover every item.
    """
    if certificate.value < 1:
        raise ValueError(
            f"certificate value {certificate.value} is below 1; "
            "normalize the agent first"
        )
    m = valuation.m
    seen: set[int] = set()
    for bundle in certificate.partition:
        for j in bundle:
            if j < 0 or j >= m:
                raise ValueError(f"certificate item {j} out of range")
            if j in seen:
                raise ValueError(f"certificate bundles overlap on item {j}")
            seen.add(j)
    if len(seen) != m:
        raise ValueError("certificate bundles do not cover all items")
    halves = []
    for bundle in certificate.partition:
        shares = tuple(HALF if j in bundle else ZERO for j in range(m))
        half = FractionalSet(shares)
        halves.append(half)
        halves.append(half)
    return tuple(halves)
