"""The two allocation pipelines and their shared phase machinery.

Both solvers normalize the instance (divide each agent's values by her
maximin share), peel off agents who can be satisfied with a small bundle,
and finish with an exact capped-welfare maximization over whatever
remains.  The deterministic pipeline guarantees every agent 3/13 of her
maximin share; the randomized one rounds a half-integral welfare optimum
into a two-outcome lottery worth at least 1/4 ex ante and 1/8 ex post.

Scan orders are fixed everywhere (agents ascending, item tuples in
lexicographic index order, first hit wins) so runs are reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import engine
from .engine import DEFAULT_MAX_ENUM
from .mms import mms, normalize
from .values import HALF, ONE, ZERO, Instance, restrict_instance
from .allocations import Allocation, FractionalAllocation, RandomizedAllocation
from .rounding import round_half_integral

# deterministic pipeline: caps 6/13, removal threshold half the cap
DET_CAP = Fraction(6, 13)
DET_THRESHOLD = Fraction(3, 13)
DET_GUARANTEE = Fraction(3, 13)

# randomized pipeline: caps 1/2, single-item removal threshold 1/4
RAND_CAP = HALF
RAND_THRESHOLD = Fraction(1, 4)
RAND_EX_ANTE = Fraction(1, 4)
RAND_EX_POST = Fraction(1, 8)


@dataclass(frozen=True)
class RemovalEvent:
    """One satisfied-and-removed agent: the step, the bundle, its value."""

    step: int
    agent: int
    items: tuple[int, ...]
    value: Fraction


@dataclass(frozen=True)
class WelfareSummary:
    agents: tuple[int, ...]
    items: tuple[int, ...]
    welfare: Fraction


@dataclass
class PhaseTrace:
    """Ordered log of what the pipeline did, for auditing and tests."""

    events: list[RemovalEvent] = field(default_factory=list)
    welfare: WelfareSummary | None = None
    leftovers: tuple[int, ...] = ()
    leftover_agent: int | None = None

    def removed_agents(self, step: int | None = None) -> list[int]:
        return [e.agent for e in self.events if step is None or e.step == step]

    def removed_items(self, step: int | None = None) -> list[int]:
        return [j for e in self.events if step is None or e.step == step for j in e.items]


@dataclass(frozen=True)
class PartialInstance:
    """Mid-pipeline state: who and what is still unassigned.

    Agent and item ids are indices into the full (normalized) instance;
    ``assigned`` records the bundles fixed by earlier phases.
    """

    instance: Instance
    agents: tuple[int, ...]
    items: tuple[int, ...]
    assigned: tuple[tuple[int, frozenset[int]], ...] = ()


def initial_state(inst: Instance) -> PartialInstance:
    return PartialInstance(
        instance=inst,
        agents=tuple(range(inst.n)),
        items=tuple(range(inst.m)),
    )


def _phase(state, size, step, thresholds, trace):
    agents = list(state.agents)
    items = list(state.items)
    assigned = list(state.assigned)
    while True:
        hit = None
        for i in agents:
            threshold = thresholds[i]
            if threshold is None:
                continue
            for combo in itertools.combinations(items, size):
                value = state.instance.valuations[i].value(combo)
                if value >= threshold:
                    hit = (i, combo, value)
                    break
            if hit is not None:
                break
        if hit is None:
            break
        i, combo, value = hit
        agents.remove(i)
        for j in combo:
            items.remove(j)
        assigned.append((i, frozenset(combo)))
        if trace is not None:
            trace.events.append(
                RemovalEvent(step=step, agent=i, items=tuple(combo), value=value)
            )
    return PartialInstance(
        instance=state.instance,
        agents=tuple(agents),
        items=tuple(items),
        assigned=tuple(assigned),
    )


def large_item_phase(
    state: PartialInstance, thresholds, trace: PhaseTrace | None = None
) -> PartialInstance:
    """Hand a single item to any agent who values it at her threshold.

    Scans agents ascending then items ascending, assigns the first
    qualifying pair, removes both, and rescans until nothing qualifies.
    ``thresholds[i]`` is the agent's bar, or None to skip her entirely
    (agents whose maximin share is zero never trigger removals).
    """
    return _phase(state, 1, 1, thresholds, trace)


def tuple_phase(
    state: PartialInstance,
    size: int,
    thresholds,
    trace: PhaseTrace | None = None,
    step: int | None = None,
) -> PartialInstance:
    """Same removal loop over item tuples of a fixed size.

    Tuples of remaining items are scanned in lexicographic index order.
    The trace step defaults to the tuple size.
    """
    if size < 1:
        raise ValueError("tuple size must be positive")
    return _phase(state, size, size if step is None else step, thresholds, trace)


def _welfare_tables(inst: Instance, caps):
    """Every agent's integer rows over one common denominator, and the caps
    in the same units: the welfare kernels' inputs, scaled by ints only."""
    den = math.lcm(*(v.int_table[0] for v in inst.valuations))
    families = []
    for v in inst.valuations:
        own, rows = v.int_table
        lift = den // own
        families.append(rows if lift == 1 else [[r * lift for r in row] for row in rows])
    return families, [Fraction(c) * den for c in caps]


def max_welfare_integral(
    inst: Instance,
    caps,
    *,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> Allocation:
    """Exact owner-per-item search maximizing capped welfare.

    The objective is the sum over agents of min(cap_i, v_i(bundle)).  Ties
    break to the lexicographically smallest owner sequence.
    """
    owners = engine.best_integral_welfare(
        *_welfare_tables(inst, caps), inst.m, max_enum=max_enum
    )
    return Allocation(tuple(owners))


def max_welfare_half_integral(
    inst: Instance,
    caps,
    *,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> FractionalAllocation:
    """Capped-welfare optimum where items may split half/half across a pair.

    Per item the choices are: whole to one agent, or half each to two.  The
    objective caps each agent's fractional value at cap_i.  Ties break to
    the lexicographically smallest per-item choice sequence (whole
    assignments in agent order first, then pairs in lexicographic order).
    """
    choices, pairs = engine.best_half_integral_welfare(
        *_welfare_tables(inst, caps), inst.m, max_enum=max_enum
    )
    rows = [[ZERO] * inst.m for _ in range(inst.n)]
    for j, c in enumerate(choices):
        if c < inst.n:
            rows[c][j] = ONE
        else:
            a, b = pairs[c - inst.n]
            rows[a][j] = HALF
            rows[b][j] = HALF
    return FractionalAllocation(tuple(tuple(row) for row in rows))


@dataclass(frozen=True)
class DeterministicResult:
    allocation: Allocation
    trace: PhaseTrace
    mms_values: tuple[Fraction, ...]
    normalized_instance: Instance


@dataclass(frozen=True)
class RandomizedResult:
    randomized: RandomizedAllocation
    trace: PhaseTrace
    mms_values: tuple[Fraction, ...]
    normalized_instance: Instance


def _thresholds(base: Fraction, mms_values) -> list[Fraction | None]:
    return [base if s > 0 else None for s in mms_values]


def _caps(base: Fraction, mms_values, agents) -> list[Fraction]:
    return [base if mms_values[i] > 0 else ZERO for i in agents]


def _compose(inst: Instance, state: PartialInstance, trace: PhaseTrace,
             sub_owner: list[int] | None) -> tuple[int, ...]:
    """Merge fixed bundles, the welfare stage, and leftovers into one map."""
    owner: list[int | None] = [None] * inst.m
    for agent, items in state.assigned:
        for j in items:
            owner[j] = agent
    if state.agents:
        assert sub_owner is not None
        for j_local, local_agent in enumerate(sub_owner):
            owner[state.items[j_local]] = state.agents[local_agent]
    elif state.items:
        # all agents satisfied early: residue goes to the lowest-index agent
        for j in state.items:
            owner[j] = 0
        trace.leftovers = tuple(state.items)
        trace.leftover_agent = 0
    assert all(o is not None for o in owner)
    return tuple(owner)  # type: ignore[return-value]


def solve_deterministic(
    inst: Instance, *, max_enum: int = DEFAULT_MAX_ENUM, backend: str | None = None
) -> DeterministicResult:
    """Allocation giving every agent at least 3/13 of her maximin share.

    Pipeline: normalize, then peel off agents satisfiable with one item,
    a pair, or a triple worth at least 3/13, then run the capped integral
    welfare maximizer (caps 6/13) over the remaining agents and items.
    Items left after all agents are satisfied go to agent 0.
    """
    if inst.n < 1:
        raise ValueError("instance has no agents")
    norm, factors = normalize(inst, max_enum=max_enum, backend=backend)
    thresholds = _thresholds(DET_THRESHOLD, factors)
    trace = PhaseTrace()
    state = initial_state(norm)
    state = large_item_phase(state, thresholds, trace)
    state = tuple_phase(state, 2, thresholds, trace)
    state = tuple_phase(state, 3, thresholds, trace)
    sub_owner = None
    if state.agents:
        sub = restrict_instance(norm, state.agents, state.items)
        caps = _caps(DET_CAP, factors, state.agents)
        sub_alloc = max_welfare_integral(sub, caps, max_enum=max_enum)
        sub_owner = list(sub_alloc.owner)
        welfare = ZERO
        for local, agent in enumerate(state.agents):
            value = sub.valuations[local].value(sub_alloc.bundle(local))
            welfare += min(caps[local], value)
        trace.welfare = WelfareSummary(
            agents=state.agents, items=state.items, welfare=welfare
        )
    allocation = Allocation(_compose(norm, state, trace, sub_owner))
    return DeterministicResult(
        allocation=allocation,
        trace=trace,
        mms_values=factors,
        normalized_instance=norm,
    )


def solve_randomized(
    inst: Instance, *, max_enum: int = DEFAULT_MAX_ENUM, backend: str | None = None
) -> RandomizedResult:
    """Lottery worth at least 1/4 of the maximin share ex ante, 1/8 ex post.

    Pipeline: normalize, peel off agents who value a single item at 1/4 or
    more, maximize capped welfare (caps 1/2) over half-integral splits of
    the rest, and round the optimum into at most two equally likely
    outcomes that preserve every fractional share exactly.
    """
    if inst.n < 1:
        raise ValueError("instance has no agents")
    norm, factors = normalize(inst, max_enum=max_enum, backend=backend)
    thresholds = _thresholds(RAND_THRESHOLD, factors)
    trace = PhaseTrace()
    state = initial_state(norm)
    state = large_item_phase(state, thresholds, trace)
    if not state.agents:
        owner = _compose(norm, state, trace, None)
        rand = RandomizedAllocation(((Allocation(owner), ONE),))
        return RandomizedResult(rand, trace, factors, norm)

    sub = restrict_instance(norm, state.agents, state.items)
    caps = _caps(RAND_CAP, factors, state.agents)
    frac = max_welfare_half_integral(sub, caps, max_enum=max_enum)
    welfare = ZERO
    for local in range(sub.n):
        welfare += min(caps[local], sub.valuations[local].fractional_value(frac.shares[local]))
    trace.welfare = WelfareSummary(agents=state.agents, items=state.items, welfare=welfare)

    rounded = round_half_integral(frac, sub)
    merged = []
    for sub_alloc, p in rounded.support:
        owner = _compose(norm, state, trace, list(sub_alloc.owner))
        merged.append((Allocation(owner), p))
    rand = RandomizedAllocation(tuple(merged))
    return RandomizedResult(rand, trace, factors, norm)
