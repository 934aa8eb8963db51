"""Removal phases, capped welfare maximizers, and the two end-to-end
solvers."""

from __future__ import annotations

import itertools
import random

import pytest

import mmskit as mk
from mmskit import engine
from conftest import (
    F,
    oracle_half_welfare,
    oracle_integral_welfare,
    raw_instance,
    suite_instances,
)


THIRTEENTHS = mk.DET_THRESHOLD  # 3/13, also the deterministic guarantee


def additive_instance(rows):
    return mk.instance_from_lists([[r] for r in rows])


# ---------------------------------------------------------------------------
# welfare maximizers: frozen examples


def test_integral_welfare_zero_caps_first_optimum():
    inst = mk.instance_from_lists([[[1, 2]], [[2, 1]]])
    alloc = mk.max_welfare_integral(inst, [F(0), F(0)])
    # every owner map scores 0; the first in odometer order wins
    assert alloc.owner == (0, 0)


def test_integral_welfare_split_across_specialists():
    inst = mk.instance_from_lists([[[1, 0]], [[0, 1]]])
    alloc = mk.max_welfare_integral(inst, [F(1, 2), F(1, 2)])
    assert alloc.owner == (0, 1)


def test_half_integral_welfare_crossed_blocks(lemma1):
    norm, _ = mk.normalize(lemma1)
    frac = mk.max_welfare_half_integral(norm, [F(1, 2), F(1, 2)])
    # frozen first optimum: items 0..2 whole to agent 0, item 3 to agent 1
    assert frac.shares[0] == (F(1), F(1), F(1), F(0))
    assert frac.shares[1] == (F(0), F(0), F(0), F(1))


def test_integral_welfare_caps_validated():
    inst = mk.instance_from_lists([[[1]]])
    with pytest.raises(ValueError):
        mk.max_welfare_integral(inst, [F(-1)])
    with pytest.raises(ValueError):
        mk.max_welfare_half_integral(inst, [F(-1, 2)])


def test_welfare_caps_need_one_per_agent():
    # a short caps list must not silently drop the agents past its end
    families = [[[F(1), F(1)]], [[F(5), F(5)]], [[F(9), F(9)]]]
    inst = mk.instance_from_lists(families)
    for caps in ([10, 10], [10, 10, 10, 10]):
        for search in (engine.best_integral_welfare,
                       engine.best_half_integral_welfare):
            with pytest.raises(ValueError, match="one cap per agent"):
                search(families, caps, 2)
        with pytest.raises(ValueError, match="one cap per agent"):
            mk.max_welfare_integral(inst, caps)
        with pytest.raises(ValueError, match="one cap per agent"):
            mk.max_welfare_half_integral(inst, caps)


# ---------------------------------------------------------------------------
# welfare maximizers: oracle cross-checks (values and first optima)


def seeded_caps(rng, n):
    menu = [F(0), F(1, 3), F(6, 13), F(1, 2), F(1)]
    return [rng.choice(menu) for _ in range(n)]


def test_integral_welfare_matches_oracle():
    rng = random.Random(91)
    for inst in suite_instances(25):
        if inst.m > 5:
            continue
        caps = seeded_caps(rng, inst.n)
        alloc = mk.max_welfare_integral(inst, caps)
        best, owner = oracle_integral_welfare(raw_instance(inst), caps, inst.m)
        assert alloc.owner == owner
        got = sum(
            (
                min(caps[i], inst.valuations[i].value(alloc.bundle(i)))
                for i in range(inst.n)
            ),
            F(0),
        )
        assert got == best


def test_half_integral_welfare_matches_oracle():
    rng = random.Random(92)
    for inst in suite_instances(25):
        if inst.m > 4:
            continue
        caps = seeded_caps(rng, inst.n)
        frac = mk.max_welfare_half_integral(inst, caps)
        best, choice = oracle_half_welfare(raw_instance(inst), caps, inst.m)
        pairs = list(itertools.combinations(range(inst.n), 2))
        expect = [[F(0)] * inst.m for _ in range(inst.n)]
        for j, c in enumerate(choice):
            if c < inst.n:
                expect[c][j] = F(1)
            else:
                a, b = pairs[c - inst.n]
                expect[a][j] = F(1, 2)
                expect[b][j] = F(1, 2)
        assert [list(r) for r in frac.shares] == expect
        got = sum(
            (
                min(caps[i], inst.valuations[i].fractional_value(frac.shares[i]))
                for i in range(inst.n)
            ),
            F(0),
        )
        assert got == best


def test_half_integral_never_below_integral():
    # allowing halves can only help the capped optimum
    rng = random.Random(93)
    for inst in suite_instances(16):
        if inst.m > 4:
            continue
        caps = seeded_caps(rng, inst.n)
        iw, _ = oracle_integral_welfare(raw_instance(inst), caps, inst.m)
        hw, _ = oracle_half_welfare(raw_instance(inst), caps, inst.m)
        assert hw >= iw


def test_half_integral_optimum_refutes_local_moves():
    # moving one half share between agents never improves the optimum
    rng = random.Random(94)
    for inst in suite_instances(10):
        if inst.m > 4 or inst.n < 2:
            continue
        caps = [F(1, 2)] * inst.n
        frac = mk.max_welfare_half_integral(inst, caps)

        def welfare(shares):
            return sum(
                (
                    min(caps[i], inst.valuations[i].fractional_value(tuple(shares[i])))
                    for i in range(inst.n)
                ),
                F(0),
            )

        base = [list(r) for r in frac.shares]
        best = welfare(base)
        for j in range(inst.m):
            for src in range(inst.n):
                if base[src][j] < F(1, 2):
                    continue
                for dst in range(inst.n):
                    if dst == src or base[dst][j] > F(1, 2):
                        continue
                    moved = [row[:] for row in base]
                    moved[src][j] -= F(1, 2)
                    moved[dst][j] += F(1, 2)
                    assert welfare(moved) <= best


# ---------------------------------------------------------------------------
# removal phases, driven on explicit states


def run_phase(inst, size, thresholds):
    trace = mk.PhaseTrace()
    state = mk.initial_state(inst)
    if size == 1:
        state = mk.large_item_phase(state, thresholds, trace)
    else:
        state = mk.tuple_phase(state, size, thresholds, trace)
    return state, trace


def test_single_item_phase_consumes_both_agents(lemma1):
    norm, _ = mk.normalize(lemma1)
    state, trace = run_phase(norm, 1, [THIRTEENTHS, THIRTEENTHS])
    assert state.agents == ()
    assert [e.items for e in trace.events] == [(0,), (1,)]
    assert [e.agent for e in trace.events] == [0, 1]
    assert all(e.value == F(1, 2) for e in trace.events)


def test_pair_phase_fires_on_two_small_items():
    # one agent, items worth 1/8 each: no single reaches 3/13, the first
    # pair is worth 1/4 and does
    inst = additive_instance([[F(1, 8)] * 4])
    state, trace = run_phase(inst, 1, [THIRTEENTHS])
    assert state.agents == (0,)  # singles survive
    state, trace = run_phase(inst, 2, [THIRTEENTHS])
    assert state.agents == ()
    assert trace.events[0].items == (0, 1)
    assert trace.events[0].step == 2
    assert trace.events[0].value == F(1, 4)


def test_triple_phase_fires_below_pair_threshold():
    # items worth 1/13: pairs stay at 2/13 < 3/13, triples reach it exactly
    inst = additive_instance([[F(1, 13)] * 5])
    state, _ = run_phase(inst, 2, [THIRTEENTHS])
    assert state.agents == (0,)
    state, trace = run_phase(inst, 3, [THIRTEENTHS])
    assert state.agents == ()
    assert trace.events[0].items == (0, 1, 2)
    assert trace.events[0].value == F(3, 13)


def test_phase_skips_agents_without_threshold():
    inst = additive_instance([[F(1)], [F(1)]])
    state, trace = run_phase(inst, 1, [None, F(1, 4)])
    # agent 0 has no threshold and must not fire; agent 1 takes the item
    assert state.agents == (0,)
    assert [e.agent for e in trace.events] == [1]


def test_phase_scans_agents_ascending():
    inst = additive_instance([[F(1)], [F(1)]])
    state, trace = run_phase(inst, 1, [F(1, 4), F(1, 4)])
    assert [e.agent for e in trace.events] == [0]
    assert state.agents == (1,)  # one item only: agent 1 keeps nothing to take


# ---------------------------------------------------------------------------
# deterministic pipeline


def test_det_crossed_blocks_trace(lemma1):
    res = mk.solve_deterministic(lemma1)
    assert res.allocation.owner == (0, 1, 0, 0)
    assert res.mms_values == (F(2), F(2))
    assert res.trace.leftovers == (2, 3)
    assert res.trace.leftover_agent == 0
    report = mk.verify(lemma1, res.allocation, THIRTEENTHS)
    assert report.passed


def test_det_grid2(grid2):
    res = mk.solve_deterministic(grid2)
    assert res.allocation.owner == (0, 1, 0, 0)
    values = [
        grid2.valuations[i].value(res.allocation.bundle(i)) for i in range(2)
    ]
    assert values == [1, F(1, 2)]


def test_det_single_agent_takes_everything():
    inst = additive_instance([[F(2), F(3)]])
    res = mk.solve_deterministic(inst)
    assert res.allocation.owner == (0, 0)


def test_det_pair_phase_pipeline():
    # ten items worth 1/5 each: maximin share 1, no single fires, the pair
    # phase consumes both agents, remaining items fall to agent 0
    inst = additive_instance([[F(1, 5)] * 10, [F(1, 5)] * 10])
    res = mk.solve_deterministic(inst)
    assert res.mms_values == (F(1), F(1))
    steps = [e.step for e in res.trace.events]
    assert steps == [2, 2]
    assert res.trace.events[0] == mk.RemovalEvent(2, 0, (0, 1), F(2, 5))
    assert res.trace.events[1] == mk.RemovalEvent(2, 1, (2, 3), F(2, 5))
    assert res.allocation.owner == (0, 0, 1, 1, 0, 0, 0, 0, 0, 0)
    assert mk.verify(inst, res.allocation, THIRTEENTHS).passed


def test_det_zero_share_agent_gets_welfare_residue():
    inst = mk.instance_from_lists([[[1, 1]], [[0, 0]]])
    res = mk.solve_deterministic(inst)
    # agent 0 fires on item 0; the welfare stage hands item 1 to agent 1
    assert res.allocation.owner == (0, 1)
    assert res.trace.welfare is not None
    assert res.trace.welfare.agents == (1,)
    report = mk.verify(inst, res.allocation, THIRTEENTHS)
    assert report.passed
    assert report.agents[1].ex_post_ratio is None  # no share, no ratio


def test_det_guarantee_on_suite_sample():
    for inst in suite_instances(30):
        res = mk.solve_deterministic(inst)
        for agent in range(inst.n):
            value = inst.valuations[agent].value(res.allocation.bundle(agent))
            assert value >= THIRTEENTHS * res.mms_values[agent]


def test_det_capacity_propagates():
    inst = mk.gen_instance("random-xos", n=3, m=20, l=1, maxval=3, seed=5)
    with pytest.raises(mk.CapacityError):
        mk.solve_deterministic(inst)


# ---------------------------------------------------------------------------
# deterministic pipeline postconditions, recomputed from the trace


def remaining_after(res, inst):
    removed_agents = {e.agent for e in res.trace.events}
    removed_items = {j for e in res.trace.events for j in e.items}
    agents = [i for i in range(inst.n) if i not in removed_agents]
    items = [j for j in range(inst.m) if j not in removed_items]
    return agents, items


def test_det_postconditions_no_tuple_reaches_threshold():
    # after the phases, remaining positive-share agents value every single,
    # pair, and triple of remaining items below 3/13 (normalized)
    insts = list(suite_instances(20)) + [
        additive_instance([[F(1, 5)] * 10, [F(1, 5)] * 10])
    ]
    for inst in insts:
        res = mk.solve_deterministic(inst)
        norm = res.normalized_instance
        agents, items = remaining_after(res, inst)
        for agent in agents:
            if res.mms_values[agent] == 0:
                continue
            v = norm.valuations[agent]
            for size in (1, 2, 3):
                for tup in itertools.combinations(items, size):
                    assert v.value(tup) < THIRTEENTHS


# ---------------------------------------------------------------------------
# randomized pipeline


def test_rand_grid2_single_outcome(grid2):
    res = mk.solve_randomized(grid2)
    assert len(res.randomized.support) == 1
    alloc, p = res.randomized.support[0]
    assert p == 1
    assert alloc.owner == (0, 1, 0, 0)
    report = mk.verify(grid2, res.randomized, mk.RAND_EX_POST, ex_ante_alpha=mk.RAND_EX_ANTE)
    assert report.passed


def test_rand_crossed_blocks(lemma1):
    res = mk.solve_randomized(lemma1)
    assert len(res.randomized.support) <= 2
    report = mk.verify(lemma1, res.randomized, mk.RAND_EX_POST, ex_ante_alpha=mk.RAND_EX_ANTE)
    assert report.passed


def test_rand_welfare_stage_runs_on_flat_instances():
    # items near 1/5 keep every normalized single below 1/4, so both agents
    # survive into the welfare stage and the trace records it
    inst = additive_instance([[F(1, 5)] * 10, [F(1, 5)] * 10])
    res = mk.solve_randomized(inst)
    assert res.trace.welfare is not None
    assert res.trace.welfare.agents == (0, 1)
    assert res.trace.events == []
    # caps bind: each agent's fractional value is exactly 1/2 at the optimum
    assert res.trace.welfare.welfare == 1
    report = mk.verify(inst, res.randomized, mk.RAND_EX_POST, ex_ante_alpha=mk.RAND_EX_ANTE)
    assert report.passed


def test_rand_welfare_summary_consistent():
    inst = additive_instance([[F(1, 5)] * 10, [F(1, 5)] * 10])
    res = mk.solve_randomized(inst)
    welfare = res.trace.welfare
    norm = res.normalized_instance
    # expected normalized value per agent, capped, sums to the recorded welfare
    total = F(0)
    for agent in welfare.agents:
        ev = mk.expected_value(res.randomized, norm.valuations[agent], agent)
        total += min(F(1, 2), ev)
    assert total == welfare.welfare


def test_rand_support_probabilities():
    for inst in suite_instances(30):
        res = mk.solve_randomized(inst)
        assert len(res.randomized.support) <= 2
        assert all(p in (F(1, 2), F(1)) for _, p in res.randomized.support)


def test_rand_single_agent():
    inst = additive_instance([[F(1), F(2)]])
    res = mk.solve_randomized(inst)
    assert res.randomized.support[0][0].owner == (0, 0)


# ---------------------------------------------------------------------------
# welfare-optimum stability: at the capped optimum, no agent values any
# subset of the stage's items more than its holders lose by giving it up


def stability_holds(inst, caps, alloc, items):
    capped = [inst.valuations[i].truncate(caps[i]) for i in range(inst.n)]
    for r in range(len(items) + 1):
        for subset in itertools.combinations(items, r):
            lost = mk.allocation_contribution(capped, alloc, subset)
            for agent in range(inst.n):
                gain = capped[agent].value(subset) - capped[agent].value(
                    alloc.bundle(agent)
                )
                if lost < gain:
                    return False
    return True


def test_welfare_optimum_stability_direct():
    for inst in suite_instances(12):
        if inst.m > 5:
            continue
        caps = [F(6, 13)] * inst.n
        alloc = mk.max_welfare_integral(inst, caps)
        assert stability_holds(inst, caps, alloc, tuple(range(inst.m)))


# ---------------------------------------------------------------------------
# half-integral welfare floor on states that survive the single-item phase


def surviving_flat_state(seed):
    """Normalized two-agent instance whose singles all stay below 1/4."""
    rng = random.Random(seed)
    m = 10 + seed % 2
    rows = [
        [F(rng.randint(10, 13), 60) for _ in range(m)],
        [F(rng.randint(10, 13), 60) for _ in range(m)],
    ]
    inst = additive_instance(rows)
    norm, factors = mk.normalize(inst)
    trace = mk.PhaseTrace()
    state = mk.initial_state(norm)
    state = mk.large_item_phase(state, [F(1, 4)] * 2, trace)
    return norm, state


def test_half_integral_floor_spot():
    checked = 0
    seed = 0
    while checked < 4:
        seed += 1
        norm, state = surviving_flat_state(seed)
        if not state.agents:
            continue
        sub = mk.restrict_instance(norm, state.agents, state.items)
        frac = mk.max_welfare_half_integral(sub, [F(1, 2)] * sub.n)
        for local in range(sub.n):
            val = sub.valuations[local].fractional_value(frac.shares[local])
            assert val >= F(1, 4)
        checked += 1


# ---------------------------------------------------------------------------
# bundle-class accounting: classify an agent's certificate bundles by items
# lost after the single-item phase and bound the survivor count


def classify_bundles(partition, lost_items):
    counts = {0: 0, 1: 0, 2: 0}
    for bundle in partition:
        lost = len(bundle & lost_items)
        if lost in counts:
            counts[lost] += 1
    return counts


def test_classify_bundles_hand_case():
    partition = [frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})]
    counts = classify_bundles(partition, {1, 2, 3})
    assert counts == {0: 1, 1: 1, 2: 1}


def accounting_bound_holds(inst, res):
    events = res.trace.events
    step1_agents = {e.agent for e in events if e.step == 1}
    step1_items = {j for e in events if e.step == 1 for j in e.items}
    later_items = frozenset(j for e in events if e.step > 1 for j in e.items)
    removed_agents = {e.agent for e in events}
    survivors = [
        i
        for i in range(inst.n)
        if i not in removed_agents and res.mms_values[i] > 0
    ]
    post1_agents = tuple(i for i in range(inst.n) if i not in step1_agents)
    post1_items = tuple(j for j in range(inst.m) if j not in step1_items)
    if not post1_agents:
        return True
    sub = mk.restrict_instance(res.normalized_instance, post1_agents, post1_items)
    local_lost = frozenset(
        k for k, j in enumerate(post1_items) if j in later_items
    )
    for survivor in survivors:
        local = post1_agents.index(survivor)
        cert = mk.mms(sub, local)
        counts = classify_bundles(cert.partition, local_lost)
        bound = counts[0] + F(2, 3) * counts[1] + F(1, 3) * counts[2]
        if len(survivors) > bound:
            return False
    return True


def test_accounting_bound_on_traces():
    insts = list(suite_instances(15)) + [
        additive_instance([[F(1, 5)] * 10, [F(1, 5)] * 10])
    ]
    for inst in insts:
        res = mk.solve_deterministic(inst)
        assert accounting_bound_holds(inst, res)
