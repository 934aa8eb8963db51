"""Maximin shares: exact values, canonical certificates, normalization,
reduction, and the halving split."""

from __future__ import annotations

import time

import pytest

import mmskit as mk
from mmskit import _kernels_py
from conftest import F, oracle_partition, raw_functions, raw_instance, suite_instances


# ---------------------------------------------------------------------------
# fixture values, hand-checked:
# the crossed-blocks pair gives both agents maximin share 2; the canonical
# (first in ascending label order) certificates are {0,1}|{2,3} for agent 0
# and {0,3}|{1,2} for agent 1


def test_lemma1_mms_values(lemma1):
    for agent in range(2):
        cert = mk.mms(lemma1, agent)
        assert cert.value == 2
        assert cert.n == 2


def test_lemma1_certificates_canonical(lemma1):
    c0 = mk.mms(lemma1, 0)
    assert set(c0.partition) == {frozenset({0, 1}), frozenset({2, 3})}
    c1 = mk.mms(lemma1, 1)
    assert set(c1.partition) == {frozenset({0, 3}), frozenset({1, 2})}


def test_certificate_bundles_attain_value(lemma1):
    cert = mk.mms(lemma1, 0)
    v = lemma1.valuations[0]
    assert min(v.value(b) for b in cert.partition) == cert.value


@pytest.mark.parametrize("n", [2, 3])
def test_grid_mms_is_one(n):
    inst = mk.gen_instance("grid", n=n)
    for agent in range(n):
        assert mk.mms(inst, agent).value == 1


def test_grid5_mms_within_budget():
    # 5^25 labelings and every bundle state repeated many times over; the
    # single-phase search did not finish here in 110 s
    inst = mk.gen_instance("grid", n=5)
    start = time.perf_counter()
    cert = mk.mms(inst, 0, max_enum=5**25)
    elapsed = time.perf_counter() - start
    assert cert.value == 1
    assert cert.partition == tuple(frozenset(range(5 * k, 5 * k + 5)) for k in range(5))
    assert elapsed < 30, f"grid n=5 took {elapsed:.1f} s, over the 30 s budget"


def test_single_agent_mms_is_total_value():
    inst = mk.instance_from_lists([[[3, 4, 5]]])
    assert mk.mms(inst, 0).value == 12


def test_proportional_share(lemma1):
    # whole-set value is 2 for each agent, split across 2 agents
    assert mk.proportional_share(lemma1, 0) == 1
    assert mk.proportional_share(lemma1, 1) == 1


def test_mms_at_most_proportional_share_for_additive():
    # single-row valuations split v(M) across bundles, so the worst bundle
    # cannot beat the average; multi-row valuations can (see the grid test)
    for i in range(40):
        inst = mk.gen_instance("additive", n=2 + i % 2, m=2 + i % 6, maxval=8, seed=500 + i)
        for agent in range(inst.n):
            assert mk.mms(inst, agent).value <= mk.proportional_share(inst, agent)


def test_grid_mms_beats_proportional_share(grid3):
    # the whole-set value is 1, so the proportional share is 1/3, yet every
    # agent can guarantee a full block per bundle
    assert mk.proportional_share(grid3, 0) == F(1, 3)
    assert mk.mms(grid3, 0).value == 1


def test_mms_matches_oracle():
    for inst in suite_instances(25):
        for agent in range(inst.n):
            value, _labels = oracle_partition(raw_functions(inst, agent), inst.n, inst.m)
            assert mk.mms(inst, agent).value == value


def test_certificate_matches_oracle_first_optimum():
    for inst in suite_instances(12):
        for agent in range(inst.n):
            cert = mk.mms(inst, agent)
            _value, labels = oracle_partition(raw_functions(inst, agent), inst.n, inst.m)
            parts = []
            for k in range(inst.n):
                parts.append(frozenset(j for j in range(inst.m) if labels[j] == k))
            assert set(cert.partition) == set(parts)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_unit_mms(lemma1):
    norm, factors = mk.normalize(lemma1)
    assert factors == (F(2), F(2))
    assert norm.normalized
    for agent in range(2):
        assert mk.mms(norm, agent).value == 1


def test_normalize_zero_share_agent_untouched():
    inst = mk.instance_from_lists([[[1, 1]], [[0, 0]]])
    norm, factors = mk.normalize(inst)
    assert factors[1] == 0
    assert norm.valuations[1].value([0, 1]) == 0


def test_normalize_accepts_precomputed_values(lemma1):
    norm, factors = mk.normalize(lemma1, mms_values=(F(2), F(2)))
    assert factors == (F(2), F(2))
    assert mk.mms(norm, 0).value == 1


def _count_searches(monkeypatch):
    calls = []
    search = _kernels_py.max_min_labels

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(_kernels_py, "max_min_labels", counted)
    return calls


def test_identical_agents_share_one_search(monkeypatch, grid3):
    calls = _count_searches(monkeypatch)
    assert mk.normalize(grid3)[1] == (1, 1, 1)
    assert len(calls) == 1
    calls.clear()
    report = mk.verify(grid3, mk.Allocation((0, 0, 0, 1, 1, 1, 2, 2, 2)), 1)
    assert [a.mms for a in report.agents] == [1, 1, 1]
    assert len(calls) == 1


def test_duplicated_agent_reuses_its_share(monkeypatch):
    base = raw_instance(mk.gen_instance("random-xos", n=3, m=7, l=2, maxval=9, seed=4))
    inst = mk.instance_from_lists(base + [base[1]])
    per_agent = tuple(mk.mms(inst, i).value for i in range(inst.n))
    calls = _count_searches(monkeypatch)
    assert mk.normalize(inst)[1] == per_agent
    assert len(calls) == inst.n - 1
    calls.clear()
    report = mk.verify(inst, mk.Allocation((0, 1, 2, 3, 0, 1, 2)), 0)
    assert tuple(a.mms for a in report.agents) == per_agent
    assert len(calls) == inst.n - 1


# ---------------------------------------------------------------------------
# reduction


def test_reduce_removes_agent_and_item(lemma1):
    sub = mk.reduce_instance(lemma1, 0, 0)
    assert sub.n == 1 and sub.m == 3
    # surviving agent keeps her values on the remaining items
    assert sub.valuations[0].value([0, 1, 2]) == lemma1.valuations[1].value([1, 2, 3])


def test_reduce_never_lowers_surviving_mms(lemma1):
    base = {a: mk.mms(lemma1, a).value for a in range(2)}
    for gone in range(2):
        keep = 1 - gone
        for item in range(4):
            sub = mk.reduce_instance(lemma1, gone, item)
            assert mk.mms(sub, 0).value >= base[keep]


# ---------------------------------------------------------------------------
# halving split


def test_halving_split_structure(lemma1):
    norm, _ = mk.normalize(lemma1)
    cert = mk.mms(norm, 0)
    halves = mk.halving_split(norm.valuations[0], cert)
    assert len(halves) == 4
    # two identical halves per certificate bundle, each worth half the bundle
    vals = sorted(norm.valuations[0].fractional_value(h.shares) for h in halves)
    assert vals == [F(1, 2)] * 4


def test_halving_split_mass_covers_items(lemma1):
    norm, _ = mk.normalize(lemma1)
    cert = mk.mms(norm, 0)
    halves = mk.halving_split(norm.valuations[0], cert)
    total = [F(0)] * norm.m
    for h in halves:
        for j, s in enumerate(h.shares):
            total[j] += s
    assert total == [F(1)] * norm.m


def test_halving_split_requires_unit_value():
    inst = mk.instance_from_lists([[[1, 1]], [[1, 1]]])
    cert = mk.mms(inst, 0)  # value 1, fine
    mk.halving_split(inst.valuations[0], cert)
    weak = mk.instance_from_lists([[[F(1, 4), F(1, 4)]], [[F(1, 4), F(1, 4)]]])
    weak_cert = mk.mms(weak, 0)
    assert weak_cert.value < 1
    with pytest.raises(ValueError):
        mk.halving_split(weak.valuations[0], weak_cert)


# ---------------------------------------------------------------------------
# capacity


def test_capacity_error_on_large_enumeration():
    inst = mk.gen_instance("random-xos", n=3, m=20, l=1, maxval=3, seed=1)
    with pytest.raises(mk.CapacityError):
        mk.mms(inst, 0)


def test_capacity_override():
    inst = mk.gen_instance("random-xos", n=2, m=6, l=1, maxval=3, seed=1)
    with pytest.raises(mk.CapacityError):
        mk.mms(inst, 0, max_enum=32)
    assert mk.mms(inst, 0, max_enum=64).value >= 0
