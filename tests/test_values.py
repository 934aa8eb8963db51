"""Valuation primitives: additive rows, pointwise-max valuations, witnesses,
truncation, and contribution."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmskit as mk
from conftest import F, xos_fractional, xos_value


def xv(rows):
    return mk.XosValuation(tuple(mk.AdditiveFunction(tuple(F(x) for x in r)) for r in rows))


# ---------------------------------------------------------------------------
# construction and validation


def test_additive_rejects_negative():
    with pytest.raises(ValueError):
        mk.AdditiveFunction((F(1), F(-1)))


def test_xos_rejects_empty_family():
    with pytest.raises(ValueError):
        mk.XosValuation(())


def test_xos_rejects_ragged_family():
    with pytest.raises(ValueError):
        xv([[1, 2], [1, 2, 3]])


def test_fractional_set_bounds():
    mk.FractionalSet((F(0), HALF := F(1, 2), F(1)))
    with pytest.raises(ValueError):
        mk.FractionalSet((F(3, 2),))
    with pytest.raises(ValueError):
        mk.FractionalSet((F(-1, 2),))


def test_item_bounds_checked():
    v = xv([[1, 2, 3]])
    with pytest.raises((IndexError, ValueError)):
        v.value([3])
    with pytest.raises((IndexError, ValueError)):
        v.value([-1])


# ---------------------------------------------------------------------------
# values and witnesses on a worked pair of additive rows
# rows u1 = [2,8,4,5,1], u2 = [5,1,9,4,5]; hand-checked:
#   v(all) = max(20, 24) = 24 with witness row 1
#   v(all minus item 2) = max(16, 15) = 16, so removing item 2 loses 8


WORKED = [[2, 8, 4, 5, 1], [5, 1, 9, 4, 5]]


def test_worked_value_and_witness():
    v = xv(WORKED)
    allitems = range(5)
    assert v.value(allitems) == 24
    assert v.witness_index(allitems) == 1


def test_worked_contribution():
    v = xv(WORKED)
    assert mk.contribution(v, range(5), [2]) == 8


def test_witness_is_smallest_maximizer():
    # both rows value {1} at 8 and 1; row 0 wins; on ties the lower index wins
    v = xv([[3, 1], [3, 2]])
    assert v.witness_index([0]) == 0


def test_contribution_requires_subset():
    v = xv(WORKED)
    with pytest.raises(ValueError):
        mk.contribution(v, [0, 1], [2])


# ---------------------------------------------------------------------------
# truncation


def test_truncation_caps_values():
    v = xv(WORKED)
    t = v.truncate(F(10))
    assert t.value(range(5)) == 10
    assert t.value([4]) == 5
    assert mk.contribution(t, range(5), [2]) == 0  # still 16 >= cap after removal


def test_truncation_zero_cap():
    t = xv(WORKED).truncate(F(0))
    assert t.value(range(5)) == 0


def test_scaled_multiplies_entries():
    v = xv([[2, 4]])
    s = v.scaled(F(1, 2))
    assert s.value([0, 1]) == 3
    assert s.value([0]) == 1
    with pytest.raises(ValueError):
        v.scaled(F(-1))


# ---------------------------------------------------------------------------
# property tests against the oracle


small_rows = st.lists(
    st.lists(st.integers(min_value=0, max_value=9), min_size=3, max_size=3),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(small_rows, st.sets(st.integers(min_value=0, max_value=2)))
def test_value_matches_oracle(rows, items):
    v = xv(rows)
    assert v.value(items) == xos_value([[F(x) for x in r] for r in rows], sorted(items))


@settings(max_examples=60, deadline=None)
@given(small_rows, st.sets(st.integers(min_value=0, max_value=2)), st.sets(st.integers(min_value=0, max_value=2)))
def test_monotone(rows, a, b):
    v = xv(rows)
    assert v.value(a | b) >= v.value(a)


@settings(max_examples=60, deadline=None)
@given(small_rows, st.sets(st.integers(min_value=0, max_value=2)), st.sets(st.integers(min_value=0, max_value=2)))
def test_subadditive(rows, a, b):
    v = xv(rows)
    assert v.value(a | b) <= v.value(a) + v.value(b)


@settings(max_examples=60, deadline=None)
@given(small_rows, st.lists(st.fractions(min_value=0, max_value=1), min_size=3, max_size=3))
def test_fractional_value_matches_oracle(rows, shares):
    v = xv(rows)
    got = v.fractional_value(tuple(shares))
    assert got == xos_fractional([[F(x) for x in r] for r in rows], list(shares))


@settings(max_examples=60, deadline=None)
@given(small_rows, st.lists(st.fractions(min_value=0, max_value=1), min_size=3, max_size=3))
def test_fractional_witness_attains_value(rows, shares):
    v = xv(rows)
    k = v.fractional_witness_index(tuple(shares))
    attained = sum(v.functions[k].values[j] * shares[j] for j in range(3))
    assert attained == v.fractional_value(tuple(shares))


@settings(max_examples=60, deadline=None)
@given(small_rows, st.sets(st.integers(min_value=0, max_value=2)))
def test_indicator_shares_agree_with_set_value(rows, items):
    v = xv(rows)
    shares = tuple(F(1) if j in items else F(0) for j in range(3))
    assert v.fractional_value(shares) == v.value(items)


@settings(max_examples=60, deadline=None)
@given(small_rows, st.sets(st.integers(min_value=0, max_value=2)), st.sets(st.integers(min_value=0, max_value=2)))
def test_contribution_bounded_by_witness_row(rows, whole, part):
    # removing S from T never loses more than the witness row paid for T&S
    part = part & whole
    v = xv(rows)
    k = v.witness_index(whole)
    witness_paid = sum(v.functions[k].values[j] for j in part)
    assert mk.contribution(v, whole, part) <= witness_paid


# ---------------------------------------------------------------------------
# instances


def test_instance_from_lists_shapes():
    inst = mk.instance_from_lists([[[1, 2]], [[3, 4]]])
    assert inst.n == 2 and inst.m == 2


def test_instance_ragged_rejected():
    with pytest.raises(ValueError):
        mk.instance_from_lists([[[1, 2]], [[3]]])


def test_restrict_instance_reindexes():
    inst = mk.instance_from_lists([[[1, 2, 3]], [[4, 5, 6]], [[7, 8, 9]]])
    sub = mk.restrict_instance(inst, (0, 2), (1, 2))
    assert sub.n == 2 and sub.m == 2
    assert sub.valuations[1].value([0]) == 8
    assert sub.valuations[1].value([1]) == 9


# ---------------------------------------------------------------------------
# the integer table behind evaluation, scaling and restriction


def _mixed_rows(rng, m):
    """1..3 rows of entries k/7, k/13 and 0, plus a copy of one of them
    placed at a random position, so witnesses tie on every set."""
    def entry():
        return rng.choice([F(rng.randint(0, 20), 7), F(rng.randint(0, 20), 13), F(0)])

    rows = [[entry() for _ in range(m)] for _ in range(rng.randint(1, 3))]
    rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
    return rows


def _first_witness(rows, total):
    """Smallest row index attaining the oracle value."""
    return next(k for k, row in enumerate(rows) if total(row) == max(map(total, rows)))


def test_integer_table_agrees_with_the_fraction_oracle():
    rng = random.Random(24)
    for _ in range(150):
        m = rng.randint(0, 6)
        rows = _mixed_rows(rng, m)
        v = xv(rows)
        den, table = v.int_table
        assert all(x * den == r for row, trow in zip(rows, table)
                   for x, r in zip(row, trow))
        items = [j for j in range(m) if rng.random() < 0.5]
        assert v.value(items) == xos_value(rows, items)
        assert v.witness_index(items) == _first_witness(
            rows, lambda row: sum((row[j] for j in items), F(0)))
        shares = tuple(F(rng.randint(0, d), d) for d in
                       (rng.choice([1, 2, 3, 5, 6]) for _ in range(m)))
        assert v.fractional_value(shares) == xos_fractional(rows, shares)
        assert v.fractional_witness_index(shares) == _first_witness(
            rows, lambda row: sum((x * s for x, s in zip(row, shares)), F(0)))


def test_scaled_table_equals_entrywise_fractions():
    rng = random.Random(7)
    for _ in range(100):
        rows = _mixed_rows(rng, rng.randint(1, 5))
        factor = rng.choice([F(0), F(1), F(13, 7), F(7, 26), F(rng.randint(0, 9), 4)])
        got = xv(rows).scaled(factor)
        want = xv([[x * factor for x in row] for row in rows])
        assert got == want and hash(got) == hash(want)
        assert [f.values for f in got.functions] == [f.values for f in want.functions]
        assert all(type(x) is Fraction for f in got.functions for x in f.values)
        assert got.int_table == want.int_table


def test_restricted_tables_equal_entrywise_fractions():
    rng = random.Random(8)
    for _ in range(60):
        m = rng.randint(1, 6)
        agents = [_mixed_rows(rng, m) for _ in range(rng.randint(1, 3))]
        inst = mk.instance_from_lists(agents)
        keep = rng.sample(range(inst.n), rng.randint(1, inst.n))
        items = rng.sample(range(m), rng.randint(0, m))
        sub = mk.restrict_instance(inst, keep, items)
        want = mk.instance_from_lists(
            [[[row[j] for j in items] for row in agents[i]] for i in keep])
        assert sub == want
        for got, expect in zip(sub.valuations, want.valuations):
            assert [f.values for f in got.functions] == [f.values for f in expect.functions]
            assert got.int_table == expect.int_table


def test_cached_table_leaves_identity_alone():
    rows = [[F(1, 7), F(2)], [F(0), F(3, 13)]]
    built, fresh = xv(rows), xv(rows)
    assert built.int_table == (91, ((13, 182), (0, 21)))
    assert "int_table" in vars(built) and "int_table" not in vars(fresh)
    assert built == fresh and hash(built) == hash(fresh)
    assert repr(built) == repr(fresh) and "int_table" not in repr(built)
