"""Exact valuation types: additive functions, XOS valuations, instances.

Every entry a caller sees is a ``fractions.Fraction``.  Nothing in this
module (or anywhere else in the core) touches floating point; every
comparison made by the solvers and the verification harness is exact.

Each XOS valuation also has one exact integer form, ``int_table``: the
least common multiple ``den`` of its entries' denominators, and its rows
times ``den`` as Python ints.  Evaluation sums these ints and builds one
``Fraction`` per result; scaling and restriction derive the new table by
int multiplication and slicing, and the search kernels take its rows as
they are.

An XOS valuation is the pointwise maximum of a finite family of additive
functions.  The family member attaining the maximum on a set is called the
witness for that set; ties resolve to the smallest family index, and every
routine that depends on a witness uses that same rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import mul
from typing import Iterable, Sequence

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def _check_item(j: int, m: int) -> int:
    if not isinstance(j, int) or isinstance(j, bool):
        raise TypeError(f"item index must be an int, got {j!r}")
    if j < 0 or j >= m:
        raise IndexError(f"item index {j} out of range for {m} items")
    return j


def _item_set(items: Iterable[int], m: int) -> frozenset[int]:
    return frozenset(_check_item(j, m) for j in items)


@dataclass(frozen=True)
class AdditiveFunction:
    """A non-negative additive set function given by per-item values."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(Fraction(x) for x in self.values)
        for j, x in enumerate(vals):
            if x < 0:
                raise ValueError(f"entry {j} is negative ({x})")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class XosValuation:
    """Pointwise maximum of a non-empty family of additive functions."""

    functions: tuple[AdditiveFunction, ...]

    def __post_init__(self):
        funcs = tuple(
            f if isinstance(f, AdditiveFunction) else AdditiveFunction(tuple(f))
            for f in self.functions
        )
        if not funcs:
            raise ValueError("an XOS valuation needs at least one additive function")
        m = len(funcs[0])
        for k, f in enumerate(funcs):
            if len(f) != m:
                raise ValueError(f"function {k} has {len(f)} entries, expected {m}")
        object.__setattr__(self, "functions", funcs)

    @property
    def m(self) -> int:
        return len(self.functions[0])

    @cached_property
    def int_table(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(den, rows)``: den is the lcm of the entries' reduced
        denominators, rows the entries times den as ints.

        Built on first use and kept beside the fields, so it takes no part
        in equality, hashing or ``repr``.
        """
        rows = [f.values for f in self.functions]
        den = math.lcm(*{x.denominator for row in rows for x in row})
        return den, tuple(
            tuple(x.numerator * (den // x.denominator) for x in row) for row in rows
        )

    def _totals(self, items: Iterable[int]) -> list[int]:
        s = _item_set(items, self.m)
        return [sum(map(row.__getitem__, s)) for row in self.int_table[1]]

    def _fractional_totals(self, shares: Sequence[Fraction]) -> tuple[list[int], int]:
        """Per-row totals of ``shares`` as ints, and their common denominator."""
        if len(shares) != self.m:
            raise ValueError("share vector length does not match item count")
        share_den = math.lcm(*{s.denominator for s in shares})
        weights = [s.numerator * (share_den // s.denominator) for s in shares]
        den, rows = self.int_table
        return [sum(map(mul, row, weights)) for row in rows], den * share_den

    def value(self, items: Iterable[int]) -> Fraction:
        return Fraction(max(self._totals(items)), self.int_table[0])

    def witness_index(self, items: Iterable[int]) -> int:
        totals = self._totals(items)
        # index finds the first maximizer: ties go to the smallest index
        return totals.index(max(totals))

    def fractional_value(self, shares: Sequence[Fraction]) -> Fraction:
        totals, den = self._fractional_totals(shares)
        return Fraction(max(totals), den)

    def fractional_witness_index(self, shares: Sequence[Fraction]) -> int:
        totals, _ = self._fractional_totals(shares)
        return totals.index(max(totals))

    def truncate(self, cap: Fraction) -> "TruncatedValuation":
        return TruncatedValuation(self, Fraction(cap))

    def scaled(self, factor: Fraction) -> "XosValuation":
        """Valuation with every entry multiplied by a non-negative factor."""
        factor = Fraction(factor)
        if factor < 0:
            raise ValueError("scaling factor must be non-negative")
        den, rows = self.int_table
        p = factor.numerator
        den, rows = _reduced(den * factor.denominator,
                             [[r * p for r in row] for row in rows])
        return _derived([[Fraction(r, den) for r in row] for row in rows], den, rows)


def _reduced(den: int, rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The table rows / den over the lcm of its entries' reduced
    denominators: den and the rows divided by their common factor."""
    g = math.gcd(den, *chain.from_iterable(rows))
    if g > 1:
        den //= g
        rows = [[r // g for r in row] for row in rows]
    return den, tuple(map(tuple, rows))


def _unchecked(cls, **fields):
    """A frozen dataclass instance given its fields, without
    ``__post_init__``: for values derived from already checked ones."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _derived(values, den: int, rows) -> XosValuation:
    """The valuation with Fraction entries ``values`` and their integer
    table ``(den, rows)``, both exact by construction."""
    functions = tuple(
        _unchecked(AdditiveFunction, values=tuple(row)) for row in values
    )
    return _unchecked(XosValuation, functions=functions, int_table=(den, rows))


@dataclass(frozen=True)
class TruncatedValuation:
    """min(cap, v(S)) for an underlying XOS valuation v.

    The cap applies to the set value, not to individual items, so the result
    is still monotone but is kept as a wrapper rather than materialized as a
    new XOS family.
    """

    base: XosValuation
    cap: Fraction

    def __post_init__(self):
        cap = Fraction(self.cap)
        if cap < 0:
            raise ValueError("cap must be non-negative")
        object.__setattr__(self, "cap", cap)

    @property
    def m(self) -> int:
        return self.base.m

    def value(self, items: Iterable[int]) -> Fraction:
        return min(self.cap, self.base.value(items))

    def fractional_value(self, shares: Sequence[Fraction]) -> Fraction:
        return min(self.cap, self.base.fractional_value(shares))


@dataclass(frozen=True)
class FractionalSet:
    """Per-item shares in [0, 1]; a fractional subset of the items."""

    shares: tuple[Fraction, ...]

    def __post_init__(self):
        shares = tuple(Fraction(s) for s in self.shares)
        for j, s in enumerate(shares):
            if s < 0 or s > 1:
                raise ValueError(f"share {j} is {s}, outside [0, 1]")
        object.__setattr__(self, "shares", shares)

    def __len__(self) -> int:
        return len(self.shares)

    def __iter__(self):
        return iter(self.shares)

    def __getitem__(self, j: int) -> Fraction:
        return self.shares[j]


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: m items, one XOS valuation per agent.

    ``normalized`` records that each positive-maximin-share agent's entries
    were divided by her maximin share; it is bookkeeping only.  An instance
    with no agents is permitted so that reductions can remove the last one.
    """

    m: int
    valuations: tuple[XosValuation, ...]
    normalized: bool = False

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("item count must be non-negative")
        vals = tuple(self.valuations)
        for i, v in enumerate(vals):
            if not isinstance(v, XosValuation):
                raise TypeError(f"agent {i}: expected XosValuation, got {type(v)!r}")
            if v.m != self.m:
                raise ValueError(f"agent {i} valuation covers {v.m} items, expected {self.m}")
        object.__setattr__(self, "valuations", vals)

    @property
    def n(self) -> int:
        return len(self.valuations)


def instance_from_lists(agent_functions, normalized: bool = False) -> Instance:
    """Build an Instance from nested lists of rationals.

    ``agent_functions[i][k][j]`` is the value of item j under the k-th
    additive function of agent i.
    """
    valuations = tuple(
        XosValuation(tuple(AdditiveFunction(tuple(Fraction(x) for x in row)) for row in fam))
        for fam in agent_functions
    )
    if not valuations:
        raise ValueError("need at least one agent")
    return Instance(m=valuations[0].m, valuations=valuations, normalized=normalized)


def restrict_instance(inst: Instance, agents: Sequence[int], items: Sequence[int]) -> Instance:
    """Sub-instance keeping the given agents and items, in the given order.

    Item j of the result corresponds to original item ``items[j]``.
    """
    agents = list(agents)
    items = [_check_item(j, inst.m) for j in items]
    if len(set(items)) != len(items):
        raise ValueError("duplicate items in restriction")
    for i in agents:
        if i < 0 or i >= inst.n:
            raise IndexError(f"agent index {i} out of range")
    if len(set(agents)) != len(agents):
        raise ValueError("duplicate agents in restriction")
    vals = []
    for i in agents:
        v = inst.valuations[i]
        den, rows = v.int_table
        table = _reduced(den, [[row[j] for j in items] for row in rows])
        vals.append(_derived(
            [[f.values[j] for j in items] for f in v.functions], *table))
    return Instance(m=len(items), valuations=tuple(vals), normalized=inst.normalized)


def contribution(valuation, whole: Iterable[int], part: Iterable[int]) -> Fraction:
    """v(T) - v(T minus S): how much removing S from T costs under v.

    ``part`` must be a subset of ``whole``.  Works for any valuation object
    exposing ``value`` (XOS or truncated); non-negative for monotone v.
    """
    t = frozenset(whole)
    s = frozenset(part)
    if not s <= t:
        raise ValueError("removed set must be contained in the base set")
    return valuation.value(t) - valuation.value(t - s)
