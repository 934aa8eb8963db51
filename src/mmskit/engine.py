"""Exact integer scaling in front of the search kernels.

Two kernels serve the three exact searches: ``max_min_labels`` for the
max-min partition behind each maximin share, and ``best_choice_labels`` for
capped welfare, integral (no split pairs) or half-integral.  Both return
the lexicographically first optimum.  Each call first checks the full
assignment count (n^m, or (n + C(n,2))^m with splits) against ``max_enum``,
a worst-case budget: the kernels prune by branch and bound and usually
visit far fewer assignments.

The kernels work on integer tables.  Every rational in a call is multiplied
by the least common multiple of the denominators involved, so kernel
arithmetic is exact and unbounded (Python ints); certificates are decoded
back and re-evaluated in ``Fraction`` by the callers, which keeps the
rational layer authoritative.

There is one search implementation, ``_kernels_py``.  The ``backend``
keyword of the public entry points accepts ``None`` or ``"python"``;
``"compiled"`` names a backend no build provides and is refused.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import CapacityError
from . import _kernels_py

DEFAULT_MAX_ENUM = 10_000_000


def backend_name() -> str:
    return "python"


def has_compiled_backend() -> bool:
    return False


def half_pair_order(n: int) -> list[tuple[int, int]]:
    """Agent pairs eligible for a half/half split, in choice order."""
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def _check_backend(backend: str | None):
    if backend in (None, "python"):
        return
    if backend == "compiled":
        raise ValueError("compiled backend is not available")
    raise ValueError(f"unknown backend {backend!r}")


def _check_budget(count: int, max_enum: int, what: str):
    if count > max_enum:
        raise CapacityError(
            f"{what} needs {count} assignments, over the budget of {max_enum}; "
            "raise max_enum to force the enumeration"
        )


def _common_denominator(fracs) -> int:
    d = 1
    for x in fracs:
        d = math.lcm(d, x.denominator)
    return d


def _scaled_int(x: Fraction, denom: int) -> int:
    y = x * denom
    # denom is a multiple of x.denominator by construction
    return y.numerator // y.denominator if y.denominator != 1 else y.numerator


def max_min_partition(
    functions: Sequence[Sequence[Fraction]],
    n: int,
    m: int,
    *,
    max_enum: int = DEFAULT_MAX_ENUM,
    backend: str | None = None,
) -> list[int]:
    """Labels of the lexicographically first max-min partition into n bundles.

    ``functions`` is one agent's additive family as rows of rationals.
    """
    if n < 1:
        raise ValueError("need at least one bundle")
    _check_budget(n**m, max_enum, f"max-min partition ({n}^{m})")
    denom = _common_denominator(x for row in functions for x in row)
    flat = [_scaled_int(x, denom) for row in functions for x in row]
    _check_backend(backend)
    _, labels = _kernels_py.max_min_labels(flat, len(functions), m, n)
    return labels


def _pad_families(families, m: int):
    nfmax = max(len(fam) for fam in families)
    flat = []
    for fam in families:
        for row in fam:
            flat.extend(row)
        flat.extend([0] * (m * (nfmax - len(fam))))
    return flat, nfmax


def _capped_welfare_labels(families, caps, m, pairs, what, max_enum, backend):
    """Shared driver of both welfare searches: per-item choice labels.

    Choices are whole items per agent, then ``pairs`` as half/half splits.
    Entries are scaled to integers and caps doubled, so the kernel's
    half-share scale stays integral; with no pairs it is integral welfare.
    """
    n = len(families)
    if n < 1:
        raise ValueError("need at least one agent")
    caps = [Fraction(c) for c in caps]
    if any(c < 0 for c in caps):
        raise ValueError("caps must be non-negative")
    nch = n + len(pairs)
    _check_budget(nch**m, max_enum, f"{what} ({nch}^{m})")
    denom = _common_denominator(
        [x for fam in families for row in fam for x in row] + caps
    )
    int_fams = [
        [[_scaled_int(x, denom) for x in row] for row in fam] for fam in families
    ]
    flat, nfmax = _pad_families(int_fams, m)
    caps2 = [_scaled_int(2 * c, denom) for c in caps]
    _check_backend(backend)
    _, labels = _kernels_py.best_choice_labels(
        flat, caps2, n, nfmax, m, [a for a, _ in pairs], [b for _, b in pairs]
    )
    return labels


def best_integral_welfare(
    families: Sequence[Sequence[Sequence[Fraction]]],
    caps: Sequence[Fraction],
    m: int,
    *,
    max_enum: int = DEFAULT_MAX_ENUM,
    backend: str | None = None,
) -> list[int]:
    """Owner per item maximizing the sum of per-agent capped values.

    ``families[i]`` is agent i's additive family; ``caps[i]`` her cap.
    Ties resolve to the lexicographically smallest owner sequence.
    """
    return _capped_welfare_labels(
        families, caps, m, [], "integral welfare search", max_enum, backend
    )


def best_half_integral_welfare(
    families: Sequence[Sequence[Sequence[Fraction]]],
    caps: Sequence[Fraction],
    m: int,
    *,
    max_enum: int = DEFAULT_MAX_ENUM,
    backend: str | None = None,
) -> tuple[list[int], list[tuple[int, int]]]:
    """Per-item choices maximizing capped welfare over half-integral splits.

    Each item goes whole to one agent or half each to a pair of agents.
    Returns (choices, pairs): choice c < n means whole to agent c, else the
    split pair is ``pairs[c - n]``.
    """
    pairs = half_pair_order(len(families))
    choices = _capped_welfare_labels(
        families, caps, m, pairs, "half-integral welfare search", max_enum, backend
    )
    return choices, pairs
