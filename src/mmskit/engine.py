"""Exact integer scaling in front of the search kernels.

Two kernels serve the three exact searches: ``max_min_labels`` for the
max-min partition behind each maximin share, and ``best_choice_labels`` for
capped welfare, integral (no split pairs) or half-integral.  Both return
the lexicographically first optimum.  Each call first checks the full
assignment count (n^m, or (n + C(n,2))^m with splits) against ``max_enum``,
a worst-case budget: the kernels prune by branch and bound and usually
visit far fewer assignments.

The kernels work on nested integer rows: one agent's rows for a partition,
one list of rows per agent, of any length, for welfare.  Every rational in
a call is multiplied by the least common multiple of the denominators
involved, so kernel arithmetic is exact and unbounded (Python ints);
certificates are decoded back and re-evaluated in ``Fraction`` by the
callers, which keeps the rational layer authoritative.

The max-min partition search has two loops that visit the same nodes:
``_kernels_py._max_min_search`` and its C port ``_maxmin.c``.  The first
search (or ``has_compiled_backend()``) compiles the C file with ``cc`` into
the package's ``__pycache__``, rebuilding when the source is newer, and
loads it; when that fails for any reason (no compiler or headers, a
read-only directory, a compile or load error) the pure loop serves the rest
of the process.  ``max_min_partition`` passes the C loop when it is loaded
and the table's sum over items of the largest scaled entry is below 2^62,
so no int64 in it can overflow; otherwise the pure loop, whose Python ints
are unbounded.  ``backend="python"`` forces the pure loop; ``None``
chooses as above.  The welfare kernel is pure Python and takes no backend.
"""

from __future__ import annotations

import functools
import math
import os
from fractions import Fraction
from typing import Sequence

from .errors import CapacityError
from . import _kernels_py

DEFAULT_MAX_ENUM = 10_000_000
_HERE = os.path.dirname(os.path.abspath(__file__))
# every int64 the C loop computes is at most twice its table's bound
_C_TABLE_LIMIT = 1 << 62


def _build_search(source: str, library: str):
    """``search`` of the C loop in ``library``, compiled from ``source``
    when missing or older; None when it cannot be built or loaded."""
    import importlib.util

    try:
        if (not os.path.exists(library)
                or os.path.getmtime(library) < os.path.getmtime(source)):
            _compile(source, library)
        spec = importlib.util.spec_from_file_location("mmskit._maxmin", library)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (OSError, ImportError):
        return None
    return module.search


def _compile(source: str, library: str) -> None:
    """cc ``source`` into a temporary file next to ``library``, then move
    it into place, so concurrent builds never expose a partial file.
    Raises OSError on failure."""
    import subprocess
    import sysconfig
    import tempfile

    directory = os.path.dirname(library)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        try:
            done = subprocess.run(
                ["cc", "-O2", "-shared", "-fPIC",
                 "-I" + sysconfig.get_paths()["include"], source, "-o", tmp],
                capture_output=True, timeout=300,
            )
        except subprocess.SubprocessError as exc:
            raise OSError(f"cc did not finish: {exc}") from exc
        if done.returncode != 0:
            raise OSError(f"cc failed: {done.stderr.decode(errors='replace')}")
        os.replace(tmp, library)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def _compiled_search():
    """The C search loop, built on first use; None when unavailable."""
    import sysconfig

    return _build_search(
        os.path.join(_HERE, "_maxmin.c"),
        os.path.join(_HERE, "__pycache__",
                     "_maxmin" + sysconfig.get_config_var("EXT_SUFFIX")),
    )


def backend_name() -> str:
    """``"compiled"`` when the C search loop is available, else ``"python"``."""
    return "compiled" if has_compiled_backend() else "python"


def has_compiled_backend() -> bool:
    return _compiled_search() is not None


def half_pair_order(n: int) -> list[tuple[int, int]]:
    """Agent pairs eligible for a half/half split, in choice order."""
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


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
    rows = [[_scaled_int(x, denom) for x in row] for row in functions]
    if backend not in (None, "python"):
        raise ValueError(f"unknown backend {backend!r}")
    search = _kernels_py._max_min_search
    if backend is None and sum(map(max, zip(*rows))) < _C_TABLE_LIMIT:
        search = _compiled_search() or search
    _, labels = _kernels_py.max_min_labels(rows, n, search)
    return labels


def _capped_welfare_labels(families, caps, m, pairs, what, max_enum):
    """Shared driver of both welfare searches: per-item choice labels.

    Choices are whole items per agent, then ``pairs`` as half/half splits.
    Entries are scaled to integers and caps doubled, so the kernel's
    half-share scale stays integral; with no pairs it is integral welfare.
    """
    n = len(families)
    if n < 1:
        raise ValueError("need at least one agent")
    caps = [Fraction(c) for c in caps]
    if len(caps) != n:
        raise ValueError("need one cap per agent")
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
    caps2 = [_scaled_int(2 * c, denom) for c in caps]
    _, labels, _ = _kernels_py.best_choice_labels(int_fams, caps2, pairs)
    return labels


def best_integral_welfare(
    families: Sequence[Sequence[Sequence[Fraction]]],
    caps: Sequence[Fraction],
    m: int,
    *,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> list[int]:
    """Owner per item maximizing the sum of per-agent capped values.

    ``families[i]`` is agent i's additive family; ``caps[i]`` her cap.
    Ties resolve to the lexicographically smallest owner sequence.
    """
    return _capped_welfare_labels(
        families, caps, m, [], "integral welfare search", max_enum
    )


def best_half_integral_welfare(
    families: Sequence[Sequence[Sequence[Fraction]]],
    caps: Sequence[Fraction],
    m: int,
    *,
    max_enum: int = DEFAULT_MAX_ENUM,
) -> tuple[list[int], list[tuple[int, int]]]:
    """Per-item choices maximizing capped welfare over half-integral splits.

    Each item goes whole to one agent or half each to a pair of agents.
    Returns (choices, pairs): choice c < n means whole to agent c, else the
    split pair is ``pairs[c - n]``.
    """
    pairs = half_pair_order(len(families))
    choices = _capped_welfare_labels(
        families, caps, m, pairs, "half-integral welfare search", max_enum
    )
    return choices, pairs
