"""The search kernels behind the three exact searches.

They take flat integer tables scaled by ``engine`` and compute in Python
ints, so no magnitude can overflow.  The max-min search loop,
``_max_min_search``, also exists in C (``_maxmin.c``), for tables that fit
int64; ``max_min_labels`` takes the loop to run as an argument.

``best_choice_labels`` (capped welfare) runs an iterative depth-first
branch and bound over label sequences in ascending lexicographic order.  A
subtree is pruned when an optimistic bound on its objective is at most the
best value found so far, and only a strict improvement replaces the
incumbent, so the answer is the lexicographically first optimum, exactly as
an exhaustive scan would return it.

``max_min_labels`` (the max-min partition) finds the value first and the
witness second, with two runs of one dedicated search loop.  The first
proves the optimum value on the items reordered largest first, starting
from a greedy partition's value; the second walks the items in their own
order with the incumbent just below that value and stops at the first
labeling that reaches it, which is the lexicographically first optimum.

The bounds rely on non-negative table entries, which the valuation layer
guarantees.
"""

from __future__ import annotations

from operator import add


def _branch_and_bound(m, width, step, undo):
    """Lexicographically first label sequence of length m maximizing a value.

    ``width(j)`` is the number of labels item j may take; it is read once
    per visit of depth j, after items 0..j-1 are labeled.  ``step(j, c)``
    gives item j label c and returns an upper bound on the value of every
    completion of the labeled prefix, which must be the exact value once the
    last item is labeled.  ``undo(j, c)`` reverts ``step(j, c)``.  Values
    are non-negative integers and the empty sequence is worth 0.
    Returns (best value, labels).
    """
    if m == 0:
        return 0, []
    last = m - 1
    lab = [-1] * m
    lim = [0] * m
    lim[0] = width(0)
    best, best_lab = -1, []
    j = 0
    while j >= 0:
        c = lab[j]
        if c >= 0:
            undo(j, c)
        c += 1
        if c == lim[j]:
            lab[j] = -1
            j -= 1
            continue
        lab[j] = c
        opt = step(j, c)
        if opt > best:
            if j == last:
                best, best_lab = opt, lab[:]
            else:
                j += 1
                lim[j] = width(j)
    return best, best_lab


def _suffix_bounds(rows, m):
    """Per item j: (max over rows of the sum of entries j.., sum over items
    j.. of the largest entry), with a trailing (0, 0) for j == m."""
    remmax = [0] * (m + 1)
    remtot = [0] * (m + 1)
    acc = [0] * len(rows)
    for j in range(m - 1, -1, -1):
        col = [row[j] for row in rows]
        acc = list(map(add, acc, col))
        remmax[j] = max(acc)
        remtot[j] = remtot[j + 1] + max(col)
    return remmax, remtot


def _greedy_value(rows, n, m):
    """Value of the best of the per-row greedy (LPT) partitions.

    For each row r, items go by decreasing row-r entry to the bundle with
    the smallest row-r sum; each partition is evaluated exactly under all
    rows, so the result is the value of a real partition, a lower bound on
    the optimum.
    """
    best = 0
    for row in rows:
        load = [0] * n
        sums = [[0] * len(rows) for _ in range(n)]
        for j in sorted(range(m), key=row.__getitem__, reverse=True):
            g = load.index(min(load))
            load[g] += row[j]
            sums[g] = [s + r[j] for s, r in zip(sums[g], rows)]
        best = max(best, min(map(max, sums)))
    return best


def _max_min_search(rows, n, floor, target):
    """Depth-first max-min search over the items of ``rows`` in this order.

    Visits restricted-growth labelings (bundles numbered in order of first
    use) in ascending lexicographic order, for n >= 2 bundles and at least
    two items.  Only a leaf worth more than ``floor`` counts, and it raises
    the floor; the search returns at the first leaf worth at least
    ``target``.  Returns (best value, labels, nodes), labels None when no
    leaf beat ``floor``; nodes counts the labels given to items before the
    last, which the last-item pass labels all at once.  ``_maxmin.c`` is
    this loop in C, node for node.

    A prefix is pruned when its bound is at most the floor.  The bound is
    the smallest of: the weakest bundle plus everything left under one row,
    and for each k >= 2 the average of the k weakest bundles if every
    remaining item added its largest entry to them (XOS values are
    subadditive, so none can be beaten).  A prefix is also pruned when it
    leaves the same multiset of bundle row sums as an earlier prefix whose
    subtree was searched to the end: bundles are interchangeable, so both
    reach the same values, none of which beat the floor then or now.  The
    key needs no depth: equal multisets have equal totals, so the items
    between two such prefixes are all-zero columns, which change no value.
    Only prefixes with at least three items left are recorded.
    """
    m = len(rows[0])
    last = m - 1
    cols = list(zip(*rows))
    remmax, remtot = _suffix_bounds(rows, m)
    sums = [(0,) * len(rows)] * n
    val = [0] * n
    lab = [-1] * m
    lim = [0] * m
    used = [0] * m  # bundles used by items 0..j-1
    saved = [None] * m
    keys = [None] * m  # stays None where no state is recorded
    done = set()
    best, best_lab = floor, None
    nodes = 0
    lim[0] = 1
    j = 0
    while j >= 0:
        c = lab[j]
        if c >= 0:
            sums[c], val[c] = saved[j]
        c += 1
        if c == lim[j]:
            done.add(keys[j])
            lab[j] = -1
            j -= 1
            continue
        lab[j] = c
        nodes += 1
        s = sums[c]
        saved[j] = s, val[c]
        s = sums[c] = tuple(map(add, s, cols[j]))
        val[c] = max(s)
        k = j + 1
        vs = sorted(val)
        low = vs[0]
        if low + remmax[k] <= best:
            continue
        rt = remtot[k]
        acc = low
        for q in range(1, n):
            acc += vs[q]
            if (acc + rt) // (q + 1) <= best:
                break
        else:
            u = max(used[j], c + 1)
            if k < last:
                if k < last - 1:
                    key = tuple(sorted(sums))
                    if key in done:
                        continue
                    keys[k] = key
                used[k] = u
                lim[k] = min(u + 1, n)
                j = k
                continue
            # the last item: every label in one pass
            col = cols[last]
            for g in range(min(u + 1, n)):
                v = max(map(add, sums[g], col))
                other = vs[1] if val[g] == low else low
                if v > other:
                    v = other
                if v > best:
                    best, best_lab = v, lab[:last] + [g]
                    if v >= target:
                        return best, best_lab, nodes
    return best, best_lab, nodes


def max_min_labels(flat, nfun, m, n, search=_max_min_search):
    """Assign m items to n bundles maximizing the minimum bundle value.

    flat: row-major nfun x m non-negative integer table for one agent.
    Returns (best objective, labels), labels lexicographically smallest.
    ``search`` runs both phases: ``_max_min_search`` or the C loop of the
    same signature and node sequence, which ``engine`` passes when it is
    built and the table fits in int64.

    Bundles are interchangeable, so the first optimum numbers bundles in
    order of first use; only such labelings (restricted-growth strings) are
    searched, by two runs of one search.

    Phase A finds the optimum value OPT.  It takes the items by decreasing
    largest entry, so big items are placed while the bounds are loose, and
    starts from the value of the best per-row greedy partition, keeping
    only strict improvements: OPT is the greedy value when it finds none.
    It stops early at a labeling worth the root bound, and is skipped when
    the greedy value already reaches it.

    Phase B finds the witness.  It searches the items in their own order
    with the floor at OPT - 1 and returns at the first labeling worth OPT.
    Every labeling before it was worth less than OPT or sat in a subtree
    that could not beat OPT - 1, so the labels are the lexicographically
    first optimum, exactly what an exhaustive scan returns.
    """
    rows = [flat[k * m:(k + 1) * m] for k in range(nfun)]
    if n == 1:
        return max(map(sum, rows)), [0] * m
    if n > m:
        # some bundle stays empty, so every labeling is worth 0
        return 0, [0] * m
    opt = _greedy_value(rows, n, m)
    top = min(max(map(sum, rows)), sum(map(max, zip(*rows))) // n)
    if opt < top:
        order = sorted(range(m), key=lambda j: max(r[j] for r in rows),
                       reverse=True)
        ordered = [[r[j] for j in order] for r in rows]
        opt = search(ordered, n, opt, top)[0]
    return search(rows, n, opt - 1, opt)[:2]


def best_choice_labels(flat, caps, n, nfmax, m, pair_a, pair_b):
    """Capped-welfare maximizer over per-item whole/split choices.

    Per-item choices: whole to agent c (c < n), else split between the pair
    (pair_a[c-n], pair_b[c-n]).  Values in ``flat`` (agent-major n x nfmax
    x m, short families padded with zero rows) are on the half-share scale,
    so a whole share adds twice the table entry; ``caps`` must be
    pre-doubled by the caller to match.  With no pairs this is integral
    capped welfare at twice its value.
    Returns (welfare, choices), choices lexicographically smallest.

    The bound on a prefix is the smaller of the capped welfare if every
    agent also got all remaining items under her best row, and the current
    welfare plus the largest share of every remaining item.
    """
    nch = n + len(pair_a)
    rows = [
        [flat[(i * nfmax + k) * m:(i * nfmax + k + 1) * m] for k in range(nfmax)]
        for i in range(n)
    ]
    # bounds on the half-share scale, where a whole item counts twice;
    # remmax_at[j][i] is agent i's best row sum over items j..
    per_agent = [_suffix_bounds(agent, m)[0] for agent in rows]
    remmax_at = [[2 * rm[j] for rm in per_agent] for j in range(m + 1)]
    _, remtot = _suffix_bounds([row for agent in rows for row in agent], m)
    remtot = [2 * x for x in remtot]
    # moves[j][c]: (agent, column added to her row sums) per share of choice c
    moves = []
    for j in range(m):
        half = [[row[j] for row in agent] for agent in rows]
        whole = [[2 * x for x in col] for col in half]
        moves.append(
            [((c, whole[c]),) for c in range(n)]
            + [((a, half[a]), (b, half[b])) for a, b in zip(pair_a, pair_b)]
        )
    sums = [[0] * nfmax for _ in range(n)]
    raw = [0] * n
    saved = [None] * m

    def width(j):
        return nch

    def step(j, c):
        mv = moves[j][c]
        saved[j] = [sums[i] for i, _ in mv]
        for i, col in mv:
            s = sums[i] = list(map(add, sums[i], col))
            raw[i] = max(s)
        total = sum(map(min, caps, raw))
        reach = sum(map(min, caps, map(add, raw, remmax_at[j + 1])))
        return min(reach, total + remtot[j + 1])

    def undo(j, c):
        for (i, _), s in zip(moves[j][c], saved[j]):
            sums[i] = s
            raw[i] = max(s)

    return _branch_and_bound(m, width, step, undo)
