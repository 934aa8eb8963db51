"""The search kernels behind the three exact searches.

They take flat integer tables scaled by ``engine`` and compute in Python
ints, so no magnitude can overflow.

Both kernels run one iterative depth-first branch and bound over label
sequences in ascending lexicographic order.  A subtree is pruned when an
optimistic bound on its objective is at most the best value found so far,
and only a strict improvement replaces the incumbent, so the answer is the
lexicographically first optimum, exactly as an exhaustive scan would return
it.  The bounds rely on non-negative table entries, which the valuation
layer guarantees.
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


def max_min_labels(flat, nfun, m, n):
    """Assign m items to n bundles maximizing the minimum bundle value.

    flat: row-major nfun x m non-negative integer table for one agent.
    Returns (best objective, labels), labels lexicographically smallest.

    Bundles are interchangeable, so the first optimum numbers bundles in
    order of first use; only such labelings (restricted-growth strings) are
    searched.  The bound on a prefix is the smaller of the weakest bundle
    plus everything left under one row, and the average bundle value if
    every remaining item added its largest entry (XOS values are
    subadditive, so neither can be beaten).
    """
    rows = [flat[k * m:(k + 1) * m] for k in range(nfun)]
    cols = [[row[j] for row in rows] for j in range(m)]
    remmax, remtot = _suffix_bounds(rows, m)
    sums = [[0] * nfun for _ in range(n)]
    val = [0] * n
    saved = [None] * m
    # labels item j may take: bundles used by items 0..j-1, plus one fresh
    used = [0] * (m + 1)

    def width(j):
        return min(used[j] + 1, n)

    def step(j, g):
        s = sums[g]
        saved[j] = s
        s = sums[g] = list(map(add, s, cols[j]))
        val[g] = max(s)
        used[j + 1] = max(used[j], g + 1)
        return min(min(val) + remmax[j + 1], (sum(val) + remtot[j + 1]) // n)

    def undo(j, g):
        s = sums[g] = saved[j]
        val[g] = max(s)

    return _branch_and_bound(m, width, step, undo)


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
