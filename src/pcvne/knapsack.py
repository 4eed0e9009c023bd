"""Multiple-knapsack and multi-dimensional knapsack solvers on plain lists.

Each problem has one greedy solver, the path pipeline's packing and funding
stages. The exact stages, which criterion 5 checks them against and
criterion 6 runs the pipeline with, are test code (`tests/oracles.py`: a
branch and bound for the MKP, an enumeration for the MDKP). All arithmetic
is exact (ints / Fractions), feasibility has no tolerance. Both greedy orders here and the
ring solver's `greedy_revenue` rank on `_ratio_key`'s exact int ratio. The
solvers check nothing: the path pipeline, their one caller, hands them
quantities that the model and `path_items` have checked. The MKP gives
(position, knapsack) per packed item, by `first_fit`. `_mdkp_items` reads
each MDKP item once for its surrogate weight.
"""

from __future__ import annotations

import heapq
import math
from operator import attrgetter


def mkp_order(profits, sizes, ids):
    """The positions of the items given as parallel lists in MKP order:
    profit/size descending, then smaller size, then lower id. One
    `_ratio_key` for the sort, called once per item."""
    ratio = _ratio_key(profits, sizes)
    keys = [(ratio(p, s), s, _id_key(i)) for p, s, i in zip(profits, sizes, ids)]
    return sorted(range(len(keys)), key=keys.__getitem__)


def _ratio_key(profits, sizes):
    """The profit/size rule of every greedy order, built once per sort:
    ratio(profit, size) is the exact int -⌊P·profit·S/size⌋ (P = lcm of the
    profit denominators, S = 2^k > n² for each size numerator n, so distinct
    ratios, ≥ 1/(n₁·n₂) apart, stay apart). At size 0 a positive profit
    ranks first, a zero one as ratio 0. Ties are the caller's: smaller size,
    then lower id in the knapsack orders, input order in `greedy_revenue`."""
    scale = math.lcm(*set(map(attrgetter("denominator"), profits)))
    shift = 2 * max(map(attrgetter("numerator"), sizes), default=0).bit_length()

    def ratio(profit, size):
        p = int(profit * scale)
        return -((p << shift) // size) if size else -math.inf if p else 0
    return ratio


def _id_key(item_id):
    return (type(item_id).__name__, repr(item_id))


def solve_mkp(capacities, profits, sizes):
    """Multiple knapsack: pack items into knapsacks maximizing packed profit.

    The items are parallel profit and size lists in MKP order (`mkp_order`),
    the capacities non-negative ints. Returns (position, knapsack) per packed
    item, in item order, by `first_fit`. The order already holds the
    profits, so the greedy packing reads only the sizes; `profits` stays in
    the MKP's interface, which the tests' exact stage (criterion 6) reads.
    """
    return first_fit(capacities, sizes)


def first_fit(capacities, sizes):
    """Greedy MKP over a list of item sizes in MKP order (`mkp_order`): each
    item goes into the roomiest knapsack (ties: lower index), the top of a
    heap, if it fits there. Returns (position in `sizes`, knapsack) per packed
    item, in item order. Stops at the first position where the top residual is
    below every remaining size, since the top never grows and no later item
    can fit. That smallest remaining size is looked up at an item that does
    not fit, and again only once the walk has passed the item that holds it."""
    heap = [(-b, k) for k, b in enumerate(capacities)]
    heapq.heapify(heap)
    packed = []
    low, at = 0, -1  # low == min(sizes[j:]) for each j from the last lookup up to `at`
    top = -heap[0][0] if heap else -1
    for i, size in enumerate(sizes):
        if size <= top:
            packed.append((i, heap[0][1]))
            heapq.heapreplace(heap, (size - top, heap[0][1]))
            top = -heap[0][0]
            continue
        if i > at:
            low = min(sizes[i:])
            at = sizes.index(low, i)
        if top < low:
            break
    return packed


def solve_mdkp(capacities, items):
    """d-dimensional knapsack: select items whose summed size vector fits the
    capacity vector component-wise, maximizing profit.

    `capacities` are d non-negative exact quantities; `items` are (item_id,
    profit, pairs), `pairs` a list of (dimension in 0..d-1, positive size),
    each dimension at most once (an absent one is size 0), all exact.
    Returns (selected item ids, profit): greedy, in funding order
    (`_mdkp_items`), each item taken if it fits the residual capacities.
    """
    residual = list(capacities)
    selected = []
    profit = 0
    for item_id, p, pairs, _w in _mdkp_items(capacities, items):
        if all(s <= residual[i] for i, s in pairs):
            for i, s in pairs:
                residual[i] -= s
            selected.append(item_id)
            profit += p
    return selected, profit


def _mdkp_items(capacities, items):
    """The packable items as (id, profit, nonzero (index, size) pairs,
    surrogate weight) in funding order (`_ratio_key` on profit and weight,
    then smaller weight, then lower id). A dimension's unit is L / its
    capacity (L = lcm of the positive capacity numerators; 0 at a zero
    capacity). One pass per item over its nonzero pairs drops it at a zero
    capacity (it never fits) and sums size × unit; times the lcm of the
    sums' denominators, that is the capacity-normalized size sum times one
    factor common to all items, an exact int."""
    positive = set(capacities) - {0}
    scale = math.lcm(*{c.numerator for c in positive})
    unit_of = {c: c.denominator * (scale // c.numerator) for c in positive}
    unit_of[0] = 0
    unit = list(map(unit_of.__getitem__, capacities))
    packable = []
    for item_id, profit, pairs in items:
        weight = 0
        for i, s in pairs:
            u = unit[i]
            if not u:
                break
            weight += s * u
        else:
            packable.append((item_id, profit, pairs, weight))
    size_lcm = math.lcm(*{t[3].denominator for t in packable})
    packable = [(item_id, p, pairs, int(w * size_lcm)) for item_id, p, pairs, w in packable]
    ratio = _ratio_key((t[1] for t in packable), (t[3] for t in packable))
    packable.sort(key=lambda t: (ratio(t[1], t[3]), t[3], _id_key(t[0])))
    return packable
