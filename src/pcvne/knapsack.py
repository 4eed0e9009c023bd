"""Multiple-knapsack and multi-dimensional knapsack solvers on plain lists.

Each problem gets a fast greedy heuristic and an exact solver, selected by
`mode`. The exact solvers are branch-and-bound searches for oracle-scale
inputs: both prune with one fractional-knapsack bound (`_fractional_bound`)
and refuse instances above `EXACT_ITEM_LIMIT` items. All arithmetic is exact
(ints / Fractions), feasibility has no tolerance. Both greedy orders here and
the ring solver's `greedy_revenue` rank on `_ratio_key`'s exact int ratio.
The solvers check nothing: the path pipeline, their one caller, hands them
quantities that the model and `path_items` have checked. Both MKP modes give
(position, knapsack) per packed item, greedy by `first_fit`. `_mdkp_items`
reads each MDKP item once for its surrogate weight.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from operator import attrgetter

from .model import ModelError

EXACT_ITEM_LIMIT = 15


class ExactSizeError(ModelError):
    """Exact mode invoked above EXACT_ITEM_LIMIT items."""


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


def _fractional_bound(pairs, capacity):
    """Optimal profit of the fractional knapsack over (profit, size) pairs
    given in efficiency order; a valid upper bound for any 0-1 packing of
    those items into knapsacks of that total size."""
    bound = 0
    room = capacity
    for profit, size in pairs:
        if size == 0:
            bound += profit
            continue
        if room <= 0:
            break
        if size <= room:
            bound += profit
            room -= size
        else:
            bound += profit * Fraction(room, size)
            room = 0
    return bound


def _exact(problem, mode, n_items):
    """Whether `mode` asks for the exact solver, refused above EXACT_ITEM_LIMIT items."""
    if mode == "greedy":
        return False
    if mode == "exact":
        if n_items > EXACT_ITEM_LIMIT:
            raise ExactSizeError(f"exact {problem} limited to {EXACT_ITEM_LIMIT} items, got {n_items}")
        return True
    raise ModelError(f"unknown mode {mode!r}")


def solve_mkp(capacities, profits, sizes, mode="greedy"):
    """Multiple knapsack: pack items into knapsacks maximizing packed profit.

    The items are parallel profit and size lists in MKP order (`mkp_order`),
    the capacities non-negative ints. Returns (position, knapsack) per packed
    item, in item order. Greedy is `first_fit`. Exact mode is depth-first
    branch and bound with `_fractional_bound` over the summed residual
    capacity; it refuses more than `EXACT_ITEM_LIMIT` items.
    """
    if _exact("MKP", mode, len(sizes)):
        return _mkp_exact(capacities, profits, sizes)
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


def _mkp_exact(capacities, profits, sizes):
    """The first optimum, in include-first depth-first order, as `first_fit`
    returns its packing: (position, knapsack) per packed item."""
    pairs = list(zip(profits, sizes))
    residual = list(capacities)
    current, best, best_profit = [], [], 0

    def dfs(i, profit):
        nonlocal best, best_profit
        if profit > best_profit:
            best, best_profit = list(current), profit
        if i == len(pairs) or profit + _fractional_bound(pairs[i:], sum(residual)) <= best_profit:
            return
        size = sizes[i]
        tried = set()
        for k, r in enumerate(residual):
            if r in tried or size > r:
                continue
            tried.add(r)  # knapsacks with equal residuals are symmetric
            residual[k] -= size
            current.append((i, k))
            dfs(i + 1, profit + profits[i])
            current.pop()
            residual[k] += size
        dfs(i + 1, profit)

    dfs(0, 0)
    return best


def solve_mdkp(capacities, items, mode="greedy"):
    """d-dimensional knapsack: select items whose summed size vector fits the
    capacity vector component-wise, maximizing profit.

    `capacities` are d non-negative exact quantities; `items` are (item_id,
    profit, pairs), `pairs` a list of (dimension in 0..d-1, positive size),
    each dimension at most once (an absent one is size 0), all exact.
    Returns (selected item ids, profit). Greedy sorts by profit over the
    capacity-normalized size sum and takes whatever fits. Exact mode is branch
    and bound with `_fractional_bound` over that surrogate relaxation; it
    refuses more than `EXACT_ITEM_LIMIT` items.
    """
    return (_mdkp_exact if _exact("MDKP", mode, len(items)) else _mdkp_greedy)(capacities, items)


def _mdkp_items(capacities, items):
    """The packable items as (id, profit, nonzero (index, size) pairs,
    surrogate weight) in funding order (`_ratio_key` on profit and weight,
    then smaller weight, then lower id), and the weights' scale. A
    dimension's unit is L / its capacity (L = lcm of the positive capacity
    numerators; 0 at a zero capacity). One pass per item over its nonzero
    pairs drops it at a zero capacity (it never fits) and sums size × unit;
    times the lcm of the sums' denominators, that is the
    capacity-normalized size sum times the scale, an exact int."""
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
    return packable, scale * size_lcm


def _fits(pairs, residual):
    return all(s <= residual[i] for i, s in pairs)


def _mdkp_greedy(capacities, items):
    residual = list(capacities)
    selected = []
    profit = 0
    for item_id, p, pairs, _w in _mdkp_items(capacities, items)[0]:
        if _fits(pairs, residual):
            for i, s in pairs:
                residual[i] -= s
            selected.append(item_id)
            profit += p
    return selected, profit


def _mdkp_exact(capacities, items):
    norm, scale = _mdkp_items(capacities, items)
    # surrogate: one knapsack of capacity = number of (positive) dimensions the items touch,
    # item size = its normalized weight, both scaled; fractional optimum bounds the 0-1 one
    surrogate_cap = scale * len({i for _id, _p, pairs, _w in norm for i, _s in pairs})
    weights = [(p, w) for _id, p, _s, w in norm]
    best_profit = 0
    best_set = []
    chosen = []
    residual = list(capacities)

    def dfs(i, profit, used_weight):
        nonlocal best_profit, best_set
        if profit > best_profit:
            best_profit = profit
            best_set = list(chosen)
        if i == len(norm):
            return
        if profit + _fractional_bound(weights[i:], surrogate_cap - used_weight) <= best_profit:
            return
        item_id, p, pairs, w = norm[i]
        if _fits(pairs, residual):
            for k, s in pairs:
                residual[k] -= s
            chosen.append(item_id)
            dfs(i + 1, profit + p, used_weight + w)
            chosen.pop()
            for k, s in pairs:
                residual[k] += s
        dfs(i + 1, profit, used_weight)

    dfs(0, 0, 0)
    return best_set, best_profit
