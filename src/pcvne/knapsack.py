"""0-1 knapsack, multiple-knapsack and multi-dimensional knapsack solvers.

Each problem gets a fast greedy heuristic and an exact solver. The exact
solvers are branch-and-bound searches intended for oracle-scale inputs and
refuse instances above an explicit item limit rather than silently blowing up.
All arithmetic is exact (ints / Fractions), feasibility has no tolerance.
MDKP item sizes are dense length-d sequences or sparse {dimension: size}
mappings; the MDKP solvers touch only each item's nonzero dimensions.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .model import ModelError, as_quantity

DEFAULT_EXACT_ITEM_LIMIT = 15


class ExactSizeError(ModelError):
    """Exact mode invoked above the documented item limit."""


@dataclass(frozen=True)
class KpItem:
    item_id: object
    size: int
    profit: object

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 0:
            raise ModelError(f"item size must be a non-negative int, got {self.size!r}")
        object.__setattr__(self, "profit", as_quantity(self.profit))
        if self.profit < 0:
            raise ModelError("negative profit")


@dataclass
class MkpInstance:
    capacities: list  # one non-negative int per knapsack
    items: list       # KpItem

    def __post_init__(self):
        for b in self.capacities:
            if not isinstance(b, int) or b < 0:
                raise ModelError(f"knapsack capacity must be a non-negative int, got {b!r}")


@dataclass
class MdkpInstance:
    """d capacities and (item_id, profit, sizes) items, where `sizes` is a
    length-d sequence or a {dimension index in 0..d-1: size} mapping (absent
    dimensions are 0). Items keep their form (tuple or dict), quantities normalised."""

    capacities: list  # d non-negative quantities
    items: list       # (item_id, profit, sizes)

    def __post_init__(self):
        self.capacities = [as_quantity(b) for b in self.capacities]
        for b in self.capacities:
            if b < 0:
                raise ModelError("negative capacity component")
        d = len(self.capacities)
        norm = []
        for item_id, profit, sizes in self.items:
            if isinstance(sizes, Mapping):
                for i in sizes:
                    if type(i) is not int or not 0 <= i < d:
                        raise ModelError(f"item {item_id!r} has size index {i!r} outside 0..{d - 1}")
                sizes = {i: as_quantity(s) for i, s in sizes.items()}
                values = sizes.values()
            else:
                if len(sizes) != d:
                    raise ModelError(f"item {item_id!r} has {len(sizes)} size components, expected {d}")
                sizes = values = tuple(as_quantity(s) for s in sizes)
            if any(s < 0 for s in values):
                raise ModelError(f"negative size component on item {item_id!r}")
            norm.append((item_id, as_quantity(profit), sizes))
        self.items = norm

    @property
    def dimensions(self):
        return len(self.capacities)


def _efficiency(profit, size):
    # profit per unit size; zero-size items sort ahead of everything
    if size == 0:
        return math.inf if profit > 0 else 0
    return Fraction(profit, size) if isinstance(profit, int) and isinstance(size, int) else profit / size


def item_order_key(item):
    """Sort key of a KpItem: profit/size descending, ties by smaller size
    then lower id. The MKP solvers consider items in this order."""
    return (-_efficiency(item.profit, item.size), item.size, _id_key(item.item_id))


def _id_key(item_id):
    return (type(item_id).__name__, repr(item_id))


def solve_kp_dp(capacity, items):
    """Exact 0-1 knapsack by dynamic programming over the capacity axis.

    Sizes must be ints. Returns (selected item ids, optimal profit).
    O(n * capacity) time and space.
    """
    if not isinstance(capacity, int) or capacity < 0:
        raise ModelError(f"capacity must be a non-negative int, got {capacity!r}")
    n = len(items)
    best = [0] * (capacity + 1)
    keep = [[False] * (capacity + 1) for _ in range(n)]
    for i, it in enumerate(items):
        if it.size > capacity:
            continue
        for c in range(capacity, it.size - 1, -1):
            cand = best[c - it.size] + it.profit
            if cand > best[c]:
                best[c] = cand
                keep[i][c] = True
    selected = []
    c = capacity
    for i in range(n - 1, -1, -1):
        if keep[i][c]:
            selected.append(items[i].item_id)
            c -= items[i].size
    selected.reverse()
    return selected, best[capacity]


def _fractional_bound(items, capacity):
    """Optimal profit of the fractional knapsack on the given capacity; a
    valid upper bound for any 0-1 packing into knapsacks of that total size."""
    bound = 0
    room = capacity
    for it in items:
        if it.size == 0:
            bound += it.profit
            continue
        if room <= 0:
            break
        if it.size <= room:
            bound += it.profit
            room -= it.size
        else:
            bound += it.profit * Fraction(room, it.size)
            room = 0
    return bound


def solve_mkp(inst, mode="greedy", exact_item_limit=DEFAULT_EXACT_ITEM_LIMIT):
    """Multiple knapsack: pack items into knapsacks maximizing packed profit.

    Returns (assignment, profit) where assignment maps item_id to a knapsack
    index or None. Greedy sorts items by efficiency and first-fits them into
    knapsacks ordered by descending residual capacity. Exact mode is
    depth-first branch and bound with a fractional single-knapsack bound over
    the summed residual capacity; it refuses instances above the item limit.
    """
    if mode == "greedy":
        return _mkp_greedy(inst)
    if mode == "exact":
        if len(inst.items) > exact_item_limit:
            raise ExactSizeError(
                f"exact MKP limited to {exact_item_limit} items, got {len(inst.items)}")
        return _mkp_exact(inst)
    raise ModelError(f"unknown mode {mode!r}")


def _mkp_greedy(inst):
    # First fit over knapsacks ordered by (-residual, index) tries the roomiest
    # knapsack first, so an item fits somewhere iff it fits at the heap top.
    heap = [(-b, k) for k, b in enumerate(inst.capacities)]
    heapq.heapify(heap)
    assignment = {it.item_id: None for it in inst.items}
    profit = 0
    for it in sorted(inst.items, key=item_order_key):
        if heap and it.size <= -heap[0][0]:
            neg_residual, k = heap[0]
            heapq.heapreplace(heap, (neg_residual + it.size, k))
            assignment[it.item_id] = k
            profit += it.profit
    return assignment, profit


def _mkp_exact(inst):
    items = sorted(inst.items, key=item_order_key)
    m = len(inst.capacities)
    best_profit = 0
    best_assignment = {it.item_id: None for it in inst.items}
    residual = list(inst.capacities)
    current = {}

    def dfs(i, profit):
        nonlocal best_profit, best_assignment
        if profit > best_profit:
            best_profit = profit
            snap = {it.item_id: None for it in inst.items}
            snap.update(current)
            best_assignment = snap
        if i == len(items):
            return
        if profit + _fractional_bound(items[i:], sum(residual)) <= best_profit:
            return
        it = items[i]
        tried = set()
        for k in range(m):
            if residual[k] in tried or it.size > residual[k]:
                continue
            tried.add(residual[k])  # knapsacks with equal residuals are symmetric
            residual[k] -= it.size
            current[it.item_id] = k
            dfs(i + 1, profit + it.profit)
            del current[it.item_id]
            residual[k] += it.size
        dfs(i + 1, profit)

    dfs(0, 0)
    return best_assignment, best_profit


def solve_mdkp(inst, mode="greedy", exact_item_limit=DEFAULT_EXACT_ITEM_LIMIT):
    """d-dimensional knapsack: select items whose summed size vector fits the
    capacity vector component-wise, maximizing profit.

    Returns (selected item ids, profit). Greedy sorts by profit over the
    capacity-normalized size sum and takes whatever fits. Exact mode is branch
    and bound with a surrogate-relaxation fractional bound.
    """
    if mode == "greedy":
        return _mdkp_greedy(inst)
    if mode == "exact":
        if len(inst.items) > exact_item_limit:
            raise ExactSizeError(
                f"exact MDKP limited to {exact_item_limit} items, got {len(inst.items)}")
        return _mdkp_exact(inst)
    raise ModelError(f"unknown mode {mode!r}")


def _mdkp_normalized(inst):
    """Items as (id, profit, nonzero (index, size) pairs, surrogate weight,
    packable). The weight is the capacity-normalized size sum. Dimensions
    with zero capacity only contribute feasibility: any item with a positive
    size there can never be packed."""
    caps = inst.capacities
    out = []
    for item_id, profit, sizes in inst.items:
        pairs = sizes.items() if isinstance(sizes, dict) else enumerate(sizes)
        pairs = tuple((i, s) for i, s in pairs if s)
        packable = all(caps[i] > 0 for i, _s in pairs)
        weight = sum(Fraction(s, caps[i]) for i, s in pairs if caps[i] > 0)
        out.append((item_id, profit, pairs, weight, packable))
    return out


def _mdkp_efficiency(profit, weight):
    if weight == 0:
        return math.inf if profit > 0 else 0
    return profit / weight


def _mdkp_order(norm):
    return sorted(
        norm,
        key=lambda t: (-_mdkp_efficiency(t[1], t[3]), t[3], _id_key(t[0])),
    )


def _fits(pairs, residual):
    return all(s <= residual[i] for i, s in pairs)


def _mdkp_greedy(inst):
    residual = list(inst.capacities)
    selected = []
    profit = 0
    for item_id, p, pairs, _w, packable in _mdkp_order(_mdkp_normalized(inst)):
        if packable and _fits(pairs, residual):
            for i, s in pairs:
                residual[i] -= s
            selected.append(item_id)
            profit += p
    return selected, profit


def _mdkp_exact(inst):
    norm = [t for t in _mdkp_order(_mdkp_normalized(inst)) if t[4]]
    # surrogate: one knapsack of capacity = number of positive dimensions,
    # item size = its normalized weight; fractional optimum bounds the 0-1 one
    surrogate_cap = sum(1 for b in inst.capacities if b > 0)
    best_profit = 0
    best_set = []
    chosen = []

    def bound(i, used_weight):
        room = surrogate_cap - used_weight
        b = 0
        for _id, p, _s, w, _ok in norm[i:]:
            if w == 0:
                b += p
            elif w <= room:
                b += p
                room -= w
            elif room > 0:
                b += p * (room / w)
                room = 0
            else:
                break
        return b

    residual = list(inst.capacities)

    def dfs(i, profit, used_weight):
        nonlocal best_profit, best_set
        if profit > best_profit:
            best_profit = profit
            best_set = list(chosen)
        if i == len(norm):
            return
        if profit + bound(i, used_weight) <= best_profit:
            return
        item_id, p, pairs, w, _ok = norm[i]
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
