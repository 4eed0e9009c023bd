import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import exact_solve_mdkp, exact_solve_mkp, order_items, solve_mkp_by_id
from oracles import (
    Item,
    first_fit_stop_on_smallest_reference,
    fractional_bound,
    item_order_key,
    kp_best_profit,
    mdkp_best_profit,
    mdkp_exact_reference,
    mdkp_greedy_reference,
    mdkp_order_reference,
    mdkp_pairs,
    mdkp_weight_reference,
    mkp_best_profit,
    mkp_exact_reference,
    solve_kp_dp,
    sorted_first_fit,
)
from pcvne.knapsack import (
    _mdkp_items,
    _ratio_key,
    first_fit,
    solve_mdkp,
    solve_mkp,
)
from pcvne.model import ModelError


def rand_items(rng, n, max_size=8, max_profit=20):
    return [Item(item_id=i, size=rng.randint(0, max_size), profit=rng.randint(0, max_profit))
            for i in range(n)]


class TestKpDp:
    def test_zero_capacity(self):
        items = [Item(0, 3, 5), Item(1, 1, 2)]
        selected, profit = solve_kp_dp(0, items)
        assert selected == [] and profit == 0

    def test_single_fitting_item(self):
        selected, profit = solve_kp_dp(5, [Item("a", 4, 7)])
        assert selected == ["a"] and profit == 7

    def test_selection_is_consistent(self):
        rng = random.Random(0)
        items = rand_items(rng, 10)
        selected, profit = solve_kp_dp(15, items)
        chosen = [it for it in items if it.item_id in selected]
        assert sum(it.size for it in chosen) <= 15
        assert sum(it.profit for it in chosen) == profit

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(42)
        for _ in range(40):
            items = rand_items(rng, 12)
            capacity = rng.randint(0, 25)
            _, profit = solve_kp_dp(capacity, items)
            assert profit == kp_best_profit(capacity, items)

    def test_rejects_non_integer_capacity(self):
        with pytest.raises(ModelError):
            solve_kp_dp(2.5, [])


class TestMkp:
    def test_single_knapsack_reduces_to_kp(self):
        rng = random.Random(1)
        for _ in range(20):
            items = rand_items(rng, 9)
            cap = rng.randint(0, 20)
            _, kp_profit = solve_kp_dp(cap, items)
            _, mkp_profit = solve_mkp_by_id([cap], items, exact_solve_mkp)
            assert mkp_profit == kp_profit

    def test_oversized_items_left_out(self):
        for solve in (solve_mkp, exact_solve_mkp):
            assignment, profit = solve_mkp_by_id([2, 3], [Item(0, 5, 9), Item(1, 4, 9)], solve)
            assert profit == 0
            assert all(k is None for k in assignment.values())

    def test_exact_matches_exhaustive(self):
        rng = random.Random(7)
        for _ in range(25):
            items = rand_items(rng, 8, max_size=6)
            caps = [rng.randint(0, 10) for _ in range(rng.randint(1, 3))]
            assignment, profit = solve_mkp_by_id(caps, items, exact_solve_mkp)
            assert profit == mkp_best_profit(caps, items)
            _check_mkp_assignment(caps, items, assignment, profit)

    def test_greedy_feasible_and_dominated(self):
        rng = random.Random(9)
        for _ in range(25):
            items = rand_items(rng, 8, max_size=6)
            caps = [rng.randint(0, 10) for _ in range(rng.randint(1, 3))]
            g_assignment, g_profit = solve_mkp_by_id(caps, items)
            _, e_profit = solve_mkp_by_id(caps, items, exact_solve_mkp)
            _check_mkp_assignment(caps, items, g_assignment, g_profit)
            assert g_profit <= e_profit


def _check_mkp_assignment(caps, items, assignment, profit):
    loads = [0] * len(caps)
    total = 0
    by_id = {it.item_id: it for it in items}
    for item_id, k in assignment.items():
        if k is None:
            continue
        loads[k] += by_id[item_id].size
        total += by_id[item_id].profit
    assert total == profit
    assert all(l <= c for l, c in zip(loads, caps))


def rand_mdkp(rng, n, d, max_size=5, max_cap=12):
    """Capacities, the items as `solve_mdkp` takes them, and the items with
    dense size rows, as the oracles take them."""
    items = [(i, rng.randint(0, 15), [rng.randint(0, max_size) for _ in range(d)]) for i in range(n)]
    return [rng.randint(0, max_cap) for _ in range(d)], mdkp_pairs(items), items


class TestMdkp:
    def test_one_dimension_reduces_to_kp(self):
        rng = random.Random(5)
        for _ in range(20):
            items = rand_items(rng, 9)
            cap = rng.randint(0, 20)
            pairs = [(it.item_id, it.profit, [(0, it.size)] if it.size else []) for it in items]
            _, profit = exact_solve_mdkp([cap], pairs)
            _, kp_profit = solve_kp_dp(cap, items)
            assert profit == kp_profit

    def test_zero_capacity_vector(self):
        for solve in (solve_mdkp, exact_solve_mdkp):
            selected, profit = solve([0, 0], [(0, 5, [(0, 1)]), (1, 3, [(1, 2)])])
            assert selected == [] and profit == 0

    def test_exact_matches_exhaustive(self):
        rng = random.Random(13)
        for _ in range(25):
            caps, pairs, items = rand_mdkp(rng, 10, rng.randint(1, 4))
            selected, profit = exact_solve_mdkp(caps, pairs)
            assert profit == mdkp_best_profit(caps, items)
            _check_mdkp_selection(caps, pairs, selected, profit)

    def test_greedy_feasible_and_dominated(self):
        rng = random.Random(17)
        for _ in range(25):
            caps, pairs, _items = rand_mdkp(rng, 10, rng.randint(1, 4))
            selected, profit = solve_mdkp(caps, pairs)
            _, e_profit = exact_solve_mdkp(caps, pairs)
            _check_mdkp_selection(caps, pairs, selected, profit)
            assert profit <= e_profit


def _check_mdkp_selection(caps, items, selected, profit):
    by_id = {item_id: (p, pairs) for item_id, p, pairs in items}
    totals = [0] * len(caps)
    total_profit = 0
    for item_id in selected:
        p, pairs = by_id[item_id]
        total_profit += p
        for i, s in pairs:
            totals[i] += s
    assert total_profit == profit
    assert all(t <= c for t, c in zip(totals, caps))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_exact_dominates_greedy(seed):
    rng = random.Random(seed)
    items = rand_items(rng, rng.randint(0, 9), max_size=6)
    caps = [rng.randint(0, 9) for _ in range(rng.randint(1, 3))]
    _, g = solve_mkp_by_id(caps, items)
    _, e = solve_mkp_by_id(caps, items, exact_solve_mkp)
    assert g <= e


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_kp_dp_optimal(seed):
    rng = random.Random(seed)
    items = rand_items(rng, rng.randint(0, 10), max_size=7)
    capacity = rng.randint(0, 20)
    _, profit = solve_kp_dp(capacity, items)
    assert profit == kp_best_profit(capacity, items)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_mdkp_sparse_sizes_match_dense(seed):
    # an item's pairs in any order solve as in dimension order, greedy and
    # exact, and greedy as the dense reference
    rng = random.Random(seed)
    d = rng.randint(1, 5)
    caps = [rng.choice([0, 0, 1, 3, 6, Fraction(9, 2)]) for _ in range(d)]
    dense = []
    sparse = []
    for i in range(rng.randint(0, 9)):
        sizes = [rng.choice([0, 0, 0, 1, 2, 3, Fraction(3, 2)]) for _ in range(d)]
        p = rng.randint(0, 9)
        dense.append((i, p, sizes))
        pairs = [(k, s) for k, s in enumerate(sizes) if s]
        rng.shuffle(pairs)
        sparse.append((i, p, pairs))
    full = mdkp_pairs(dense)
    for solve in (solve_mdkp, exact_solve_mdkp):
        assert solve(caps, sparse) == solve(caps, full)
    assert solve_mdkp(caps, full) == mdkp_greedy_reference(caps, dense)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_mkp_greedy_matches_sorted_first_fit(seed):
    rng = random.Random(seed)
    items = rand_items(rng, rng.randint(0, 12), max_size=4, max_profit=3)
    caps = [rng.choice([0, 2, 4, 4, 6]) for _ in range(rng.randint(0, 4))]
    assignment, profit = solve_mkp_by_id(caps, items)
    assert assignment == sorted_first_fit(caps, sorted(items, key=item_order_key))
    assert profit == sum(it.profit for it in items if assignment[it.item_id] is not None)


# Profits and sizes chosen so that different (profit, size) pairs share an
# efficiency (1/5 = 2/10, 1/2 = 5/10 = Fraction(1, 2)/1), int and Fraction
# forms of one value meet (2 and Fraction(2)), and zero-size items carry
# zero and positive profit.
_PROFITS = st.sampled_from([0, 1, 2, Fraction(2), Fraction(4, 2), 3, 5, Fraction(1, 2), Fraction(5, 2)])
_SIZES = st.sampled_from([0, 1, 2, 4, 5, 10])
_EXACT_SIZES = st.one_of(_SIZES, st.fractions(min_value=0, max_value=12, max_denominator=7))
_IDS = st.one_of(st.integers(-3, 12), st.text("ab1", max_size=2), st.tuples(st.integers(0, 2)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 8), max_size=4),
       st.lists(st.builds(Item, item_id=st.integers(0, 30), size=st.integers(0, 6), profit=_PROFITS),
                max_size=12, unique_by=lambda it: it.item_id),
       st.booleans())
@example([], [Item(0, 0, 1), Item(1, 2, 1)], True)  # no knapsacks
@example([0, 0], [Item(0, 0, 0), Item(1, 0, 3), Item(2, 1, 5)], True)  # all-zero capacities
@example([3, 2], [Item(0, 2, 4), Item(1, 3, 3), Item(2, 0, 0), Item(3, 1, 1)], False)
def test_property_first_fit_matches_sorted_first_fit(caps, items, mkp_order):
    # the early stop must not drop an item that still fits, in MKP order or
    # any other; the packed items come back by position, in item order
    if mkp_order:
        items = order_items(items)
    packed = first_fit(caps, [it.size for it in items])
    positions = [i for i, _k in packed]
    assert positions == sorted(set(positions))
    assignment = dict.fromkeys(it.item_id for it in items)
    assignment.update((items[i].item_id, k) for i, k in packed)
    assert assignment == sorted_first_fit(caps, items)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 12), max_size=4),
       st.lists(st.builds(Item, item_id=st.integers(0, 40), size=st.integers(0, 9), profit=_PROFITS),
                max_size=20, unique_by=lambda it: it.item_id),
       st.booleans())
# sizes that fall and rise again, so the smallest remaining size moves often
@example([9, 4], [Item(i, s, 1) for i, s in enumerate([6, 1, 7, 2, 8, 1, 9, 3, 5, 4, 9])], False)
def test_property_first_fit_packs_as_its_frozen_predecessor(caps, items, mkp_order):
    # the stop on the smallest remaining size changes only how far the walk reads
    if mkp_order:
        items = order_items(items)
    assert first_fit(caps, [it.size for it in items]) == first_fit_stop_on_smallest_reference(caps, items)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 12), max_size=4),
       st.lists(st.builds(Item, item_id=st.integers(0, 40), size=st.integers(0, 9), profit=_PROFITS),
                max_size=12, unique_by=lambda it: it.item_id))
def test_property_mkp_exact_packs_as_its_frozen_predecessor(caps, items):
    # the exact stage on the lists in MKP order packs each item where the
    # search over its own sorted items does, the same first optimum: its
    # position ids keep the MKP order past ten items
    assert solve_mkp_by_id(caps, items, exact_solve_mkp)[0] == mkp_exact_reference(caps, items)


def test_exact_solve_mkp_keeps_tied_items_in_position_order():
    # twelve equal items and room for ten: the include-first search takes the
    # first ten positions, which int ids (10 sorting before 2) would not
    assert exact_solve_mkp([10], [1] * 12, [1] * 12) == [(i, 0) for i in range(10)]


class _ReadCounted(list):
    """Item sizes that log each size the walk visits, and the start of each
    slice read to look up the smallest remaining size."""

    def __init__(self, sizes):
        super().__init__(sizes)
        self.visited, self.lookups = [], []

    def __iter__(self):
        for size in list.__iter__(self):
            self.visited.append(size)
            yield size

    def __getitem__(self, i):
        if isinstance(i, slice):
            self.lookups.append(i.start)
        return list.__getitem__(self, i)


def test_first_fit_stops_after_the_last_item_that_can_fit():
    # unit revenue puts the items in length order, as on the path-oversub
    # workload: once the 4s are packed only 2 units are left, and no 7 fits.
    # Stopping on the smallest size of all (2) read every 7 to the end
    sizes = [2] * 3 + [4] * 3 + [7] * 54
    items = order_items([Item(i, s, 1) for i, s in enumerate(sizes)])
    assert [it.size for it in items] == sizes
    counted = _ReadCounted(sizes)
    packed = first_fit([10, 10], counted)
    assert packed == first_fit_stop_on_smallest_reference([10, 10], items)
    assert [i for i, _k in packed] == list(range(6))
    assert len(counted.visited) == 7  # the walk reads 7 items
    assert counted.lookups == [6]  # and the smallest remaining size once, at the first 7


def test_first_fit_looks_up_the_smallest_remaining_size_again_once_past_it():
    # the 7 of ratio 2 does not fit, but the 1 after it does; once the 1 is
    # packed the smallest remaining size is 7 again, above the 5 units left
    items = order_items([Item(0, 7, 14), Item(1, 1, 1)] + [Item(i, 7, 1) for i in range(2, 52)])
    counted = _ReadCounted([it.size for it in items])
    packed = first_fit([6], counted)
    assert packed == [(1, 0)] == first_fit_stop_on_smallest_reference([6], items)
    assert len(counted.visited) == 3
    assert counted.lookups == [0, 2]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(Item, item_id=_IDS, size=_EXACT_SIZES, profit=_PROFITS), max_size=25))
# near the separation limit: Farey neighbours at 10^6 differ by 1/(s1*s2) only,
# and for the second pair a scale of S/2 < s1*s2 would tie the two ratios
@example([Item("a", 10 ** 6, 999999), Item("b", 999999, 999998)])
@example([Item("a", 999999, 999998), Item("b", 999998, 999997)])
# a Fraction profit whose ratio falls between those two
@example([Item("a", 10 ** 6, 999999), Item("b", 999999, 999998),
          Item("c", 10 ** 6, Fraction(1999997999999, 2000000))])
# a scaled copy: the same ratio at a larger size ties and falls back to size
@example([Item("a", 10 ** 6, 999999), Item("b", 999999, 999998),
          Item("c", 10 ** 6, Fraction(1999997999999, 2000000)), Item("d", 1999998, 1999996)])
# Fraction sizes: ratio 1/3 three ways, and Farey neighbours at numerators
# 10^6 and 999999 over denominators 7 and 5, apart by 1/(n1*n2) only
@example([Item("a", 3, 1), Item("b", Fraction(9, 4), Fraction(3, 4)), Item("c", Fraction(3, 2), Fraction(1, 2))])
@example([Item("a", Fraction(10 ** 6, 7), Fraction(999999, 7)),
          Item("b", Fraction(999999, 5), Fraction(999998, 5))])
def test_property_order_items_equals_fraction_key_sort(items):
    assert order_items(items) == sorted(items, key=item_order_key)
    # the ratio ints themselves rank as the Fraction ratios, ties included
    profits, sizes = [it.profit for it in items], [it.size for it in items]
    ratios = list(map(_ratio_key(profits, sizes), profits, sizes))
    efficiencies = [item_order_key(it)[0] for it in items]
    for (e1, r1), (e2, r2) in combinations(zip(efficiencies, ratios), 2):
        assert (e1 < e2, e1 == e2) == (r1 < r2, r1 == r2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(Item, item_id=st.integers(0, 30), size=st.integers(0, 6), profit=_PROFITS),
                max_size=10, unique_by=lambda it: it.item_id),
       st.integers(0, 15))
def test_property_fractional_bound_dominates_kp_optimum(items, capacity):
    # the exact MKP stage prunes on this bound, so it must never fall below an optimum
    assert fractional_bound(order_items(items), capacity) >= kp_best_profit(capacity, items)


def test_order_items_ties_equal_efficiencies_from_different_pairs():
    items = [Item("x", 10, 2), Item("y", 5, 1), Item("z", 0, 0), Item("w", 0, 3),
             Item("v", 4, Fraction(4, 5)), Item("u", 5, 2)]
    # 2/10 = 1/5 = (4/5)/4 tie and fall back to size; zero size, zero profit is last
    assert [it.item_id for it in order_items(items)] == ["w", "u", "v", "y", "x", "z"]


_QUANTITIES = st.sampled_from([0, 0, 1, 2, 3, 6, Fraction(6), Fraction(3, 2), Fraction(9, 2), Fraction(1, 3)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_mdkp_weights_match_fraction_sum(data):
    d = data.draw(st.integers(1, 6))
    caps = data.draw(st.lists(_QUANTITIES, min_size=d, max_size=d))
    items = [(i, data.draw(_QUANTITIES), data.draw(st.lists(_QUANTITIES, min_size=d, max_size=d)))
             for i in range(data.draw(st.integers(0, 6)))]
    pairs = mdkp_pairs(items)
    for _i, _p, item_pairs in pairs:  # in any order
        item_pairs[:] = data.draw(st.permutations(item_pairs))
    got = _mdkp_items(caps, pairs)
    assert all(type(t[3]) is int for t in got)
    # each int weight is the Fraction sum times one positive factor common to all items
    sizes_of = {i: sizes for i, _p, sizes in items}
    sums = [mdkp_weight_reference(caps, sizes_of[i]) for i, _p, _s, _w in got]
    assert all((w == 0) == (r == 0) for (_i, _p, _s, w), r in zip(got, sums))
    assert len({Fraction(t[3]) / r for t, r in zip(got, sums) if r}) <= 1
    # packable: no positive size on a zero capacity; those alone come back, in funding order
    packable = [t for t in mdkp_order_reference(caps, items) if all(caps[k] for k, s in enumerate(t[2]) if s)]
    assert [t[0] for t in got] == [t[0] for t in packable]


def test_mdkp_drops_an_item_that_touches_a_zero_capacity():
    # "z" has the best ratio but needs dimension 1, whose capacity is 0: the
    # intake drops it before ordering, wherever that pair comes in its list,
    # and neither the greedy nor the exact stage selects it
    caps = [4, 0, 3]
    for z_pairs in ([(0, 1), (1, 1)], [(1, 1), (0, 1)]):
        pairs = [("z", 9, z_pairs), ("a", 2, [(0, 2), (2, 1)]), ("b", 1, [(2, 3)])]
        assert _mdkp_items(caps, pairs) == [("a", 2, [(0, 2), (2, 1)], 10), ("b", 1, [(2, 3)], 12)]
        for solve in (solve_mdkp, exact_solve_mdkp):
            assert solve(caps, pairs) == (["a"], 2)


def _assert_mdkp_matches_references(caps, items, pairs):
    """`pairs` are the dense `items`' sizes as `solve_mdkp` takes them."""
    assert solve_mdkp(caps, pairs) == mdkp_greedy_reference(caps, items)
    if len(items) <= 8:
        assert exact_solve_mdkp(caps, pairs) == mdkp_exact_reference(caps, items)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_property_mdkp_greedy_and_exact_match_fraction_key_references(data):
    # _QUANTITIES and _PROFITS give equal efficiencies from different
    # (profit, weight) pairs, zero capacities, zero sizes and zero profits;
    # the ids mix types, so ties fall through to the id key
    d = data.draw(st.integers(1, 5))
    caps = data.draw(st.lists(_QUANTITIES, min_size=d, max_size=d))
    ids = data.draw(st.lists(_IDS, max_size=8, unique=True))
    items = [(item_id, data.draw(_PROFITS), data.draw(st.lists(_QUANTITIES, min_size=d, max_size=d)))
             for item_id in ids]
    _assert_mdkp_matches_references(caps, items, mdkp_pairs(items))


def _primes(lo, count):
    found, n = [], lo
    while len(found) < count:
        if all(n % p for p in range(2, math.isqrt(n) + 1)):
            found.append(n)
        n += 1
    return found


def test_mdkp_over_300_prime_capacities_matches_references():
    # the common scale is the product of 300 six-digit primes, about 6000 bits
    rng = random.Random(15)
    caps = _primes(100_003, 300)
    rng.shuffle(caps)
    for n in (8, 40):
        pairs = [(i, rng.choice([1, 2, 3, Fraction(7, 2)]),
                  [(k, rng.choice([1, 50, 999, Fraction(1, 3)])) for k in rng.sample(range(300), rng.randint(0, 12))])
                 for i in range(n)]
        items = []
        for i, p, item_pairs in pairs:
            row = [0] * 300
            for k, s in item_pairs:
                row[k] = s
            items.append((i, p, row))
        _assert_mdkp_matches_references(caps, items, pairs)
