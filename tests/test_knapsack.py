import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kp_best_profit, mdkp_best_profit, mkp_best_profit, sorted_first_fit
from pcvne.knapsack import (
    ExactSizeError,
    KpItem,
    MdkpInstance,
    MkpInstance,
    item_order_key,
    solve_kp_dp,
    solve_mdkp,
    solve_mkp,
)
from pcvne.model import ModelError


def rand_items(rng, n, max_size=8, max_profit=20):
    return [KpItem(item_id=i, size=rng.randint(0, max_size), profit=rng.randint(0, max_profit))
            for i in range(n)]


class TestKpDp:
    def test_zero_capacity(self):
        items = [KpItem(0, 3, 5), KpItem(1, 1, 2)]
        selected, profit = solve_kp_dp(0, items)
        assert selected == [] and profit == 0

    def test_single_fitting_item(self):
        selected, profit = solve_kp_dp(5, [KpItem("a", 4, 7)])
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
            _, mkp_profit = solve_mkp(MkpInstance([cap], items), mode="exact")
            assert mkp_profit == kp_profit

    def test_oversized_items_left_out(self):
        inst = MkpInstance([2, 3], [KpItem(0, 5, 9), KpItem(1, 4, 9)])
        for mode in ("greedy", "exact"):
            assignment, profit = solve_mkp(inst, mode=mode)
            assert profit == 0
            assert all(k is None for k in assignment.values())

    def test_exact_matches_exhaustive(self):
        rng = random.Random(7)
        for _ in range(25):
            items = rand_items(rng, 8, max_size=6)
            caps = [rng.randint(0, 10) for _ in range(rng.randint(1, 3))]
            inst = MkpInstance(caps, items)
            assignment, profit = solve_mkp(inst, mode="exact")
            assert profit == mkp_best_profit(caps, items)
            _check_mkp_assignment(inst, assignment, profit)

    def test_greedy_feasible_and_dominated(self):
        rng = random.Random(9)
        for _ in range(25):
            items = rand_items(rng, 8, max_size=6)
            caps = [rng.randint(0, 10) for _ in range(rng.randint(1, 3))]
            inst = MkpInstance(caps, items)
            g_assignment, g_profit = solve_mkp(inst, mode="greedy")
            _, e_profit = solve_mkp(inst, mode="exact")
            _check_mkp_assignment(inst, g_assignment, g_profit)
            assert g_profit <= e_profit

    def test_exact_refuses_oversized_input(self):
        items = rand_items(random.Random(0), 16)
        with pytest.raises(ExactSizeError):
            solve_mkp(MkpInstance([5], items), mode="exact")


def _check_mkp_assignment(inst, assignment, profit):
    loads = [0] * len(inst.capacities)
    total = 0
    by_id = {it.item_id: it for it in inst.items}
    for item_id, k in assignment.items():
        if k is None:
            continue
        loads[k] += by_id[item_id].size
        total += by_id[item_id].profit
    assert total == profit
    assert all(l <= c for l, c in zip(loads, inst.capacities))


def rand_mdkp(rng, n, d, max_size=5, max_cap=12):
    items = [(i, rng.randint(0, 15), tuple(rng.randint(0, max_size) for _ in range(d)))
             for i in range(n)]
    caps = [rng.randint(0, max_cap) for _ in range(d)]
    return MdkpInstance(caps, items)


class TestMdkp:
    def test_one_dimension_reduces_to_kp(self):
        rng = random.Random(5)
        for _ in range(20):
            items = rand_items(rng, 9)
            cap = rng.randint(0, 20)
            inst = MdkpInstance([cap], [(it.item_id, it.profit, (it.size,)) for it in items])
            _, profit = solve_mdkp(inst, mode="exact")
            _, kp_profit = solve_kp_dp(cap, items)
            assert profit == kp_profit

    def test_zero_capacity_vector(self):
        inst = MdkpInstance([0, 0], [(0, 5, (1, 0)), (1, 3, (0, 2))])
        for mode in ("greedy", "exact"):
            selected, profit = solve_mdkp(inst, mode=mode)
            assert selected == [] and profit == 0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ModelError):
            MdkpInstance([3, 3], [(0, 1, (1, 2, 3))])

    @pytest.mark.parametrize("key", [-1, 2, "0", 1.0, True])
    def test_mapping_index_outside_dimensions_rejected(self, key):
        with pytest.raises(ModelError):
            MdkpInstance([3, 3], [(0, 1, {0: 1, key: 1})])

    def test_mapping_sizes_keep_their_form(self):
        inst = MdkpInstance([3, 3], [(0, 1, {1: 2.5}), (1, 1, [1, "1/2"])])
        assert inst.items == [(0, 1, {1: Fraction(5, 2)}), (1, 1, (1, Fraction(1, 2)))]
        with pytest.raises(ModelError):
            MdkpInstance([3, 3], [(0, 1, {1: -1})])

    def test_exact_matches_exhaustive(self):
        rng = random.Random(13)
        for _ in range(25):
            inst = rand_mdkp(rng, 10, rng.randint(1, 4))
            selected, profit = solve_mdkp(inst, mode="exact")
            assert profit == mdkp_best_profit(inst.capacities, inst.items)
            _check_mdkp_selection(inst, selected, profit)

    def test_greedy_feasible_and_dominated(self):
        rng = random.Random(17)
        for _ in range(25):
            inst = rand_mdkp(rng, 10, rng.randint(1, 4))
            selected, profit = solve_mdkp(inst, mode="greedy")
            _, e_profit = solve_mdkp(inst, mode="exact")
            _check_mdkp_selection(inst, selected, profit)
            assert profit <= e_profit

    def test_exact_refuses_oversized_input(self):
        rng = random.Random(0)
        inst = rand_mdkp(rng, 16, 2)
        with pytest.raises(ExactSizeError):
            solve_mdkp(inst, mode="exact")


def _check_mdkp_selection(inst, selected, profit):
    by_id = {item_id: (p, sizes) for item_id, p, sizes in inst.items}
    totals = [0] * inst.dimensions
    total_profit = 0
    for item_id in selected:
        p, sizes = by_id[item_id]
        total_profit += p
        totals = [t + s for t, s in zip(totals, sizes)]
    assert total_profit == profit
    assert all(t <= c for t, c in zip(totals, inst.capacities))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_exact_dominates_greedy(seed):
    rng = random.Random(seed)
    items = rand_items(rng, rng.randint(0, 9), max_size=6)
    caps = [rng.randint(0, 9) for _ in range(rng.randint(1, 3))]
    inst = MkpInstance(caps, items)
    _, g = solve_mkp(inst, mode="greedy")
    _, e = solve_mkp(inst, mode="exact")
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
    rng = random.Random(seed)
    d = rng.randint(1, 5)
    caps = [rng.choice([0, 0, 1, 3, 6, Fraction(9, 2)]) for _ in range(d)]
    dense = []
    sparse = []
    for i in range(rng.randint(0, 9)):
        sizes = [rng.choice([0, 0, 0, 1, 2, 3, Fraction(3, 2)]) for _ in range(d)]
        p = rng.randint(0, 9)
        dense.append((i, p, sizes))
        # explicit zeros stay in some mappings, the rest are left out
        sparse.append((i, p, {k: s for k, s in enumerate(sizes) if s or rng.random() < 0.3}))
    for mode in ("greedy", "exact"):
        assert (solve_mdkp(MdkpInstance(caps, sparse), mode=mode)
                == solve_mdkp(MdkpInstance(caps, dense), mode=mode))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_mkp_greedy_matches_sorted_first_fit(seed):
    rng = random.Random(seed)
    items = rand_items(rng, rng.randint(0, 12), max_size=4, max_profit=3)
    caps = [rng.choice([0, 2, 4, 4, 6]) for _ in range(rng.randint(0, 4))]
    assignment, profit = solve_mkp(MkpInstance(caps, items), mode="greedy")
    assert assignment == sorted_first_fit(caps, sorted(items, key=item_order_key))
    assert profit == sum(it.profit for it in items if assignment[it.item_id] is not None)
