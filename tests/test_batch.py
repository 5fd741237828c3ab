"""BatchUpdate: mass conservation, min-first behaviour, update savings."""

import random
from math import comb

import pytest

from repro.core import batch_update
from repro.core.batch import _distribute


def _distribute_recursive(weights, h, p, k, budget):
    """The original recursive Algorithm 4 — parity oracle for the
    work-stack implementation that replaced it."""
    updates = 0
    while budget > 0:
        t = k - len(h)
        if t < 0 or t > len(p):
            return updates
        if t == 0:
            v = min(h, key=weights.__getitem__)
            weights[v] += 1
            return updates + 1
        min_hold = min((weights[x] for x in h), default=None)
        min_pivot = min(weights[x] for x in p)
        w_min = min_pivot if min_hold is None else min(min_hold, min_pivot)
        w_next = None
        for x in h:
            w = weights[x]
            if w > w_min and (w_next is None or w < w_next):
                w_next = w
        for x in p:
            w = weights[x]
            if w > w_min and (w_next is None or w < w_next):
                w_next = w
        if min_hold is not None and min_hold < min_pivot:
            ties = [x for x in h if weights[x] == w_min]
            gap = w_next - w_min
            amount = min(budget, len(ties) * gap)
            base, extra = divmod(amount, len(ties))
            for i, x in enumerate(ties):
                inc = base + (1 if i < extra else 0)
                if inc:
                    weights[x] += inc
                    updates += 1
            budget -= amount
            continue
        v = next(x for x in p if weights[x] == w_min)
        containing = comb(len(p) - 1, t - 1)
        with_budget = min(containing, budget)
        amount = with_budget if w_next is None else min(w_next - w_min, with_budget)
        if amount:
            weights[v] += amount
            updates += 1
        remaining_with_v = with_budget - amount
        if remaining_with_v > 0:
            p.remove(v)
            h.append(v)
            updates += _distribute_recursive(weights, h, p, k, remaining_with_v)
            h.pop()
            p.append(v)
        budget -= with_budget
        if budget > 0:
            p.remove(v)
            updates += _distribute_recursive(weights, h, p, k, budget)
            p.append(v)
        return updates
    return updates


class TestIterativeRecursiveParity:
    """The explicit work-stack must replay the recursion write-for-write."""

    @pytest.mark.parametrize("trial", range(120))
    def test_randomized_paths_match_exactly(self, trial):
        rng = random.Random(9000 + trial)
        n_holds = rng.randint(1, 3)
        n_pivots = rng.randint(0, 10)
        k = rng.randint(0, n_holds + n_pivots + 1)
        holds = list(range(n_holds))
        pivots = list(range(n_holds, n_holds + n_pivots))
        start = [rng.randint(0, 8) for _ in range(n_holds + n_pivots)]
        total = comb(n_pivots, k - n_holds) if 0 <= k - n_holds <= n_pivots else 0
        lim = rng.choice([None, rng.randint(0, total + 2)])

        got = list(start)
        got_updates = batch_update(got, holds, pivots, k, lim=lim)

        want = list(start)
        budget = total if lim is None else min(lim, total)
        want_updates = 0
        if budget > 0 and 0 <= k - n_holds <= n_pivots:
            want_updates = _distribute_recursive(
                want, list(holds), list(pivots), k, budget
            )

        assert got == want
        assert got_updates == want_updates


class TestSplitsAndOneCliqueLeaves:
    """``_distribute`` writes a subproblem with one clique left directly
    and reads each step's levels once; the recursion stays the oracle,
    on tie-heavy weights and budgets that stop partway."""

    @pytest.mark.parametrize("trial", range(200))
    def test_partial_budgets_match_the_recursion(self, trial):
        rng = random.Random(31000 + trial)
        n_holds = rng.randint(0, 3)
        n_pivots = rng.randint(1, 8)
        t = rng.randint(1, n_pivots)
        k = n_holds + t
        holds = list(range(n_holds))
        pivots = list(range(n_holds, n_holds + n_pivots))
        start = [rng.randint(0, 3) for _ in range(n_holds + n_pivots)]
        budget = rng.randint(1, comb(n_pivots, t))

        got = list(start)
        got_updates = _distribute(got, list(holds), list(pivots), k, budget)
        want = list(start)
        want_updates = _distribute_recursive(
            want, list(holds), list(pivots), k, budget
        )
        assert got == want
        assert got_updates == want_updates
        assert sum(got) - sum(start) == budget


class TestMassConservation:
    @pytest.mark.parametrize("trial", range(60))
    def test_total_mass_equals_clique_count(self, trial):
        rng = random.Random(trial)
        n_holds = rng.randint(1, 3)
        n_pivots = rng.randint(0, 7)
        k = rng.randint(n_holds, n_holds + n_pivots)
        holds = list(range(n_holds))
        pivots = list(range(n_holds, n_holds + n_pivots))
        weights = [rng.randint(0, 6) for _ in range(n_holds + n_pivots)]
        before = sum(weights)
        batch_update(weights, holds, pivots, k)
        assert sum(weights) - before == comb(n_pivots, k - n_holds)

    @pytest.mark.parametrize("trial", range(40))
    def test_lim_caps_the_mass(self, trial):
        rng = random.Random(1000 + trial)
        holds = [0]
        pivots = [1, 2, 3, 4, 5]
        k = rng.randint(1, 6)
        total = comb(5, k - 1)
        lim = rng.randint(0, total + 3)
        weights = [rng.randint(0, 4) for _ in range(6)]
        before = sum(weights)
        batch_update(weights, holds, pivots, k, lim=lim)
        assert sum(weights) - before == max(0, min(lim, total))


class TestSemantics:
    def test_invalid_path_is_noop(self):
        weights = [0, 0]
        assert batch_update(weights, [0, 1], [], 3) == 0  # k > |H| + |P|
        assert batch_update(weights, [0, 1], [], 1) == 0  # k < |H|
        assert weights == [0, 0]

    def test_single_clique_goes_to_minimum(self):
        weights = [5, 3, 9]
        batch_update(weights, [0, 1, 2], [], 3)
        assert weights == [5, 4, 9]

    def test_zero_weight_hold_absorbs_everything(self):
        # one hold far below everyone: it takes the whole path budget
        weights = [0, 100, 100, 100]
        updates = batch_update(weights, [0], [1, 2, 3], 2)
        # 3 cliques, all should land on vertex 0 in a single write
        assert weights[0] == 3
        assert updates == 1

    def test_hold_stops_at_gap_then_continues(self):
        # hold at 0, second minimum at 2: the hold takes gap=2 first, then
        # remaining mass distributes among the new tied minimum
        weights = [0, 2, 2, 2]
        batch_update(weights, [0], [1, 2, 3], 2)
        assert sum(weights) == 6 + 3
        assert max(weights) - min(weights) <= 1  # ends almost perfectly level

    def test_all_holds_clique_single_unit(self):
        # k == |H|: the path carries exactly one clique (the holds); one
        # unit lands on the minimum-weight hold
        weights = [0, 0, 50]
        batch_update(weights, [0, 1], [2], 2, lim=None)
        assert sorted(weights[:2]) == [0, 1]
        assert weights[2] == 50

    def test_tied_holds_split_evenly_valid(self):
        weights = [0, 0, 5, 5, 5]
        batch_update(weights, [0, 1], [2, 3, 4], 3)
        # 3 cliques; both holds tied at 0, gap 5 -> all 3 units split 2/1
        assert sorted([weights[0], weights[1]]) == [1, 2]

    def test_pivot_case_respects_membership_count(self):
        # minimum at a pivot: it can absorb at most C(|P|-1, k-|H|-1)
        weights = [10, 0, 10, 10]
        batch_update(weights, [0], [1, 2, 3], 3)
        # cliques: {0,1,2},{0,1,3},{0,2,3}; pivot 1 in exactly 2 of them
        assert weights[1] <= 2 + 2  # absorbed its cliques, maybe promoted
        assert sum(weights) == 30 + 3

    def test_update_count_far_below_clique_count(self):
        # the whole point of batching: huge paths, few writes
        n_pivots = 20
        weights = [0] + [0] * n_pivots
        k = 10
        total = comb(n_pivots, k - 1)
        updates = batch_update(weights, [0], list(range(1, n_pivots + 1)), k)
        assert sum(weights) == total
        assert updates < total / 10

    def test_returns_zero_for_zero_lim(self):
        weights = [0, 0, 0]
        assert batch_update(weights, [0], [1, 2], 2, lim=0) == 0


class TestEquivalenceWithSequential:
    """Batch and sequential processing need not produce identical vectors
    (the paper reorders updates), but aggregate invariants must match."""

    @pytest.mark.parametrize("trial", range(30))
    def test_same_mass_and_min_weight_never_overshoots(self, trial):
        rng = random.Random(500 + trial)
        n_holds = rng.randint(1, 2)
        n_pivots = rng.randint(1, 6)
        k = rng.randint(n_holds + 1, n_holds + n_pivots)
        holds = list(range(n_holds))
        pivots = list(range(n_holds, n_holds + n_pivots))
        start = [rng.randint(0, 5) for _ in range(n_holds + n_pivots)]

        batch = list(start)
        batch_update(batch, holds, pivots, k)

        from itertools import combinations

        seq = list(start)
        for chosen in combinations(pivots, k - n_holds):
            clique = holds + list(chosen)
            u = min(clique, key=seq.__getitem__)
            seq[u] += 1

        assert sum(batch) == sum(seq)
        # both schemes raise the minimum weight by a comparable amount:
        # neither can exceed the waterline of even distribution
        assert min(batch) >= min(start)
