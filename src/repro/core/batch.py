"""BatchUpdate: distributing path weight in bulk (Algorithm 4).

SCTL processes the ``C(|P|, k-|H|)`` k-cliques of a root-to-leaf path one
by one, each granting +1 to its minimum-weight vertex.  BatchUpdate
reproduces the aggregate effect with far fewer weight writes by exploiting
the path structure:

* a **hold** vertex belongs to *every* clique of the path, so while it is
  the unique minimum it absorbs one unit per remaining clique — up to the
  ``gap`` to the next-smallest weight — in a single addition;
* a **pivot** vertex belongs to exactly ``C(|P|-1, k-|H|-1)`` cliques; once
  those are exhausted the subproblem splits into "cliques containing the
  pivot" (pivot promoted to hold) and "cliques avoiding it" (pivot removed),
  exactly the four cases of Algorithm 4.

Tie handling follows the paper: when several *holds* share the minimum the
budget is spread evenly across them; minimum-weight *pivots* are processed
one at a time.

All weights are integers inside an iteration, so every ``gap`` is >= 1 and
progress is guaranteed.  The split runs on an explicit work stack rather
than recursion, so paths with thousands of pivots distribute fine.
"""

from __future__ import annotations

from math import comb
from typing import List, MutableSequence, Optional, Sequence, Tuple

from ..obs import NULL_RECORDER, Recorder

__all__ = ["batch_update"]


def batch_update(
    weights: MutableSequence[int],
    holds: Sequence[int],
    pivots: Sequence[int],
    k: int,
    lim: Optional[int] = None,
    recorder: Recorder = NULL_RECORDER,
) -> int:
    """Distribute one unit per k-clique of the path onto ``weights``.

    Parameters
    ----------
    weights:
        Per-vertex integer weights, mutated in place.
    holds, pivots:
        The path's hold and pivot vertices (after any reduction filtering).
    k:
        Clique size.
    lim:
        Number of cliques to process (defaults to all cliques of the path).
    recorder:
        Observability hook: tallies ``batch/calls``, ``batch/cliques`` and
        ``batch/weight_updates``.  The SCTL* refinement loop does *not*
        pass its recorder here — it reports per-iteration aggregates
        instead, keeping traces at iteration granularity — so these
        counters appear only for direct instrumented calls.

    Returns the number of weight-write operations performed — the metric
    Table 4 of the paper reports as ``#updates``.
    """
    t = k - len(holds)
    if t < 0 or t > len(pivots):
        return 0
    total = comb(len(pivots), t)
    budget = total if lim is None else min(lim, total)
    if budget <= 0:
        return 0
    updates = _distribute(weights, list(holds), list(pivots), k, budget)
    if recorder.enabled:
        recorder.counter("batch/calls")
        recorder.counter("batch/cliques", budget)
        recorder.counter("batch/weight_updates", updates)
    return updates


def _distribute(
    weights: MutableSequence[int], h: List[int], p: List[int], k: int, budget: int
) -> int:
    """Core loop of Algorithm 4 on an explicit work stack.

    ``h``/``p`` are the working lists the former recursion mutated and
    restored; the same shared-list discipline is replayed here through a
    continuation stack, one entry per open pivot split, so the weight
    writes land in *exactly* the order the recursive formulation produced
    them (including the incidental move-to-back of processed pivots that
    drives tie-breaking) — but a path with thousands of pivots no longer
    overflows the interpreter stack.
    """
    updates = 0
    weight = weights.__getitem__
    # (pivot, rest_budget, in_with_branch) per open split; unwound like the
    # recursion's restore sequence when an invocation drains its budget
    conts: List[Tuple[int, int, bool]] = []
    while True:
        while budget > 0:
            t = k - len(h)
            if t < 0 or t > len(p):
                break
            if t == 0 or t == len(p):
                # one clique left, one +1: to the first lightest hold when
                # it is strictly below every pivot (or t = 0, which leaves
                # the pivots out), else to the first lightest pivot
                v = min(h, key=weight) if h else None
                if t:
                    u = min(p, key=weight)
                    if v is None or weights[u] <= weights[v]:
                        v = u
                weights[v] += 1
                updates += 1
                break
            # one read of the path's weights gives the minimum, the next
            # level above it (None = all tied) and the tied holds
            hold_weights = list(map(weight, h))
            pivot_weights = list(map(weight, p))
            levels = sorted({*hold_weights, *pivot_weights})
            w_min = levels[0]
            w_next = levels[1] if len(levels) > 1 else None
            if min(pivot_weights) > w_min:
                # Cases 1-2: the minimum sits at hold vertices only.  Every
                # clique contains every hold, so the tied holds absorb
                # min(budget, ties * gap) units, spread evenly.
                ties = [x for x, w in zip(h, hold_weights) if w == w_min]
                gap = w_next - w_min  # w_next exists: a pivot is above w_min
                amount = min(budget, len(ties) * gap)
                base, extra = divmod(amount, len(ties))
                for i, x in enumerate(ties):
                    inc = base + (1 if i < extra else 0)
                    if inc:
                        weights[x] += inc
                        updates += 1
                budget -= amount
                continue
            # Cases 3-4: a pivot holds the minimum; process one such pivot.
            v = p[pivot_weights.index(w_min)]
            containing = comb(len(p) - 1, t - 1)  # cliques that include v
            with_budget = min(containing, budget)
            amount = (
                with_budget if w_next is None else min(w_next - w_min, with_budget)
            )
            if amount:
                weights[v] += amount
                updates += 1
            remaining_with_v = with_budget - amount
            rest_budget = budget - with_budget
            if remaining_with_v > 0:
                # v caught up with the second-minimum but still has cliques
                # left: promote it to a hold and continue on just those
                p.remove(v)
                h.append(v)
                conts.append((v, rest_budget, True))
                budget = remaining_with_v
                continue
            if rest_budget > 0:
                # the cliques that avoid v form the path without v
                p.remove(v)
                conts.append((v, 0, False))
                budget = rest_budget
                continue
            break
        # the current invocation drained: unwind restores until a deferred
        # without-v branch resumes, or every split is closed
        budget = 0
        while conts:
            v, rest_budget, in_with = conts.pop()
            if in_with:
                h.pop()
                if rest_budget > 0:
                    # net effect of the recursion's append+remove pair:
                    # v stays out of p while its avoiding-cliques run
                    conts.append((v, 0, False))
                    budget = rest_budget
                    break
                p.append(v)
            else:
                p.append(v)
        if budget == 0:
            return updates
