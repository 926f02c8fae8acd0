"""Rule-based logical plan optimizer.

Two classic rewrites, both significant under library execution costs:

* **filter merging** — ``Filter(Filter(x, p1), p2)`` becomes one filter
  with a conjunction.  Each Filter node costs a full selection round
  (flags/scan/compact) plus one gather per carried column; merging
  eliminates a round and hands fusing backends (ArrayFire) a bigger
  predicate tree to fuse.  The trade-off: the merged predicate evaluates
  every conjunct over *all* rows, where sequential filters evaluate later
  conjuncts only over survivors — merging wins when the per-round
  scan/gather costs dominate, which the property tests confirm holds in
  aggregate on this cost model.
* **filter pushdown through projections** — evaluating the predicate
  before deriving projection expressions shrinks the rows every
  downstream kernel touches.

``optimize`` applies the rules bottom-up to a fixpoint.  Rewrites are
purely logical: results are identical (asserted by property tests).

A third, *physical* rewrite is cost-based join selection
(:func:`select_join_strategies`): given base-table cardinalities it
resolves every ``auto``/``cost`` join to the cheapest algorithm the
backend supports, using the same work model as the executor's runtime
dispatch (:func:`choose_join_algorithm`).  It is separate from
:func:`optimize` because it needs a catalog and a backend capability set,
while the logical rules need neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from dataclasses import replace

from repro.core.expr import ColRef
from repro.core.predicate import (
    And,
    Between,
    Compare,
    CompareCols,
    InSet,
    Not,
    Or,
    Predicate,
)
from repro.query.plan import (
    Filter,
    GroupBy,
    InSubquery,
    Join,
    Limit,
    OrderBy,
    PlanNode,
    Project,
    ScalarCompare,
    Scan,
    SemiJoin,
    TopK,
)

#: Join algorithms the cost model can choose between, in preference order
#: on ties (hash first: fewest device passes at equal modelled work).
COSTED_JOIN_ALGORITHMS = ("hash", "merge", "nested_loop")

#: Default selectivity guess for a Filter when no statistics exist (the
#: classic System R third).
FILTER_SELECTIVITY = 1.0 / 3.0

# -- join cost model --------------------------------------------------------
#
# Relative per-element work units mirroring the backends' kernel charges
# (see repro/core/*_backend.py and repro/relational/hashjoin.py): the
# absolute scale cancels out, only ratios pick winners.
#
#: NLJ compares every (outer, inner) pair: units per pair.
_NLJ_UNIT = 6.0
#: Merge join radix-sorts both sides (multi-pass) then merges: units per
#: element per side.
_MERGE_UNIT = 40.0
#: Hash join streams each side once through build/probe kernels.
_HASH_UNIT = 12.0
#: Fixed per-kernel-launch work equivalent: biases tiny joins toward the
#: single-launch NLJ, the way launch latency does on the device.
_LAUNCH_UNIT = 2.0e4
#: Launches per algorithm (NLJ: 1; hash: build + probe; merge: radix-sort
#: passes on both sides + merge path).
_LAUNCHES = {"nested_loop": 1.0, "hash": 2.0, "merge": 9.0}


def rename_predicate(
    predicate: Predicate, mapping: Dict[str, str]
) -> Predicate:
    """Rewrite column references through ``mapping`` (output → source)."""
    if isinstance(predicate, Compare):
        return Compare(
            mapping.get(predicate.column, predicate.column),
            predicate.op,
            predicate.value,
        )
    if isinstance(predicate, Between):
        return Between(
            mapping.get(predicate.column, predicate.column),
            predicate.low,
            predicate.high,
        )
    if isinstance(predicate, CompareCols):
        return CompareCols(
            mapping.get(predicate.left, predicate.left),
            predicate.op,
            mapping.get(predicate.right, predicate.right),
        )
    if isinstance(predicate, InSet):
        return InSet(
            mapping.get(predicate.column, predicate.column), predicate.values
        )
    if isinstance(predicate, (InSubquery, ScalarCompare)):
        # The subplan is a closed scope; only the outer column renames.
        return replace(
            predicate,
            column=mapping.get(predicate.column, predicate.column),
        )
    if isinstance(predicate, And):
        return And(tuple(rename_predicate(p, mapping) for p in predicate.parts))
    if isinstance(predicate, Or):
        return Or(tuple(rename_predicate(p, mapping) for p in predicate.parts))
    if isinstance(predicate, Not):
        return Not(rename_predicate(predicate.part, mapping))
    raise TypeError(f"unknown predicate node {predicate!r}")


def _merge_filters(node: Filter) -> Optional[PlanNode]:
    """Filter(Filter(x, inner), outer) -> Filter(x, inner AND outer)."""
    if not isinstance(node.child, Filter):
        return None
    inner = node.child
    return Filter(inner.child, And((inner.predicate, node.predicate)))


def _push_through_project(node: Filter) -> Optional[PlanNode]:
    """Filter(Project(x, outs), p) -> Project(Filter(x, p'), outs).

    Legal when every column the predicate reads is a pass-through
    (``ColRef``) output of the projection; derived columns block the push.
    """
    if not isinstance(node.child, Project):
        return None
    project = node.child
    mapping: Dict[str, str] = {}
    for output_name, expr in project.outputs:
        if isinstance(expr, ColRef):
            mapping[output_name] = expr.name
    if not node.predicate.columns() <= set(mapping):
        return None
    pushed = rename_predicate(node.predicate, mapping)
    return Project(Filter(project.child, pushed), project.outputs)


_FILTER_RULES = (_merge_filters, _push_through_project)


def optimize(plan: PlanNode) -> PlanNode:
    """Apply the rewrite rules bottom-up until nothing changes."""
    rewritten = _optimize_once(plan)
    while rewritten is not None:
        plan = rewritten
        rewritten = _optimize_once(plan)
    return plan


def _optimize_once(plan: PlanNode) -> Optional[PlanNode]:
    """One bottom-up pass; None when the plan is already at fixpoint.

    Nodes are reconstructed *only* when a child actually changed or a
    rule fired (every rule returns a new node), so an unchanged subtree
    keeps its identity and the fixpoint test is an identity test.
    """
    result = _rebuild(plan)
    return None if result is plan else result


def _rebuild(node: PlanNode) -> PlanNode:
    """``node`` with its children rebuilt and the filter rules applied;
    ``node`` itself when nothing below or at it changed."""
    if isinstance(node, Scan):
        return node
    if isinstance(node, Filter):
        child = _rebuild(node.child)
        candidate = (
            node if child is node.child else Filter(child, node.predicate)
        )
        for rule in _FILTER_RULES:
            rewritten = rule(candidate)
            if rewritten is not None:
                return rewritten
        return candidate
    if isinstance(node, (Join, SemiJoin)):
        left = _rebuild(node.left)
        right = _rebuild(node.right)
        if left is node.left and right is node.right:
            return node
        return replace(node, left=left, right=right)
    if isinstance(node, (Project, GroupBy, OrderBy, Limit, TopK)):
        child = _rebuild(node.child)
        return node if child is node.child else replace(node, child=child)
    raise TypeError(f"unknown plan node {type(node).__name__}")


def push_down_top_k(plan: PlanNode) -> PlanNode:
    """Fuse ``Limit(OrderBy(x))`` pairs into :class:`TopK` nodes.

    Opt-in (not part of :func:`optimize`): the rewrite changes the
    physical materialisation strategy — sort once, gather only the head
    ``n`` ids per column — while keeping results bit-identical, so the
    binder applies it to SQL plans with a top-level ORDER BY + LIMIT.
    """
    if isinstance(plan, Limit) and isinstance(plan.child, OrderBy):
        inner = plan.child
        return TopK(
            push_down_top_k(inner.child), inner.key, plan.n, inner.descending
        )
    if isinstance(plan, (Join, SemiJoin)):
        left = push_down_top_k(plan.left)
        right = push_down_top_k(plan.right)
        if left is plan.left and right is plan.right:
            return plan
        return replace(plan, left=left, right=right)
    children = plan.children()
    if len(children) == 1:
        child = push_down_top_k(children[0])
        if child is children[0]:
            return plan
        return replace(plan, child=child)
    return plan


# -- cost-based join selection ----------------------------------------------


def join_cost(algorithm: str, left_rows: int, right_rows: int) -> float:
    """Modelled work (arbitrary units) of one join algorithm.

    Mirrors the simulated kernels' cost structure: NLJ is quadratic,
    merge pays multi-pass sorts on both sides, hash streams each side
    once; every algorithm carries its launch overhead so tiny inputs
    prefer the single-launch NLJ.
    """
    if algorithm not in _LAUNCHES:
        raise ValueError(f"no cost model for join algorithm {algorithm!r}")
    n, m = max(left_rows, 0), max(right_rows, 0)
    overhead = _LAUNCHES[algorithm] * _LAUNCH_UNIT
    if algorithm == "nested_loop":
        return _NLJ_UNIT * n * m + overhead
    if algorithm == "merge":
        return _MERGE_UNIT * (n + m) + overhead
    if algorithm == "hash":
        return _HASH_UNIT * (n + m) + overhead
    raise ValueError(f"no cost model for join algorithm {algorithm!r}")


def choose_join_algorithm(
    left_rows: int,
    right_rows: int,
    supported: Sequence[str] = COSTED_JOIN_ALGORITHMS,
) -> str:
    """Cheapest supported algorithm for the given input cardinalities."""
    candidates = [a for a in COSTED_JOIN_ALGORITHMS if a in supported]
    if not candidates:
        raise ValueError(
            f"no supported join algorithm among {tuple(supported)!r}"
        )
    return min(
        candidates, key=lambda a: join_cost(a, left_rows, right_rows)
    )


def estimate_rows(plan: PlanNode, catalog: Dict[str, object]) -> int:
    """Textbook cardinality estimate for a plan node.

    ``catalog`` maps table names to objects with a ``num_rows`` attribute
    (:class:`~repro.relational.table.Table`).  Estimates are deliberately
    simple — scans are exact, filters apply the System R selectivity
    guess, FK-shaped joins keep the larger side — because the join cost
    model only needs order-of-magnitude inputs.
    """
    if isinstance(plan, Scan):
        table = catalog.get(plan.table)
        return int(getattr(table, "num_rows", 0)) if table is not None else 0
    if isinstance(plan, Filter):
        return max(1, int(estimate_rows(plan.child, catalog) * FILTER_SELECTIVITY))
    if isinstance(plan, Join):
        left = estimate_rows(plan.left, catalog)
        right = estimate_rows(plan.right, catalog)
        # FK joins keep each row of the referencing (larger) side once.
        return max(left, right)
    if isinstance(plan, SemiJoin):
        # A semi/anti join can only shrink its left side; reuse the
        # filter guess for the kept fraction.
        return max(
            1, int(estimate_rows(plan.left, catalog) * FILTER_SELECTIVITY)
        )
    if isinstance(plan, GroupBy):
        if not plan.keys:
            return 1
        # Distinct-group guess: sqrt of the input (Cardenas-style shrink).
        return max(1, math.isqrt(estimate_rows(plan.child, catalog)))
    if isinstance(plan, Limit):
        return min(plan.n, estimate_rows(plan.child, catalog))
    if isinstance(plan, TopK):
        return min(plan.n, estimate_rows(plan.child, catalog))
    children = plan.children()
    if len(children) == 1:
        return estimate_rows(children[0], catalog)
    raise TypeError(f"cannot estimate cardinality of {type(plan).__name__}")


# -- fusion-boundary cost model ----------------------------------------------
#
# Whole-pipeline fusion (the `compiled` backend) replaces an eager chain
# of per-operator kernels with ONE kernel touching DRAM once.  That is
# not free money: the fused kernel reads *every* input column over *all*
# rows, while the eager chain's first kernel reads only the predicate
# columns and later kernels touch survivors only.  The model below prices
# both shapes in seconds on the simulated device and is what the
# compiled backend's "auto" mode consults per pipeline segment.
#
# When fusion loses (both covered by the unit tests):
#
# * **tiny inputs** — the eager chain's extra launches cost almost
#   nothing at small ``rows``, while fusion still pays its (amortised)
#   compile share;
# * **low-selectivity early exits** — a narrow predicate column guarding
#   a wide payload: eager scans 4 B/row and then touches only the few
#   survivors, fused drags the full payload through DRAM for every row.

#: Kernel-launch latency the model charges per eager kernel (matches the
#: simulated GTX 1080 Ti's ``launch_latency_s``).
FUSION_LAUNCH_SECONDS = 5.0e-6
#: Effective DRAM bandwidth (484 GB/s at TUNED_PROFILE's 0.92 memory
#: efficiency) used to turn byte counts into seconds.
FUSION_BANDWIDTH = 484.0e9 * 0.92


@dataclass(frozen=True)
class FusionDecision:
    """Outcome of one per-segment fusion call."""

    fuse: bool
    fused_seconds: float
    eager_seconds: float


def fusion_decision(
    rows: int,
    fused_read_bytes_per_row: float,
    eager_first_bytes_per_row: float,
    survivor_bytes_per_row: float,
    num_filters: int,
    eager_launches: int,
    compile_seconds: float = 0.0,
    *,
    launch_seconds: float = FUSION_LAUNCH_SECONDS,
    bandwidth: float = FUSION_BANDWIDTH,
) -> FusionDecision:
    """Should a pipeline segment run as one fused kernel?

    ``fused_read_bytes_per_row`` is every distinct column the fused
    kernel streams (predicate + payload); ``eager_first_bytes_per_row``
    is what the eager chain's first kernel reads (its predicate columns);
    ``survivor_bytes_per_row`` is the carried width of a surviving row.
    Selectivity is estimated as ``FILTER_SELECTIVITY ** num_filters`` —
    no statistics exist, the System R guess again.  ``compile_seconds``
    is the caller's (amortised) codegen share: 0 on a program-cache hit.
    """
    n = max(rows, 0)
    selectivity = FILTER_SELECTIVITY ** max(num_filters, 0)
    survivors = n * selectivity
    fused_bytes = (
        n * fused_read_bytes_per_row + survivors * survivor_bytes_per_row
    )
    # Eager: first kernel scans its inputs over all rows; each further
    # kernel round-trips the surviving working set through DRAM.
    extra_launches = max(eager_launches - 1, 0)
    eager_bytes = (
        n * eager_first_bytes_per_row
        + survivors * survivor_bytes_per_row
        + extra_launches * 2.0 * survivors * survivor_bytes_per_row
    )
    fused_seconds = (
        launch_seconds + fused_bytes / bandwidth + max(compile_seconds, 0.0)
    )
    eager_seconds = (
        max(eager_launches, 1) * launch_seconds + eager_bytes / bandwidth
    )
    return FusionDecision(
        fuse=fused_seconds <= eager_seconds,
        fused_seconds=fused_seconds,
        eager_seconds=eager_seconds,
    )


def select_join_strategies(
    plan: PlanNode,
    catalog: Dict[str, object],
    supported: Sequence[str] = COSTED_JOIN_ALGORITHMS,
) -> PlanNode:
    """Resolve every ``auto``/``cost`` join to a concrete algorithm.

    Explicitly requested algorithms are left untouched; subtrees without
    undecided joins keep their identity (cheap no-op on join-free plans).
    """

    def rebuild(node: PlanNode) -> PlanNode:
        if isinstance(node, Scan):
            return node
        if isinstance(node, Join):
            left = rebuild(node.left)
            right = rebuild(node.right)
            algorithm = node.algorithm
            if algorithm in ("auto", "cost"):
                algorithm = choose_join_algorithm(
                    estimate_rows(node.left, catalog),
                    estimate_rows(node.right, catalog),
                    supported,
                )
            if (
                left is node.left
                and right is node.right
                and algorithm == node.algorithm
            ):
                return node
            return Join(left, right, node.left_on, node.right_on, algorithm)
        if isinstance(node, Filter):
            child = rebuild(node.child)
            return node if child is node.child else Filter(child, node.predicate)
        if isinstance(node, Project):
            child = rebuild(node.child)
            return node if child is node.child else Project(child, node.outputs)
        if isinstance(node, GroupBy):
            child = rebuild(node.child)
            if child is node.child:
                return node
            return GroupBy(child, node.keys, node.aggregates)
        if isinstance(node, OrderBy):
            child = rebuild(node.child)
            if child is node.child:
                return node
            return OrderBy(child, node.key, node.descending)
        if isinstance(node, Limit):
            child = rebuild(node.child)
            return node if child is node.child else Limit(child, node.n)
        if isinstance(node, SemiJoin):
            left = rebuild(node.left)
            right = rebuild(node.right)
            algorithm = node.algorithm
            if algorithm in ("auto", "cost"):
                algorithm = choose_join_algorithm(
                    estimate_rows(node.left, catalog),
                    estimate_rows(node.right, catalog),
                    supported,
                )
            if (
                left is node.left
                and right is node.right
                and algorithm == node.algorithm
            ):
                return node
            return replace(node, left=left, right=right, algorithm=algorithm)
        if isinstance(node, TopK):
            child = rebuild(node.child)
            return node if child is node.child else replace(node, child=child)
        raise TypeError(f"unknown plan node {type(node).__name__}")

    return rebuild(plan)
