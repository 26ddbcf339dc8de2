"""Physical-ish plan representation: binary join trees.

The optimizer (``core.enumerate``) emits a :class:`Plan` whose tree is
made of :class:`Leaf` (one aliased, filtered base relation) and
:class:`Join` nodes. Each node carries the cardinality the optimizer
*estimated* for it; true cardinalities are attached later by the
executor / re-optimizer.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Union

PlanNode = Union["Leaf", "Join"]


@dataclass(frozen=True)
class Leaf:
    """A scan of one aliased relation with its filters applied."""

    alias: str
    est_card: float

    @property
    def aliases(self) -> frozenset[str]:
        return frozenset({self.alias})

    def pretty(self, indent: int = 0) -> str:
        return f"{'  ' * indent}Scan({self.alias}) est={self.est_card:.0f}"


@dataclass(frozen=True)
class Join:
    """A binary join node; ``left`` is the build side by convention."""

    left: PlanNode
    right: PlanNode
    est_card: float

    @cached_property
    def aliases(self) -> frozenset[str]:
        # Cached per node: tree walks read it at every node.
        return self.left.aliases | self.right.aliases

    def pretty(self, indent: int = 0) -> str:
        head = (
            f"{'  ' * indent}Join{sorted(self.aliases)} est={self.est_card:.0f}"
        )
        return "\n".join(
            [head, self.left.pretty(indent + 1), self.right.pretty(indent + 1)]
        )


@dataclass(frozen=True)
class Plan:
    """A complete plan for a query: the join tree plus its estimated cost."""

    root: PlanNode
    est_cost: float

    @property
    def aliases(self) -> frozenset[str]:
        return self.root.aliases

    def pretty(self) -> str:
        return f"cost={self.est_cost:.1f}\n{self.root.pretty()}"


def walk(node: PlanNode) -> Iterator[PlanNode]:
    """Post-order traversal (children before parents)."""
    if isinstance(node, Join):
        yield from walk(node.left)
        yield from walk(node.right)
    yield node


def join_nodes_bottom_up(node: PlanNode) -> list[Join]:
    """Join nodes ordered lowest-first (by subtree size, ties post-order).

    The paper's re-optimizer acts on "the lowest join operator in the
    query plan" whose estimate is off — smallest alias-set first.
    """
    joins = [n for n in walk(node) if isinstance(n, Join)]
    return sorted(joins, key=lambda j: len(j.aliases))
