"""Unit tests for plan trees (repro.core.plans)."""
from dataclasses import fields

from repro.core.plans import Join, Leaf, Plan, join_nodes_bottom_up, walk


def tree():
    #      J{a,b,c}
    #     /        \
    #   J{a,b}      c
    #   /   \
    #  a     b
    ab = Join(Leaf("a", 10), Leaf("b", 20), 5)
    return Join(ab, Leaf("c", 30), 2)


def test_leaf_aliases_property():
    assert Leaf("x", 1).aliases == frozenset({"x"})


def test_join_aliases_union():
    t = tree()
    assert t.aliases == frozenset({"a", "b", "c"})
    # Caching the union leaves the fields, equality and hash as they were.
    assert [f.name for f in fields(Join)] == ["left", "right", "est_card"]
    assert t == tree() and hash(t) == hash(tree())


def test_walk_postorder():
    nodes = list(walk(tree()))
    # children strictly before parents
    seen = set()
    for n in nodes:
        if isinstance(n, Join):
            assert n.left in seen and n.right in seen
        seen.add(n)
    assert len(nodes) == 5


def test_join_nodes_bottom_up_order():
    joins = join_nodes_bottom_up(tree())
    assert [len(j.aliases) for j in joins] == [2, 3]


def test_pretty_mentions_est():
    p = Plan(root=tree(), est_cost=123.0)
    text = p.pretty()
    assert "cost=123.0" in text and "Scan(a)" in text and "est=5" in text


def test_bottom_up_deep_left_chain():
    n = Leaf("a", 1)
    for i, al in enumerate("bcde"):
        n = Join(n, Leaf(al, 1), 1)
    sizes = [len(j.aliases) for j in join_nodes_bottom_up(n)]
    assert sizes == [2, 3, 4, 5]
