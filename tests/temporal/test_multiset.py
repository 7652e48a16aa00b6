"""Tests for the bag algebra underlying the snapshot oracle."""

import pytest

from helpers import multiset_from_counts
from repro.temporal import Multiset


def bag(*items):
    return Multiset(tuple(i) if isinstance(i, (tuple, list)) else (i,) for i in items)


class TestBasics:
    def test_multiplicity(self):
        b = bag("a", "a", "b")
        assert b.multiplicity(("a",)) == 2
        assert b.multiplicity(("b",)) == 1
        assert b.multiplicity(("c",)) == 0

    def test_len_counts_duplicates(self):
        assert len(bag("a", "a", "b")) == 3

    def test_contains(self):
        assert ("a",) in bag("a")
        assert ("z",) not in bag("a")

    def test_iteration_yields_duplicates(self):
        assert sorted(bag("a", "a")) == [("a",), ("a",)]

    def test_equality_is_by_multiplicity(self):
        assert bag("a", "a", "b") == bag("b", "a", "a")
        assert bag("a") != bag("a", "a")

    def test_truthiness(self):
        assert not Multiset()
        assert bag("a")

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(bag("a"))

    def test_rejects_non_tuples(self):
        with pytest.raises(TypeError):
            Multiset(["a"])

    def test_from_counts(self):
        assert multiset_from_counts({("a",): 2}) == bag("a", "a")

    def test_from_counts_rejects_negative(self):
        with pytest.raises(ValueError):
            multiset_from_counts({("a",): -1})

    def test_counts_drops_zero_entries(self):
        b = bag("a").difference(bag("a"))
        assert b.counts() == {}


class TestBagOperators:
    def test_union_adds_multiplicities(self):
        assert bag("a").union(bag("a", "b")) == bag("a", "a", "b")

    def test_difference_subtracts_clamped(self):
        assert bag("a", "a", "b").difference(bag("a", "c")) == bag("a", "b")

    def test_difference_never_negative(self):
        assert bag("a").difference(bag("a", "a")) == Multiset()

    def test_select(self):
        b = Multiset([(1,), (2,), (3,), (2,)])
        assert b.select(lambda row: row[0] > 1) == Multiset([(2,), (3,), (2,)])

    def test_project_preserves_duplicates(self):
        b = Multiset([(1, "x"), (2, "x")])
        assert b.project(lambda row: (row[1],)) == Multiset([("x",), ("x",)])

    def test_distinct(self):
        assert bag("a", "a", "b").distinct() == bag("a", "b")

    def test_join_multiplicities_multiply(self):
        left = Multiset([(1,), (1,)])
        right = Multiset([(1, "x")])
        result = left.join(right, lambda l, r: l[0] == r[0])
        assert result == Multiset([(1, 1, "x"), (1, 1, "x")])

    def test_join_custom_combiner(self):
        left = Multiset([(1,)])
        right = Multiset([(2,)])
        result = left.join(right, lambda l, r: True, combine=lambda l, r: (l[0] + r[0],))
        assert result == Multiset([(3,)])

    def test_join_empty(self):
        assert bag("a").join(Multiset(), lambda l, r: True) == Multiset()

    def test_group_by(self):
        b = Multiset([(1, "x"), (1, "y"), (2, "z")])
        groups = b.group_by(lambda row: (row[0],))
        assert set(groups) == {(1,), (2,)}
        assert len(groups[(1,)]) == 2

    def test_aggregate_wraps_scalar(self):
        b = Multiset([(1,), (2,)])
        total = b.aggregate(lambda rows: sum(r[0] for r in rows))
        assert total == (3,)


class TestAlgebraicLaws:
    def test_union_commutes(self):
        a, b = bag("x", "y"), bag("y", "z")
        assert a.union(b) == b.union(a)

    def test_distinct_idempotent(self):
        b = bag("a", "a", "b")
        assert b.distinct().distinct() == b.distinct()

    def test_select_distributes_over_union(self):
        a = Multiset([(1,), (2,)])
        b = Multiset([(2,), (3,)])
        pred = lambda row: row[0] % 2 == 0
        assert a.union(b).select(pred) == a.select(pred).union(b.select(pred))

    def test_distinct_of_join_equals_join_of_distincts(self):
        """The Figure 2 transformation rule, at the relational level."""
        a = Multiset([(1,), (1,), (2,)])
        b = Multiset([(1, "p"), (1, "p"), (2, "q")])
        pred = lambda l, r: l[0] == r[0]
        assert a.join(b, pred).distinct() == a.distinct().join(b.distinct(), pred)
