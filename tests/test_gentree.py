import pytest

from lexcount.engine import avoiders, count_avoiders, linear_extensions
from lexcount.formulas import fuss_catalan
from lexcount.gentree import (children_labels, count_at_depth,
                              grow_extensions, saw_label)
from lexcount.posets import build, saw_poset


class TestLabels:
    def test_label_reads_position_of_one(self):
        # SAW_{1,t} has the single extension 1, 2, ..., t with label t-1
        assert saw_label((1, 2, 3), 1, 3) == 2
        assert saw_label((1,), 1, 1) == 0

    def test_label_rejects_non_extensions(self):
        with pytest.raises(ValueError):
            saw_label((3, 2, 1), 1, 3)
        with pytest.raises(ValueError):
            saw_label((1, 2, 3), 2, 3)

    def test_children_labels(self):
        assert children_labels(0, 3) == {2}
        assert children_labels(2, 3) == {2, 3, 4}
        assert children_labels(0, 1) == {0}

    @pytest.mark.parametrize("j, t", [(-1, 2), (0, 0)])
    def test_children_labels_rejects_bad_arguments(self, j, t):
        with pytest.raises(ValueError, match="need j >= 0 and t >= 1"):
            children_labels(j, t)

    def test_label_range_in_practice(self):
        s, t = 3, 3
        labels = {saw_label(pi, s, t)
                  for pi in linear_extensions(saw_poset(s, t))}
        # reachable labels at depth s run from t-1 up to s(t-1)
        assert labels == set(range(t - 1, s * (t - 1) + 1))


class TestCounting:
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
    def test_depths_give_fuss_catalan(self, t):
        for depth in range(0, 8):
            assert count_at_depth(t, depth) == fuss_catalan(depth, t)

    def test_small_values(self):
        assert count_at_depth(3, 0) == 1
        assert count_at_depth(3, 1) == 1
        assert count_at_depth(3, 2) == 3
        assert count_at_depth(3, 4) == 55

    @pytest.mark.parametrize("t, depth", [(0, 2), (2, -1)])
    def test_rejects_bad_arguments(self, t, depth):
        with pytest.raises(ValueError, match="need t >= 1 and depth >= 0"):
            count_at_depth(t, depth)

    def test_tree_counts_sawblade_extensions(self):
        for s in range(0, 5):
            for t in range(1, 4):
                if s * t > 12:
                    continue
                exts = sum(1 for _ in linear_extensions(saw_poset(s, t)))
                assert count_at_depth(t, s) == exts


class TestGrowth:
    @pytest.mark.parametrize("s, t", [(-1, 2), (1, 0)])
    def test_rejects_bad_arguments(self, s, t):
        with pytest.raises(ValueError, match="need s >= 0 and t >= 1"):
            grow_extensions(s, t)

    def test_matches_direct_enumeration(self):
        for s in range(0, 5):
            for t in range(1, 4):
                if s * t > 12:
                    continue
                direct = set(linear_extensions(saw_poset(s, t)))
                assert grow_extensions(s, t) == direct

    def test_children_branching_follows_rule(self):
        s, t = 3, 3
        parents = grow_extensions(s, t)
        children = grow_extensions(s + 1, t)
        # every parent label j contributes exactly j+1 children
        expected = sum(saw_label(pi, s, t) + 1 for pi in parents)
        assert len(children) == expected

    def test_sawblade_extensions_avoid_1243(self):
        s, t = 4, 3
        grown = grow_extensions(s, t)
        avoiding = set(avoiders(build("EN", s, t), [(1, 2, 4, 3)]))
        assert grown == avoiding
        assert len(grown) == count_avoiders(build("EN", s, t), [(1, 2, 4, 3)])
