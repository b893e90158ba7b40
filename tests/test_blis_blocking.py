"""Tests for repro.blis.blocking: tiling and core-grid partitioning."""

import numpy as np
import pytest

from repro.blis.blocking import (
    BlockingPlan,
    split_evenly,
    split_in_units,
    tile_ranges,
)
from repro.errors import ConfigurationError


class TestTileRanges:
    def test_exact_division(self):
        assert tile_ranges(8, 4) == [(0, 4), (4, 8)]

    def test_remainder_tile(self):
        assert tile_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_zero_extent(self):
        assert tile_ranges(0, 4) == []

    def test_block_larger_than_extent(self):
        assert tile_ranges(3, 100) == [(0, 3)]

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            tile_ranges(10, 0)
        with pytest.raises(ConfigurationError):
            tile_ranges(-1, 4)

    def test_partition_property(self):
        ranges = tile_ranges(97, 7)
        covered = [i for s, e in ranges for i in range(s, e)]
        assert covered == list(range(97))


class TestSplitEvenly:
    def test_even(self):
        assert split_evenly(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_first(self):
        assert split_evenly(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_more_parts_than_extent(self):
        parts = split_evenly(2, 4)
        sizes = [e - s for s, e in parts]
        assert sizes == [1, 1, 0, 0]

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            split_evenly(5, 0)


class TestBlockingPlan:
    def make(self, **kw):
        defaults = dict(m=64, n=128, k=10, m_c=32, k_c=8, m_r=4, n_r=16)
        defaults.update(kw)
        return BlockingPlan(**defaults)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self.make(m_c=30)  # not multiple of m_r
        with pytest.raises(ConfigurationError):
            self.make(m=-1)
        with pytest.raises(ConfigurationError):
            self.make(n_r=0)

    def test_k_panels(self):
        plan = self.make(k=20, k_c=8)
        assert plan.k_panels() == [(0, 8), (8, 16), (16, 20)]

    def test_total_ops(self):
        assert self.make().total_ops() == 64 * 128 * 10

    def grid(self, plan):
        """The core grid's (M, N) ranges: M in m_r units, N in n_r units."""
        return (
            split_in_units(plan.m, plan.grid_rows, plan.m_r),
            split_in_units(plan.n, plan.grid_cols, plan.n_r),
        )

    def test_core_assignments_cover_output(self):
        plan = self.make(grid_rows=2, grid_cols=3)
        m_splits, n_splits = self.grid(plan)
        cover = np.zeros((plan.m, plan.n), dtype=int)
        for m0, m1 in m_splits:
            for n0, n1 in n_splits:
                cover[m0:m1, n0:n1] += 1
        assert (cover == 1).all()

    def test_core_assignment_count(self):
        plan = self.make(grid_rows=2, grid_cols=3)
        m_splits, n_splits = self.grid(plan)
        assert len(m_splits) * len(n_splits) == 6
        assert plan.n_cores == 6

    def test_skewed_grid_balances_m(self):
        # 80x1 grid on a prime-ish unit count: micro-panel granularity
        # keeps the busiest core within one m_r unit of the average.
        plan = BlockingPlan(
            m=12256, n=12256, k=100, m_c=32, k_c=50, m_r=4, n_r=1024,
            grid_rows=80, grid_cols=1,
        )
        m_splits, _ = self.grid(plan)
        sizes = [stop - start for start, stop in m_splits]
        assert max(sizes) - min(sizes) <= plan.m_r
        assert sum(sizes) == plan.m

    def test_empty_assignments_for_tiny_extent(self):
        plan = self.make(m=4, grid_rows=4)
        m_splits, n_splits = self.grid(plan)
        # Only one micro-panel unit exists: three grid rows are empty.
        non_empty = [
            (m_range, n_range)
            for m_range in m_splits
            for n_range in n_splits
            if m_range[1] > m_range[0] and n_range[1] > n_range[0]
        ]
        assert len(non_empty) == 1 * 1
