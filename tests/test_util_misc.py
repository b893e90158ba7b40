"""Tests for repro.util validation, timing, units and table rendering."""

import time

import numpy as np
import pytest

from repro.util.tables import render_kv, render_table
from repro.util.timing import Interval, Stopwatch, TimeLine
from repro.util.units import (
    format_bytes,
    format_count,
    format_ops,
    format_percent,
    format_seconds,
    gib,
    kib,
    mib,
)
from repro.errors import DatasetError
from repro.util.validation import (
    check_binary_matrix,
    check_choice,
    check_dtype,
    check_in_range,
    check_k,
    check_multiple,
    check_nonnegative,
    check_positive,
    check_power_of_two,
)


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", 0)

    def test_check_nonnegative(self):
        check_nonnegative("x", 0)
        with pytest.raises(ValueError):
            check_nonnegative("x", -1)

    @pytest.mark.parametrize("good", [1, 2, 4, 1024])
    def test_power_of_two_accepts(self, good):
        check_power_of_two("x", good)

    @pytest.mark.parametrize("bad", [0, 3, 6, -4])
    def test_power_of_two_rejects(self, bad):
        with pytest.raises(ValueError):
            check_power_of_two("x", bad)

    def test_check_multiple(self):
        check_multiple("x", 12, 4)
        with pytest.raises(ValueError):
            check_multiple("x", 10, 4)
        with pytest.raises(ValueError):
            check_multiple("x", 4, 0)

    def test_check_in_range(self):
        check_in_range("x", 5, 0, 10)
        with pytest.raises(ValueError):
            check_in_range("x", 11, 0, 10)

    def test_check_dtype(self):
        check_dtype("a", np.zeros(2, dtype=np.uint32), [np.uint32, np.uint64])
        with pytest.raises(TypeError):
            check_dtype("a", np.zeros(2, dtype=np.int32), [np.uint32])

    def test_check_choice(self):
        check_choice("mode", "fast", ("fast", "slow"))
        with pytest.raises(ValueError):
            check_choice("mode", "medium", ("fast", "slow"))

    @pytest.mark.parametrize("good", [1, 7, 4096, np.int64(3)])
    def test_check_k_accepts(self, good):
        assert check_k("k", good, 4096) == good
        assert type(check_k("k", good, 4096)) is int

    # Out-of-range, fractional, boolean and string k are inputs of the
    # service and streaming validation tests; these are the rest.
    @pytest.mark.parametrize("bad", [2.0, np.bool_(True), None])
    def test_check_k_rejects(self, bad):
        with pytest.raises(DatasetError, match="positive integer"):
            check_k("k", bad, 4096)

    def test_check_binary_matrix_returns_input_uncopied(self):
        for arr in (
            np.zeros((3, 5), dtype=np.uint8),
            np.ones((2, 4), dtype=bool),
            np.ones((4, 6), dtype=np.int64)[:, ::2],  # strided view
        ):
            assert check_binary_matrix("m", arr) is arr


class TestStopwatch:
    def test_accumulates(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.01)
        first = sw.elapsed
        with sw:
            time.sleep(0.01)
        assert sw.elapsed > first > 0

    def test_double_start_rejected(self):
        sw = Stopwatch()
        sw.start()
        with pytest.raises(RuntimeError):
            sw.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_reset(self):
        sw = Stopwatch()
        with sw:
            pass
        sw.reset()
        assert sw.elapsed == 0.0


class TestTimeLine:
    def test_in_order_scheduling(self):
        tl = TimeLine("compute")
        a = tl.schedule("a", earliest_start=0.0, duration=1.0)
        b = tl.schedule("b", earliest_start=0.0, duration=2.0)
        assert a.end == 1.0
        assert b.start == 1.0 and b.end == 3.0
        assert tl.now == 3.0

    def test_gap_respected(self):
        tl = TimeLine("t")
        tl.schedule("a", 0.0, 1.0)
        b = tl.schedule("b", 5.0, 1.0)
        assert b.start == 5.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            TimeLine("t").schedule("a", 0.0, -1.0)

    def test_busy_time_and_utilization(self):
        tl = TimeLine("t")
        tl.schedule("a", 0.0, 1.0)
        tl.schedule("b", 3.0, 1.0)
        assert tl.busy_time() == 2.0
        assert tl.utilization() == pytest.approx(0.5)

    def test_empty_timeline(self):
        tl = TimeLine("t")
        assert tl.now == 0.0
        assert tl.utilization() == 0.0

    def test_interval_overlap(self):
        a = Interval("a", 0.0, 2.0)
        b = Interval("b", 1.0, 3.0)
        c = Interval("c", 2.0, 4.0)
        assert a.overlaps(b)
        assert not a.overlaps(c)  # half-open intervals touch, not overlap
        assert a.duration == 2.0


class TestUnits:
    def test_binary_sizes(self):
        assert kib(1) == 1024
        assert mib(2) == 2 * 1024**2
        assert gib(1) == 1024**3

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(1536) == "1.50 KiB"
        assert "GiB" in format_bytes(3 * gib(1))

    def test_format_count(self):
        assert format_count(18_000_000) == "18.0 M"
        assert format_count(5) == "5"

    def test_format_ops(self):
        assert format_ops(1.86e12) == "1.86 Tops/s"
        assert format_ops(700e9) == "700.00 Gops/s"

    def test_format_seconds(self):
        assert format_seconds(0) == "0 s"
        assert format_seconds(1.5) == "1.500 s"
        assert format_seconds(0.0025) == "2.500 ms"
        assert format_seconds(3e-6) == "3.000 us"
        assert "ns" in format_seconds(5e-9)

    def test_format_percent(self):
        assert format_percent(0.971) == "97.1%"


class TestRenderTable:
    def test_basic_alignment(self):
        out = render_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert len({len(line) for line in lines[1:2]}) == 1

    def test_title(self):
        out = render_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"
        assert out.splitlines()[1] == "========"

    def test_none_rendered_as_dash(self):
        out = render_table(["x"], [[None]])
        assert "-" in out.splitlines()[-1]

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_render_kv(self):
        out = render_kv([("alpha", 1), ("b", None)], title="T")
        assert "alpha : 1" in out
        assert "b     : -" in out
