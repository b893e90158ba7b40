"""Tests for repro.gpu.cycles: the analytical kernel cycle model.

Pins the model to the paper's quantitative claims: peak throughputs,
bottleneck pipes, the Fig. 5 kernel efficiencies, and the stall-factor
behaviour of bad configurations.
"""

import itertools

import pytest

from repro.blis.blocking import BlockingPlan, split_in_units
from repro.blis.microkernel import ComparisonOp
from repro.core.config import Algorithm
from repro.core.planner import derive_config
from repro.errors import ModelError
from repro.gpu.arch import ALL_GPUS, GTX_980, TITAN_V, VEGA_64
from repro.gpu.cycles import (
    _grid_load,
    bottleneck_pipe,
    conflict_stall_factor,
    effective_frequency_hz,
    kernel_cycles,
    kernel_instruction_mix,
    latency_stall_factor,
    min_n_r,
    peak_word_ops_per_second,
    ramp_efficiency,
    scaling_efficiency,
    spill_stall_factor,
    words_per_cycle_per_core,
)
from repro.gpu.isa import PipeClass


def plan_for(arch, m, n, k, **overrides):
    kw = dict(m=m, n=n, k=k, m_c=32, k_c=256, m_r=4, n_r=1024,
              grid_rows=1, grid_cols=arch.n_c)
    kw.update(overrides)
    return BlockingPlan(**kw)


class TestInstructionMix:
    def test_ld_mix(self):
        assert kernel_instruction_mix(GTX_980, ComparisonOp.AND) == (2, 1)

    def test_andnot_mix_fused_vs_not(self):
        assert kernel_instruction_mix(TITAN_V, ComparisonOp.ANDNOT) == (2, 1)
        assert kernel_instruction_mix(VEGA_64, ComparisonOp.ANDNOT) == (3, 1)


class TestPeaks:
    def test_paper_peak_values(self):
        # N_c x N_cl x units_on_bottleneck_pipe x f.
        assert peak_word_ops_per_second(GTX_980) / 1e9 == pytest.approx(
            16 * 4 * 8 * 1.367, rel=1e-6
        )
        assert peak_word_ops_per_second(TITAN_V) / 1e9 == pytest.approx(
            80 * 4 * 4 * 1.455, rel=1e-6
        )
        # Vega is ALU-bound at 2 ALU ops per word: 16/2 = 8 words/cluster.
        assert peak_word_ops_per_second(VEGA_64) / 1e9 == pytest.approx(
            64 * 4 * 8 * 1.663, rel=1e-6
        )

    def test_bottleneck_pipes(self):
        assert bottleneck_pipe(GTX_980, ComparisonOp.AND) is PipeClass.POPC
        assert bottleneck_pipe(TITAN_V, ComparisonOp.AND) is PipeClass.POPC
        assert bottleneck_pipe(VEGA_64, ComparisonOp.AND) is PipeClass.ALU

    def test_vega_andnot_slower_than_and(self):
        and_peak = peak_word_ops_per_second(VEGA_64, ComparisonOp.AND)
        andnot_peak = peak_word_ops_per_second(VEGA_64, ComparisonOp.ANDNOT)
        assert andnot_peak == pytest.approx(and_peak * 2 / 3)

    def test_nvidia_andnot_equals_and(self):
        for arch in (GTX_980, TITAN_V):
            assert peak_word_ops_per_second(arch, ComparisonOp.ANDNOT) == (
                peak_word_ops_per_second(arch, ComparisonOp.AND)
            )

    def test_partial_cores(self):
        full = peak_word_ops_per_second(GTX_980)
        half = peak_word_ops_per_second(GTX_980, n_cores=8)
        assert half == pytest.approx(full / 2)

    def test_core_bounds_enforced(self):
        with pytest.raises(ModelError):
            peak_word_ops_per_second(GTX_980, n_cores=17)

    def test_words_per_cycle(self):
        assert words_per_cycle_per_core(GTX_980, ComparisonOp.AND) == pytest.approx(32)
        assert words_per_cycle_per_core(VEGA_64, ComparisonOp.AND) == pytest.approx(32)
        assert words_per_cycle_per_core(TITAN_V, ComparisonOp.AND) == pytest.approx(16)


class TestScalingAndFrequency:
    def test_flat_below_knee(self):
        for arch in ALL_GPUS:
            assert scaling_efficiency(arch, 1) == 1.0
            assert scaling_efficiency(arch, arch.memory.scaling_knee_cores) == 1.0

    def test_vega_decays_past_knee(self):
        assert scaling_efficiency(VEGA_64, 64) == pytest.approx(0.553, abs=0.01)
        assert scaling_efficiency(VEGA_64, 16) > scaling_efficiency(VEGA_64, 32)

    def test_gtx980_mild_decay(self):
        assert scaling_efficiency(GTX_980, 16) == pytest.approx(0.926, abs=0.01)

    def test_titanv_near_perfect(self):
        assert scaling_efficiency(TITAN_V, 80) > 0.99

    def test_dvfs_only_at_one_core(self):
        assert effective_frequency_hz(TITAN_V, 1) == pytest.approx(
            TITAN_V.frequency_hz * 0.95
        )
        assert effective_frequency_hz(TITAN_V, 2) == TITAN_V.frequency_hz

    def test_bounds(self):
        with pytest.raises(ModelError):
            scaling_efficiency(GTX_980, 0)


class TestStallFactors:
    def test_eq7_satisfied_no_stall(self):
        plan = plan_for(GTX_980, 1024, 1024, 100, n_r=384)
        assert latency_stall_factor(GTX_980, plan) == 1.0

    def test_eq7_violated_stalls(self):
        # n_r below the bound exposes latency proportionally.
        bound = min_n_r(GTX_980, 4, 32)
        plan = plan_for(GTX_980, 1024, 1024, 100, n_r=bound // 2)
        assert latency_stall_factor(GTX_980, plan) == pytest.approx(2.0)

    def test_min_n_r_values(self):
        assert min_n_r(GTX_980, 4, 32) == 96    # (32*4/32)*4*6
        assert min_n_r(TITAN_V, 4, 32) == 64    # (32*4/32)*4*4
        assert min_n_r(VEGA_64, 4, 32) == 128   # (64*4/32)*4*4

    def test_conflict_free_at_bank_width(self):
        plan = plan_for(GTX_980, 256, 256, 10, m_c=32)
        assert conflict_stall_factor(GTX_980, plan) == 1.0

    def test_conflicts_beyond_banks(self):
        plan = plan_for(GTX_980, 256, 256, 10, m_c=64)
        assert conflict_stall_factor(GTX_980, plan) == pytest.approx(2.0)

    def test_no_spill_at_published_configs(self):
        plan = plan_for(TITAN_V, 256, 1024, 10, n_r=1024)
        assert spill_stall_factor(TITAN_V, plan) == 1.0

    def test_spill_kicks_in_for_huge_n_r(self):
        plan = plan_for(TITAN_V, 256, 16384, 10, n_r=16384)
        assert spill_stall_factor(TITAN_V, plan) > 1.0

    def test_ramp_monotone(self):
        values = [ramp_efficiency(GTX_980, x) for x in (16, 64, 256, 4096)]
        assert values == sorted(values)
        assert values[-1] > 0.95


class TestFig5Efficiencies:
    """The headline kernel-efficiency numbers of Fig. 5."""

    @pytest.mark.parametrize(
        "arch,grid,m,k_bits,expected",
        [
            (GTX_980, (4, 4), 12_256, 15_360, 0.907),
            (TITAN_V, (80, 1), 12_256, 25_600, 0.971),
            (VEGA_64, (32, 2), 16_384, 40_960, 0.549),
        ],
        ids=["GTX980", "TitanV", "Vega64"],
    )
    def test_efficiency_at_max_problem(self, arch, grid, m, k_bits, expected):
        from repro.core.planner import derive_config
        from repro.core.config import Algorithm

        cfg = derive_config(arch, Algorithm.LD)
        plan = BlockingPlan(
            m=m, n=m, k=k_bits // 32, m_c=cfg.m_c, k_c=cfg.k_c,
            m_r=cfg.m_r, n_r=cfg.n_r,
            grid_rows=cfg.grid_rows, grid_cols=cfg.grid_cols,
        )
        breakdown = kernel_cycles(arch, plan)
        assert breakdown.efficiency == pytest.approx(expected, abs=0.01)

    def test_breakdown_consistency(self):
        plan = plan_for(GTX_980, 2048, 2048, 128, grid_rows=4, grid_cols=4)
        b = kernel_cycles(GTX_980, plan)
        assert b.word_ops == 2048 * 2048 * 128
        assert b.seconds == pytest.approx(b.total_cycles / b.frequency_hz)
        assert b.throughput_word_ops == pytest.approx(b.word_ops / b.seconds)
        assert 0 < b.efficiency <= 1.0

    def test_too_many_cores_rejected(self):
        plan = plan_for(GTX_980, 64, 64, 4, grid_rows=4, grid_cols=8)
        with pytest.raises(ModelError):
            kernel_cycles(GTX_980, plan)


def _enumerated_grid_load(plan):
    """(balance, busiest core's columns), one core at a time."""
    cores = [
        (m1 - m0, n1 - n0)
        for m0, m1 in split_in_units(plan.m, plan.grid_rows, plan.m_r)
        for n0, n1 in split_in_units(plan.n, plan.grid_cols, plan.n_r)
    ]
    per_core = [rows * cols * plan.k for rows, cols in cores]
    busiest = max(per_core)
    if busiest == 0:
        return 1.0, plan.n
    balance = sum(per_core) / (len(per_core) * busiest)
    return balance, max(cols for rows, cols in cores if rows and cols)


class TestGridLoad:
    """The closed-form grid load equals enumerating every core."""

    EXTENTS = (0, 1, 5, 37, 320, 4_096, 12_256, 20_011)

    @pytest.mark.parametrize("published", [True, False])
    @pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
    @pytest.mark.parametrize("arch", ALL_GPUS, ids=lambda a: a.name)
    def test_closed_form_matches_enumeration(self, arch, algorithm, published):
        cfg = derive_config(arch, algorithm, use_published=published)
        for m, n, k in itertools.product(self.EXTENTS, self.EXTENTS, (0, 1, 25, 800)):
            plan = BlockingPlan(
                m=m, n=n, k=k, m_c=cfg.m_c, k_c=cfg.k_c, m_r=cfg.m_r,
                n_r=cfg.n_r, grid_rows=cfg.grid_rows, grid_cols=cfg.grid_cols,
            )
            balance, cols = _enumerated_grid_load(plan)
            assert _grid_load(plan) == (balance, cols), (m, n, k)
            if min(m, n, k) > 0:  # launches have positive extents
                breakdown = kernel_cycles(arch, plan, cfg.op)
                assert breakdown.balance == balance
                assert breakdown.ramp == ramp_efficiency(arch, cols)
