"""Tests for the simulated wavefront cluster and Z-align."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.align.smith_waterman import LocalHit, sw_locate_best, sw_score
from repro.parallel.wavefront_cluster import ClusterConfig, WavefrontCluster
from repro.parallel.zalign import zalign
from repro.io.generate import adversarial_pairs, mutated_pair

from conftest import dna_pair


class TestClusterCorrectness:
    @pytest.mark.parametrize("name,s,t", adversarial_pairs())
    @pytest.mark.parametrize("procs", [1, 2, 4])
    def test_adversarial(self, name, s, t, procs):
        cfg = ClusterConfig(processors=procs, row_block=3)
        assert WavefrontCluster(cfg).run(s, t).hit == sw_locate_best(s, t)

    @given(dna_pair(1, 40), st.integers(1, 6), st.integers(1, 16))
    @settings(max_examples=40)
    def test_property_any_grid(self, pair, procs, row_block):
        s, t = pair
        cfg = ClusterConfig(processors=procs, row_block=row_block)
        assert WavefrontCluster(cfg).run(s, t).hit == sw_locate_best(s, t)

    def test_more_processors_than_columns(self):
        cfg = ClusterConfig(processors=8, row_block=2)
        s, t = "ACGT", "AC"
        assert WavefrontCluster(cfg).run(s, t).hit == sw_locate_best(s, t)

    def test_empty_inputs(self):
        run = WavefrontCluster().run("", "ACGT")
        assert run.hit == LocalHit(0, 0, 0)
        assert run.makespan_seconds == 0.0


class TestClusterTiming:
    def test_makespan_bounded_below_by_perfect_speedup(self):
        s, t = mutated_pair(256, seed=11)
        cfg = ClusterConfig(processors=4, row_block=32, latency_s=0.0)
        run = WavefrontCluster(cfg).run(s, t)
        assert run.makespan_seconds >= run.sequential_seconds / 4 - 1e-12
        assert run.speedup <= 4.0 + 1e-9

    def test_speedup_grows_with_processors(self):
        s, t = mutated_pair(512, seed=12)
        speeds = []
        for p in (1, 2, 4):
            cfg = ClusterConfig(processors=p, row_block=32)
            speeds.append(WavefrontCluster(cfg).run(s, t).speedup)
        assert speeds[0] == pytest.approx(1.0, rel=1e-6)
        assert speeds[0] < speeds[1] < speeds[2]

    def test_message_count(self):
        s, t = mutated_pair(100, seed=13)
        cfg = ClusterConfig(processors=3, row_block=25)
        run = WavefrontCluster(cfg).run(s, t)
        n_row_blocks = -(-len(s) // 25)
        assert len(run.messages) == (3 - 1) * n_row_blocks

    def test_messages_carry_row_block_heights(self):
        s, t = mutated_pair(70, seed=14)
        cfg = ClusterConfig(processors=2, row_block=32)
        run = WavefrontCluster(cfg).run(s, t)
        heights = sorted(m.n_scores for m in run.messages)
        assert heights == sorted([32, 32, len(s) - 64])

    def test_latency_hurts_makespan(self):
        s, t = mutated_pair(128, seed=15)
        fast = ClusterConfig(processors=4, row_block=8, latency_s=0.0)
        slow = ClusterConfig(processors=4, row_block=8, latency_s=5e-3)
        t_fast = WavefrontCluster(fast).run(s, t).makespan_seconds
        t_slow = WavefrontCluster(slow).run(s, t).makespan_seconds
        assert t_slow > t_fast

    def test_tile_finish_times_respect_dependencies(self):
        s, t = mutated_pair(96, seed=16)
        cfg = ClusterConfig(processors=3, row_block=16)
        run = WavefrontCluster(cfg).run(s, t)
        for (rank, r), finish in run.tile_finish.items():
            if r > 0:
                assert finish > run.tile_finish[(rank, r - 1)]
            if rank > 0:
                assert finish > run.tile_finish[(rank - 1, r)]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ClusterConfig(processors=0)
        with pytest.raises(ValueError):
            ClusterConfig(row_block=0)
        with pytest.raises(ValueError):
            ClusterConfig(node_cups=0)


class TestZAlign:
    def test_score_is_exact(self, mutated_120):
        s, t = mutated_120
        z = zalign(s, t)
        assert z.score == sw_score(s, t)
        z.alignment.validate(s, t)

    def test_reverse_pass_score_matches_forward(self, mutated_120):
        s, t = mutated_120
        z = zalign(s, t)
        assert z.reverse_run.hit.score == z.score

    @given(dna_pair(4, 32))
    @settings(max_examples=20)
    def test_property_exact(self, pair):
        s, t = pair
        z = zalign(s, t, ClusterConfig(processors=3, row_block=8))
        assert z.score == sw_score(s, t)

    def test_memory_is_linear_not_quadratic(self):
        s, t = mutated_pair(400, seed=21)
        z = zalign(s, t, ClusterConfig(processors=4))
        quadratic = len(s) * len(t) * 4
        assert z.peak_node_memory_bytes < quadratic / 50

    def test_phase_ledger_complete(self, mutated_120):
        z = zalign(*mutated_120)
        assert set(z.phase_seconds) == {"distribute", "reverse_sweep", "reduce", "retrieve"}
        assert all(v >= 0 for v in z.phase_seconds.values())
        assert z.phase_seconds["reverse_sweep"] > 0


class TestAcceleratedCluster:
    """Section 1's hardware-software approach: FPGA nodes in a cluster."""

    def test_config_carries_accelerator_throughput(self):
        from repro.core.accelerator import SWAccelerator
        from repro.core.timing import PAPER_CLOCK
        from repro.parallel.wavefront_cluster import accelerated_config

        acc = SWAccelerator(elements=100, clock=PAPER_CLOCK)
        cfg = accelerated_config(acc, processors=4)
        # ~1.19 GCUPS effective per node, far beyond any CPU model.
        assert cfg.node_cups > 1e9
        assert cfg.processors == 4

    def test_accelerated_cluster_is_exact_and_faster(self):
        from repro.core.accelerator import SWAccelerator
        from repro.core.timing import PAPER_CLOCK
        from repro.parallel.wavefront_cluster import accelerated_config

        s, t = mutated_pair(256, rate=0.1, seed=55)
        software = ClusterConfig(processors=4, row_block=32)
        hardware = accelerated_config(
            SWAccelerator(elements=100, clock=PAPER_CLOCK), processors=4, row_block=32
        )
        sw_run = WavefrontCluster(software).run(s, t)
        hw_run = WavefrontCluster(hardware).run(s, t)
        assert hw_run.hit == sw_run.hit == sw_locate_best(s, t)
        assert hw_run.makespan_seconds < sw_run.makespan_seconds

    def test_accelerated_zalign(self):
        from repro.core.accelerator import SWAccelerator
        from repro.parallel.wavefront_cluster import accelerated_config

        s, t = mutated_pair(128, rate=0.1, seed=56)
        cfg = accelerated_config(SWAccelerator(elements=64), processors=3, row_block=32)
        z = zalign(s, t, cfg)
        assert z.score == sw_score(s, t)
