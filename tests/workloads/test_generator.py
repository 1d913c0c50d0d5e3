"""Tests for the synthetic activation-stream generator."""

import pytest

from repro.workloads.generator import generate_schedule, measure_characteristics
from repro.workloads.profiles import profile_by_name


class TestCalibration:
    @pytest.fixture(scope="class")
    def roms_schedule(self):
        return generate_schedule(profile_by_name("roms"), n_trefi=8192, seed=0)

    def test_hot_row_counts_match_table4(self, roms_schedule):
        profile = profile_by_name("roms")
        chars = measure_characteristics(roms_schedule)
        assert chars["act_32_plus"] == pytest.approx(profile.act_32_plus, rel=0.05)
        assert chars["act_64_plus"] == pytest.approx(profile.act_64_plus, rel=0.05)
        assert chars["act_128_plus"] == pytest.approx(profile.act_128_plus, rel=0.05)

    def test_total_acts_at_least_pki_budget(self, roms_schedule):
        # The hot-row histogram is authoritative: for several Table 4
        # workloads the hot rows alone imply more activations than the
        # ACT-PKI budget, so the generator treats PKI as a floor.
        profile = profile_by_name("roms")
        budget = profile.acts_per_trefi_per_bank() * 8192
        assert roms_schedule.total_acts >= 0.98 * budget

    def test_cold_traffic_fills_pki_budget(self):
        # bwaves has few hot activations relative to its PKI: the cold
        # tail must fill the difference.
        profile = profile_by_name("bwaves")
        schedule = generate_schedule(profile, n_trefi=2048, seed=0)
        budget = profile.acts_per_trefi_per_bank() * 2048
        assert schedule.total_acts == pytest.approx(budget, rel=0.03)

    def test_scaled_window_preserves_rates(self):
        profile = profile_by_name("mcf")
        quarter = generate_schedule(profile, n_trefi=2048, seed=0)
        chars = measure_characteristics(quarter)
        # Counts are scaled back to a full window for comparison.
        assert chars["act_64_plus"] == pytest.approx(profile.act_64_plus, rel=0.25)


class TestStructure:
    def test_per_trefi_length(self):
        schedule = generate_schedule(profile_by_name("tc"), n_trefi=512, seed=0)
        assert schedule.n_trefi == 512
        assert len(schedule.per_trefi) == 512

    def test_deterministic_for_seed(self):
        a = generate_schedule(profile_by_name("gcc"), n_trefi=512, seed=3)
        b = generate_schedule(profile_by_name("gcc"), n_trefi=512, seed=3)
        assert a.per_trefi == b.per_trefi

    def test_different_seeds_differ(self):
        a = generate_schedule(profile_by_name("gcc"), n_trefi=512, seed=3)
        b = generate_schedule(profile_by_name("gcc"), n_trefi=512, seed=4)
        assert a.per_trefi != b.per_trefi

    def test_planned_counts_sum_matches_stream(self):
        schedule = generate_schedule(profile_by_name("bc"), n_trefi=512, seed=0)
        streamed = sum(len(rows) for rows in schedule.per_trefi)
        assert streamed == schedule.total_acts

    def test_rows_within_bank(self):
        schedule = generate_schedule(
            profile_by_name("x264"), n_trefi=256, seed=0, rows_per_bank=4096
        )
        for rows in schedule.per_trefi:
            assert all(0 <= row < 4096 for row in rows)

    def test_n_trefi_positive(self):
        with pytest.raises(ValueError):
            generate_schedule(profile_by_name("tc"), n_trefi=0)


class TestBurstPacing:
    def test_no_interval_wildly_over_capacity(self):
        """Generated load per tREFI stays near the 67-ACT bank budget
        (small excursions are absorbed by engine backpressure)."""
        schedule = generate_schedule(profile_by_name("bwaves"), n_trefi=2048, seed=0)
        overloaded = sum(1 for rows in schedule.per_trefi if len(rows) > 3 * 67)
        assert overloaded / schedule.n_trefi < 0.02


class TestChannelSchedules:
    def test_shape(self):
        from repro.workloads.generator import generate_channel_schedules
        from repro.workloads.profiles import profile_by_name

        grid = generate_channel_schedules(
            profile_by_name("tc"), num_subchannels=2,
            banks_per_subchannel=3, n_trefi=64,
        )
        assert len(grid) == 2
        assert all(len(bank_row) == 3 for bank_row in grid)
        assert all(s.n_trefi == 64 for row in grid for s in row)

    def test_subchannel_zero_matches_single_subchannel_run(self):
        """Seeding is sub-channel-major: the first sub-channel of a
        wide run is bit-identical to a narrow run."""
        from repro.workloads.generator import (
            generate_channel_schedules,
            generate_schedule,
        )
        from repro.workloads.profiles import profile_by_name

        profile = profile_by_name("roms")
        wide = generate_channel_schedules(
            profile, num_subchannels=2, banks_per_subchannel=2,
            n_trefi=128, seed=7,
        )
        assert wide[0][0].per_trefi == generate_schedule(
            profile, n_trefi=128, seed=7
        ).per_trefi
        assert wide[0][1].per_trefi == generate_schedule(
            profile, n_trefi=128, seed=8
        ).per_trefi
        # Sub-channel 1 continues the seed sequence.
        assert wide[1][0].per_trefi == generate_schedule(
            profile, n_trefi=128, seed=9
        ).per_trefi

    def test_rejects_bad_geometry(self):
        import pytest

        from repro.workloads.generator import generate_channel_schedules
        from repro.workloads.profiles import profile_by_name

        with pytest.raises(ValueError):
            generate_channel_schedules(
                profile_by_name("tc"), num_subchannels=0
            )
        with pytest.raises(ValueError):
            generate_channel_schedules(
                profile_by_name("tc"), banks_per_subchannel=0
            )


class TestAddressTraceGeneration:
    def test_events_cover_all_subchannels_and_banks(self):
        from repro.sim.mapping import CoffeeLakeMapping
        from repro.workloads.generator import generate_address_trace
        from repro.workloads.profiles import profile_by_name

        mapping = CoffeeLakeMapping()
        trace = generate_address_trace(
            profile_by_name("tc"), mapping, n_trefi=32,
            banks_per_subchannel=2,
        )
        seen = {
            (d.subchannel, d.bank)
            for d in (mapping.decode(addr) for _, addr in trace.events)
        }
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_timestamps_are_monotone(self):
        from repro.sim.mapping import CoffeeLakeMapping
        from repro.workloads.generator import generate_address_trace
        from repro.workloads.profiles import profile_by_name

        trace = generate_address_trace(
            profile_by_name("tc"), CoffeeLakeMapping(), n_trefi=16,
            banks_per_subchannel=1,
        )
        times = [t for t, _ in trace.events]
        assert times == sorted(times)

    def test_rejects_too_many_banks(self):
        import pytest

        from repro.sim.mapping import CoffeeLakeMapping
        from repro.workloads.generator import generate_address_trace
        from repro.workloads.profiles import profile_by_name

        with pytest.raises(ValueError):
            generate_address_trace(
                profile_by_name("tc"), CoffeeLakeMapping(), n_trefi=8,
                banks_per_subchannel=64,
            )
    def test_equal_arguments_reuse_one_draw(self):
        from repro.workloads.generator import generate_channel_schedules

        profile = profile_by_name("roms")
        first = generate_channel_schedules(profile, n_trefi=64, seed=3)
        assert generate_channel_schedules(profile, n_trefi=64, seed=3) is first
        other = generate_channel_schedules(profile, n_trefi=64, seed=4)
        assert other is not first
        assert other[0][0].per_trefi != first[0][0].per_trefi
        # The memo holds one grid: returning to the first arguments
        # draws again, with the same content.
        again = generate_channel_schedules(profile, n_trefi=64, seed=3)
        assert again is not first
        assert again[0][0].per_trefi == first[0][0].per_trefi
        assert again[0][0].planned_row_acts == first[0][0].planned_row_acts

    def test_simulation_leaves_memoised_schedules_unchanged(self):
        """Every caller shares the memoised grid, so a run must not
        mutate it: the next point of the grid replays the same draw."""
        import copy

        from repro.sim.perf import MoatRunConfig, run_workload
        from repro.workloads.generator import generate_channel_schedules

        profile = profile_by_name("roms")
        config = MoatRunConfig(n_trefi=256, ath=64, banks_simulated=2,
                               model_cross_bank_service=True)
        grid = generate_channel_schedules(
            profile, num_subchannels=config.subchannels,
            banks_per_subchannel=config.banks_simulated,
            n_trefi=config.n_trefi, seed=config.seed,
        )
        snapshot = copy.deepcopy(
            [[(s.per_trefi, s.planned_row_acts) for s in row] for row in grid]
        )
        result = run_workload(profile, config)
        assert result.alerts > 0
        assert generate_channel_schedules(
            profile, num_subchannels=config.subchannels,
            banks_per_subchannel=config.banks_simulated,
            n_trefi=config.n_trefi, seed=config.seed,
        ) is grid
        assert [
            [(s.per_trefi, s.planned_row_acts) for s in row] for row in grid
        ] == snapshot
