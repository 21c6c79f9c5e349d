"""Controlled-channel (page-fault) attack tests."""

import pytest

from repro.sidechannel.pagefault import (
    PAGE_SIZE,
    ControlledChannelAttacker,
    PageFaultObserver,
    combined_channel_candidates,
)
from repro.sidechannel.replay import TraceVictim

NUM_ROWS = 1024


def channel(technique):
    """Observer, replayed real generator, attacker — for one technique."""
    observer = PageFaultObserver()
    # dim 64 rows = 256 B => 16 rows per 4 KiB page.
    victim = TraceVictim.of_technique(technique, observer.touch, NUM_ROWS)
    return observer, victim, ControlledChannelAttacker(observer, victim)


@pytest.fixture
def setup():
    return channel("lookup")


class TestObserver:
    def test_touch_records_spanning_pages(self):
        observer = PageFaultObserver()
        observer.touch(PAGE_SIZE - 10, 20)  # straddles a page boundary
        assert observer.log.distinct() == {0, 1}

    def test_reset(self):
        observer = PageFaultObserver()
        observer.touch(0, 10)
        observer.reset()
        assert not observer.log.pages


class TestControlledChannel:
    def test_narrows_to_one_page_of_rows(self, setup):
        observer, victim, attacker = setup
        rows_per_page = observer.page_size / victim.row_bytes
        for index in (0, 100, 1023):
            low, high = attacker.observe_lookup(index)
            assert low <= index < high
            # 16 rows/page; a row can straddle two pages => <= ~33 candidates
            assert high - low <= 2 * rows_per_page + 1

    def test_candidate_set_far_smaller_than_table(self, setup):
        _, victim, attacker = setup
        assert attacker.candidates_after_lookup(500) < victim.num_rows / 10

    def test_different_indices_distinguishable(self, setup):
        _, _, attacker = setup
        range_low = attacker.observe_lookup(0)
        range_high = attacker.observe_lookup(1000)
        assert range_low != range_high

    def test_linear_scan_defence(self):
        """Against the scan, the page channel sees the entire table."""
        _, victim, attacker = channel("scan")
        assert attacker.candidates_after_lookup(3) == victim.num_rows
        assert attacker.observe_lookup(3) == attacker.observe_lookup(1000)

    def test_out_of_range(self, setup):
        _, victim, _ = setup
        with pytest.raises(IndexError):
            victim.lookup(1024)
        with pytest.raises(IndexError):
            channel("scan")[1].lookup(-1)


class TestCombinedChannels:
    def test_paper_claim_exact_index_for_real_dims(self):
        """§III-A2: rows bigger than a cache line => combining page + cache
        channels pins the exact index."""
        for dim in (16, 32, 64):  # all DLRM dims give rows >= 64 B
            assert combined_channel_candidates(10**6, dim) == 1

    def test_tiny_rows_leave_ambiguity(self):
        # 4-byte rows: 16 rows share a line.
        assert combined_channel_candidates(10**6, 1) == 16
