"""Vectorized tournament argmax tests + the §V-C overhead claim."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oblivious.primitives import oblivious_argmax_vectorized


class TestTournamentArgmax:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100,
                    unique=True))
    @settings(max_examples=60)
    def test_matches_numpy_for_unique_values(self, values):
        data = np.asarray(values)
        assert oblivious_argmax_vectorized(data) == int(np.argmax(data))

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=60))
    @settings(max_examples=40)
    def test_returns_a_maximal_element_under_ties(self, values):
        data = np.asarray(values)
        index = oblivious_argmax_vectorized(data)
        assert data[index] == data.max()

    def test_odd_lengths(self):
        for length in (1, 3, 5, 7, 31):
            data = np.arange(length, dtype=float)
            assert oblivious_argmax_vectorized(data) == length - 1

    def test_negative_values_with_padding(self):
        """The -inf padding must never win, even when all data is very
        negative."""
        data = np.array([-1e308, -1e308, -1e307])
        assert oblivious_argmax_vectorized(data) == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            oblivious_argmax_vectorized([])


class TestArgmaxOverheadClaim:
    def test_secure_argmax_below_half_percent_of_decode(self):
        """§V-C: securing argmax costs <0.4% of generation latency. In the
        cost model, one oblivious vocab-wide scan (50257 floats) is a tiny
        fraction of one decode step."""
        from repro.costmodel.llm import GPT2_MEDIUM, decode_step_latency
        from repro.costmodel.platform import DEFAULT_PLATFORM

        argmax_bytes = GPT2_MEDIUM.vocab_size * 8
        argmax_seconds = argmax_bytes / DEFAULT_PLATFORM.scan_llc_bw
        decode = decode_step_latency(GPT2_MEDIUM, 1, 256)
        assert argmax_seconds / decode < 0.004
