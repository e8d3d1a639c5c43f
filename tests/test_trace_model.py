"""Tests for MemTrace / MemRecord containers."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.model import MemRecord, MemTrace, WORD_BYTES

from conftest import make_trace


class TestMemRecord:
    def test_read_write_flags(self):
        read = MemRecord(64, False)
        write = MemRecord(64, True)
        assert read.is_read and not read.is_write
        assert write.is_write and not write.is_read

    def test_word_index(self):
        assert MemRecord(64, False).word == 16


class TestConstruction:
    def test_word_alignment_applied(self):
        trace = make_trace([5, 9, 13])
        assert trace.addresses.tolist() == [4, 8, 12]

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            MemTrace([0, 4], [True])

    def test_negative_address_rejected(self):
        with pytest.raises(TraceError):
            MemTrace([-4], [False])

    def test_two_dimensional_rejected(self):
        with pytest.raises(TraceError):
            MemTrace(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))

    def test_arrays_are_read_only(self):
        trace = make_trace([0, 4])
        with pytest.raises(ValueError):
            trace.addresses[0] = 100

    def test_caller_arrays_are_not_aliased(self):
        # Already the dtypes MemTrace keeps, so np.asarray returns the
        # caller's own arrays; the trace must not share them.
        addresses = np.array([0, 8, 16], dtype=np.int64)
        writes = np.array([False, True, False])
        trace = MemTrace(addresses, writes)
        addresses[:] = 1024
        writes[:] = True
        assert trace.addresses.tolist() == [0, 8, 16]
        assert trace.is_write.tolist() == [False, True, False]

    def test_from_records_round_trip(self):
        records = [MemRecord(0, False), MemRecord(8, True)]
        trace = MemTrace.from_records(records)
        assert list(trace) == records


class TestAccessors:
    def test_len_and_iteration(self):
        trace = make_trace([0, 4, 8], [False, True, False])
        assert len(trace) == 3
        kinds = [r.is_write for r in trace]
        assert kinds == [False, True, False]

    def test_indexing_and_slicing(self):
        trace = make_trace([0, 4, 8, 12])
        assert trace[2] == MemRecord(8, False)
        sliced = trace[1:3]
        assert isinstance(sliced, MemTrace)
        assert sliced.addresses.tolist() == [4, 8]

    def test_counts(self):
        trace = make_trace([0, 4, 8], [True, True, False])
        assert trace.write_count == 2
        assert trace.read_count == 1

    def test_footprint_counts_distinct_words(self):
        trace = make_trace([0, 0, 4, 4, 4])
        assert trace.footprint_bytes == 2 * WORD_BYTES

    def test_request_bytes(self):
        trace = make_trace([0, 4, 8])
        assert trace.request_bytes == 3 * WORD_BYTES

    def test_words_property(self):
        trace = make_trace([0, 4, 400])
        assert trace.words.tolist() == [0, 1, 100]

    def test_empty_trace(self):
        trace = MemTrace([], [])
        assert len(trace) == 0
        assert trace.footprint_bytes == 0
        assert trace.request_bytes == 0


class TestEqualityAndNaming:
    def test_equality_is_by_content(self):
        a = make_trace([0, 4], [True, False])
        b = make_trace([0, 4], [True, False])
        c = make_trace([0, 8], [True, False])
        assert a == b
        assert a != c

    def test_with_name_shares_arrays(self):
        a = make_trace([0, 4])
        b = a.with_name("renamed")
        assert b.name == "renamed"
        assert b.addresses is a.addresses

    def test_repr_contains_name_and_length(self):
        trace = make_trace([0, 4], name="hello")
        assert "hello" in repr(trace)
        assert "len=2" in repr(trace)


class TestConcatenate:
    def test_order_preserved(self):
        a = make_trace([0], [True])
        b = make_trace([4], [False])
        joined = MemTrace.concatenate([a, b])
        assert joined.addresses.tolist() == [0, 4]
        assert joined.is_write.tolist() == [True, False]

    def test_empty_input_gives_empty_trace(self):
        joined = MemTrace.concatenate([])
        assert len(joined) == 0

    def test_name_inherited_from_first(self):
        a = make_trace([0], name="first")
        b = make_trace([4], name="second")
        assert MemTrace.concatenate([a, b]).name == "first"
