"""Execution-model plumbing: arena counting, ledger budgets, sink order."""

import pytest

from wsvoronoi.geometry import site_set
from wsvoronoi.memory import (
    ModelViolation,
    OutputSink,
    ReadOnlyArena,
    SequencingError,
    WorkLedger,
)
from wsvoronoi.records import EdgeRecord, Unbounded


def make_arena():
    return ReadOnlyArena(site_set([(0, 0), (8, 0), (0, 6)]))


class TestArena:
    def test_read_counts(self):
        arena = make_arena()
        assert arena.read_count == 0
        assert arena.read(0) == (0, 0)
        assert arena.read_count == 1

    def test_no_caching(self):
        arena = make_arena()
        arena.read(1)
        arena.read(1)
        assert arena.read_count == 2

    def test_out_of_range(self):
        arena = make_arena()
        with pytest.raises(IndexError):
            arena.read(3)
        with pytest.raises(IndexError):
            arena.read(-1)


class TestLedger:
    def test_nested_scopes_peak(self):
        ledger = WorkLedger(100)
        with ledger.scope(60):
            with ledger.scope(30):
                pass
        assert ledger.peak_words == 90
        assert ledger.live_words == 0

    def test_nested_overflow_aborts(self):
        ledger = WorkLedger(100)
        with pytest.raises(ModelViolation):
            with ledger.scope(60):
                with ledger.scope(50):
                    pass

    def test_sequential_scopes_do_not_stack(self):
        ledger = WorkLedger(100)
        with ledger.scope(60):
            pass
        with ledger.scope(60):
            pass
        assert ledger.peak_words == 60

    def test_observing_mode_records_only(self):
        ledger = WorkLedger(1, enforcing=False)
        with ledger.scope(500):
            pass
        assert ledger.peak_words == 500

    def test_release_mismatch(self):
        ledger = WorkLedger(10)
        with pytest.raises(ValueError):
            ledger.release(1)


def rec(k):
    return EdgeRecord(k, (), (0, 1), Unbounded(1, 0), Unbounded(-1, 0), None, None)


class TestSink:
    def test_nondecreasing_orders(self):
        sink = OutputSink()
        sink.emit(rec(1))
        sink.emit(rec(1))
        sink.emit(rec(2))
        assert sink.emitted_count == 3

    def test_order_regression_rejected(self):
        sink = OutputSink()
        sink.emit(rec(2))
        with pytest.raises(SequencingError):
            sink.emit(rec(1))

    def test_emit_after_close_rejected(self):
        sink = OutputSink()
        sink.emit(rec(1))
        sink.close()
        with pytest.raises(SequencingError):
            sink.emit(rec(1))

    def test_writer_callback(self):
        lines = []
        sink = OutputSink(writer=lines.append, keep=False)
        sink.emit(rec(1))
        assert len(lines) == 1
        with pytest.raises(RuntimeError):
            sink.records
