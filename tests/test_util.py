"""Unit tests for the util subpackage."""

import numpy as np
import pytest

from repro.util import Timer, as_generator, spawn_seeds
from repro.util.arrays import (
    group_reduce_sum,
    renumber_dense,
    segment_starts,
)


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_reproducible(self):
        assert as_generator(7).integers(100) == as_generator(7).integers(100)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_seed_sequence(self):
        ss = np.random.SeedSequence(5)
        a = as_generator(ss).integers(1000)
        b = as_generator(np.random.SeedSequence(5)).integers(1000)
        assert a == b

    def test_spawn_seeds_independent(self):
        seeds = spawn_seeds(0, 3)
        vals = [as_generator(s).integers(10**9) for s in seeds]
        assert len(set(vals)) == 3

    def test_spawn_seeds_reproducible(self):
        a = [s.generate_state(1)[0] for s in spawn_seeds(42, 2)]
        b = [s.generate_state(1)[0] for s in spawn_seeds(42, 2)]
        assert a == b

    def test_spawn_negative(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)

    def test_spawn_from_generator(self):
        seeds = spawn_seeds(np.random.default_rng(1), 2)
        assert len(seeds) == 2


class TestTimer:
    def test_measures_time(self):
        with Timer() as t:
            sum(range(1000))
        assert t.elapsed >= 0.0

    def test_monotonic_ns_backing(self):
        with Timer() as t:
            sum(range(1000))
        assert isinstance(t.start_ns, int)
        assert isinstance(t.stop_ns, int)
        assert t.stop_ns >= t.start_ns
        assert t.elapsed_ns == t.stop_ns - t.start_ns
        assert t.elapsed == pytest.approx(t.elapsed_ns / 1e9)

    def test_start_stop_explicit(self):
        t = Timer()
        assert t.start() is t
        elapsed = t.stop()
        assert elapsed >= 0.0
        assert t.elapsed == elapsed

    def test_lap_checkpoints(self):
        t = Timer().start()
        a = t.lap()
        sum(range(10_000))
        b = t.lap()
        assert a >= 0.0 and b >= 0.0
        assert t.laps == [a, b]
        # laps are disjoint intervals, so they can't exceed the total
        assert sum(t.laps) <= t.elapsed + 1e-6

    def test_lap_before_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().lap()

    def test_stop_before_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_elapsed_while_running(self):
        t = Timer().start()
        first = t.elapsed
        sum(range(10_000))
        assert t.elapsed >= first

    def test_unstarted_elapsed_is_zero(self):
        assert Timer().elapsed == 0.0
        assert Timer().elapsed_ns == 0

    def test_restart_clears_laps(self):
        t = Timer().start()
        t.lap()
        t.start()
        assert t.laps == []


class TestArrays:
    def test_group_reduce_sum(self):
        out = group_reduce_sum(
            np.array([0, 2, 0]), np.array([1.0, 2.0, 3.0]), 3
        )
        np.testing.assert_array_equal(out, [4.0, 0.0, 2.0])

    def test_group_reduce_sum_length_check(self):
        with pytest.raises(ValueError):
            group_reduce_sum(np.array([0]), np.array([1.0, 2.0]), 2)

    def test_segment_starts(self):
        np.testing.assert_array_equal(
            segment_starts(np.array([1, 1, 3, 3, 3, 7])), [0, 2, 5]
        )

    def test_segment_starts_empty(self):
        assert len(segment_starts(np.empty(0, int))) == 0

    def test_renumber_dense(self):
        labels, k = renumber_dense(np.array([10, 3, 10, 7]))
        assert k == 3
        np.testing.assert_array_equal(labels, [2, 0, 2, 1])


class TestLogging:
    def test_get_logger_namespacing(self):
        from repro.util.log import get_logger

        assert get_logger().name == "repro"
        assert get_logger("core").name == "repro.core"

    def test_enable_console_logging_detachable(self):
        import logging

        from repro.util.log import enable_console_logging, get_logger

        handler = enable_console_logging(logging.DEBUG)
        try:
            assert handler in logging.getLogger("repro").handlers
        finally:
            logging.getLogger("repro").removeHandler(handler)

    def test_enable_console_logging_idempotent(self):
        import logging

        from repro.util.log import enable_console_logging

        logger = logging.getLogger("repro")
        before = len(logger.handlers)
        first = enable_console_logging(logging.INFO)
        try:
            second = enable_console_logging(logging.DEBUG)
            assert second is first  # reused, not stacked
            assert len(logger.handlers) == before + 1
            assert first.level == logging.DEBUG  # level updated in place
        finally:
            logger.removeHandler(first)

    def test_enable_console_logging_reattaches_after_detach(self):
        import logging

        from repro.util.log import enable_console_logging

        logger = logging.getLogger("repro")
        first = enable_console_logging()
        logger.removeHandler(first)
        second = enable_console_logging()
        try:
            assert second in logger.handlers
        finally:
            logger.removeHandler(second)
