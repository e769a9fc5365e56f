"""Utility helpers: RNG, the clock, tables, validation, thread fan-out."""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.util import fanout, timer
from repro.util.fanout import thread_map, usable_cpus
from repro.util.rng import default_rng
from repro.util.tables import format_table
from repro.util.timer import monotonic
from repro.util.validation import (
    check_3d,
    check_finite,
    check_positive,
)


class TestRng:
    def test_int_seed_deterministic(self):
        assert default_rng(3).random() == default_rng(3).random()

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert default_rng(g) is g


class TestClock:
    def test_monotonic_never_goes_back(self):
        stamps = [monotonic() for _ in range(1000)]
        assert stamps == sorted(stamps)

    def test_monotonic_advances_across_work(self):
        start = monotonic()
        sum(range(100_000))
        assert monotonic() > start

    def test_timer_module_defines_only_monotonic(self):
        """Spans are the one record of time: ``util.timer`` keeps the
        clock and no accounting of its own."""
        defined = [
            name
            for name, value in vars(timer).items()
            if callable(value) and getattr(value, "__module__", None) == timer.__name__
        ]
        assert defined == ["monotonic"]
        assert timer.__all__ == ["monotonic"]


class TestTables:
    def test_basic_render(self):
        out = format_table(["a", "b"], [[1, 2.5], [30, 4.25]])
        lines = out.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert "-+-" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        out = format_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_bool_rendering(self):
        out = format_table(["ok"], [[True], [False]])
        assert "yes" in out and "no" in out

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [[1]])

    def test_float_format(self):
        out = format_table(["v"], [[3.14159]], float_fmt=".2f")
        assert "3.14" in out


class TestValidation:
    def test_check_3d_accepts(self):
        out = check_3d(np.zeros((2, 3, 4), dtype=np.float32))
        assert out.dtype == np.float64
        assert out.flags["C_CONTIGUOUS"]

    def test_check_3d_rejects_2d(self):
        with pytest.raises(ValueError, match="3-D"):
            check_3d(np.zeros((2, 3)))

    def test_check_3d_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            check_3d(np.zeros((0, 3, 3)))

    def test_check_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            check_finite(np.array([1.0, np.inf]))

    def test_check_positive(self):
        assert check_positive(2, "x") == 2.0
        with pytest.raises(ValueError, match="x"):
            check_positive(0, "x")
        with pytest.raises(ValueError, match="x"):
            check_positive(float("nan"), "x")


class _Concurrency:
    """Wraps functions to record the most calls running at once."""

    def __init__(self) -> None:
        self.now = self.peak = 0
        self._lock = threading.Lock()

    def wrap(self, fn):
        def run(x):
            with self._lock:
                self.now += 1
                self.peak = max(self.peak, self.now)
            try:
                time.sleep(0.002)  # long enough for the pool to join in
                return fn(x)
            finally:
                with self._lock:
                    self.now -= 1

        return run


class TestThreadMap:
    def test_preserves_order_and_accepts_any_iterable(self):
        assert thread_map(lambda x: x * x, range(20)) == [x * x for x in range(20)]
        assert thread_map(lambda x: x, iter("abc")) == ["a", "b", "c"]
        assert thread_map(lambda x: x, []) == []

    def test_a_lone_item_runs_in_the_calling_thread(self):
        assert thread_map(lambda _: threading.get_ident(), [0]) == [threading.get_ident()]

    def test_an_exception_in_any_call_reaches_the_caller(self):
        def fail_on_three(x):
            if x == 3:
                raise KeyError(x)
            return x

        with pytest.raises(KeyError):
            thread_map(fail_on_three, range(6))

    def test_usable_cpus_is_a_hard_cap(self, monkeypatch):
        """At most ``usable_cpus()`` calls of ``fn`` run at once, nested
        calls included; one usable CPU never leaves the caller."""
        gauge = _Concurrency()

        def nested(x):
            return thread_map(gauge.wrap(lambda y: y), range(3))

        for cpus in (8, 3, 2):
            monkeypatch.setattr(fanout, "usable_cpus", lambda: cpus)
            gauge.peak = 0
            assert thread_map(gauge.wrap(lambda x: x), range(20)) == list(range(20))
            assert thread_map(nested, range(6)) == [[0, 1, 2]] * 6
            assert 1 <= gauge.peak <= cpus
        monkeypatch.setattr(fanout, "usable_cpus", lambda: 1)
        assert thread_map(lambda _: threading.get_ident(), range(4)) == (
            [threading.get_ident()] * 4
        )
        assert thread_map(lambda _: thread_map(lambda _: threading.get_ident(), range(3)), range(2)) == (
            [[threading.get_ident()] * 3] * 2
        )

    def test_takes_no_worker_count(self):
        import inspect

        assert list(inspect.signature(thread_map).parameters) == ["fn", "items"]


def _pool_threads() -> list[threading.Thread]:
    return [
        t for t in threading.enumerate() if t.name.startswith(fanout.POOL_THREAD_PREFIX)
    ]


def _square(x: int) -> int:
    return x * x


def _in_forked_child(results) -> None:
    """Runs in a ``fork`` child: fan out, report what came back and
    whether the pool's threads are this process's own."""
    got = fanout.thread_map(_square, range(8))
    alive = [t.is_alive() for t in _pool_threads()]
    results.put((got, bool(alive) and all(alive)))


class TestPersistentPool:
    """The one pool: caller-inclusive, persistent, nest-safe."""

    @staticmethod
    def _within(seconds: float, fn):
        """``fn()``'s value, or a failure if it has not returned in time
        (a deadlocked fan-out never returns)."""
        box = []
        runner = threading.Thread(target=lambda: box.append(fn()), daemon=True)
        runner.start()
        runner.join(seconds)
        assert not runner.is_alive(), f"did not finish in {seconds} s"
        return box[0]

    @pytest.mark.parametrize("cpus", [1, 2, 4, 8])
    def test_a_three_deep_nested_call_finishes(self, cpus, monkeypatch):
        monkeypatch.setattr(fanout, "usable_cpus", lambda: cpus)

        def leaf(x):
            time.sleep(0.001)
            return x

        def middle(x):
            return sum(thread_map(leaf, range(x, x + 4)))

        def top(x):
            return thread_map(middle, range(x, x + 3))

        got = self._within(60, lambda: thread_map(top, range(4)))
        assert got == [[sum(range(m, m + 4)) for m in range(x, x + 3)] for x in range(4)]

    def test_at_most_usable_cpus_minus_one_pool_threads_exist(self, monkeypatch):
        for cpus in (4, 2):
            monkeypatch.setattr(fanout, "usable_cpus", lambda: cpus)
            names = thread_map(
                lambda _: time.sleep(0.005) or threading.current_thread().name, range(16)
            )
            pooled = {n for n in names if n != threading.current_thread().name}
            assert all(n.startswith(fanout.POOL_THREAD_PREFIX) for n in pooled)
            assert len(pooled) <= cpus - 1
            # a pool made for another CPU count lets its threads go
            deadline = time.monotonic() + 10
            while len(_pool_threads()) > cpus - 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert 1 <= len(_pool_threads()) <= cpus - 1

    def test_the_pool_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(fanout, "usable_cpus", lambda: 2)
        thread_map(lambda x: x, range(4))
        first = _pool_threads()
        thread_map(lambda x: x, range(4))
        assert first and _pool_threads() == first

    def test_a_nested_exception_surfaces_once_after_its_siblings(self, monkeypatch):
        monkeypatch.setattr(fanout, "usable_cpus", lambda: 4)
        started, finished = set(), set()
        lock = threading.Lock()

        def inner(x):
            with lock:
                started.add(x)
            if x == (0, 1):
                time.sleep(0.01)
                raise KeyError(x)
            time.sleep(0.05)
            with lock:
                finished.add(x)
            return x

        def outer(i):
            return thread_map(inner, [(i, j) for j in range(4)])

        with pytest.raises(KeyError) as info:
            thread_map(outer, range(3))
        assert info.value.args == ((0, 1),)
        assert info.value.__context__ is None  # raised once, not re-wrapped
        # every sibling that started had finished by the time it surfaced
        assert started - {(0, 1)} == finished

    def test_items_run_in_a_copy_of_the_callers_context(self, monkeypatch):
        import contextvars

        var = contextvars.ContextVar("var", default="unset")
        monkeypatch.setattr(fanout, "usable_cpus", lambda: 2)
        token = var.set("caller")
        try:

            def read_and_write(_):
                seen = var.get()
                var.set("item")  # lands in the item's copy only
                return seen

            assert thread_map(read_and_write, range(6)) == ["caller"] * 6
            assert var.get() == "caller"
        finally:
            var.reset(token)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_gets_a_pool_of_its_own(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(fanout, "usable_cpus", lambda: 2)
        thread_map(lambda x: x, range(4))  # the parent's pool exists
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=_in_forked_child, args=(results,))
        child.start()
        try:
            got, own_threads = results.get(timeout=60)
        finally:
            child.join(60)
        assert child.exitcode == 0
        assert got == [x * x for x in range(8)] and own_threads


class TestUsableCpus:
    def test_the_affinity_mask_wins_over_the_node_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cpus() == 2

    def test_without_affinity_it_is_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1
