"""Registry and span thread-safety: hammer instruments and the span
recorder from threads and an event loop and check the totals are exact
(no lost updates)."""

import asyncio
import concurrent.futures
import sys
import threading

from repro.obs.schema import validate_trace
from repro.obs.tracer import ChromeTracer
from repro.telemetry.logs import bind_correlation, current_correlation_id
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.prometheus import render_exposition, validate_exposition
from repro.telemetry.spans import install_recorder, span

THREADS = 8
ITERATIONS = 2_000


class TestThreadedCounters:
    def test_unlabelled_counter_exact_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_hammer_total", "hammered")
        start = threading.Barrier(THREADS)

        def worker():
            start.wait()
            for _ in range(ITERATIONS):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == THREADS * ITERATIONS

    def test_labelled_children_exact_per_label(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "repro_hammer_total", "hammered", labelnames=("lane",)
        )
        start = threading.Barrier(THREADS)

        def worker(lane):
            start.wait()
            for _ in range(ITERATIONS):
                # .labels() every iteration: the get-or-create child
                # path must be race-free, not just the increment.
                counter.labels(lane).inc()

        lanes = [str(i % 2) for i in range(THREADS)]
        threads = [
            threading.Thread(target=worker, args=(lane,)) for lane in lanes
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        per_lane = THREADS // 2 * ITERATIONS
        assert counter.labels("0").value == per_lane
        assert counter.labels("1").value == per_lane

    def test_histogram_exact_count_and_sum(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_hammer_ms", "hammered", buckets=(1.0, 2.0, 4.0)
        )
        start = threading.Barrier(THREADS)

        def worker():
            start.wait()
            for i in range(ITERATIONS):
                hist.observe(float(i % 5))

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == THREADS * ITERATIONS
        # sum over i%5 for one worker = ITERATIONS/5 * (0+1+2+3+4)
        assert hist.sum == THREADS * (ITERATIONS // 5) * 10.0
        counts, total, _, observed_max = hist.snapshot()
        assert total == THREADS * ITERATIONS
        assert sum(counts) == total
        assert observed_max == 4.0

    def test_concurrent_get_or_create_single_instrument(self):
        registry = MetricsRegistry()
        seen = []
        start = threading.Barrier(THREADS)

        def worker():
            start.wait()
            c = registry.counter("repro_once_total", "once")
            seen.append(c)
            c.inc()

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c is seen[0] for c in seen)
        assert seen[0].value == THREADS

    def test_render_while_hammering_stays_valid(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_live_total", "live")
        hist = registry.histogram("repro_live_ms", "live", buckets=(1.0, 4.0))
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                counter.inc()
                hist.observe(0.5)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(20):
                # Every mid-flight scrape must be internally consistent
                # (cumulative buckets, count == +Inf bucket).
                validate_exposition(render_exposition(registry))
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert counter.value > 0


class TestEventLoopMix:
    def test_async_tasks_plus_thread_pool_exact_total(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "repro_mixed_total", "mixed", labelnames=("src",)
        )

        def blocking_chunk():
            for _ in range(ITERATIONS):
                counter.labels("thread").inc()

        async def async_chunk():
            for i in range(ITERATIONS):
                counter.labels("loop").inc()
                if i % 256 == 0:
                    await asyncio.sleep(0)

        async def main():
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                loop = asyncio.get_running_loop()
                futures = [
                    loop.run_in_executor(pool, blocking_chunk)
                    for _ in range(4)
                ]
                await asyncio.gather(
                    *futures, *(async_chunk() for _ in range(4))
                )

        asyncio.run(main())
        assert counter.labels("thread").value == 4 * ITERATIONS
        assert counter.labels("loop").value == 4 * ITERATIONS

    def test_correlation_isolated_per_task_while_counting(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_corr_total", "corr")
        leaks = []

        async def job(cid):
            bind_correlation(cid)
            for _ in range(100):
                counter.inc()
                await asyncio.sleep(0)
                if current_correlation_id() != cid:
                    leaks.append((cid, current_correlation_id()))

        async def main():
            await asyncio.gather(*(job(f"{i:016x}") for i in range(8)))

        asyncio.run(main())
        assert leaks == []
        assert counter.value == 8 * 100


class TestThreadedSpans:
    def test_concurrent_spans_all_recorded(self):
        spans_per_thread = 500
        recorder = ChromeTracer(clock="wall")
        start = threading.Barrier(THREADS)

        def worker(i):
            bind_correlation(f"{i:016x}")
            start.wait()
            for _ in range(spans_per_thread):
                with span("hammer", lane=i):
                    pass

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        previous = install_recorder(recorder)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            install_recorder(previous)
        assert not any(t.is_alive() for t in threads)
        doc = recorder.trace_dict()
        events = doc["traceEvents"]
        assert len(events) == THREADS * spans_per_thread
        assert validate_trace(doc) == []
        # Every thread was alive at the barrier, so each has its own tid.
        assert len({e["tid"] for e in events}) == THREADS
        for i in range(THREADS):
            lane = [e for e in events if e["args"]["lane"] == i]
            assert len(lane) == spans_per_thread
            assert {e["args"]["corr_id"] for e in lane} == {f"{i:016x}"}
