"""Live-telemetry suite: sampler, status heartbeat, watch, memprof,
and the guardian's indifference to the sampler's RSS ramp estimate.

Covers the four contracts the live tier makes:

* **Zero overhead off.**  The default ``NULL_TELEMETRY`` path adds no
  thread, no counter samples, and no new record kinds to the trace —
  the JSONL byte-output carries exactly the record kinds it carried
  before the live tier existed.
* **Samples are well-formed on.**  Counter series carry monotonically
  non-decreasing timestamps, land in ``read_trace().samples`` and the
  Perfetto counter tracks, and the status.json heartbeat round-trips
  through ``read_status`` / ``render_status`` (what ``repro watch``
  shows).
* **The thread never outlives the run.**  ``stop()`` is idempotent and
  joins on success, abort, and exception paths.
* **Only the budget breaches.**  A steep synthetic RSS ramp in the
  sampler's ring buffer is displayed, never acted on: a run whose RSS
  stays under its memory budget completes with no guardian breach.
"""

import json

import pytest

from repro.core import detect_communities
from repro.errors import ReproError
from repro.obs import Tracer, read_trace, write_trace
from repro.obs.memprof import (
    NULL_MEMPROF,
    NullMemoryProfiler,
    PhaseMemoryProfiler,
    as_memprof,
)
from repro.obs.perfetto import to_chrome_trace
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    PHASE_IDS,
    NullTelemetry,
    TelemetrySampler,
    as_telemetry,
    read_status,
    render_status,
)
from repro.resilience.guardian import RunGuardian


# ----------------------------------------------------------- null path
class TestNullPath:
    def test_defaults_are_null(self):
        assert as_telemetry(None) is NULL_TELEMETRY
        assert as_memprof(None) is NULL_MEMPROF
        assert not NULL_TELEMETRY.enabled
        assert not NULL_MEMPROF.enabled

    def test_null_hooks_are_noops(self):
        t = NullTelemetry()
        t.bind_run(None)
        t.publish_phase("score", 0)
        t.publish_progress(3, 100)
        assert t.start() is t
        t.stop(state="failed")
        assert t.sample_once() == {}
        assert t.stats() == {}
        assert t.ramp_mb_s() is None
        with t:
            pass

    def test_untelemetered_run_records_no_samples(self, karate):
        tracer = Tracer()
        detect_communities(karate, tracer=tracer)
        assert list(tracer.counter_samples) == []

    def test_untelemetered_trace_bytes_carry_no_new_kinds(
        self, karate, tmp_path
    ):
        # The zero-overhead contract: with telemetry off, the JSONL
        # output contains exactly the pre-live-tier record kinds — no
        # counter_sample lines, nothing else new.
        tracer = Tracer()
        detect_communities(karate, tracer=tracer)
        path = tmp_path / "t.jsonl"
        write_trace(tracer, path)
        kinds = {
            json.loads(line)["event"]
            for line in path.read_text().splitlines()
        }
        assert "counter_sample" not in kinds
        assert kinds <= {
            "header", "span", "counter", "gauge", "histogram", "end"
        }
        data = read_trace(path)
        assert data.samples == []
        assert data.skipped_records == 0


# ------------------------------------------------------------- sampler
class TestSampler:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="interval_s"):
            TelemetrySampler(interval_s=0.0)
        with pytest.raises(ValueError, match="ring_size"):
            TelemetrySampler(ring_size=1)

    def test_sample_once_records_expected_series(self):
        tracer = Tracer()
        sampler = TelemetrySampler(tracer, interval_s=0.01)
        sampler.publish_phase("match", 2)
        status = sampler.sample_once()
        names = {s.name for s in tracer.counter_samples}
        assert {"gc_collections", "phase_id"} <= names
        assert "workers_alive" not in names
        assert "workers_alive" not in status
        # the Linux CI box always has an RSS probe; tolerate its absence
        if status["rss_mb"] is not None:
            assert "rss_anon_mb" in names
        by_name = {s.name: s for s in tracer.counter_samples}
        assert by_name["phase_id"].value == PHASE_IDS["match"]
        assert by_name["level"].value == 2
        assert status["phase"] == "match"
        assert status["level"] == 2
        assert status["n_samples"] == sampler.n_samples == 1

    def test_timestamps_are_monotonic_per_series(self):
        tracer = Tracer()
        sampler = TelemetrySampler(tracer, interval_s=0.01)
        for _ in range(5):
            sampler.sample_once()
        series: dict = {}
        for s in tracer.counter_samples:
            series.setdefault(s.name, []).append(s.ts_ns)
        assert series
        for name, stamps in series.items():
            assert stamps == sorted(stamps), name

    def test_explicit_now_ns_is_honoured(self):
        tracer = Tracer()
        sampler = TelemetrySampler(tracer, interval_s=0.01)
        sampler.sample_once(now_ns=12345)
        assert all(s.ts_ns == 12345 for s in tracer.counter_samples)

    def test_ring_and_peak_track_rss(self):
        sampler = TelemetrySampler(Tracer(), interval_s=0.01, ring_size=3)
        for i in range(5):
            sampler.sample_once(now_ns=i * 10**9)
        if sampler.peak_rss_mb is None:  # pragma: no cover - no probe
            pytest.skip("no RSS probe on this platform")
        assert len(sampler.ring) == 3  # bounded
        assert sampler.peak_rss_mb >= max(r for _, r in sampler.ring) - 1e-9

    def test_ramp_over_synthetic_ring(self):
        sampler = TelemetrySampler(Tracer(), interval_s=0.1)
        # 100 MiB over 2 s → 50 MiB/s
        sampler.ring.append((0, 100.0))
        sampler.ring.append((2 * 10**9, 200.0))
        assert sampler.ramp_mb_s() == pytest.approx(50.0)
        # shrinking is negative, never clamped
        sampler.ring.clear()
        sampler.ring.append((0, 200.0))
        sampler.ring.append((10**9, 150.0))
        assert sampler.ramp_mb_s() == pytest.approx(-50.0)

    def test_ramp_needs_two_samples(self):
        sampler = TelemetrySampler(Tracer(), interval_s=0.1)
        assert sampler.ramp_mb_s() is None
        sampler.ring.append((0, 100.0))
        assert sampler.ramp_mb_s() is None

    def test_stats_block(self):
        sampler = TelemetrySampler(Tracer(), interval_s=0.05)
        sampler.sample_once()
        stats = sampler.stats()
        assert stats["n_samples"] == 1
        assert stats["interval_s"] == 0.05
        assert "peak_rss_mb" in stats and "max_ramp_mb_s" in stats

    def test_null_tracer_still_updates_status(self, tmp_path):
        status_path = tmp_path / "status.json"
        sampler = TelemetrySampler(
            None, interval_s=0.01, status_path=status_path
        )
        sampler.sample_once()
        assert status_path.exists()
        assert read_status(status_path)["n_samples"] == 1


# ----------------------------------------------------------- lifecycle
class TestLifecycle:
    def test_start_stop_joins_thread(self):
        sampler = TelemetrySampler(Tracer(), interval_s=0.005)
        sampler.start()
        assert sampler.running
        sampler.stop()
        assert not sampler.running
        # final stop snapshot guarantees at least one sample
        assert sampler.n_samples >= 1

    def test_stop_is_idempotent_and_safe_unstarted(self):
        sampler = TelemetrySampler(Tracer(), interval_s=0.005)
        sampler.stop()
        sampler.stop()
        assert not sampler.running

    def test_start_is_idempotent(self):
        sampler = TelemetrySampler(Tracer(), interval_s=0.005)
        try:
            sampler.start()
            first = sampler._thread
            sampler.start()
            assert sampler._thread is first
        finally:
            sampler.stop()

    def test_thread_joins_on_exception(self, tmp_path):
        # Satellite contract: the sampler thread always joins when the
        # run it instruments dies, and the heartbeat says "failed".
        status_path = tmp_path / "status.json"
        sampler = TelemetrySampler(
            Tracer(), interval_s=0.005, status_path=status_path
        )
        with pytest.raises(RuntimeError, match="boom"):
            with sampler:
                assert sampler.running
                raise RuntimeError("boom")
        assert not sampler.running
        assert read_status(status_path)["state"] == "failed"

    def test_stop_state_override(self, tmp_path):
        status_path = tmp_path / "s.json"
        sampler = TelemetrySampler(
            Tracer(), interval_s=0.005, status_path=status_path
        ).start()
        sampler.stop(state="failed")
        assert read_status(status_path)["state"] == "failed"


# ------------------------------------------------------ status + watch
class TestStatusAndWatch:
    def make_status(self, tmp_path, **overrides):
        sampler = TelemetrySampler(
            Tracer(),
            interval_s=0.05,
            status_path=tmp_path,  # directory form
            meta={"graph": "toy"},
        )
        sampler.publish_phase("contract", 3)
        sampler.publish_progress(3, 1234)
        status = sampler.sample_once()
        path = tmp_path / "status.json"
        if overrides:
            status.update(overrides)
            path.write_text(json.dumps(status))
        return path, status

    def test_directory_status_path(self, tmp_path):
        path, _ = self.make_status(tmp_path)
        assert path.exists()
        assert read_status(tmp_path)["phase"] == "contract"

    def test_read_status_rejects_junk(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ReproError, match="cannot read"):
            read_status(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ReproError, match="not valid JSON"):
            read_status(bad)
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ReproError, match="not a repro-status"):
            read_status(other)

    def test_render_contains_key_fields(self, tmp_path):
        _, status = self.make_status(tmp_path)
        view = render_status(status, now_unix=status["updated_unix"])
        assert "contract (level 3)" in view
        assert "3 level(s) done, 1234 communities" in view
        assert "graph=toy" in view
        assert "samples" in view

    def test_stale_heartbeat_flagged(self, tmp_path):
        _, status = self.make_status(tmp_path)
        status["state"] = "running"
        view = render_status(
            status, now_unix=status["updated_unix"] + 600.0
        )
        assert "STALE" in view

    def test_fresh_running_not_stale(self, tmp_path):
        _, status = self.make_status(tmp_path)
        status["state"] = "running"
        view = render_status(status, now_unix=status["updated_unix"])
        assert "STALE" not in view
        assert "[RUNNING]" in view

    def test_watch_once_renders_fixture(self, tmp_path, capsys):
        from repro.cli import main

        path, _ = self.make_status(tmp_path)
        assert main(["watch", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro run" in out
        assert "contract (level 3)" in out

    def test_watch_once_accepts_directory(self, tmp_path, capsys):
        from repro.cli import main

        self.make_status(tmp_path)
        assert main(["watch", str(tmp_path), "--once"]) == 0
        assert "repro run" in capsys.readouterr().out

    def test_watch_once_missing_status_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["watch", str(tmp_path / "gone"), "--once"]) == 2
        assert "error:" in capsys.readouterr().err


# --------------------------------------------------- engine integration
class TestEngineIntegration:
    def test_run_publishes_phases_and_samples(self, karate, tmp_path):
        tracer = Tracer()
        sampler = TelemetrySampler(
            tracer, interval_s=0.005, status_path=tmp_path / "status.json"
        )
        with sampler:
            result = detect_communities(
                karate, tracer=tracer, telemetry=sampler
            )
        assert result.n_levels >= 1
        # the engine published terminal state before the final snapshot
        status = read_status(tmp_path / "status.json")
        assert status["phase"] == "done"
        assert status["state"] == "stopped"
        assert status["levels_done"] == result.n_levels
        assert sampler.n_samples >= 1
        names = {s.name for s in tracer.counter_samples}
        assert "gc_collections" in names

    def test_samples_round_trip_through_trace(self, karate, tmp_path):
        tracer = Tracer()
        sampler = TelemetrySampler(tracer, interval_s=0.005)
        with sampler:
            detect_communities(karate, tracer=tracer, telemetry=sampler)
        path = tmp_path / "t.jsonl"
        write_trace(tracer, path)
        data = read_trace(path)
        assert len(data.samples) == len(tracer.counter_samples) > 0
        gc_series = data.sample_series("gc_collections")
        assert gc_series
        assert [s.ts_ns for s in gc_series] == sorted(
            s.ts_ns for s in gc_series
        )

    def test_perfetto_counter_tracks(self, karate):
        tracer = Tracer()
        sampler = TelemetrySampler(tracer, interval_s=0.005)
        with sampler:
            detect_communities(karate, tracer=tracer, telemetry=sampler)
        doc = to_chrome_trace(
            list(tracer.spans), samples=list(tracer.counter_samples)
        )
        counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
        assert counters
        assert any("gc_collections" in e["name"] for e in counters)
        assert all(e["cat"] == "telemetry" for e in counters)
        assert all(e["ts"] >= 0 for e in counters)
        assert all("value" in e["args"] for e in counters)


# ---------------------------------------------------- ramp is display-only
@pytest.mark.guardian
class TestRampNeverBreaches:
    def test_steep_ramp_under_budget_completes_unchanged(self):
        # A +2000 MiB/s synthetic ramp in the sampler's ring while actual
        # RSS sits far below the budget: the guardian checks the budget
        # alone, so the run completes with the unguarded run's labels.
        from repro.generators import planted_partition_graph
        from repro.resilience.guardian import _rss_mb

        graph = planted_partition_graph(400, seed=3)
        baseline = detect_communities(graph)
        rss = _rss_mb()
        if rss is None:  # pragma: no cover - no probe on this platform
            pytest.skip("no RSS probe on this platform")
        sampler = TelemetrySampler(Tracer(), interval_s=0.1)
        sampler.ring.append((0, rss))
        sampler.ring.append((10**9, rss + 2000.0))
        assert sampler.ramp_mb_s() == pytest.approx(2000.0)
        guardian = RunGuardian("sample", memory_budget_mb=rss + 10_000.0)
        result = detect_communities(
            graph, guardian=guardian, telemetry=sampler
        )
        assert result.recovery.guardian_breaches == 0
        assert result.recovery.ladder == []
        assert (
            result.partition.labels == baseline.partition.labels
        ).all()


# -------------------------------------------------------------- memprof
class TestMemprof:
    def test_phases_record_net_and_peak(self):
        prof = PhaseMemoryProfiler(top_sites=3)
        with prof:
            with prof.phase("score", 0):
                keep = [bytearray(256 * 1024) for _ in range(8)]
            with prof.phase("score", 1):
                del keep
        report = prof.report()
        assert report["tool"] == "tracemalloc"
        score = report["phases"]["score"]
        assert score["calls"] == 2
        assert score["peak_bytes"] > 0
        assert isinstance(score["top_sites"], list)
        for site in score["top_sites"]:
            assert ":" in site["site"]

    def test_top_sites_zero_disables_snapshots(self):
        prof = PhaseMemoryProfiler(top_sites=0)
        with prof:
            with prof.phase("match"):
                _ = bytearray(64 * 1024)
        report = prof.report()
        assert report["phases"]["match"]["top_sites"] == []

    def test_stop_returns_report_and_releases_tracemalloc(self):
        import tracemalloc

        assert not tracemalloc.is_tracing()
        prof = PhaseMemoryProfiler().start()
        assert tracemalloc.is_tracing()
        report = prof.stop()
        assert not tracemalloc.is_tracing()
        assert report["tool"] == "tracemalloc"

    def test_respects_foreign_tracing(self):
        import tracemalloc

        tracemalloc.start()
        try:
            prof = PhaseMemoryProfiler().start()
            prof.stop()
            assert tracemalloc.is_tracing()  # not ours to stop
        finally:
            tracemalloc.stop()

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="top_sites"):
            PhaseMemoryProfiler(top_sites=-1)
        with pytest.raises(ValueError, match="frames"):
            PhaseMemoryProfiler(frames=0)

    def test_null_profiler_shares_probe(self):
        null = NullMemoryProfiler()
        assert null.phase("a") is null.phase("b")
        assert null.stop() == {}

    def test_engine_attribution_flow(self, karate):
        from repro.obs.attribution import attribute_run

        tracer = Tracer()
        prof = PhaseMemoryProfiler(top_sites=2)
        with prof:
            detect_communities(karate, tracer=tracer, memprof=prof)
        report = prof.report()
        assert {"score", "match", "contract"} <= set(report["phases"])
        attr = attribute_run(list(tracer.spans), memory=report)
        assert attr["memory"] is report
        # memory=None keeps the block out entirely
        assert "memory" not in attribute_run(list(tracer.spans))


# --------------------------------------------------- ledger trend feed
class TestDatedLedgers:
    def make_ledger(self, tmp_path, name="smoke"):
        from repro.bench.ledger import Repetition, RunRecord, write_ledger

        record = RunRecord(
            name=name,
            created_unix=1.0,
            repetitions=[
                Repetition(
                    total_s=0.5,
                    telemetry={"n_samples": 3, "peak_rss_mb": 10.0},
                )
            ],
        )
        return write_ledger(record, tmp_path / f"BENCH_{name}.json")

    def test_repetition_telemetry_round_trips(self, tmp_path):
        from repro.bench.ledger import read_ledger

        path = self.make_ledger(tmp_path)
        rep = read_ledger(path).repetitions[0]
        assert rep.telemetry == {"n_samples": 3, "peak_rss_mb": 10.0}

    def test_append_and_prune(self, tmp_path):
        from repro.bench.smoke import append_dated_ledger

        src = self.make_ledger(tmp_path)
        feed = tmp_path / "ledgers"
        for day in ("2026-01-01", "2026-01-02", "2026-01-03"):
            append_dated_ledger(src, feed, keep=2, date=day)
        names = sorted(p.name for p in feed.glob("*.json"))
        assert names == [
            "BENCH_smoke-2026-01-02.json",
            "BENCH_smoke-2026-01-03.json",
        ]

    def test_same_day_overwrites(self, tmp_path):
        from repro.bench.smoke import append_dated_ledger

        src = self.make_ledger(tmp_path)
        feed = tmp_path / "ledgers"
        a = append_dated_ledger(src, feed, date="2026-02-02")
        b = append_dated_ledger(src, feed, date="2026-02-02")
        assert a == b
        assert len(list(feed.glob("*.json"))) == 1

    def test_keep_validation(self, tmp_path):
        from repro.bench.smoke import append_dated_ledger

        src = self.make_ledger(tmp_path)
        with pytest.raises(ValueError, match="keep"):
            append_dated_ledger(src, tmp_path / "feed", keep=0)
