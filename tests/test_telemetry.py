"""Live-telemetry suite: sampler, status heartbeat, watch, memprof,
and the guardian's indifference to the sampler's RSS ramp estimate.

Covers the five contracts the live tier makes:

* **Zero overhead off.**  A run without a sampler adds no thread, no
  counter samples, and no new record kinds to the trace — the JSONL
  byte-output carries exactly the record kinds it carried before the
  live tier existed.
* **Status comes from spans.**  The sampler and the memory profiler
  listen to their tracer's spans; the phase, progress and guardian
  state the heartbeat reports equal what the run's spans and result
  say at every phase, at the end of a run, after an abort and after a
  resume.
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

from repro.core import TerminationCriteria, detect_communities
from repro.errors import GuardianBreach, ReproError, RunAbortedError
from repro.generators import planted_partition_graph
from repro.obs import NULL_TRACER, NullTracer, Tracer, read_trace, write_trace
from repro.obs.memprof import PhaseMemoryProfiler
from repro.obs.perfetto import to_chrome_trace
from repro.obs.telemetry import (
    PHASE_IDS,
    TelemetrySampler,
    read_status,
    render_status,
)
from repro.resilience import FaultPlan
from repro.resilience.guardian import RunGuardian

PHASES = ("score", "match", "contract")


# ----------------------------------------------------------- null path
class TestNullPath:
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
            TelemetrySampler(Tracer(), interval_s=0.0)
        with pytest.raises(ValueError, match="ring_size"):
            TelemetrySampler(Tracer(), ring_size=1)

    def test_sample_once_records_expected_series(self):
        tracer = Tracer()
        sampler = TelemetrySampler(tracer, interval_s=0.01)
        with tracer.span("match", level=2):
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

    def test_null_tracer_is_refused(self, tmp_path):
        # A sampler on no tracer would see no phases at all.
        for tracer in (None, NullTracer(), NULL_TRACER):
            with pytest.raises(TypeError, match="needs a Tracer"):
                TelemetrySampler(tracer, status_path=tmp_path / "status.json")
        assert not (tmp_path / "status.json").exists()

    def test_subscribes_to_its_tracer(self):
        tracer = Tracer()
        sampler = TelemetrySampler(tracer)
        assert tracer.listeners == [sampler]


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
        tracer = Tracer()
        sampler = TelemetrySampler(
            tracer,
            interval_s=0.05,
            status_path=tmp_path,  # directory form
            meta={"graph": "toy"},
        )
        # Level 2 contracts to 1234 communities, then level 3 contracts.
        with tracer.span("level", level=2) as level:
            with tracer.span("contract", level=2) as sp:
                sp.set(n_vertices_after=1234)
            level.set(n_pairs=99)
        with tracer.span("level", level=3):
            with tracer.span("contract", level=3):
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
            result = detect_communities(karate, tracer=tracer)
        assert result.n_levels >= 1
        # the run span closed before the final snapshot
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
            detect_communities(karate, tracer=tracer)
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
            detect_communities(karate, tracer=tracer)
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
        tracer = Tracer()
        sampler = TelemetrySampler(tracer, interval_s=0.1)
        sampler.ring.append((0, rss))
        sampler.ring.append((10**9, rss + 2000.0))
        assert sampler.ramp_mb_s() == pytest.approx(2000.0)
        guardian = RunGuardian("sample", memory_budget_mb=rss + 10_000.0)
        result = detect_communities(graph, guardian=guardian, tracer=tracer)
        assert result.recovery.guardian_breaches == 0
        assert result.recovery.ladder == []
        assert (
            result.partition.labels == baseline.partition.labels
        ).all()


# -------------------------------------------------------------- memprof
class TestMemprof:
    def test_phases_record_net_and_peak(self):
        tracer = Tracer()
        prof = PhaseMemoryProfiler(tracer, top_sites=3)
        with prof:
            with tracer.span("score", level=0):
                keep = [bytearray(256 * 1024) for _ in range(8)]
            with tracer.span("score", level=1):
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
        tracer = Tracer()
        prof = PhaseMemoryProfiler(tracer, top_sites=0)
        with prof:
            with tracer.span("match"):
                _ = bytearray(64 * 1024)
        report = prof.report()
        assert report["phases"]["match"]["top_sites"] == []

    def test_stop_returns_report_and_releases_tracemalloc(self):
        import tracemalloc

        assert not tracemalloc.is_tracing()
        prof = PhaseMemoryProfiler(Tracer()).start()
        assert tracemalloc.is_tracing()
        report = prof.stop()
        assert not tracemalloc.is_tracing()
        assert report["tool"] == "tracemalloc"

    def test_respects_foreign_tracing(self):
        import tracemalloc

        tracemalloc.start()
        try:
            prof = PhaseMemoryProfiler(Tracer()).start()
            prof.stop()
            assert tracemalloc.is_tracing()  # not ours to stop
        finally:
            tracemalloc.stop()

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="top_sites"):
            PhaseMemoryProfiler(Tracer(), top_sites=-1)
        with pytest.raises(ValueError, match="frames"):
            PhaseMemoryProfiler(Tracer(), frames=0)
        with pytest.raises(TypeError, match="needs a Tracer"):
            PhaseMemoryProfiler(None)
        with pytest.raises(TypeError, match="needs a Tracer"):
            PhaseMemoryProfiler(NULL_TRACER)

    def test_other_spans_are_not_measured(self):
        tracer = Tracer()
        with PhaseMemoryProfiler(tracer) as prof:
            with tracer.span("level", level=0):
                with tracer.span("contract", level=0):
                    with tracer.span("contract_map"):
                        pass
            with tracer.span("checkpoint_write"):
                pass
        assert set(prof.report()["phases"]) == {"contract"}
        assert prof.report()["phases"]["contract"]["calls"] == 1

    def test_calls_equal_phase_spans(self):
        # A guarded run at full audit strictness: every phase span is
        # measured once, whatever else runs inside it.
        graph = planted_partition_graph(400, seed=3)
        tracer = Tracer()
        with PhaseMemoryProfiler(tracer, top_sites=1) as prof:
            detect_communities(
                graph, tracer=tracer, guardian=RunGuardian("full")
            )
        phases = prof.report()["phases"]
        assert set(phases) == set(PHASES)
        for name in PHASES:
            assert phases[name]["calls"] == len(tracer.find(name)) > 0

    def test_engine_attribution_flow(self, karate):
        from repro.obs.attribution import attribute_run

        tracer = Tracer()
        prof = PhaseMemoryProfiler(tracer, top_sites=2)
        with prof:
            detect_communities(karate, tracer=tracer)
        report = prof.report()
        assert {"score", "match", "contract"} <= set(report["phases"])
        attr = attribute_run(list(tracer.spans), memory=report)
        assert attr["memory"] is report
        # memory=None keeps the block out entirely
        assert "memory" not in attribute_run(list(tracer.spans))


# ---------------------------------------------------- status from spans
class _SampleAtPhaseOpen:
    """A listener registered after the sampler: takes one status sample
    whenever a phase span opens, next to the span's own phase/level."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.seen = []

    def span_open(self, span):
        if span.name in PHASES:
            status = self.sampler.sample_once()
            self.seen.append(
                ((span.name, span.level), (status["phase"], status["level"]))
            )

    def span_close(self, span):
        pass


def _watched():
    tracer = Tracer()
    sampler = TelemetrySampler(tracer)
    probe = _SampleAtPhaseOpen(sampler)
    tracer.listeners.append(probe)
    return tracer, sampler, probe


class TestStatusFromSpans:
    @pytest.fixture(scope="class")
    def graph(self):
        return planted_partition_graph(600, seed=7)

    def test_phase_and_level_follow_the_spans(self, graph):
        tracer, sampler, probe = _watched()
        result = detect_communities(
            graph, tracer=tracer, guardian=RunGuardian("full")
        )
        assert len(probe.seen) == 3 * result.n_levels
        for span_side, status_side in probe.seen:
            assert status_side == span_side
        status = sampler.sample_once()
        assert status["phase"] == "done"
        assert status["level"] is None
        assert status["levels_done"] == result.n_levels
        assert status["n_communities"] == result.final_graph.n_vertices
        assert status["guardian"] == {"breaches": 0, "ladder": []}

    def test_progress_between_levels(self, graph):
        tracer, sampler, _ = _watched()
        progress = []

        class AtLevelOpen:
            def span_open(self, span):
                if span.name == "level":
                    status = sampler.sample_once()
                    progress.append(
                        (status["phase"], status["levels_done"],
                         status["n_communities"])
                    )

            def span_close(self, span):
                pass

        tracer.listeners.append(AtLevelOpen())
        result = detect_communities(graph, tracer=tracer)
        # Each level opens idle, after the levels before it; the count
        # of communities is the last contraction's.
        sizes = [s.n_vertices for s in result.levels]
        assert progress[0] == ("idle", 0, None)
        assert progress[1:] == [
            ("idle", k, sizes[k]) for k in range(1, len(progress))
        ]

    def test_local_maximum_level_is_not_counted(self):
        # The last level finds no positive score: its span closes
        # without n_pairs and the progress stays at the levels before.
        graph = planted_partition_graph(300, seed=2)
        tracer, sampler, _ = _watched()
        result = detect_communities(
            graph, tracer=tracer, termination=TerminationCriteria.local_maximum()
        )
        assert result.terminated_by == "local_maximum"
        assert len(tracer.find("level")) == result.n_levels + 1
        status = sampler.sample_once()
        assert status["levels_done"] == result.n_levels
        assert status["n_communities"] == result.final_graph.n_vertices
        assert status["phase"] == "done"

    @pytest.mark.guardian
    def test_abort_keeps_its_phase_and_the_guardian_state(self, graph):
        tracer, sampler, probe = _watched()
        faults = FaultPlan.stall_phase("score", range(10), delay_s=0.2)
        guardian = RunGuardian("sample", phase_deadline_s=0.05, faults=faults)
        with pytest.warns(GuardianBreach), pytest.raises(
            RunAbortedError
        ) as ei:
            detect_communities(graph, tracer=tracer, guardian=guardian)
        report = ei.value.report
        status = sampler.sample_once()
        assert status["phase"] == "score"
        assert status["level"] == 1
        assert status["levels_done"] == 1
        assert status["guardian"] == {
            "breaches": report.guardian_breaches,
            "ladder": report.ladder,
        }
        assert report.ladder == [
            "lower-audit(phase_deadline@level0)",
            "abort(phase_deadline@level1)",
        ]
        for span_side, status_side in probe.seen:
            assert status_side == span_side

    def test_resumed_run_ends_with_the_uninterrupted_progress(
        self, graph, tmp_path
    ):
        tracer, full_sampler, _ = _watched()
        full = detect_communities(graph, tracer=tracer)
        assert full.n_levels > 2
        detect_communities(
            graph,
            termination=TerminationCriteria(max_levels=2),
            checkpoint_dir=tmp_path,
        )
        tracer, sampler, probe = _watched()
        resumed = detect_communities(
            graph, tracer=tracer, checkpoint_dir=tmp_path, resume=True
        )
        assert resumed.recovery.resumed_from_level == 2
        assert probe.seen[0][0] == ("score", 2)
        status, full_status = sampler.sample_once(), full_sampler.sample_once()
        for key in ("phase", "level", "levels_done", "n_communities"):
            assert status[key] == full_status[key], key
        assert status["levels_done"] == full.n_levels


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
