"""repro.obs distributed telemetry plane: snapshot/merge, flight
recorder, epoch timeline.

Two invariants anchor everything here:

* **digest neutrality** — enabling observability on a sharded run must
  not move the run digest (obs-on K-shard mp == the committed obs-off
  baseline, byte for byte);
* **merge determinism** — the merged telemetry digest is identical
  across backends (`inline`/`mp`) and worker counts, because counters
  sum K-invariantly, gauges are node-local, and the shard-plane
  families are excluded from the digest by prefix.
"""

import json
import os
import pickle

import pytest

from repro.obs import (DIGEST_EXCLUDED_PREFIXES, FlightRecorder, MergedObs,
                       ObsSnapshot, SHARD_ID_STRIDE, make_epoch_record,
                       merge_snapshots, render_flight, render_timeline,
                       timeline_summary)
from repro.obs.exporters import (_escape_label_value, load_jsonl,
                                 to_prometheus_text)
from repro.obs.registry import MetricError
from repro.perf.harness import load_results, run_scenario
from repro.perf.scenarios import SCENARIOS
from repro.shard import (ShardWorkload, run_sharded, run_single,
                         shard_fabric_factory)
from repro.substrates.phys.topology import grid_topology
from repro.substrates.sim import Simulator


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _worker_obs(shard, gauge_value=1.0):
    """A live facade standing in for one worker replica's obs state."""
    sim = Simulator(seed=1)
    obs = sim.obs.enable()
    obs.tracer.rebase_ids(shard * SHARD_ID_STRIDE)
    obs.shard = shard
    obs.fabric_packets.inc(event="send", reason="")
    obs.session_latency.observe(0.1 * (shard + 1))
    obs.feedback_level.set(gauge_value, dimension="d", key="k", metric="m")
    return obs


def _small_merged():
    """A MergedObs carrying every record type, built without a run."""
    sim = Simulator(seed=3)
    obs = sim.obs.enable(profiling=True)
    obs.flight(capacity=8)
    root = obs.tracer.start_trace("unit", "n0", 0.0)
    obs.tracer.event("hop:n0->n1", root.context, "n1", 0.1)
    obs.fabric_packets.inc(event="send", reason="")
    obs.session_latency.observe(0.2)
    for i in range(5):
        sim.call_in(0.1 * (i + 1), lambda: None, name="tick")
    sim.run(until=1.0)
    snapshot = pickle.loads(pickle.dumps(obs.snapshot(shard=0)))
    merged = merge_snapshots([snapshot])
    merged.add_epochs([make_epoch_record(0, 0.0, 0.5, 3, [3], [0.01], 0.002),
                       make_epoch_record(1, 0.5, 1.0, 1, [2], [0.02], 0.001)])
    merged.add_shard_stats([0.03], 0.003)
    return merged


class LossyArqWorkload(ShardWorkload):
    """Reliable transport over a lossy cut: retransmitted data shuttles
    and their acks cross the shard boundary, so their causal traces
    must re-link across the stride-namespaced id spaces."""

    def __init__(self, seed=42, scale="tiny", sends=12, loss=0.12):
        super().__init__(seed, scale)
        self.sends = sends
        self.loss = loss

    def topology(self):
        return grid_topology(1, 4, latency=0.02)

    def horizon(self):
        return round(0.1 * (self.sends + 4) + 6.0, 9)

    def build(self, owned=None):
        from repro.core.wandering_network import (WanderingNetwork,
                                                  WanderingNetworkConfig)
        config = WanderingNetworkConfig(
            seed=self.seed, router="static", loss_rate=self.loss,
            resonance_enabled=False, horizontal_wandering=False,
            vertical_wandering=False, audits_enabled=False,
            pulse_interval=1e9, publish_interval=1e9)
        wn = WanderingNetwork(self.topology(), config,
                              fabric_factory=shard_fabric_factory(owned))
        from repro.resilience.arq import ReliableTransport
        transport = ReliableTransport(wn.sim, wn.ships, base_timeout=0.5,
                                      max_timeout=2.0, max_attempts=6,
                                      jitter=0.0)
        return {"wn": wn, "sim": wn.sim, "fabric": wn.fabric,
                "transport": transport}

    def setup(self, ctx, owned):
        from repro.core.shuttle import OP_ACQUIRE_ROLE, Directive, Shuttle
        wn, sim, transport = ctx["wn"], ctx["sim"], ctx["transport"]
        nodes = sorted(wn.ships, key=repr)
        src, dst = nodes[0], nodes[-1]
        if owned is not None and src not in owned:
            return
        count = [0]

        def send_one():
            if count[0] >= self.sends:
                task.stop()
                return
            shuttle = Shuttle(src, dst,
                              directives=[Directive(OP_ACQUIRE_ROLE,
                                                    role_id="fn.caching")],
                              credential=wn.credential,
                              interface=wn.ships[src].interface)
            transport.send(src, shuttle)
            count[0] += 1

        task = sim.every(0.1, send_one)

    def collect(self, ctx, owned):
        t = ctx["transport"]
        return {"sent": t.sent, "delivered": t.delivered,
                "retries": t.retries, "acks_received": t.acks_received,
                "dlq": len(t.dlq),
                "events_executed": ctx["sim"].events_executed}

    def finalize(self, totals):
        return dict(totals), {"events": totals["events_executed"],
                              "shuttles": totals["delivered"]}


# ----------------------------------------------------------------------
# merged-digest invariance across backends and K
# ----------------------------------------------------------------------

class TestMergedDigestInvariance:
    """One merged telemetry digest per (scenario, seed, scale) — no
    matter how many workers produced it, on which backend."""

    @pytest.fixture(scope="class")
    def matrix(self):
        cls = SCENARIOS["shard-scaling"]
        base_counters, _ = run_single(cls(42, "tiny"))
        runs = {}
        for backend in ("inline", "mp"):
            for k in (1, 2, 4):
                counters, _, stats = run_sharded(cls(42, "tiny"), k,
                                                 backend=backend, obs=True)
                runs[(backend, k)] = (counters, stats)
        return base_counters, runs

    def test_counters_match_obs_off_single(self, matrix):
        base_counters, runs = matrix
        for key, (counters, _) in runs.items():
            assert counters == base_counters, key

    def test_merged_digest_identical_everywhere(self, matrix):
        _, runs = matrix
        digests = {key: stats["obs"].metrics_digest()
                   for key, (_, stats) in runs.items()}
        assert len(set(digests.values())) == 1, digests

    def test_merged_meta_reflects_k(self, matrix):
        _, runs = matrix
        for (backend, k), (_, stats) in runs.items():
            merged = stats["obs"]
            assert isinstance(merged, MergedObs)
            expected_k = stats["k"] if stats["mode"] == "sharded" else 1
            assert merged.meta["k"] == expected_k
            assert merged.meta["shards"] == list(range(expected_k))

    def test_epoch_records_track_barriers(self, matrix):
        _, runs = matrix
        for (backend, k), (_, stats) in runs.items():
            merged = stats["obs"]
            if stats["mode"] != "sharded":
                assert merged.epoch_records == []
                continue
            assert len(merged.epoch_records) == stats["barriers"]
            summary = merged.timeline_summary()
            assert summary["epochs"] == stats["barriers"]
            assert summary["shards"] == stats["k"]
            assert summary["handoffs"] == stats["handoffs"]

    def test_spans_rebased_per_shard(self, matrix):
        _, runs = matrix
        _, stats = runs[("inline", 4)]
        spans = stats["obs"].span_records
        assert spans
        shards_seen = {s["span"] // SHARD_ID_STRIDE for s in spans}
        assert len(shards_seen) > 1

    def test_excluded_prefixes_present_but_not_digested(self, matrix):
        _, runs = matrix
        _, stats = runs[("mp", 2)]
        merged = stats["obs"]
        names = {r["name"] for r in merged.registry.collect()}
        assert "repro_shard_events_executed" in names
        assert "repro_shard_worker_cpu_seconds" in names
        assert "repro_shard_barrier_stall_seconds" in names
        digested = [r["name"] for r in merged.registry.collect()
                    if not r["name"].startswith(DIGEST_EXCLUDED_PREFIXES)]
        assert not any(n.startswith("repro_shard_") for n in digested)


class TestObsDigestNeutrality:
    """Obs-on K-shard mp run digest == the committed obs-off baseline."""

    @pytest.fixture(scope="class")
    def repo_baseline(self):
        path = os.path.join(os.path.dirname(__file__), "..",
                            "BENCH_baseline.json")
        return {entry["scenario"]: entry
                for entry in load_results(path)}

    def test_obs_on_mp_matches_committed_digest(self, repo_baseline):
        entry = repo_baseline["shard-scaling"]
        result = run_scenario("shard-scaling", seed=entry["seed"],
                              scale=entry["scale"], repeats=1,
                              workers=2, backend="mp", obs=True)
        assert result.digest == entry["digest"]
        assert result.obs is not None
        assert result.obs.meta["k"] == 2

    def test_merged_obs_stays_out_of_bench_json(self, repo_baseline):
        result = run_scenario("shard-scaling", seed=42, scale="tiny",
                              repeats=1, workers=2, backend="inline",
                              obs=True)
        payload = result.to_dict()
        assert "obs" not in payload
        assert "obs" not in result.shard_stats
        json.dumps(payload, sort_keys=True)   # serialisable end to end

    def test_obs_on_single_replica_scenario_keeps_digest(self):
        plain = run_scenario("event-loop", seed=42, scale="tiny")
        observed = run_scenario("event-loop", seed=42, scale="tiny",
                                obs=True)
        assert observed.digest == plain.digest
        assert observed.obs is not None
        assert observed.obs.meta["k"] == 1


# ----------------------------------------------------------------------
# cross-shard span re-linking (ARQ retransmission path)
# ----------------------------------------------------------------------

class TestCrossShardSpans:
    @pytest.fixture(scope="class")
    def lossy_run(self):
        return run_sharded(LossyArqWorkload(), 2, backend="inline",
                           obs=True)

    def test_retransmissions_actually_happened(self, lossy_run):
        counters, _, stats = lossy_run
        assert stats["mode"] == "sharded"
        assert counters["retries"] > 0
        assert counters["delivered"] == counters["sent"] == 12
        assert counters["dlq"] == 0

    def test_spans_relink_across_the_boundary(self, lossy_run):
        _, _, stats = lossy_run
        spans = stats["obs"].span_records
        cross = [s for s in spans if s.get("parent") is not None
                 and s["parent"] // SHARD_ID_STRIDE
                 != s["span"] // SHARD_ID_STRIDE]
        assert cross, "no span crossed the shard boundary"
        # Re-linked: every cross-boundary parent was recorded by the
        # *other* shard and is present in the merged span set.
        ids = {s["span"] for s in spans}
        assert all(s["parent"] in ids for s in cross)
        assert any(s["name"].startswith("hop:") for s in cross)

    def test_rebase_rejects_recorded_tracer(self):
        sim = Simulator(seed=1)
        obs = sim.obs.enable()
        obs.tracer.start_trace("early", "n", 0.0)
        with pytest.raises(RuntimeError, match="before any span"):
            obs.tracer.rebase_ids(SHARD_ID_STRIDE)


# ----------------------------------------------------------------------
# merge rules
# ----------------------------------------------------------------------

class TestMergeRules:
    def test_counters_sum_histograms_sum(self):
        merged = merge_snapshots([_worker_obs(0).snapshot(),
                                  _worker_obs(1).snapshot()])
        by_name = {}
        for rec in merged.registry.collect():
            by_name.setdefault(rec["name"], []).append(rec)
        sends = [r for r in by_name["repro_fabric_packets_total"]
                 if r["labels"]["event"] == "send"]
        assert sends[0]["value"] == 2.0
        lat = by_name["repro_session_latency_seconds"][0]
        assert lat["count"] == 2
        assert lat["sum"] == pytest.approx(0.3)

    def test_gauge_lowest_shard_wins_any_arrival_order(self):
        snap0 = _worker_obs(0, gauge_value=10.0).snapshot()
        snap1 = _worker_obs(1, gauge_value=99.0).snapshot()
        for order in ([snap0, snap1], [snap1, snap0]):
            merged = merge_snapshots(order)
            gauges = [r for r in merged.registry.collect()
                      if r["name"] == "repro_feedback_level"]
            assert gauges[0]["value"] == 10.0

    def test_duplicate_shards_rejected(self):
        with pytest.raises(MetricError, match="duplicate shard"):
            merge_snapshots([_worker_obs(0).snapshot(),
                             _worker_obs(0).snapshot()])

    def test_empty_merge_rejected(self):
        with pytest.raises(MetricError, match="at least one"):
            merge_snapshots([])

    def test_snapshot_requires_enabled_facade(self):
        sim = Simulator(seed=1)
        with pytest.raises(MetricError, match="never-enabled"):
            ObsSnapshot.capture(sim.obs)

    def test_snapshot_pickles(self):
        snap = _worker_obs(2).snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.shard == 2
        assert clone.families == snap.families
        assert clone.meta == snap.meta


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------

class TestFlightRecorder:
    def test_capacity_and_eviction(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.note("event", float(i), f"e{i}")
        assert len(recorder) == 4
        assert recorder.recorded == 10
        assert recorder.evicted == 6
        records = list(recorder.to_records())
        assert [r["seq"] for r in records] == [6, 7, 8, 9]   # oldest first
        assert all(r["type"] == "flight" for r in records)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            FlightRecorder(capacity=0)

    def test_shard_tagging(self):
        recorder = FlightRecorder(capacity=2)
        recorder.note("barrier", 1.0, "epoch#1")
        records = list(recorder.to_records(shard=3))
        assert records[0]["shard"] == 3
        assert "shard" not in next(recorder.to_records())

    def test_kernel_hook_records_executed_events(self):
        sim = Simulator(seed=1)
        recorder = sim.obs.flight(capacity=16)
        assert sim._flight is recorder
        for i in range(3):
            sim.call_in(0.1 * (i + 1), lambda: None, name="tick")
        sim.run(until=1.0)
        kinds = [e["kind"] for e in recorder.entries]
        whats = [e["what"] for e in recorder.entries]
        assert kinds and set(kinds) == {"event"}
        assert "tick" in whats

    def test_rearm_same_capacity_keeps_ring(self):
        sim = Simulator(seed=1)
        recorder = sim.obs.flight(capacity=8)
        recorder.note("event", 0.0, "x")
        assert sim.obs.flight(capacity=8) is recorder
        assert sim.obs.flight(capacity=16) is not recorder
        sim.obs.disable()
        assert sim._flight is None

    def test_render_flight(self):
        recorder = FlightRecorder(capacity=8)
        recorder.note("delivery", 0.25, "a->b", link="a~b", packet=7)
        text = render_flight(list(recorder.to_records(shard=1)), last=5)
        assert "1 entrie(s)" in text
        assert "a->b" in text and "[shard 1]" in text
        assert "link=a~b" in text
        assert "empty" in render_flight([])


class TestChaosBlackBox:
    def test_smoke_campaign_carries_flight_and_digest_neutral(self):
        from repro.resilience.chaos import run_campaign
        with_obs = run_campaign("smoke", seed=7)
        without = run_campaign("smoke", seed=7, observability=False)
        assert with_obs.ok
        assert with_obs.flight            # harness armed the recorder
        assert not without.flight
        # The black box never feeds the digest.
        assert with_obs.digest == without.digest
        assert with_obs.to_dict()["flight_entries"] == len(with_obs.flight)
        assert "black box" not in with_obs.summary()   # only on failure

    def test_failing_result_ships_its_black_box(self):
        from repro.resilience.chaos import CampaignResult
        recorder = FlightRecorder(capacity=4)
        recorder.note("drop", 1.5, "a->b", reason="loss")
        counts = {"sent": 1, "delivered": 0, "retries": 0, "dlq": 1,
                  "delivery_ratio": 0.0, "dlq_reasons": {},
                  "duplicates": 0, "double_applied": 0,
                  "breaker_transitions": 0, "heals": 0,
                  "false_suspicions": 0}
        failing = CampaignResult(
            "unit", 0, True, counts,
            [{"name": "delivery", "ok": False, "detail": "lost"}],
            flight=list(recorder.to_records()))
        assert not failing.ok
        assert "black box (flight recorder):" in failing.summary()
        assert "a->b" in failing.summary()
        bare = CampaignResult("unit", 0, True, counts,
                              [{"name": "delivery", "ok": False,
                                "detail": "lost"}])
        assert bare.digest == failing.digest


# ----------------------------------------------------------------------
# epoch timeline
# ----------------------------------------------------------------------

class TestEpochTimeline:
    def test_record_shape(self):
        rec = make_epoch_record(3, 0.1, 0.2, 5, [10, 12], [0.001, 0.002],
                                stall_s=0.0005)
        assert rec == {"type": "epoch", "epoch": 3, "t0": 0.1, "t1": 0.2,
                       "handoffs": 5, "events": [10, 12],
                       "cpu_s": [0.001, 0.002], "stall_s": 0.0005}

    def test_render_empty(self):
        assert "no epoch records" in render_timeline([])
        assert timeline_summary([]) is None

    def test_render_lanes_and_critical_path(self):
        records = [make_epoch_record(i, i * 0.5, (i + 1) * 0.5, i % 3,
                                     [100 + i, 10], [0.02 + i * 0.01, 0.001],
                                     stall_s=0.001)
                   for i in range(8)]
        text = render_timeline(records, width=20)
        assert "8 epoch(s)" in text
        assert "shard 0" in text and "shard 1" in text
        assert "stall" in text and "handoffs" in text
        assert "critical path: shard 0" in text
        summary = timeline_summary(records)
        assert summary["epochs"] == 8
        assert summary["shards"] == 2
        assert summary["events"][0] == sum(100 + i for i in range(8))

    def test_events_fallback_when_cpu_missing(self):
        records = [make_epoch_record(0, 0.0, 1.0, 2, [7, 3], [0.0, 0.0])]
        text = render_timeline(records)
        assert "events=7" in text
        assert "of events" in text

    def test_bucketization_bounds_width(self):
        records = [make_epoch_record(i, i * 0.1, (i + 1) * 0.1, 1,
                                     [1], [0.0]) for i in range(500)]
        text = render_timeline(records, width=40)
        lane = next(line for line in text.splitlines()
                    if line.startswith("shard 0"))
        assert len(lane[lane.index("|") + 1:lane.rindex("|")]) <= 40


# ----------------------------------------------------------------------
# exporters: JSONL round-trip, Prometheus escaping, self-metrics
# ----------------------------------------------------------------------

class TestJsonlRoundTrip:
    def test_every_record_type_survives(self, tmp_path):
        merged = _small_merged()
        path = str(tmp_path / "merged.jsonl")
        n = merged.export_jsonl(path)
        records = load_jsonl(path)
        assert len(records) == n
        types = {r["type"] for r in records}
        assert {"meta", "metric", "span", "kernel", "profile",
                "epoch", "flight"} <= types
        meta = records[0]
        assert meta["type"] == "meta" and meta["merged"] is True
        assert meta["shards"] == [0]
        flights = [r for r in records if r["type"] == "flight"]
        assert flights and all(r["shard"] == 0 for r in flights)
        epochs = [r for r in records if r["type"] == "epoch"]
        assert [e["epoch"] for e in epochs] == [0, 1]

    def test_report_renders_merged_sections(self):
        merged = _small_merged()
        text = merged.summary_text()
        assert "merged view of 1 shard(s)" in text
        assert "epoch timeline" in text
        assert "flight recorder" in text

    def test_sharded_artifact_round_trips_via_cli_paths(self, tmp_path):
        _, _, stats = run_sharded(
            SCENARIOS["shard-scaling"](42, "tiny"), 2,
            backend="inline", obs=True)
        merged = stats["obs"]
        path = str(tmp_path / "sharded.jsonl")
        merged.export_jsonl(path)
        records = load_jsonl(path)
        types = {r["type"] for r in records}
        assert {"meta", "metric", "span", "epoch"} <= types
        assert render_timeline(records).startswith("epoch timeline")


class TestPrometheusExport:
    def test_label_value_escaping(self):
        assert _escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
        obs = _worker_obs(0)
        obs.node_packets.inc(node='we"ird\\path\nx', event="forwarded")
        text = obs.export_prometheus()
        assert 'node="we\\"ird\\\\path\\nx"' in text

    def test_histogram_le_edges_use_percent_g(self):
        obs = _worker_obs(0)
        obs.registry.histogram(
            "unit_edges", "h", dimension="per-session", labels=(),
            buckets=(0.5, 64.0, 1e6)).observe(1.0)
        text = to_prometheus_text(obs.registry)
        assert 'le="64"' in text
        assert 'le="64.0"' not in text
        assert 'le="1e+06"' in text
        assert 'le="+Inf"' in text

    def test_self_metrics_exported(self):
        obs = _worker_obs(0)
        text = obs.export_prometheus()
        assert "# TYPE repro_obs_dropped_series_total counter" in text
        assert "repro_obs_dropped_series_total 0" in text
        assert "repro_obs_trace_subscriber_errors_total 0" in text
        names = {r["name"] for r in obs.records() if r["type"] == "metric"}
        assert "repro_obs_dropped_series_total" in names
        assert "repro_obs_trace_subscriber_errors_total" in names

    def test_merged_self_metrics_sum_across_shards(self):
        merged = merge_snapshots([_worker_obs(0).snapshot(),
                                  _worker_obs(1).snapshot()])
        text = merged.export_prometheus()
        assert "repro_obs_dropped_series_total 0" in text
        records = [r for r in merged.records()
                   if r.get("name") == "repro_obs_dropped_series_total"]
        assert records[0]["value"] == 0.0

    def test_self_metrics_never_move_the_digest(self):
        obs = _worker_obs(0)
        before = obs.metrics_digest()
        # Self-metrics are synthesised at export time, outside the
        # registry: exporting must not perturb the digest.
        obs.export_prometheus()
        list(obs.records())
        assert obs.metrics_digest() == before


# ----------------------------------------------------------------------
# CLI: repro obs report/timeline/flight, bench --obs-out
# ----------------------------------------------------------------------

class TestCliObs:
    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("obs") / "run.jsonl")
        _small_merged().export_jsonl(path)
        return path

    def test_obs_report(self, artifact, capsys):
        from repro.cli import main
        assert main(["obs", "report", artifact]) == 0
        out = capsys.readouterr().out
        assert "merged view" in out

    def test_obs_timeline(self, artifact, capsys):
        from repro.cli import main
        assert main(["obs", "timeline", artifact, "--width", "30"]) == 0
        assert "epoch timeline" in capsys.readouterr().out

    def test_obs_flight(self, artifact, capsys):
        from repro.cli import main
        assert main(["obs", "flight", artifact, "--last", "4"]) == 0
        assert "flight recorder" in capsys.readouterr().out

    def test_obs_missing_file_fails(self, capsys):
        from repro.cli import main
        assert main(["obs", "report", "/nonexistent/run.jsonl"]) == 1

    def test_bench_obs_out_requires_one_scenario(self, tmp_path, capsys):
        from repro.cli import main
        out = str(tmp_path / "o.jsonl")
        assert main(["bench", "--scale", "tiny", "--obs-out", out]) == 2

    def test_bench_obs_out_on_single_replica_scenario(self, tmp_path,
                                                      capsys):
        from repro.cli import main
        out = str(tmp_path / "o.jsonl")
        bench_dir = str(tmp_path / "bench")
        assert main(["bench", "event-loop", "--scale", "tiny",
                     "--repeats", "1", "--obs-out", out,
                     "--out", bench_dir]) == 0
        assert load_jsonl(out)[0]["type"] == "meta"
        entry = load_results(bench_dir + "/BENCH_event_loop.json")[0]
        plain = run_scenario("event-loop", seed=42, scale="tiny")
        assert entry["digest"] == plain.digest

    def test_bench_obs_out_writes_artifact(self, tmp_path, capsys):
        from repro.cli import main
        import glob
        out = str(tmp_path / "o.jsonl")
        bench_dir = str(tmp_path / "bench")
        assert main(["bench", "shard-scaling", "--scale", "tiny",
                     "--workers", "2", "--obs-out", out,
                     "--out", bench_dir]) == 0
        stdout = capsys.readouterr().out
        assert "telemetry digest" in stdout
        records = load_jsonl(out)
        assert records[0]["type"] == "meta" and records[0]["merged"]
        # The BENCH file next to it carries no telemetry objects.
        entry = load_results(
            sorted(glob.glob(bench_dir + "/BENCH_*.json"))[0])[0]
        assert "obs" not in entry
