"""The repro.perf plane: switches, harness, and every optimized path.

Three layers of protection:

* **digest equality** — every benchmark scenario produces byte-identical
  run digests with each optimization switch on vs. off (the central
  contract: optimizations change *when*, never *what*);
* **unit semantics** — CoW clones equal eager clones, the memoized
  admission gate still catches tampering, the digest caches invalidate
  on mutation, the fast kernel loop matches the reference loop;
* **harness plumbing** — BENCH files round-trip, the compare gate
  hard-fails on digest drift and thresholds throughput, the CLI wires
  it all up.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core import (Directive, Jet, OP_ACQUIRE_ROLE, OP_SET_NEXT_STEP,
                        Shuttle)
from repro.core.knowledge import Fact, KnowledgeBase
from repro.core.ployon import Ployon
from repro.perf import (SCENARIOS, ablate, compare, load_results,
                        run_scenario, write_results)
from repro.perf.digest import canonical_digest, round_floats, run_digest
from repro.perf.switches import (DEFAULTS, all_disabled, configured,
                                 switches)
from repro.resilience import ReliableTransport
from repro.staticcheck import AdmissionVerifier
from repro.substrates.phys import Datagram, line_topology, NetworkFabric
from repro.substrates.sim import Event, Simulator

SEED = 42
SCALE = "tiny"


# ----------------------------------------------------------------------
# switches
# ----------------------------------------------------------------------

class TestSwitches:
    def test_defaults_all_on(self):
        assert all(DEFAULTS.values())
        for name in DEFAULTS:
            assert getattr(switches, name) is True

    def test_configured_restores_on_exit(self):
        with configured(cow_clone=False):
            assert switches.cow_clone is False
            assert switches.kernel_fast_loop is True
        assert switches.cow_clone is True

    def test_configured_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with configured(admission_memo=False):
                raise RuntimeError("boom")
        assert switches.admission_memo is True

    def test_all_disabled(self):
        with all_disabled():
            assert not any(switches.as_dict().values())
        assert all(switches.as_dict().values())

    def test_unknown_switch_rejected(self):
        with pytest.raises(ValueError):
            with configured(warp_drive=True):
                pass


# ----------------------------------------------------------------------
# the central contract: per-switch digest equality, per scenario
# ----------------------------------------------------------------------

class TestScenarioDigests:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_digest_invariant_under_every_switch(self, scenario):
        reference = run_scenario(scenario, seed=SEED, scale=SCALE)
        with all_disabled():
            off = run_scenario(scenario, seed=SEED, scale=SCALE)
        assert off.digest == reference.digest
        assert off.counters == reference.counters
        for switch in DEFAULTS:
            with configured(**{switch: False}):
                got = run_scenario(scenario, seed=SEED, scale=SCALE)
            assert got.digest == reference.digest, (
                f"{scenario} drifts with {switch} off")

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_repeatable_and_seed_sensitive(self, scenario):
        one = run_scenario(scenario, seed=SEED, scale=SCALE)
        two = run_scenario(scenario, seed=SEED, scale=SCALE)
        other = run_scenario(scenario, seed=SEED + 1, scale=SCALE)
        assert one.digest == two.digest
        assert other.digest != one.digest

    def test_scale_enters_the_digest(self):
        tiny = run_scenario("event-loop", seed=SEED, scale="tiny")
        short = run_scenario("event-loop", seed=SEED, scale="short")
        assert tiny.digest != short.digest

    def test_counters_carry_no_wall_times(self):
        result = run_scenario("event-loop", seed=SEED, scale=SCALE)
        payload = json.dumps(result.counters, sort_keys=True)
        assert "wall" not in payload
        assert result.wall_time_s > 0.0


# ----------------------------------------------------------------------
# kernel fast loop
# ----------------------------------------------------------------------

def _churny_run(sim):
    rng = sim.rng.stream("test.churn")
    log = []

    def hop(remaining):
        log.append(round(sim.now, 9))
        if remaining:
            sim.call_in(0.01 + rng.uniform(0, 0.01), hop, remaining - 1)
            decoy = sim.schedule(5.0, name="decoy")
            decoy.cancel()

    for lane in range(4):
        sim.call_in(0.005 * (lane + 1), hop, 25)
    return log


class TestKernelFastLoop:
    def test_fast_matches_reference(self):
        with configured(kernel_fast_loop=True):
            fast_sim = Simulator(seed=9)
            fast_log = _churny_run(fast_sim)
            fast_sim.run()
        with configured(kernel_fast_loop=False):
            ref_sim = Simulator(seed=9)
            ref_log = _churny_run(ref_sim)
            ref_sim.run()
        assert fast_log == ref_log
        assert fast_sim.now == ref_sim.now
        assert fast_sim.events_executed == ref_sim.events_executed
        assert fast_sim.peak_agenda_depth == ref_sim.peak_agenda_depth

    @pytest.mark.parametrize("fast", [True, False])
    def test_until_clamp_and_max_events(self, fast):
        with configured(kernel_fast_loop=fast):
            sim = Simulator(seed=3)
            fired = []
            for i in range(10):
                sim.call_in(float(i + 1), fired.append, i)
            sim.run(max_events=4)
            assert fired == [0, 1, 2, 3]
            sim.run(until=100.0)
            assert fired == list(range(10))
            assert sim.now == 100.0  # clamps to until past the last event

    @pytest.mark.parametrize("fast", [True, False])
    def test_stop_inside_event(self, fast):
        with configured(kernel_fast_loop=fast):
            sim = Simulator(seed=3)
            sim.call_in(1.0, sim.stop)
            sim.call_in(2.0, lambda: pytest.fail("ran past stop"))
            sim.run(until=10.0)
            assert sim.now == 1.0

    def test_peak_agenda_depth_tracks_heap(self):
        sim = Simulator(seed=3)
        assert sim.peak_agenda_depth == 0
        for i in range(7):
            sim.call_in(float(i + 1), lambda: None)
        assert sim.peak_agenda_depth == 7
        sim.run()
        assert sim.peak_agenda_depth == 7


# ----------------------------------------------------------------------
# slots (satellite: Event + Shuttle close their __dict__)
# ----------------------------------------------------------------------

class TestSlots:
    def test_event_has_no_dict(self):
        sim = Simulator()
        event = sim.call_in(1.0, lambda: None)
        assert not hasattr(event, "__dict__")

    def test_shuttle_has_no_dict(self):
        shuttle = Shuttle(0, 1)
        assert not hasattr(shuttle, "__dict__")
        with pytest.raises(AttributeError):
            shuttle.scratch = 1

    def test_jet_has_no_dict(self):
        jet = Jet(0, 1)
        assert not hasattr(jet, "__dict__")

    def test_ployon_contributes_no_layout(self):
        assert Ployon.__slots__ == ()

    def test_fast_clone_has_no_dict(self):
        with configured(cow_clone=True):
            twin = Shuttle(0, 1).clone()
        assert not hasattr(twin, "__dict__")


# ----------------------------------------------------------------------
# clone semantics (satellite: nested-meta aliasing + CoW property)
# ----------------------------------------------------------------------

def _assert_clone_semantics(original, twin):
    assert twin.packet_id != original.packet_id
    assert twin.ployon_id != original.ployon_id
    assert twin.src == original.src and twin.dst == original.dst
    assert twin.ttl == original.ttl
    assert twin.size_bytes == original.size_bytes
    assert twin.meta == original.meta
    assert list(twin.directives) == list(original.directives)
    assert twin.credential is original.credential
    assert twin.morphs == 0


class TestCloneAliasing:
    @pytest.mark.parametrize("cow", [True, False])
    def test_nested_meta_not_shared(self, cow):
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_SET_NEXT_STEP, role_id="fn.caching")])
        shuttle.meta["arq"] = {"msg": "m1", "src": 0}
        shuttle.meta["tags"] = ["a"]
        with configured(cow_clone=cow):
            twin = shuttle.clone()
        twin.meta["arq"]["msg"] = "m2"
        twin.meta["tags"].append("b")
        assert shuttle.meta["arq"]["msg"] == "m1"
        assert shuttle.meta["tags"] == ["a"]

    @pytest.mark.parametrize("cow", [True, False])
    def test_jet_spawn_copy_meta_not_shared(self, cow):
        jet = Jet(0, 1, replicate_budget=4)
        jet.meta["nested"] = {"k": 1}
        with configured(cow_clone=cow):
            copy = jet.spawn_copy(2, budget=2)
        copy.meta["nested"]["k"] = 2
        assert jet.meta["nested"]["k"] == 1
        assert copy.meta["jet_copy"] is True

    def test_frozen_cargo_is_structurally_shared(self):
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_SET_NEXT_STEP, role_id="fn.caching")])
        shuttle.freeze_cargo()
        with configured(cow_clone=True):
            twin = shuttle.clone()
        assert twin.directives is shuttle.directives  # CoW: shared tuple
        with configured(cow_clone=False):
            eager = shuttle.clone()
        assert list(eager.directives) == list(shuttle.directives)

    def test_unfrozen_cargo_is_copied_even_under_cow(self):
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_SET_NEXT_STEP, role_id="fn.caching")])
        with configured(cow_clone=True):
            twin = shuttle.clone()
        assert twin.directives is not shuttle.directives

    def test_clone_paths_agree(self):
        shuttle = Shuttle(3, 9, directives=[
            Directive(OP_ACQUIRE_ROLE, role_id="fn.fusion"),
            Directive(OP_SET_NEXT_STEP, role_id="fn.fusion")],
            credential="cred", ttl=17, data={"x": 1})
        shuttle.hops = 4
        for cow in (True, False):
            with configured(cow_clone=cow):
                _assert_clone_semantics(shuttle, shuttle.clone())

    @given(ttl=st.integers(min_value=1, max_value=255),
           hops=st.integers(min_value=0, max_value=64),
           n_directives=st.integers(min_value=0, max_value=5),
           meta_val=st.text(max_size=8),
           frozen=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_property_fast_clone_equals_eager_clone(
            self, ttl, hops, n_directives, meta_val, frozen):
        shuttle = Shuttle(1, 2, directives=[
            Directive(OP_SET_NEXT_STEP, role_id=f"fn.r{i}")
            for i in range(n_directives)], ttl=ttl)
        shuttle.hops = hops
        shuttle.meta["blob"] = {"v": meta_val}
        if frozen:
            shuttle.freeze_cargo()
        with configured(cow_clone=True):
            fast = shuttle.clone()
        with configured(cow_clone=False):
            eager = shuttle.clone()
        for attr in ("src", "dst", "ttl", "hops", "size_bytes",
                     "created_at", "flow_id", "meta", "payload",
                     "morphs", "data", "interface", "target_class"):
            assert getattr(fast, attr) == getattr(eager, attr), attr
        assert list(fast.directives) == list(eager.directives)

    def test_arq_retransmission_shares_frozen_template_cargo(self):
        sim = Simulator(seed=5)
        topo = line_topology(2, latency=0.01)
        fabric = NetworkFabric(sim, topo, loss_rate=0.9)
        from repro.core import Ship
        from repro.substrates.nodeos import CredentialAuthority
        authority = CredentialAuthority()
        ships = {n: Ship(sim, fabric, n, authority=authority)
                 for n in topo.nodes}
        cred = authority.issue("op")
        for ship in ships.values():
            ship.nodeos.security.grant("op", "*")
        transport = ReliableTransport(sim, ships, base_timeout=0.1,
                                      max_attempts=4, jitter=0.0)
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_SET_NEXT_STEP, role_id="fn.caching")],
            credential=cred)
        with configured(cow_clone=True):
            transport.send(0, shuttle)
            assert isinstance(shuttle.directives, tuple)  # frozen
            sim.run(until=5.0)
        assert transport.retries > 0


# ----------------------------------------------------------------------
# admission memo
# ----------------------------------------------------------------------

def _role_shuttle():
    return Shuttle(0, 1, directives=[
        Directive(OP_ACQUIRE_ROLE, role_id="fn.caching"),
        Directive(OP_SET_NEXT_STEP, role_id="fn.caching")])


class TestAdmissionMemo:
    def test_identical_payloads_hit_the_cache(self):
        verifier = AdmissionVerifier()
        with configured(admission_memo=True):
            first = verifier.vet(_role_shuttle())
            second = verifier.vet(_role_shuttle())
        assert first.ok and second.ok
        assert verifier.verdict_cache_hits == 1
        assert verifier.vets == 2

    def test_tamper_after_cached_verdict_is_caught(self):
        verifier = AdmissionVerifier()
        with configured(admission_memo=True):
            assert verifier.vet(_role_shuttle()).ok
            tampered = _role_shuttle()
            tampered.directives[0].op = "evil-op"
            verdict = verifier.vet(tampered)
        assert not verdict.ok
        assert verifier.rejections == 1

    def test_rejected_verdict_cached_with_rejection_counted(self):
        verifier = AdmissionVerifier()
        poison = _role_shuttle()
        poison.meta["manifest"] = ("install-code",)
        poison2 = _role_shuttle()
        poison2.meta["manifest"] = ("install-code",)
        with configured(admission_memo=True):
            assert not verifier.vet(poison).ok
            assert not verifier.vet(poison2).ok
        assert verifier.verdict_cache_hits == 1
        assert verifier.rejections == 2

    def test_memo_off_never_hits(self):
        verifier = AdmissionVerifier()
        with configured(admission_memo=False):
            verifier.vet(_role_shuttle())
            verifier.vet(_role_shuttle())
        assert verifier.verdict_cache_hits == 0

    def test_authorization_mode_bypasses_the_memo(self):
        sim, ships, cred = _two_ship_net()
        verifier = AdmissionVerifier()
        shuttle = _role_shuttle()
        shuttle.credential = cred
        with configured(admission_memo=True):
            verifier.vet(shuttle, ships[1], check_authorization=True)
            verifier.vet(shuttle, ships[1], check_authorization=True)
        assert verifier.verdict_cache_hits == 0

    def test_untokenizable_args_are_uncacheable(self):
        verifier = AdmissionVerifier()
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_SET_NEXT_STEP, role_id="fn.caching")])
        shuttle.directives[0].args["payload"] = object()  # no token
        with configured(admission_memo=True):
            verifier.vet(shuttle)
            verifier.vet(shuttle)
        assert verifier.verdict_cache_hits == 0

    def test_cache_capacity_is_bounded(self):
        verifier = AdmissionVerifier()
        verifier.VERDICT_CACHE_CAP = 8
        with configured(admission_memo=True):
            for i in range(20):
                verifier.vet(Shuttle(0, 1, directives=[
                    Directive(OP_SET_NEXT_STEP, role_id=f"fn.r{i}")]))
        assert len(verifier._verdicts) <= 8

    def test_memo_verdict_equals_uncached_verdict(self):
        poison = _role_shuttle()
        poison.meta["manifest"] = ("forged",)
        for shuttle in (_role_shuttle(), poison):
            memo_verifier = AdmissionVerifier()
            cold_verifier = AdmissionVerifier()
            with configured(admission_memo=True):
                memo_verifier.vet(shuttle)
                memoized = memo_verifier.vet(shuttle)
            with configured(admission_memo=False):
                cold = cold_verifier.vet(shuttle)
            assert memoized.ok == cold.ok
            assert memoized.reasons == cold.reasons


def _two_ship_net():
    from repro.core import Ship
    from repro.substrates.nodeos import CredentialAuthority
    sim = Simulator(seed=61)
    topo = line_topology(2)
    fabric = NetworkFabric(sim, topo)
    authority = CredentialAuthority()
    ships = {n: Ship(sim, fabric, n, authority=authority)
             for n in topo.nodes}
    cred = authority.issue("op")
    for ship in ships.values():
        ship.nodeos.security.grant("op", "*")
    return sim, ships, cred


# ----------------------------------------------------------------------
# digest caches
# ----------------------------------------------------------------------

class TestKnowledgeDigestCache:
    def test_cache_hit_until_membership_changes(self):
        kb = KnowledgeBase()
        kb.record(Fact("c", "v1"), now=0.0)
        with configured(digest_cache=True):
            first = kb.content_digest()
            again = kb.content_digest()
            assert again == first
            assert kb.digest_hits == 1
            kb.record(Fact("c", "v2"), now=1.0)
            changed = kb.content_digest()
        assert changed != first

    def test_touch_of_existing_fact_keeps_cache(self):
        kb = KnowledgeBase()
        kb.record(Fact("c", "v1"), now=0.0)
        with configured(digest_cache=True):
            first = kb.content_digest()
            kb.record(Fact("c", "v1"), now=2.0)  # reweighs, same member
            assert kb.content_digest() == first
            assert kb.digest_hits == 1

    def test_cached_equals_uncached(self):
        kb = KnowledgeBase()
        for i in range(10):
            kb.record(Fact(f"c{i % 3}", f"v{i}"), now=float(i))
        with configured(digest_cache=True):
            kb.content_digest()
            warm = kb.content_digest()
        with configured(digest_cache=False):
            cold = kb.content_digest()
        assert warm == cold

    def test_removal_invalidates(self):
        kb = KnowledgeBase(capacity=2)
        kb.record(Fact("c", "v1", weight=0.1), now=0.0)
        kb.record(Fact("c", "v2"), now=0.0)
        with configured(digest_cache=True):
            before = kb.content_digest()
            kb.record(Fact("c", "v3"), now=0.0)  # evicts the lightest
            assert kb.content_digest() != before


class TestMetricsDigestCache:
    def test_stamp_invalidates_on_kernel_progress(self):
        sim = Simulator(seed=4)
        sim.obs.enable()
        sim.call_in(1.0, lambda: sim.obs.node_packets.inc(
            node=0, event="delivered"))
        with configured(digest_cache=True):
            idle = sim.obs.metrics_digest()
            assert sim.obs.metrics_digest() == idle
            assert sim.obs.metrics_digest_hits == 1
            sim.run()
            after = sim.obs.metrics_digest()
        assert after != idle

    def test_cached_equals_uncached(self):
        sim = Simulator(seed=4)
        sim.obs.enable()
        sim.call_in(1.0, lambda: sim.obs.node_packets.inc(
            node=1, event="drop"))
        sim.run()
        with configured(digest_cache=True):
            sim.obs.metrics_digest()
            warm = sim.obs.metrics_digest()
        with configured(digest_cache=False):
            cold = sim.obs.metrics_digest()
        assert warm == cold


# ----------------------------------------------------------------------
# digest helpers
# ----------------------------------------------------------------------

class TestDigestHelpers:
    def test_canonical_digest_is_order_insensitive(self):
        assert canonical_digest({"a": 1, "b": 2}) \
            == canonical_digest({"b": 2, "a": 1})

    def test_run_digest_separates_inputs(self):
        base = run_digest("s", 1, "tiny", {"n": 1})
        assert run_digest("s", 2, "tiny", {"n": 1}) != base
        assert run_digest("s", 1, "short", {"n": 1}) != base
        assert run_digest("t", 1, "tiny", {"n": 1}) != base

    def test_round_floats_recurses(self):
        value = round_floats({"a": [0.1 + 0.2], "b": {"c": 1.0000000001}})
        assert value == {"a": [0.3], "b": {"c": 1.0}}


# ----------------------------------------------------------------------
# harness + compare gate
# ----------------------------------------------------------------------

class TestHarness:
    def test_result_shape_and_roundtrip(self, tmp_path):
        result = run_scenario("event-loop", seed=SEED, scale=SCALE)
        payload = result.to_dict()
        for field in ("scenario", "seed", "scale", "switches",
                      "wall_time_s", "events_per_sec", "digest",
                      "counters", "peak_agenda_depth"):
            assert field in payload
        combined = tmp_path / "combined.json"
        written = write_results([result], str(tmp_path),
                                combined=str(combined))
        assert (tmp_path / "BENCH_event_loop.json").exists()
        assert len(written) == 2
        loaded = load_results(str(tmp_path / "BENCH_event_loop.json"))
        assert loaded[0]["digest"] == result.digest
        assert load_results(str(combined))[0]["digest"] == result.digest

    def test_unknown_scenario_and_bad_repeats(self):
        with pytest.raises(KeyError):
            run_scenario("no-such-scenario")
        with pytest.raises(ValueError):
            run_scenario("event-loop", repeats=0)

    def test_compare_passes_identical_results(self):
        entries = [run_scenario("event-loop", seed=SEED,
                                scale=SCALE).to_dict()]
        ok, lines = compare(entries, entries, fail_over_pct=25.0)
        assert ok and lines

    def test_compare_hard_fails_on_digest_drift(self):
        entry = run_scenario("event-loop", seed=SEED,
                             scale=SCALE).to_dict()
        drifted = dict(entry, digest="0" * 16)
        ok, lines = compare([entry], [drifted], fail_over_pct=99.0)
        assert not ok
        assert any("DIGEST MISMATCH" in line for line in lines)

    def test_compare_fails_on_throughput_regression(self):
        entry = run_scenario("event-loop", seed=SEED,
                             scale=SCALE).to_dict()
        fast_baseline = dict(entry, events_per_sec=entry["events_per_sec"]
                             * 10.0)
        ok, lines = compare([entry], [fast_baseline], fail_over_pct=25.0)
        assert not ok
        assert any("regressed" in line for line in lines)

    def test_compare_median_normalization_cancels_machine_speed(self):
        entries = [run_scenario(name, seed=SEED, scale=SCALE).to_dict()
                   for name in ("event-loop", "jet-flood",
                                "admission-dock")]
        # A uniformly 3x faster baseline machine: every raw ratio is
        # ~0.33, but normalized ratios are ~1.0 — no regression.
        faster = [dict(e, events_per_sec=e["events_per_sec"] * 3.0)
                  for e in entries]
        ok, _ = compare(entries, faster, fail_over_pct=25.0)
        assert ok

    def test_compare_requires_overlap(self):
        entry = run_scenario("event-loop", seed=SEED,
                             scale=SCALE).to_dict()
        ok, lines = compare([entry], [dict(entry, seed=SEED + 1)])
        assert not ok
        assert any("no overlapping" in line for line in lines)

    def test_ablate_reports_stable_digests(self):
        report = ablate("admission-dock", seed=SEED, scale=SCALE)
        assert report["digest_stable"]
        assert set(report["variants"]) \
            == {"all-off"} | {f"no-{s}" for s in DEFAULTS}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestBenchCli:
    def test_list(self, capsys):
        assert cli_main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_unknown_scenario_exits_2(self, capsys):
        assert cli_main(["bench", "warp-speed"]) == 2

    def test_run_and_compare_roundtrip(self, tmp_path, capsys):
        combined = tmp_path / "BENCH_baseline.json"
        assert cli_main(["bench", "event-loop", "jet-flood",
                         "--scale", "tiny", "--repeats", "1",
                         "--out", str(tmp_path),
                         "--combined", str(combined),
                         "--no-opt"]) == 0
        assert combined.exists()
        assert cli_main(["bench", "event-loop", "jet-flood",
                         "--scale", "tiny", "--repeats", "1",
                         "--out", str(tmp_path),
                         "--compare", str(combined),
                         "--fail-over", "95"]) == 0
        out = capsys.readouterr().out
        assert "digest" in out

    def test_compare_missing_baseline_exits_2(self, tmp_path):
        assert cli_main(["bench", "event-loop", "--scale", "tiny",
                         "--repeats", "1", "--out", str(tmp_path),
                         "--compare", str(tmp_path / "nope.json")]) == 2

    def test_recover_without_workers_exits_2(self, tmp_path, capsys):
        """A single shard runs in-process, so ``--recover`` would be
        silently ignored; it is rejected instead."""
        assert cli_main(["bench", "shard-scaling", "--scale", "tiny",
                         "--repeats", "1", "--out", str(tmp_path),
                         "--recover"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == []

    def test_json_output_parses(self, tmp_path, capsys):
        assert cli_main(["bench", "event-loop", "--scale", "tiny",
                         "--repeats", "1", "--out", str(tmp_path),
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["scenario"] == "event-loop"

    def test_ablate(self, tmp_path, capsys):
        assert cli_main(["bench", "event-loop", "--scale", "tiny",
                         "--repeats", "1", "--ablate",
                         "--out", str(tmp_path)]) == 0
        assert "ok" in capsys.readouterr().out


# ----------------------------------------------------------------------
# committed baseline sanity
# ----------------------------------------------------------------------

class TestCommittedBaseline:
    def test_baseline_file_is_wellformed(self):
        import os
        path = os.path.join(os.path.dirname(__file__), "..",
                            "BENCH_baseline.json")
        entries = load_results(path)
        assert len(entries) >= 5
        for entry in entries:
            assert entry["seed"] == 42
            assert entry["scale"] == "short"
            assert not any(entry["switches"].values())  # opts-off anchor
            assert len(entry["digest"]) == 16

    def test_current_tree_reproduces_baseline_digests(self):
        """The committed anchor must stay bit-true on this tree: a
        fresh opts-on run at the baseline's own (seed, scale)
        reproduces its digests exactly."""
        import os
        path = os.path.join(os.path.dirname(__file__), "..",
                            "BENCH_baseline.json")
        entries = load_results(path)
        # Re-run the two cheapest scenarios at the baseline's own
        # (seed, scale) and check bit-equality of the digests.
        for entry in entries:
            if entry["scenario"] not in ("jet-flood", "admission-dock"):
                continue
            fresh = run_scenario(entry["scenario"], seed=entry["seed"],
                                 scale=entry["scale"])
            assert fresh.digest == entry["digest"]
