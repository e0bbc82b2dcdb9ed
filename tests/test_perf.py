"""The repro.perf plane: the harness and every optimized path.

Three layers of protection:

* **digest stability** — every benchmark scenario is repeatable and
  seed-sensitive, and reproduces the committed baseline that the
  reference paths recorded (the central contract: optimizations change
  *when*, never *what*);
* **unit semantics against in-test oracles** — CoW clones equal the
  eager constructor-built clones defined here, the memoized admission
  gate agrees with ``_vet_uncached`` and still catches tampering, the
  knowledge digest cache invalidates on mutation, the batched kernel
  loop matches :class:`~tests.kernel_oracle.ReferenceSimulator`;
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
from repro.perf import (SCENARIOS, compare, load_results, run_scenario,
                        write_results)
from repro.perf.digest import canonical_digest, round_floats, run_digest
from repro.resilience import ReliableTransport
from repro.staticcheck import AdmissionVerifier
from repro.substrates.phys import Datagram, line_topology, NetworkFabric
from repro.substrates.phys.packet import copy_meta
from repro.substrates.sim import Event, Simulator

from .hypothesis_tiers import STANDARD_SETTINGS
from .kernel_oracle import simulator

SEED = 42
SCALE = "tiny"


# ----------------------------------------------------------------------
# the central contract: digests are pure functions of (seed, scale)
# ----------------------------------------------------------------------

class TestScenarioDigests:
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
# kernel fast loop (against the in-test reference loop)
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
        fast_sim = simulator(True, seed=9)
        fast_log = _churny_run(fast_sim)
        fast_sim.run()
        ref_sim = simulator(False, seed=9)
        ref_log = _churny_run(ref_sim)
        ref_sim.run()
        assert fast_log == ref_log
        assert fast_sim.now == ref_sim.now
        assert fast_sim.events_executed == ref_sim.events_executed
        assert fast_sim.peak_agenda_depth == ref_sim.peak_agenda_depth

    @pytest.mark.parametrize("fast", [True, False])
    def test_until_clamp_and_max_events(self, fast):
        sim = simulator(fast, seed=3)
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
        sim = simulator(fast, seed=3)
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
        twin = Shuttle(0, 1).clone()
        assert not hasattr(twin, "__dict__")


# ----------------------------------------------------------------------
# clone semantics (nested-meta aliasing + CoW against the eager oracle)
# ----------------------------------------------------------------------

def _eager_clone(shuttle):
    """The reference ``Shuttle.clone``: rebuild the twin through the
    constructor."""
    twin = Shuttle(shuttle.src, shuttle.dst,
                   directives=list(shuttle.directives),
                   credential=shuttle.credential,
                   interface=shuttle.interface,
                   target_class=shuttle.target_class,
                   ttl=shuttle.ttl, data=shuttle.data,
                   flow_id=shuttle.flow_id)
    twin.created_at = shuttle.created_at
    twin.hops = shuttle.hops
    twin.meta = copy_meta(shuttle.meta)
    return twin


def _eager_spawn_copy(jet, new_dst, budget):
    """The reference ``Jet.spawn_copy``: rebuild the copy through the
    constructor."""
    copy = Jet(jet.src, new_dst, directives=list(jet.directives),
               replicate_budget=budget, max_fanout=jet.max_fanout,
               credential=jet.credential, interface=jet.interface,
               target_class=jet.target_class, ttl=jet.ttl,
               flow_id=jet.flow_id)
    copy.visited = set(jet.visited)
    copy.meta = copy_meta(jet.meta)
    copy.meta["jet_copy"] = True
    return copy


def _eager_jet_clone(jet):
    """The reference ``Jet.clone``: ``Jet.clone`` over the eager
    ``spawn_copy``."""
    twin = _eager_spawn_copy(jet, jet.dst, jet.replicate_budget)
    twin.created_at = jet.created_at
    twin.hops = jet.hops
    return twin


def _assert_one_id_each(fast, eager):
    """``fast`` then ``eager`` were built back to back: each drew
    exactly one packet id and one ployon id."""
    probe = Shuttle(0, 1)
    assert fast.packet_id + 1 == eager.packet_id == probe.packet_id - 1
    assert fast.ployon_id + 1 == eager.ployon_id == probe.ployon_id - 1


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


#: Every slot of a jet, so the copy properties compare them all.
_JET_SLOTS = Datagram.__slots__ + Shuttle.__slots__ + Jet.__slots__


class TestCloneAliasing:
    @pytest.mark.parametrize("cow", [True, False])
    def test_nested_meta_not_shared(self, cow):
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_SET_NEXT_STEP, role_id="fn.caching")])
        shuttle.meta["arq"] = {"msg": "m1", "src": 0}
        shuttle.meta["tags"] = ["a"]
        twin = shuttle.clone() if cow else _eager_clone(shuttle)
        twin.meta["arq"]["msg"] = "m2"
        twin.meta["tags"].append("b")
        assert shuttle.meta["arq"]["msg"] == "m1"
        assert shuttle.meta["tags"] == ["a"]

    @pytest.mark.parametrize("cow", [True, False])
    def test_jet_spawn_copy_meta_not_shared(self, cow):
        jet = Jet(0, 1, replicate_budget=4)
        jet.meta["nested"] = {"k": 1}
        copy = (jet.spawn_copy(2, budget=2) if cow
                else _eager_spawn_copy(jet, 2, 2))
        copy.meta["nested"]["k"] = 2
        assert jet.meta["nested"]["k"] == 1
        assert copy.meta["jet_copy"] is True

    def test_frozen_cargo_is_structurally_shared(self):
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_SET_NEXT_STEP, role_id="fn.caching")])
        shuttle.freeze_cargo()
        twin = shuttle.clone()
        assert twin.directives is shuttle.directives  # CoW: shared tuple
        eager = _eager_clone(shuttle)
        assert list(eager.directives) == list(shuttle.directives)

    def test_unfrozen_cargo_is_copied_even_under_cow(self):
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_SET_NEXT_STEP, role_id="fn.caching")])
        twin = shuttle.clone()
        assert twin.directives is not shuttle.directives

    def test_clone_paths_agree(self):
        shuttle = Shuttle(3, 9, directives=[
            Directive(OP_ACQUIRE_ROLE, role_id="fn.fusion"),
            Directive(OP_SET_NEXT_STEP, role_id="fn.fusion")],
            credential="cred", ttl=17, data={"x": 1})
        shuttle.hops = 4
        _assert_clone_semantics(shuttle, shuttle.clone())
        _assert_clone_semantics(shuttle, _eager_clone(shuttle))

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
        fast = shuttle.clone()
        eager = _eager_clone(shuttle)
        _assert_one_id_each(fast, eager)
        for attr in ("src", "dst", "ttl", "hops", "size_bytes",
                     "created_at", "flow_id", "meta", "payload",
                     "morphs", "data", "interface", "target_class"):
            assert getattr(fast, attr) == getattr(eager, attr), attr
        assert list(fast.directives) == list(eager.directives)

    @STANDARD_SETTINGS
    @given(n_directives=st.integers(min_value=0, max_value=4),
           frozen=st.booleans(),
           budget=st.integers(min_value=0, max_value=16),
           copy_budget=st.integers(min_value=0, max_value=16),
           visited=st.sets(st.integers(min_value=0, max_value=9),
                           max_size=5),
           morphs=st.integers(min_value=0, max_value=3),
           data=st.none() | st.integers(),
           payload=st.none() | st.text(max_size=4),
           created_at=st.floats(min_value=0.0, max_value=100.0),
           hops=st.integers(min_value=0, max_value=64),
           meta_val=st.text(max_size=8),
           flow_id=st.none() | st.integers(min_value=1, max_value=99),
           via_clone=st.booleans())
    def test_property_jet_copies_equal_eager_copies(
            self, n_directives, frozen, budget, copy_budget, visited,
            morphs, data, payload, created_at, hops, meta_val, flow_id,
            via_clone):
        jet = Jet(1, 2, directives=[
            Directive(OP_SET_NEXT_STEP, role_id=f"fn.r{i}")
            for i in range(n_directives)], replicate_budget=budget,
            credential="cred", data=data, payload=payload,
            created_at=created_at, flow_id=flow_id)
        jet.hops = hops
        jet.visited |= visited
        jet.morphs = morphs
        jet.meta["blob"] = {"v": meta_val}
        if frozen:
            jet.freeze_cargo()
        if via_clone:
            fast = jet.clone()
            eager = _eager_jet_clone(jet)
        else:
            fast = jet.spawn_copy(3, copy_budget)
            eager = _eager_spawn_copy(jet, 3, copy_budget)
        _assert_one_id_each(fast, eager)
        assert type(fast) is type(eager) is Jet
        for slot in _JET_SLOTS:
            if slot not in ("packet_id", "ployon_id", "directives"):
                assert getattr(fast, slot) == getattr(eager, slot), slot
        assert list(fast.directives) == list(eager.directives)
        assert fast.visited is not jet.visited
        assert fast.meta["blob"] is not jet.meta["blob"]

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
        first = verifier.vet(_role_shuttle())
        second = verifier.vet(_role_shuttle())
        assert first.ok and second.ok
        assert verifier.verdict_cache_hits == 1
        assert verifier.vets == 2

    def test_tamper_after_cached_verdict_is_caught(self):
        verifier = AdmissionVerifier()
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
        assert not verifier.vet(poison).ok
        assert not verifier.vet(poison2).ok
        assert verifier.verdict_cache_hits == 1
        assert verifier.rejections == 2

    def test_authorization_mode_bypasses_the_memo(self):
        sim, ships, cred = _two_ship_net()
        verifier = AdmissionVerifier()
        shuttle = _role_shuttle()
        shuttle.credential = cred
        verifier.vet(shuttle, ships[1], check_authorization=True)
        verifier.vet(shuttle, ships[1], check_authorization=True)
        assert verifier.verdict_cache_hits == 0

    def test_untokenizable_args_are_uncacheable(self):
        verifier = AdmissionVerifier()
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_SET_NEXT_STEP, role_id="fn.caching")])
        shuttle.directives[0].args["payload"] = object()  # no token
        verifier.vet(shuttle)
        verifier.vet(shuttle)
        assert verifier.verdict_cache_hits == 0

    def test_cache_capacity_is_bounded(self):
        verifier = AdmissionVerifier()
        verifier.VERDICT_CACHE_CAP = 8
        for i in range(20):
            verifier.vet(Shuttle(0, 1, directives=[
                Directive(OP_SET_NEXT_STEP, role_id=f"fn.r{i}")]))
        assert len(verifier._verdicts) <= 8

    def test_memo_verdict_equals_uncached_verdict(self):
        poison = _role_shuttle()
        poison.meta["manifest"] = ("forged",)
        for shuttle in (_role_shuttle(), poison):
            memo_verifier = AdmissionVerifier()
            memo_verifier.vet(shuttle)
            memoized = memo_verifier.vet(shuttle)
            assert memo_verifier.verdict_cache_hits == 1
            cold = AdmissionVerifier()._vet_uncached(shuttle, None, False)
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
        first = kb.content_digest()
        kb.record(Fact("c", "v1"), now=2.0)  # reweighs, same member
        assert kb.content_digest() == first
        assert kb.digest_hits == 1

    def test_cached_equals_uncached(self):
        kb = KnowledgeBase()
        for i in range(10):
            kb.record(Fact(f"c{i % 3}", f"v{i}"), now=float(i))
        kb.content_digest()
        warm = kb.content_digest()
        assert kb.digest_hits == 1
        kb._digest_dirty = True       # force the recompute
        cold = kb.content_digest()
        assert kb.digest_hits == 1
        assert warm == cold

    def test_removal_invalidates(self):
        kb = KnowledgeBase(capacity=2)
        kb.record(Fact("c", "v1", weight=0.1), now=0.0)
        kb.record(Fact("c", "v2"), now=0.0)
        before = kb.content_digest()
        kb.record(Fact("c", "v3"), now=0.0)  # evicts the lightest
        assert kb.content_digest() != before


class TestMetricsDigest:
    def test_kernel_progress_moves_the_digest(self):
        sim = Simulator(seed=4)
        sim.obs.enable()
        sim.call_in(1.0, lambda: sim.obs.node_packets.inc(
            node=0, event="delivered"))
        idle = sim.obs.metrics_digest()
        assert sim.obs.metrics_digest() == idle
        sim.run()
        assert sim.obs.metrics_digest() != idle

    def test_counter_change_outside_an_event_moves_the_digest(self):
        """Regression: a digest cache stamped with ``(events_executed,
        now)`` returned the stale digest when an instrument changed
        with no event in between."""
        sim = Simulator(seed=4)
        sim.obs.enable()
        before = sim.obs.metrics_digest()
        sim.obs.node_packets.inc(node=0, event="delivered")
        assert sim.obs.metrics_digest() != before


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
        for field in ("scenario", "seed", "scale",
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
                         "--combined", str(combined)]) == 0
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

    def test_json_output_parses(self, tmp_path, capsys):
        assert cli_main(["bench", "event-loop", "--scale", "tiny",
                         "--repeats", "1", "--out", str(tmp_path),
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["scenario"] == "event-loop"


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
            assert len(entry["digest"]) == 16

    def test_current_tree_reproduces_baseline_digests(self):
        """The committed anchor, recorded by the reference paths, must
        stay bit-true on this tree: a fresh run at the baseline's own
        (seed, scale) reproduces its digests exactly."""
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
