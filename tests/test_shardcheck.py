"""Tests for the whole-program shard-safety analyzer and the
determinism sanitizer (rules VIA012+, ``repro shardcheck`` /
``repro sanitize``)."""

import json
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.perf import harness
from repro.perf.harness import run_sanitized, run_scenario
from repro.sanitize import (DrawTape, Injection, diff_tapes, taped)
from repro.staticcheck import (LintError, shardcheck_paths)
from repro.staticcheck.shardcheck import (load_program, module_name_for)
from repro.substrates.sim.rng import active_tape


def rules_of(findings):
    return [f.rule_id for f in findings]


def write_tree(root, files):
    """Materialize ``{relpath: source}`` under ``root``."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


#: A minimal, *clean* sharded program: a workload hierarchy that is
#: __slots__-closed, no mutated worker-reachable globals, digest-excluded
#: recovery metrics, derive_seed-disciplined RNG.
CLEAN_TREE = {
    "pkg/__init__.py": "",
    "pkg/shard/__init__.py": "",
    "pkg/shard/executor.py": """\
        from ..util import helper


        class ShardWorkload:
            __slots__ = ("seed",)

            def run(self):
                return helper(self.seed)
        """,
    "pkg/shard/recovery.py": """\
        def note_restart(obs):
            obs.restarts.inc()
        """,
    "pkg/metrics.py": """\
        class ShardObs:
            def __init__(self, registry):
                self.restarts = registry.counter(
                    "repro_shard_worker_restarts_total")
        """,
    "pkg/util.py": """\
        import random

        from .seeds import derive_seed

        _LIMIT = 64


        def helper(seed):
            return random.Random(derive_seed(seed, "helper")).random()
        """,
    "pkg/seeds.py": """\
        def derive_seed(master, name):
            return hash((master, name)) & 0xFFFF
        """,
    "pkg/work.py": """\
        from .shard.executor import ShardWorkload


        class GoodWorkload(ShardWorkload):
            __slots__ = ("p",)
        """,
    "pkg/island.py": """\
        _cache = {}


        def remember(key, value):
            _cache[key] = value
        """,
}


def check_tree(tmp_path, overrides=None, select=None):
    files = dict(CLEAN_TREE)
    files.update(overrides or {})
    write_tree(tmp_path, files)
    return shardcheck_paths([str(tmp_path)], select=select)


class TestShardcheckBaseline:
    def test_clean_tree_has_no_findings(self, tmp_path):
        assert check_tree(tmp_path) == []

    def test_module_names_root_at_outermost_package(self, tmp_path):
        write_tree(tmp_path, CLEAN_TREE)
        exe = tmp_path / "pkg" / "shard" / "executor.py"
        assert module_name_for(exe) == "pkg.shard.executor"

    def test_worker_reachability_excludes_islands(self, tmp_path):
        write_tree(tmp_path, CLEAN_TREE)
        program = load_program([str(tmp_path)])
        reachable = program.worker_reachable()
        assert "pkg.util" in reachable
        assert "pkg.island" not in reachable

    def test_installed_package_is_shard_clean(self):
        # The standing gate: ``repro shardcheck src/`` exits 0.
        assert shardcheck_paths(["src/repro"]) == []


class TestVIA012PickleBoundary:
    def test_workload_subclass_without_slots_fires(self, tmp_path):
        findings = check_tree(tmp_path, {
            "pkg/bad.py": """\
                from .shard.executor import ShardWorkload


                class LeakyWorkload(ShardWorkload):
                    def __init__(self):
                        self.extra = 1
                """,
        })
        assert rules_of(findings) == ["VIA012"]
        assert findings[0].path.endswith("bad.py")
        assert findings[0].line == 4

    def test_unpicklable_field_fires_at_assignment(self, tmp_path):
        findings = check_tree(tmp_path, {
            "pkg/bad.py": """\
                from .shard.executor import ShardWorkload


                class LambdaWorkload(ShardWorkload):
                    __slots__ = ("fn",)

                    def __init__(self):
                        self.fn = lambda x: x
                """,
        })
        assert rules_of(findings) == ["VIA012"]
        assert findings[0].line == 8
        assert "lambda" in findings[0].message

    def test_boundary_marker_pulls_class_into_the_rule(self, tmp_path):
        findings = check_tree(tmp_path, {
            "pkg/handoff.py": """\
                class Handoff:
                    __shard_boundary__ = True
                """,
        })
        assert rules_of(findings) == ["VIA012"]
        assert findings[0].path.endswith("handoff.py")

    def test_dataclass_boundary_verdict(self, tmp_path):
        # A decorated (dataclass) boundary class still needs
        # __slots__; the decorator does not exempt it.
        findings = check_tree(tmp_path, {
            "pkg/record.py": """\
                import dataclasses


                @dataclasses.dataclass
                class ShardRecord:
                    __shard_boundary__ = True
                    epoch: int = 0
                """,
        })
        assert rules_of(findings) == ["VIA012"]

    def test_composition_closure_reaches_nested_helper(self, tmp_path):
        # A class constructed into a boundary field crosses the
        # boundary with it — including a nested class.
        findings = check_tree(tmp_path, {
            "pkg/bad.py": """\
                from .shard.executor import ShardWorkload


                class CompositeWorkload(ShardWorkload):
                    __slots__ = ("inner",)

                    class Inner:
                        pass

                    def __init__(self):
                        self.inner = CompositeWorkload.Inner()
                """,
            "pkg/helper.py": """\
                class Bag:
                    pass
                """,
            "pkg/uses.py": """\
                from .helper import Bag
                from .shard.executor import ShardWorkload


                class BagWorkload(ShardWorkload):
                    __slots__ = ("bag",)

                    def __init__(self):
                        self.bag = Bag()
                """,
        })
        assert "VIA012" in rules_of(findings)
        assert any(f.path.endswith("helper.py") for f in findings)

    def test_workload_subclass_in_test_tree_is_detected(self, tmp_path):
        # Subclasses defined outside the package (e.g. in tests/)
        # still join the hierarchy through their imports.
        findings = check_tree(tmp_path, {
            "suite/test_workloads.py": """\
                from pkg.shard.executor import ShardWorkload


                class FixtureWorkload(ShardWorkload):
                    def __init__(self):
                        self.scratch = []
                """,
        })
        assert rules_of(findings) == ["VIA012"]
        assert findings[0].path.endswith("test_workloads.py")


class TestVIA013WorkerMutableGlobals:
    def test_mutated_reachable_global_fires_at_declaration(self,
                                                           tmp_path):
        findings = check_tree(tmp_path, {
            "pkg/util.py": CLEAN_TREE["pkg/util.py"] + """\

        _seen = {}


        def remember(key, value):
            _seen[key] = value
        """,
        })
        assert rules_of(findings) == ["VIA013"]
        assert findings[0].path.endswith("util.py")
        assert "_seen" in findings[0].message

    def test_global_rebind_fires(self, tmp_path):
        findings = check_tree(tmp_path, {
            "pkg/util.py": CLEAN_TREE["pkg/util.py"] + """\

        _mode = None


        def set_mode(mode):
            global _mode
            _mode = mode
        """,
        })
        assert rules_of(findings) == ["VIA013"]
        assert "_mode" in findings[0].message

    def test_unreachable_module_is_not_flagged(self, tmp_path):
        # pkg/island.py mutates a module-level dict but no shard entry
        # point imports it (see the clean-tree baseline test).
        assert check_tree(tmp_path) == []

    def test_dynamic_import_extends_reachability(self, tmp_path):
        source = CLEAN_TREE["pkg/shard/executor.py"] + """\

        import importlib


        def load_plugins():
            return importlib.import_module("pkg.island")
        """
        findings = check_tree(
            tmp_path, {"pkg/shard/executor.py": source})
        assert rules_of(findings) == ["VIA013"]
        assert findings[0].path.endswith("island.py")

    def test_pragma_suppresses_shardcheck_finding(self, tmp_path):
        findings = check_tree(tmp_path, {
            "pkg/util.py": CLEAN_TREE["pkg/util.py"] + """\

        # fork-safe: replayed identically in every worker
        # via: ignore[VIA013]
        _seen = {}


        def remember(key, value):
            _seen[key] = value
        """,
        })
        assert findings == []


class TestVIA014DigestHygiene:
    def test_non_excluded_recovery_metric_fires(self, tmp_path):
        findings = check_tree(tmp_path, {
            "pkg/metrics.py": """\
                class ShardObs:
                    def __init__(self, registry):
                        self.restarts = registry.counter(
                            "worker_restarts_total")
                """,
        })
        assert rules_of(findings) == ["VIA014"]
        assert findings[0].path.endswith("recovery.py")
        assert "worker_restarts_total" in findings[0].message

    def test_digest_excluded_prefix_is_clean(self, tmp_path):
        # The clean tree registers repro_shard_* — already excluded.
        assert check_tree(tmp_path) == []

    def test_prefix_tuple_is_read_from_the_analyzed_tree(self, tmp_path):
        findings = check_tree(tmp_path, {
            "pkg/metrics.py": """\
                DIGEST_EXCLUDED_PREFIXES = ("worker_",)


                class ShardObs:
                    def __init__(self, registry):
                        self.restarts = registry.counter(
                            "worker_restarts_total")
                """,
        })
        assert findings == []


class TestVIA015RngDiscipline:
    def test_underived_seed_in_reachable_code_fires(self, tmp_path):
        findings = check_tree(tmp_path, {
            "pkg/util.py": """\
                import random

                _LIMIT = 64


                def helper(seed):
                    return random.Random(1234).random()
                """,
        })
        assert rules_of(findings) == ["VIA015"]
        assert findings[0].path.endswith("util.py")
        assert findings[0].line == 7

    def test_derive_seed_call_is_clean(self, tmp_path):
        # The clean tree's helper() seeds via derive_seed already.
        assert check_tree(tmp_path) == []

    def test_unseeded_ctor_left_to_via007(self, tmp_path):
        findings = check_tree(tmp_path, {
            "pkg/util.py": """\
                import random


                def helper(seed):
                    return random.Random().random()
                """,
        })
        assert rules_of(findings) == []

    def test_select_restricts_shard_rules(self, tmp_path):
        findings = check_tree(tmp_path, {
            "pkg/bad.py": """\
                from .shard.executor import ShardWorkload


                class LeakyWorkload(ShardWorkload):
                    pass
                """,
            "pkg/util.py": """\
                import random


                def helper(seed):
                    return random.Random(99).random()
                """,
        }, select=["VIA015"])
        assert rules_of(findings) == ["VIA015"]


class TestShardcheckCli:
    def test_exit_codes(self, tmp_path, capsys):
        write_tree(tmp_path, CLEAN_TREE)
        assert cli_main(["shardcheck", str(tmp_path)]) == 0
        (tmp_path / "pkg" / "bad.py").write_text(
            "from .shard.executor import ShardWorkload\n\n\n"
            "class Leaky(ShardWorkload):\n    pass\n")
        assert cli_main(["shardcheck", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "VIA012" in out and "bad.py:4:" in out

    def test_json_format_carries_schema_version(self, tmp_path, capsys):
        write_tree(tmp_path, CLEAN_TREE)
        assert cli_main(["shardcheck", str(tmp_path),
                         "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1
        assert doc["total"] == 0

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        assert cli_main(["shardcheck", str(tmp_path)]) == 2
        assert "shardcheck:" in capsys.readouterr().err

    def test_unknown_select_raises_lint_error(self, tmp_path):
        write_tree(tmp_path, CLEAN_TREE)
        with pytest.raises(LintError):
            shardcheck_paths([str(tmp_path)], select=["VIA999"])


# ---------------------------------------------------------------------
# determinism sanitizer
# ---------------------------------------------------------------------

class _FakeRegistry:
    def sim_now(self):
        return 0.0


def _fake_tape(values, merges=(), inject=None):
    tape = DrawTape(inject=inject)

    def rec(value):
        # extra frame pins the recorded call site to one line, so two
        # synthetic tapes built from different test lines still match
        tape.record("s", "random", value, _FakeRegistry())

    for value in values:
        rec(value)
    for label, digest in merges:
        tape.record_merge(label, digest)
    return tape


class TestDrawTape:
    def test_record_assigns_per_stream_ordinals(self):
        tape = DrawTape()
        tape.record("a", "random", 0.1, _FakeRegistry())
        tape.record("b", "random", 0.2, _FakeRegistry())
        tape.record("a", "random", 0.3, _FakeRegistry())
        assert [(r.stream, r.stream_ordinal) for r in tape.draws] \
            == [("a", 0), ("b", 0), ("a", 1)]

    def test_injection_perturbs_exactly_one_draw(self):
        tape = _fake_tape([0.1, 0.2, 0.3],
                          inject=Injection("s", 1))
        assert [r.value for r in tape.draws] == [0.1, 0.7, 0.3]
        assert tape.injected is tape.draws[1]

    def test_taped_installs_and_clears_the_hook(self):
        assert active_tape() is None
        with taped() as tape:
            assert active_tape() is tape
        assert active_tape() is None

    def test_nested_taped_raises(self):
        with taped():
            with pytest.raises(RuntimeError):
                with taped():
                    pass

    def test_injection_parse(self):
        assert Injection.parse("perf.event_loop@5") \
            == Injection("perf.event_loop", 5)
        for bad in ("nope", "@3", "s@", "s@x"):
            with pytest.raises(ValueError):
                Injection.parse(bad)


class TestDiffTapes:
    def test_identical_tapes_diff_to_none(self):
        a = _fake_tape([0.1, 0.2], merges=[("run", "abc")])
        b = _fake_tape([0.1, 0.2], merges=[("run", "abc")])
        assert diff_tapes(a, b) is None

    def test_first_divergent_draw_wins(self):
        a = _fake_tape([0.1, 0.2, 0.9])
        b = _fake_tape([0.1, 0.5, 0.9])
        d = diff_tapes(a, b)
        assert d.kind == "draw" and d.index == 1
        assert d.a.value == 0.2 and d.b.value == 0.5
        assert "first divergent draw" in d.describe()[0]

    def test_length_mismatch_reported_as_draw_count(self):
        d = diff_tapes(_fake_tape([0.1, 0.2]), _fake_tape([0.1]))
        assert d.kind == "draw-count" and d.index == 1
        assert d.b is None

    def test_merge_divergence_when_draws_identical(self):
        a = _fake_tape([0.1], merges=[("run", "aaa")])
        b = _fake_tape([0.1], merges=[("run", "bbb")])
        d = diff_tapes(a, b)
        assert d.kind == "merge" and d.index == 0
        assert "outside the taped streams" in d.describe()[0]


def _no_run(*args, **kwargs):
    raise AssertionError("a scenario ran before the arguments were checked")


class TestSanitizeRuns:
    def test_self_comparison_is_clean(self):
        report = run_sanitized("event-loop", seed=7, scale="tiny")
        assert report.ok
        assert report.divergence is None
        assert report.digest_a == report.digest_b
        assert len(report.tape_a.draws) == len(report.tape_b.draws) > 0
        assert report.tape_a.merges and report.tape_b.merges

    def test_taping_never_changes_the_digest(self):
        plain = run_scenario("event-loop", seed=7, scale="tiny")
        with taped() as tape:
            recorded = run_scenario("event-loop", seed=7, scale="tiny")
        assert recorded.digest == plain.digest
        assert tape.merges[-1].digest == plain.digest
        assert tape.merges[-1].label == "run:event-loop:7:tiny"

    def test_telemetry_draws_identically(self):
        # obs collection needs a shardable scenario
        report = run_sanitized("shuttle-storm", scale="tiny",
                               against="obs")
        assert report.ok and report.against == "obs"

    def test_injection_is_localized_to_stream_and_site(self):
        report = run_sanitized("event-loop", scale="tiny",
                               inject=Injection("perf.event_loop", 5))
        assert not report.ok
        assert report.digest_a != report.digest_b
        d = report.divergence
        assert d.kind == "draw" and d.index == 5
        assert d.a.stream == d.b.stream == "perf.event_loop"
        assert d.a.stream_ordinal == d.b.stream_ordinal == 5
        assert d.a.value != d.b.value
        assert d.a.sim_time == d.b.sim_time
        assert d.a.site == d.b.site
        assert "scenarios.py" in d.a.site
        assert report.tape_b.injected == d.b
        rendered = report.render()
        assert "first divergent draw at tape index 5" in rendered
        assert "perf.event_loop@5" in rendered

    def test_report_round_trips_to_json(self):
        report = run_sanitized("event-loop", scale="tiny",
                               inject=Injection("perf.event_loop", 0))
        doc = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert doc["ok"] is False
        assert doc["divergence"]["kind"] == "draw"
        assert doc["divergence"]["index"] == 0
        assert doc["injected"]["stream"] == "perf.event_loop"

    def test_unknown_against_rejected(self):
        with pytest.raises(ValueError):
            run_sanitized("event-loop", scale="tiny", against="what")

    def test_obs_against_single_replica_scenario_is_clean(self):
        report = run_sanitized("event-loop", scale="tiny", against="obs")
        assert report.ok, report.render()
        assert report.digest_a == report.digest_b


class TestSanitizeCli:
    def test_clean_run_exits_0(self, capsys):
        assert cli_main(["sanitize", "event-loop",
                         "--scale", "tiny"]) == 0
        assert "tapes identical" in capsys.readouterr().out

    def test_injection_exits_1_and_localizes(self, capsys):
        assert cli_main(["sanitize", "event-loop", "--scale", "tiny",
                         "--inject", "perf.event_loop@5"]) == 1
        out = capsys.readouterr().out
        assert "first divergent draw at tape index 5" in out
        assert "scenarios.py" in out

    def test_json_output_parses(self, capsys):
        assert cli_main(["sanitize", "shuttle-storm", "--scale", "tiny",
                         "--against", "obs", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["against"] == "obs"

    def test_obs_against_single_replica_scenario_exits_0(self, capsys):
        assert cli_main(["sanitize", "event-loop", "--scale", "tiny",
                         "--against", "obs"]) == 0
        assert "tapes identical" in capsys.readouterr().out

    def test_all_rejects_inject_and_against(self, monkeypatch, capsys):
        """``--all`` runs one taped pass per scenario with no B run, so
        ``--inject`` and ``--against`` would be silently ignored."""
        monkeypatch.setattr(harness, "run_scenario", _no_run)
        assert cli_main(["sanitize", "--all", "--scale", "tiny",
                         "--inject", "perf.event_loop@5",
                         "--against", "obs"]) == 2
        assert cli_main(["sanitize", "--all", "--scale", "tiny",
                         "--inject", "perf.event_loop@5"]) == 2
        assert cli_main(["sanitize", "--all", "--scale", "tiny",
                         "--against", "obs"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_usage_errors_exit_2(self, capsys):
        assert cli_main(["sanitize"]) == 2
        assert cli_main(["sanitize", "no-such-scenario",
                         "--scale", "tiny"]) == 2
        assert cli_main(["sanitize", "event-loop", "--scale", "tiny",
                         "--inject", "bad-spec"]) == 2
        assert cli_main(["sanitize", "event-loop", "--all"]) == 2
        capsys.readouterr()

    def test_all_sweep_with_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        plain = run_scenario("event-loop", seed=42, scale="tiny")
        baseline.write_text(json.dumps([{
            "scenario": "event-loop", "seed": 42, "scale": "tiny",
            "digest": plain.digest,
        }], sort_keys=True))
        assert cli_main(["sanitize", "--all", "--scale", "tiny",
                         "--compare", str(baseline), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        by_name = {e["scenario"]: e for e in doc["scenarios"]}
        assert by_name["event-loop"]["baseline_match"] is True
        assert by_name["event-loop"]["digest"] == plain.digest
        assert by_name["arq-storm"]["baseline_match"] is None
