"""Tests for repro.staticcheck: the determinism linter (rules VIA001+),
suppression pragmas, reporters, the self-lint gate, and the static
admission verifier for mobile code."""

import hashlib
import json
import pathlib
from types import SimpleNamespace

import pytest

from repro.cli import main as cli_main
from repro.core.generations import Generation
from repro.core.knowledge import KnowledgeQuantum
from repro.core.ship import Ship
from repro.core.shuttle import (OP_ACQUIRE_ROLE, OP_DEPLOY_QUANTUM,
                                OP_INSTALL_CODE, OP_REQUEST_STATE,
                                OP_SET_NEXT_STEP, Directive, Shuttle,
                                shuttle_manifest)
from repro.functions import CachingRole, FusionRole
from repro.routing import StaticRouter
from repro.staticcheck import (ALL_RULES, LINT_SCHEMA_VERSION,
                               MAX_DIRECTIVES, MAX_QUANTUM_FACTS,
                               MOBILE_CODE_RULES, RULES, SHARD_RULES,
                               AdmissionVerifier, LintError, count_by_rule,
                               iter_python_files, lint_paths, lint_self,
                               lint_source, normalize_select, render_json,
                               render_rule_catalog, render_text)
from repro.substrates.nodeos import Action, CodeModule, CredentialAuthority
from repro.substrates.phys import NetworkFabric, line_topology
from repro.substrates.sim import Simulator


def rules_of(findings):
    return [f.rule_id for f in findings]


# -- one failing and one passing fixture per rule -------------------------

FIXTURES = [
    ("VIA001",
     "import random\nx = random.random()\n",
     "rng = sim.rng.stream('workload.arrivals')\nx = rng.random()\n"),
    ("VIA002",
     "import numpy as np\nx = np.random.rand(3)\n",
     "gen = sim.rng.np_stream('noise')\nx = gen.random(3)\n"),
    ("VIA003",
     "from time import perf_counter\nt = perf_counter()\n",
     "t = sim.now\n"),
    ("VIA004",
     "for node in {1, 2, 3}:\n    visit(node)\n",
     "for node in sorted({1, 2, 3}):\n    visit(node)\n"),
    ("VIA005",
     "import json\nblob = json.dumps(state)\n",
     "import json\nblob = json.dumps(state, sort_keys=True)\n"),
    ("VIA006",
     "key = id(link)\n",
     "key = link.name\n"),
    ("VIA007",
     "import random\nr = random.Random()\n",
     "import random\nr = random.Random(42)\n"),
    ("VIA008",
     "import os\nmode = os.environ['REPRO_MODE']\n",
     "mode = config.mode\n"),
    ("VIA009",
     "bucket = hash(fact_class) % n\n",
     "bucket = stable_index(fact_class) % n\n"),
    ("VIA010",
     "import os\nnames = os.listdir(root)\n",
     "import os\nnames = sorted(os.listdir(root))\n"),
    ("VIA011",
     "rng = sim.rng.stream('prefix.' + name)\n",
     "rng = sim.rng.stream(f'prefix.{name}')\n"),
]


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id,bad,good", FIXTURES,
                             ids=[f[0] for f in FIXTURES])
    def test_bad_fixture_trips_exactly_its_rule(self, rule_id, bad, good):
        findings = lint_source(bad)
        assert rules_of(findings) == [rule_id]

    @pytest.mark.parametrize("rule_id,bad,good", FIXTURES,
                             ids=[f[0] for f in FIXTURES])
    def test_good_fixture_is_clean(self, rule_id, bad, good):
        assert lint_source(good) == []

    def test_catalog_has_at_least_eight_rules(self):
        assert len(RULES) >= 8
        assert {f[0] for f in FIXTURES} == set(RULES)

    def test_import_alias_resolution(self):
        findings = lint_source("import numpy.random as nr\n"
                               "x = nr.rand()\n")
        assert rules_of(findings) == ["VIA002"]

    def test_from_import_alias_resolution(self):
        findings = lint_source("from time import time as wall\n"
                               "t = wall()\n")
        assert rules_of(findings) == ["VIA003"]

    def test_set_comprehension_and_expansion(self):
        findings = lint_source("xs = [f(x) for x in {1, 2}]\n"
                               "ys = list(set(zs))\n")
        assert rules_of(findings) == ["VIA004", "VIA004"]

    def test_sorted_sanctions_set_and_fs_order(self):
        assert lint_source("xs = sorted(set(zs))\n") == []
        assert lint_source("import glob\n"
                           "fs = sorted(glob.glob('*.py'))\n") == []

    def test_pathlib_rglob_flagged_unless_sorted(self):
        assert rules_of(lint_source("fs = root.rglob('*.py')\n")) \
            == ["VIA010"]
        assert lint_source("fs = sorted(root.rglob('*.py'))\n") == []

    def test_unseeded_default_rng_and_system_random(self):
        findings = lint_source("import numpy as np\nimport random\n"
                               "a = np.random.default_rng()\n"
                               "b = random.SystemRandom()\n")
        assert rules_of(findings) == ["VIA007", "VIA007"]

    def test_seeded_default_rng_clean(self):
        assert lint_source("import numpy as np\n"
                           "g = np.random.default_rng(seed)\n") == []

    def test_stream_names_constants_and_attributes_ok(self):
        src = ("a = sim.rng.stream('fabric.loss')\n"
               "b = sim.rng.stream(name)\n"
               "c = sim.rng.stream(self.stream_name)\n")
        assert lint_source(src) == []

    def test_empty_stream_name_flagged(self):
        assert rules_of(lint_source("r = sim.rng.stream('')\n")) \
            == ["VIA011"]


class TestSuppression:
    def test_inline_pragma_silences_named_rule(self):
        src = ("from time import perf_counter\n"
               "t = perf_counter()  # via: ignore[VIA003] host profiling\n")
        assert lint_source(src) == []

    def test_comment_line_pragma_covers_next_line(self):
        src = ("from time import perf_counter\n"
               "# via: ignore[VIA003] wall-clock is the measured value\n"
               "t = perf_counter()\n")
        assert lint_source(src) == []

    def test_bare_pragma_silences_every_rule(self):
        src = "key = id(obj) or hash(obj)  # via: ignore\n"
        assert lint_source(src) == []

    def test_pragma_for_other_rule_does_not_silence(self):
        src = "key = id(obj)  # via: ignore[VIA009]\n"
        assert rules_of(lint_source(src)) == ["VIA006"]

    def test_unknown_rule_in_pragma_is_an_error(self):
        with pytest.raises(LintError):
            lint_source("x = 1  # via: ignore[VIA999]\n")

    def test_pragma_in_string_literal_is_not_a_pragma(self):
        # Only COMMENT tokens carry pragmas: neither an unknown rule
        # inside a string (no LintError) nor a valid one (no
        # suppression) has any effect.
        src = ('doc = "via: ignore[VIA999]"\n'
               'msg = "via: ignore[VIA003]"\n'
               'from time import perf_counter\n'
               't = perf_counter()\n')
        assert rules_of(lint_source(src)) == ["VIA003"]

    def test_pragma_anywhere_on_multi_line_statement(self):
        # A statement spanning several physical lines is covered by a
        # pragma on any of them — including the closing paren.
        src = ("from time import perf_counter\n"
               "t = max(\n"
               "    perf_counter(),\n"
               "    0.0,\n"
               ")  # via: ignore[VIA003]\n")
        assert lint_source(src) == []
        src = ("from time import perf_counter\n"
               "t = max(\n"
               "    perf_counter(),  # via: ignore[VIA003]\n"
               "    0.0,\n"
               ")\n")
        assert lint_source(src) == []

    def test_decorator_lines_join_the_statement_span(self):
        # A hazard in a decorator expression is covered by a pragma on
        # the def header (and vice versa) — they are one statement.
        src = ("import glob\n"
               "@apply(glob.glob('*.py'))\n"
               "def f():  # via: ignore[VIA010]\n"
               "    return 0\n")
        assert lint_source(src) == []

    def test_compound_header_pragma_does_not_leak_into_body(self):
        # A pragma on a for/if header covers the header only — a
        # hazard inside the body still fires.
        src = ("import random\n"
               "for _ in range(int(random.random() * 4)):"
               "  # via: ignore[VIA001]\n"
               "    x = random.random()\n")
        assert [f.line for f in lint_source(src)
                if f.rule_id == "VIA001"] == [3]

    def test_continuation_line_pragma_covers_the_statement(self):
        src = ("from time import perf_counter\n"
               "t = perf_counter() + \\\n"
               "    1.0  # via: ignore[VIA003]\n")
        assert lint_source(src) == []


class TestEngineAndReporters:
    def test_syntax_error_raises_lint_error(self):
        with pytest.raises(LintError):
            lint_source("def broken(:\n")

    def test_unknown_selection_rejected(self):
        with pytest.raises(LintError):
            normalize_select(["VIA001", "NOPE"])

    def test_select_restricts_rules(self):
        src = "import random\nx = random.random()\nk = id(x)\n"
        assert rules_of(lint_source(src, select=["VIA006"])) == ["VIA006"]

    def test_findings_sorted_by_location(self):
        src = "k = id(x)\nimport random\ny = random.random()\n"
        findings = lint_source(src)
        assert [(f.line, f.rule_id) for f in findings] \
            == [(1, "VIA006"), (3, "VIA001")]

    def test_iter_python_files_sorted_and_deduped(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("y = 2\n")
        files = iter_python_files([str(tmp_path), str(tmp_path / "a.py")])
        assert [f.name for f in files] == ["a.py", "b.py"]

    def test_iter_python_files_rejects_non_python(self, tmp_path):
        other = tmp_path / "notes.txt"
        other.write_text("hi")
        with pytest.raises(LintError):
            iter_python_files([str(other)])

    def test_lint_paths_end_to_end(self, tmp_path):
        (tmp_path / "mod.py").write_text("import random\n"
                                         "x = random.random()\n")
        findings = lint_paths([str(tmp_path)])
        assert rules_of(findings) == ["VIA001"]
        assert findings[0].path.endswith("mod.py")

    def test_render_text_clean_and_dirty(self):
        assert "clean" in render_text([])
        findings = lint_source("k = id(x)\n", path="m.py")
        text = render_text(findings, statistics=True)
        assert "m.py:1:" in text and "VIA006" in text
        assert "1 finding" in text

    def test_render_json_stable_and_parseable(self):
        findings = lint_source("k = id(x)\nh = hash(x)\n", path="m.py")
        doc = json.loads(render_json(findings))
        assert doc["total"] == 2
        assert doc["counts"] == {"VIA006": 1, "VIA009": 1}
        assert render_json(findings) == render_json(findings)

    def test_render_json_declares_a_stable_schema_version(self):
        clean = json.loads(render_json([]))
        assert clean["schema_version"] == LINT_SCHEMA_VERSION == 1
        findings = lint_source("k = id(x)\n", path="m.py")
        doc = json.loads(render_json(findings))
        assert doc["schema_version"] == LINT_SCHEMA_VERSION
        # Round trip: every finding field survives serialization.
        assert doc["findings"] == [{
            "path": "m.py", "line": 1, "col": f.col,
            "rule_id": "VIA006", "message": f.message,
        } for f in findings]

    def test_shard_rules_extend_but_never_shadow_the_catalog(self):
        assert set(ALL_RULES) == set(RULES) | set(SHARD_RULES)
        assert not set(RULES) & set(SHARD_RULES)
        assert {"VIA012", "VIA013", "VIA014", "VIA015"} <= set(SHARD_RULES)

    def test_rule_catalog_lists_every_rule(self):
        catalog = render_rule_catalog()
        for rule_id in ALL_RULES:
            assert rule_id in catalog
        for rule_id in SHARD_RULES:
            assert "[shardcheck]" in catalog.split(rule_id, 1)[1] \
                .splitlines()[0]

    def test_count_by_rule(self):
        findings = lint_source("a = id(x)\nb = id(y)\n")
        assert count_by_rule(findings) == {"VIA006": 2}


class TestSelfLint:
    def test_repro_package_is_clean(self):
        # The standing gate: the whole installed package lints clean
        # (satellite (a) — every VIA finding fixed or justified).
        assert lint_self() == []

    def test_cli_lint_exit_codes(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("k = id(x)\n")
        assert cli_main(["lint", str(clean)]) == 0
        assert cli_main(["lint", str(dirty)]) == 1
        assert cli_main(["lint", "--list-rules"]) == 0


# -- static admission of mobile code --------------------------------------

# The hazardous mobile-code fixture lives in a module materialised at
# test time: admission lints `inspect.getsource(entry)`, so an in-file
# fixture could only pass the repo lint gate by carrying a pragma —
# which the verifier would then honour, defeating the test.
_HAZARD_SOURCE = """\
def _hazardous_entry():
    import time
    return time.time()
"""

_hazard_module = None


def _hazardous_entry():
    global _hazard_module
    if _hazard_module is None:
        import importlib.util
        import tempfile
        path = pathlib.Path(tempfile.mkdtemp(prefix="via-hazard-"))
        mod_path = path / "evil_mobile.py"
        mod_path.write_text(_HAZARD_SOURCE)
        spec = importlib.util.spec_from_file_location("evil_mobile",
                                                      mod_path)
        _hazard_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(_hazard_module)
    return _hazard_module._hazardous_entry


def _clean_entry():
    return 42


def make_network(n=2, seed=1, generation=Generation.G4):
    sim = Simulator(seed=seed)
    topo = line_topology(n)
    fabric = NetworkFabric(sim, topo)
    authority = CredentialAuthority()
    router = StaticRouter(topo)
    ships = {}
    for node in topo.nodes:
        ships[node] = Ship(sim, fabric, node, router=router,
                           generation=generation, authority=authority)
    cred = authority.issue("operator")
    for ship in ships.values():
        ship.nodeos.security.grant("operator", "*")
    return sim, topo, fabric, ships, cred


def oversized_quantum():
    snapshots = [{"fact_class": "link-state", "value": i, "weight": 1.0}
                 for i in range(MAX_QUANTUM_FACTS + 1)]
    return KnowledgeQuantum("fn.caching", snapshots)


class TestAdmissionVerifier:
    def test_well_formed_shuttle_accepted(self):
        verifier = AdmissionVerifier()
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_ACQUIRE_ROLE, role_id=FusionRole.role_id,
                      module=FusionRole.code_module()),
            Directive(OP_SET_NEXT_STEP, role_id="fn.caching"),
            Directive(OP_REQUEST_STATE)])
        verdict = verifier.vet(shuttle)
        assert verdict.ok and verdict.reason_code is None

    def test_unknown_op_rejected(self):
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_SET_NEXT_STEP, role_id="fn.caching")])
        shuttle.directives[0].op = "evil-op"          # forged en route
        # The attacker rewrites the manifest too: the op itself must fail.
        shuttle.meta["manifest"] = shuttle_manifest(shuttle.directives)
        verdict = AdmissionVerifier().vet(shuttle)
        assert not verdict.ok
        assert verdict.reason_code == "unknown-op"

    def test_missing_required_arg_rejected(self):
        shuttle = Shuttle(0, 1, directives=[Directive(OP_ACQUIRE_ROLE)])
        verdict = AdmissionVerifier().vet(shuttle)
        assert verdict.reason_code == "malformed-directive"

    def test_mistyped_arg_rejected(self):
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_ACQUIRE_ROLE, role_id=1234)])
        verdict = AdmissionVerifier().vet(shuttle)
        assert verdict.reason_code == "malformed-directive"

    def test_reasons_in_directive_then_argument_name_order(self):
        # Per directive: required arguments, then optional ones, each by
        # name; acquire-role declares "module" before "modal".  The
        # stand-in module has no code for the carried-code lint to read.
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_ACQUIRE_ROLE, module=SimpleNamespace(entry=None),
                      modal="yes"),
            Directive(OP_DEPLOY_QUANTUM, auto_acquire=1)])
        verdict = AdmissionVerifier().vet(shuttle)
        assert verdict.reasons == (
            "malformed-directive: directive[0] acquire-role missing "
            "required arg 'role_id'",
            "malformed-directive: directive[0] acquire-role arg 'modal' "
            "has type str",
            "malformed-directive: directive[0] acquire-role arg 'module' "
            "has type SimpleNamespace",
            "malformed-directive: directive[1] deploy-quantum missing "
            "required arg 'quantum'",
            "malformed-directive: directive[1] deploy-quantum arg "
            "'auto_acquire' has type int")
        assert verdict.lint_rules == ()

    def test_unhashable_op_reported_not_raised(self):
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_SET_NEXT_STEP, role_id="fn.caching")])
        shuttle.directives[0].op = ["set-next-step"]
        shuttle.meta["manifest"] = shuttle_manifest(shuttle.directives)
        verdict = AdmissionVerifier().vet(shuttle)
        assert verdict.reasons == (
            "unknown-op: directive[0] op=['set-next-step']",)

    def test_mistyped_module_reported_not_raised(self):
        # The carried-code lint skips what is not a CodeModule.
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_INSTALL_CODE, module=None)])
        verdict = AdmissionVerifier().vet(shuttle)
        assert verdict.reasons == (
            "malformed-directive: directive[0] install-code arg 'module' "
            "has type NoneType",)

    def test_accepted_verdicts_are_one_object(self):
        verifier = AdmissionVerifier()
        first = verifier.vet(Shuttle(0, 1, directives=[
            Directive(OP_SET_NEXT_STEP, role_id="fn.caching")]))
        second = verifier.vet(Shuttle(0, 1, directives=[
            Directive(OP_SET_NEXT_STEP, role_id="fn.transcoding")]))
        assert first is second
        assert first == (True, (), ())
        assert verifier.verdict_cache_hits == 0

    def test_oversized_quantum_rejected(self):
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_DEPLOY_QUANTUM, quantum=oversized_quantum())])
        verdict = AdmissionVerifier().vet(shuttle)
        assert verdict.reason_code == "oversized-quantum"

    def test_malformed_quantum_rejected(self):
        kq = KnowledgeQuantum("fn.caching",
                              [{"fact_class": "x"}])   # no "value"
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_DEPLOY_QUANTUM, quantum=kq)])
        verdict = AdmissionVerifier().vet(shuttle)
        assert verdict.reason_code == "malformed-quantum"

    def test_too_many_directives_rejected(self):
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_SET_NEXT_STEP, role_id="fn.caching")
            for _ in range(MAX_DIRECTIVES + 1)])
        verdict = AdmissionVerifier().vet(shuttle)
        assert verdict.reason_code == "too-many-directives"

    def test_manifest_tamper_rejected(self):
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_SET_NEXT_STEP, role_id="fn.caching")])
        # A privileged directive spliced in after construction.
        shuttle.directives.append(
            Directive(OP_ACQUIRE_ROLE, role_id=FusionRole.role_id))
        verdict = AdmissionVerifier().vet(shuttle)
        assert not verdict.ok
        assert verdict.reason_code == "manifest-mismatch"

    def test_carried_code_hazard_rejected(self):
        module = CodeModule("code.evil", entry=_hazardous_entry())
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_INSTALL_CODE, module=module)])
        verdict = AdmissionVerifier().vet(shuttle)
        assert verdict.reason_code == "code-hazard"
        assert "VIA003" in verdict.lint_rules
        assert set(verdict.lint_rules) <= set(MOBILE_CODE_RULES)

    def test_carried_code_clean_accepted_and_cached(self):
        verifier = AdmissionVerifier()
        module = CodeModule("code.ok", entry=_clean_entry)
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_INSTALL_CODE, module=module)])
        assert verifier.vet(shuttle).ok
        assert verifier.vet(shuttle).ok          # cached verdict path
        assert verifier.vets == 2 and verifier.rejections == 0

    def test_verdict_digest_identical_across_seeds(self):
        # The reject decision is a pure function of the payload: the
        # verdict digest must not depend on the simulation seed.
        digests = []
        for seed in (1, 99, 2026):
            sim, topo, fabric, ships, cred = make_network(seed=seed)
            shuttle = Shuttle(0, 1, directives=[
                Directive(OP_DEPLOY_QUANTUM, quantum=oversized_quantum())],
                credential=cred)
            verdict = ships[1].vet_shuttle(shuttle)
            assert verdict.reason_code == "oversized-quantum"
            digests.append(verdict.digest)
        assert len(set(digests)) == 1

    def test_authorization_mode_flags_unauthorized_op(self):
        sim, topo, fabric, ships, cred = make_network()
        nobody = ships[0].nodeos.authority.issue("nobody")
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_ACQUIRE_ROLE, role_id=FusionRole.role_id)],
            credential=nobody)
        # Structurally fine: runtime keeps the per-directive "denied"
        # semantics ...
        assert ships[1].vet_shuttle(shuttle).ok
        # ... but the sender-side precheck proves it would be denied.
        verdict = ships[1].vet_shuttle(shuttle, check_authorization=True)
        assert verdict.reason_code == "unauthorized-op"

    def test_would_allow_matches_policy(self):
        sim, topo, fabric, ships, cred = make_network()
        security = ships[1].nodeos.security
        assert security.would_allow(cred, Action.RECONFIGURE)
        nobody = ships[0].nodeos.authority.issue("nobody")
        assert not security.would_allow(nobody, Action.RECONFIGURE)


class TestShipAdmissionGate:
    def test_poison_shuttle_rejected_before_execution(self):
        sim, topo, fabric, ships, cred = make_network()
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_DEPLOY_QUANTUM, quantum=oversized_quantum()),
            Directive(OP_ACQUIRE_ROLE, role_id=CachingRole.role_id,
                      module=CachingRole.code_module())], credential=cred)
        report = ships[1].process_shuttle(shuttle, 0)
        assert report["rejected"] == "admission:oversized-quantum"
        assert report["applied"] == []
        # Nothing executed: the bundled acquire never happened.
        assert not ships[1].has_role(CachingRole.role_id)
        assert ships[1].shuttles_admission_rejected == 1

    def test_rejection_increments_obs_counters(self):
        sim, topo, fabric, ships, cred = make_network()
        sim.obs.enable()
        module = CodeModule("code.evil", entry=_hazardous_entry())
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_INSTALL_CODE, module=module)], credential=cred)
        ships[1].process_shuttle(shuttle, 0)
        rejected = sim.obs.rejected_quanta.labels(node=1,
                                                  reason="code-hazard")
        assert rejected.value == 1
        assert sim.obs.lint_findings.labels(rule="VIA003").value == 1

    def test_admission_gate_can_be_disabled(self):
        sim, topo, fabric, ships, cred = make_network()
        ships[1].admission_enabled = False
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_DEPLOY_QUANTUM, quantum=oversized_quantum())],
            credential=cred)
        report = ships[1].process_shuttle(shuttle, 0)
        assert "rejected" not in report
        assert ships[1].shuttles_admission_rejected == 0

    def test_rejection_preserves_run_digest_of_legit_traffic(self):
        # End-to-end acceptance: a poison shuttle docked mid-run is
        # rejected without perturbing the run digest of the unaffected
        # traffic (the vet draws no RNG and schedules no events).
        def run_session(seed, inject_poison):
            sim, topo, fabric, ships, cred = make_network(n=3, seed=seed)
            rejections = []

            def send_legit(dst, role_cls):
                shuttle = Shuttle(0, dst, directives=[
                    Directive(OP_ACQUIRE_ROLE, role_id=role_cls.role_id,
                              module=role_cls.code_module())],
                    credential=cred)
                ships[0].send_toward(shuttle)

            sim.call_in(1.0, send_legit, 1, FusionRole)
            sim.call_in(2.0, send_legit, 2, CachingRole)
            if inject_poison:
                def dock_poison():
                    bad = Shuttle(0, 1, directives=[
                        Directive(OP_DEPLOY_QUANTUM,
                                  quantum=oversized_quantum())],
                        credential=cred)
                    report = ships[1].process_shuttle(bad, 0)
                    rejections.append(report.get("rejected"))
                sim.call_in(1.5, dock_poison)
            sim.run(until=30.0)
            payload = {str(node): ships[node].structure()
                       for node in topo.nodes}
            digest = hashlib.sha256(
                json.dumps(payload, sort_keys=True).encode()).hexdigest()
            return digest, rejections, ships

        baseline, none_rejected, _ = run_session(7, inject_poison=False)
        attacked, rejected, ships = run_session(7, inject_poison=True)
        assert none_rejected == []
        assert rejected == ["admission:oversized-quantum"]
        assert ships[1].shuttles_admission_rejected == 1
        assert ships[1].has_role(FusionRole.role_id)      # legit applied
        assert ships[2].has_role(CachingRole.role_id)
        assert attacked == baseline
