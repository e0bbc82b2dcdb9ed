"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``      run a small Wandering Network and print snapshots
              (``--obs-out run.jsonl`` records metrics/spans/profile);
``report``    render an observability report from an ``--obs-out`` file;
``obs``       distributed-telemetry views of an ``--obs-out`` artifact:
              ``report`` (full), ``timeline`` (epoch Gantt), ``flight``
              (black-box ring);
``verify``    model-check the WLI protocol specs (routing x2, jets, docking);
``chaos``     run a named chaos campaign and assert its invariants
              (``--flight-out`` dumps the black box of a failing run);
``bench``     run the deterministic macro-benchmark suite, write
              ``BENCH_<scenario>.json``, gate against a baseline
              (``--compare BASELINE --fail-over PCT``); with
              ``--workers K --obs-out PATH`` also merge and export the
              K shards' telemetry;
``lint``      run the determinism linter (VIA rules) over source trees;
``figures``   regenerate the paper's figure artefacts (ASCII);
``info``      print the library's systems inventory.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Viator / Wandering Network — Simeonov (IPDPS 2002), "
                    "reproduced.")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command")

    demo = sub.add_parser("demo", help="run a small autopoietic network")
    demo.add_argument("--nodes", type=int, default=8)
    demo.add_argument("--until", type=float, default=300.0)
    demo.add_argument("--seed", type=int, default=1)
    demo.add_argument("--no-resonance", action="store_true")
    demo.add_argument("--obs-out", metavar="PATH", default=None,
                      help="enable observability (metrics, causal spans, "
                           "kernel profile) and write JSONL records here")

    report = sub.add_parser(
        "report", help="render the observability report of a recorded run")
    report.add_argument("path", help="JSONL file written by demo --obs-out")
    report.add_argument("--top", type=int, default=10,
                        help="rows per metric table / profiled handlers")

    obs = sub.add_parser(
        "obs", help="distributed-telemetry views of an --obs-out artifact")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report", help="full observability report (alias of `repro "
                       "report`, plus epoch/flight sections)")
    obs_report.add_argument("path", help="JSONL artifact")
    obs_report.add_argument("--top", type=int, default=10)
    obs_timeline = obs_sub.add_parser(
        "timeline", help="ASCII Gantt of the sharded run's epochs "
                         "(per-shard lanes, stall, handoffs)")
    obs_timeline.add_argument("path", help="JSONL artifact")
    obs_timeline.add_argument("--width", type=int, default=60,
                              help="max sparkline buckets (default: 60)")
    obs_flight = obs_sub.add_parser(
        "flight", help="the flight recorder's black-box ring")
    obs_flight.add_argument("path", help="JSONL artifact")
    obs_flight.add_argument("--last", type=int, default=20,
                            help="entries to show (default: 20)")

    verify = sub.add_parser("verify",
                            help="model-check the WLI protocol specs")
    verify.add_argument("--churn", type=int, default=2)

    chaos = sub.add_parser(
        "chaos", help="run a chaos campaign and assert its invariants")
    chaos.add_argument("--campaign", default="smoke",
                       help="campaign name (see --list)")
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--no-arq", action="store_true",
                       help="fire-and-forget baseline (max_attempts=1)")
    chaos.add_argument("--compare", action="store_true",
                       help="run with and without ARQ, print both")
    chaos.add_argument("--json", action="store_true",
                       help="emit the result as JSON instead of text")
    chaos.add_argument("--flight-out", metavar="PATH", default=None,
                       help="write the flight-recorder black box (last "
                            "N sim moments) as JSONL after the campaign")
    chaos.add_argument("--list", action="store_true",
                       help="list the campaign catalog and exit")

    bench = sub.add_parser(
        "bench", help="run the deterministic macro-benchmark suite")
    bench.add_argument("scenarios", nargs="*", default=None,
                       help="scenario names (see --list); default: all")
    bench.add_argument("--all", action="store_true",
                       help="run the whole scenario catalog")
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument("--scale",
                       choices=("tiny", "short", "medium", "full"),
                       default="short",
                       help="workload size (default: short)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="timing passes per scenario; wall time is "
                            "the best of N (default: 3)")
    bench.add_argument("--workers", type=int, default=1, metavar="K",
                       help="execute shardable scenarios partitioned "
                            "over K shards (digest-identical to K=1; "
                            "default: 1)")
    bench.add_argument("--backend", choices=("inline", "mp"),
                       default="mp",
                       help="shard backend when --workers > 1: forked, "
                            "supervised processes (mp) or the in-process "
                            "oracle (inline); default: mp")
    bench.add_argument("--obs-out", metavar="PATH", default=None,
                       help="collect each shard's metrics/spans/profile, "
                            "merge them and write the unified JSONL "
                            "here (requires exactly one scenario; "
                            "digest-neutral)")
    bench.add_argument("--out", metavar="DIR", default=".",
                       help="directory for BENCH_<scenario>.json files")
    bench.add_argument("--combined", metavar="PATH", default=None,
                       help="also write all results as one JSON list "
                            "(the BENCH_baseline.json format)")
    bench.add_argument("--compare", metavar="BASELINE", default=None,
                       help="gate results against a committed baseline "
                            "file (digest equality is a hard failure)")
    bench.add_argument("--fail-over", type=float, default=25.0,
                       metavar="PCT",
                       help="max tolerated normalized throughput "
                            "regression, percent (default: 25)")
    bench.add_argument("--json", action="store_true",
                       help="emit results as JSON on stdout")
    bench.add_argument("--list", action="store_true",
                       help="list the scenario catalog and exit")

    lint = sub.add_parser(
        "lint", help="run the determinism linter (VIA rules)")
    lint.add_argument("paths", nargs="*", default=None,
                      help="files/directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text")
    lint.add_argument("--select", default=None, metavar="RULES",
                      help="comma-separated rule ids (e.g. "
                           "VIA001,VIA003)")
    lint.add_argument("--statistics", action="store_true",
                      help="append a per-rule tally to the text report")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")

    shardcheck = sub.add_parser(
        "shardcheck",
        help="whole-program shard-safety analysis (rules VIA012+)")
    shardcheck.add_argument("paths", nargs="*", default=None,
                            help="files/directories to analyze "
                                 "(default: the installed repro package)")
    shardcheck.add_argument("--format", choices=("text", "json"),
                            default="text")
    shardcheck.add_argument("--select", default=None, metavar="RULES",
                            help="comma-separated rule ids (e.g. "
                                 "VIA012,VIA013)")
    shardcheck.add_argument("--statistics", action="store_true",
                            help="append a per-rule tally to the text "
                                 "report")

    sanitize = sub.add_parser(
        "sanitize",
        help="determinism sanitizer: tape two runs, diff the draws")
    sanitize.add_argument("scenario", nargs="?", default=None,
                          help="scenario to sanitize (see bench --list)")
    sanitize.add_argument("--seed", type=int, default=42)
    sanitize.add_argument("--scale",
                          choices=("tiny", "short", "medium", "full"),
                          default="short")
    sanitize.add_argument("--against",
                          choices=("self", "obs"),
                          default="self",
                          help="what run B varies (default: self)")
    sanitize.add_argument("--inject", default=None, metavar="STREAM@N",
                          help="perturb the Nth draw of STREAM in run B "
                               "(divergence-localization proof)")
    sanitize.add_argument("--all", action="store_true",
                          help="taped digest-neutrality sweep over the "
                               "whole scenario catalog (no A/B diff)")
    sanitize.add_argument("--compare", default=None, metavar="BASELINE",
                          help="also require run digests to match this "
                               "committed BENCH baseline")
    sanitize.add_argument("--json", action="store_true",
                          help="emit the report as JSON on stdout")

    shard = sub.add_parser(
        "shard", help="inspect the deterministic shard partitioner")
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)
    plan = shard_sub.add_parser(
        "plan", help="print the partition plan for a scenario topology")
    plan.add_argument("scenario",
                      help="a shardable scenario name (see bench --list)")
    plan.add_argument("--workers", type=int, default=4, metavar="K",
                      help="requested shard count (default: 4)")
    plan.add_argument("--seed", type=int, default=42)
    plan.add_argument("--scale",
                      choices=("tiny", "short", "medium", "full"),
                      default="short")
    plan.add_argument("--json", action="store_true",
                      help="emit the plan as JSON instead of text")

    figures = sub.add_parser("figures",
                             help="regenerate the figure artefacts")
    figures.add_argument("--seed", type=int, default=33)

    sub.add_parser("info", help="systems inventory")
    return parser


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_demo(args) -> int:
    from .core import WanderingNetwork, WanderingNetworkConfig
    from .functions import CachingRole, FusionRole
    from .substrates.phys import ring_topology
    from .substrates.sim import Simulator
    from .viz import render_snapshot
    from .workloads import ContentWorkload, MediaStreamSource

    sim = Simulator(seed=args.seed)
    if args.obs_out:
        sim.obs.enable(profiling=True)
    wn = WanderingNetwork(
        ring_topology(args.nodes, latency=0.01),
        WanderingNetworkConfig(seed=args.seed, pulse_interval=5.0,
                               resonance_enabled=not args.no_resonance,
                               resonance_threshold=2.0,
                               min_attraction=0.5),
        sim=sim)
    wn.deploy_role(CachingRole, at=0, activate=True)
    # The fusion role travels in-band: a role shuttle carries it across
    # the ring and docks at the far node (visible as a causal trace
    # under --obs-out).
    far = args.nodes // 2
    if far:
        wn.deploy_role(FusionRole, at=0)
        shuttle = wn.ship(0).make_role_shuttle(
            FusionRole.role_id, far, credential=wn.credential,
            activate=True)
        wn.ship(0).send_toward(shuttle)
    else:
        wn.deploy_role(FusionRole, at=0, activate=True)
    ContentWorkload(wn.sim, wn.ships,
                    clients=[args.nodes // 4, 3 * args.nodes // 4],
                    origin=0, request_interval=0.5).start()
    MediaStreamSource(wn.sim, wn.ships, 1, args.nodes - 2,
                      rate_pps=4.0).start()
    print(render_snapshot(wn.snapshot()))
    wn.run(until=args.until)
    print()
    print(render_snapshot(wn.snapshot()))
    print(f"\npulses={wn.engine.pulses} "
          f"wander events={len(wn.engine.events)} "
          f"entropy={wn.role_entropy():.3f}")
    if args.obs_out:
        written = sim.obs.export_jsonl(args.obs_out)
        print(f"obs: {written} records -> {args.obs_out} "
              f"(render with `repro report {args.obs_out}`)")
    return 0


def cmd_report(args) -> int:
    from .obs import load_jsonl, render_report

    try:
        records = load_jsonl(args.path)
    except (OSError, ValueError) as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 1
    if not records:
        print(f"report: {args.path} holds no records", file=sys.stderr)
        return 1
    print(render_report(records, top=args.top))
    return 0


def cmd_obs(args) -> int:
    from .obs import load_jsonl

    try:
        records = load_jsonl(args.path)
    except (OSError, ValueError) as exc:
        print(f"obs: {exc}", file=sys.stderr)
        return 1
    if not records:
        print(f"obs: {args.path} holds no records", file=sys.stderr)
        return 1
    if args.obs_command == "report":
        from .obs import render_report
        print(render_report(records, top=args.top))
    elif args.obs_command == "timeline":
        from .obs import render_timeline
        print(render_timeline(records, width=args.width))
    else:  # flight
        from .obs import render_flight
        print(render_flight(records, last=args.last))
    return 0


def cmd_verify(args) -> int:
    from .verification import (AdaptiveRoutingSpec, DockingSpec,
                               JetReplicationSpec, ModelChecker,
                               ProactiveRoutingSpec)

    specs = [
        AdaptiveRoutingSpec(nodes=("o", "a", "b", "t"),
                            initial_links=[("o", "a"), ("a", "b"),
                                           ("b", "t"), ("o", "b")],
                            churn_budget=args.churn),
        ProactiveRoutingSpec(nodes=("a", "b", "c", "t"),
                             initial_links=[("a", "b"), ("b", "c"),
                                            ("c", "t"), ("a", "c")],
                             churn_budget=min(args.churn, 2)),
        JetReplicationSpec(initial_budget=8, max_fanout=2),
        DockingSpec(ship_classes=("server", "client", "agent",
                                  "server")),
    ]
    failed = 0
    for spec in specs:
        result = ModelChecker(spec).check()
        print(f"{spec.name}: {result.summary()}")
        if not result.ok:
            failed += 1
            for violation in result.violations[:3]:
                print(f"  {violation.kind} {violation.name}")
    return 1 if failed else 0


def cmd_chaos(args) -> int:
    import json as _json

    from .resilience import CAMPAIGNS, run_campaign

    if args.list:
        for name, campaign in sorted(CAMPAIGNS.items()):
            print(f"{name:22s} {campaign.description}")
        return 0
    if args.campaign not in CAMPAIGNS:
        known = ", ".join(sorted(CAMPAIGNS))
        print(f"chaos: unknown campaign {args.campaign!r} (known: {known})",
              file=sys.stderr)
        return 2
    results = [run_campaign(args.campaign, seed=args.seed,
                            arq=not args.no_arq)]
    if args.compare:
        results.append(run_campaign(args.campaign, seed=args.seed,
                                    arq=args.no_arq))
    if args.flight_out:
        flight = results[0].flight
        with open(args.flight_out, "w", encoding="utf-8") as fh:
            for record in flight:
                fh.write(_json.dumps(record, sort_keys=True, default=repr)
                         + "\n")
        print(f"flight: {len(flight)} entries -> {args.flight_out} "
              f"(render with `repro obs flight {args.flight_out}`)")
    if args.json:
        print(_json.dumps([r.to_dict() for r in results]
                          if len(results) > 1 else results[0].to_dict(),
                          indent=2, sort_keys=True, default=repr))
    else:
        for result in results:
            print(result.summary())
        if args.compare:
            on = next(r for r in results if r.arq)
            off = next(r for r in results if not r.arq)
            print(f"\nARQ delivery ratio {on.counts['delivery_ratio']:.4f} "
                  f"vs fire-and-forget "
                  f"{off.counts['delivery_ratio']:.4f}")
    return 0 if all(r.ok for r in results) else 1


def cmd_bench(args) -> int:
    import json as _json

    from .perf import (SCENARIOS, compare, load_results, run_all,
                       write_results)

    if args.list:
        for name, cls in SCENARIOS.items():
            print(f"{name:16s} {cls.description}")
        return 0
    names = list(args.scenarios) if args.scenarios else None
    if args.all:
        names = None
    unknown = [n for n in (names or []) if n not in SCENARIOS]
    if unknown:
        known = ", ".join(SCENARIOS)
        print(f"bench: unknown scenario(s) {', '.join(unknown)} "
              f"(known: {known})", file=sys.stderr)
        return 2

    if args.workers < 1:
        print("bench: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.obs_out:
        if names is None or len(names) != 1:
            print("bench: --obs-out requires exactly one scenario",
                  file=sys.stderr)
            return 2
        from .perf import run_scenario
        results = [run_scenario(names[0], seed=args.seed,
                                scale=args.scale, repeats=args.repeats,
                                workers=args.workers,
                                backend=args.backend, obs=True)]
    else:
        results = run_all(seed=args.seed, scale=args.scale,
                          repeats=args.repeats, names=names,
                          workers=args.workers, backend=args.backend)
    written = write_results(results, args.out, combined=args.combined)
    if args.obs_out and results[0].obs is not None:
        merged = results[0].obs
        count = merged.export_jsonl(args.obs_out)
        print(f"obs: {count} records -> {args.obs_out} "
              f"(merged k={merged.meta['k']}, telemetry digest "
              f"{merged.metrics_digest()}; render with "
              f"`repro obs report {args.obs_out}`)")
    if args.json:
        print(_json.dumps([r.to_dict() for r in results], indent=2,
                          sort_keys=True))
    else:
        for r in results:
            sharding = (f" workers={r.workers}({r.backend})"
                        if r.workers > 1 else "")
            rec = (r.shard_stats or {}).get("recovery")
            if rec:
                degraded = (",degraded"
                            if (r.shard_stats or {}).get("degraded")
                            else "")
                sharding += (f" recover[restarts="
                             f"{rec['worker_restarts']}{degraded}]")
            print(f"{r.scenario:16s} {r.events_per_sec:12.0f} ev/s "
                  f"{r.shuttles_per_sec:10.0f} sh/s "
                  f"{r.wall_time_s * 1e3:8.1f} ms  "
                  f"depth={r.peak_agenda_depth:<5d} "
                  f"digest={r.digest}{sharding}")
        for path in written:
            print(f"wrote {path}")
    if args.compare:
        try:
            baseline = load_results(args.compare)
        except (OSError, ValueError) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        ok, lines = compare([r.to_dict() for r in results], baseline,
                            fail_over_pct=args.fail_over)
        print()
        for line in lines:
            print(line)
        return 0 if ok else 1
    return 0


def cmd_shard(args) -> int:
    import json as _json

    from .perf.scenarios import SCENARIOS
    from .shard import partition

    cls = SCENARIOS.get(args.scenario)
    if cls is None or not cls.shardable:
        known = ", ".join(n for n, c in SCENARIOS.items() if c.shardable)
        print(f"shard: scenario {args.scenario!r} is not shardable "
              f"(shardable: {known})", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("shard: --workers must be >= 1", file=sys.stderr)
        return 2
    workload = cls(args.seed, args.scale)
    plan = partition(workload.topology(), args.workers, seed=args.seed)
    if args.json:
        print(_json.dumps(plan.to_dict(), indent=2, sort_keys=True,
                          default=repr))
        return 0
    print(f"scenario   {args.scenario} (seed={args.seed}, "
          f"scale={args.scale})")
    print(f"shards     {plan.k} (requested {plan.requested_k})")
    print(f"balance    {plan.balance:.3f} (max/min shard size)")
    print(f"edge cut   {plan.edge_cut} link(s)")
    lookahead = ("inf" if plan.lookahead == float("inf")
                 else f"{plan.lookahead:.6g}")
    print(f"lookahead  {lookahead} (min cut-link latency = epoch length)")
    for index, nodes in enumerate(plan.shards):
        members = ", ".join(repr(n) for n in sorted(nodes, key=repr))
        print(f"  shard {index}: {len(nodes)} node(s): {members}")
    for a, b, name, latency in plan.cut_links:
        print(f"  cut: {name} ({a!r} ~ {b!r}, latency {latency:.6g})")
    return 0


def cmd_lint(args) -> int:
    from .staticcheck import (LintError, lint_paths, lint_self,
                              render_json, render_rule_catalog,
                              render_text)

    if args.list_rules:
        print(render_rule_catalog())
        return 0
    select = ([part.strip() for part in args.select.split(",")
               if part.strip()] if args.select else None)
    try:
        if args.paths:
            findings = lint_paths(args.paths, select=select)
        else:
            findings = lint_self(select=select)
    except LintError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings, statistics=args.statistics))
    return 1 if findings else 0


def cmd_shardcheck(args) -> int:
    from .staticcheck import (LintError, package_root, render_json,
                              render_text, shardcheck_paths)

    select = ([part.strip() for part in args.select.split(",")
               if part.strip()] if args.select else None)
    paths = args.paths or [str(package_root())]
    try:
        findings = shardcheck_paths(paths, select=select)
    except LintError as exc:
        print(f"shardcheck: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings, statistics=args.statistics))
    return 1 if findings else 0


def cmd_sanitize(args) -> int:
    from .perf.harness import load_results, run_sanitized, run_scenario
    from .perf.scenarios import SCENARIOS
    from .sanitize import Injection, taped

    baseline = None
    if args.compare:
        baseline = {(e["scenario"], e["seed"], e["scale"]): e["digest"]
                    for e in load_results(args.compare)}

    def baseline_verdict(scenario: str, digest: str):
        key = (scenario, args.seed, args.scale)
        expected = baseline.get(key)
        if expected is None:
            return None, (f"~ {scenario}: no baseline entry for "
                          f"seed={args.seed} scale={args.scale}")
        if expected == digest:
            return True, (f"✓ {scenario}: sanitized digest {digest} "
                          f"== baseline")
        return False, (f"✗ {scenario}: sanitized digest {digest} "
                       f"!= baseline {expected}")

    if args.all:
        if args.scenario is not None:
            print("sanitize: --all takes no scenario argument",
                  file=sys.stderr)
            return 2
        if args.inject is not None or args.against != "self":
            print("sanitize: --all runs one taped pass per scenario; "
                  "--inject and --against need a single scenario",
                  file=sys.stderr)
            return 2
        ok = True
        payload = []
        for name in sorted(SCENARIOS):
            with taped() as tape:
                result = run_scenario(name, seed=args.seed,
                                      scale=args.scale)
            line = (f"  {name}: digest {result.digest}, "
                    f"{tape.summary()}")
            verdict = None
            if baseline is not None:
                verdict, line = baseline_verdict(name, result.digest)
                ok = ok and verdict is not False
            payload.append({"scenario": name, "digest": result.digest,
                            "draws": len(tape.draws),
                            "merges": len(tape.merges),
                            "baseline_match": verdict})
            if not args.json:
                print(line)
        if args.json:
            print(json.dumps({"mode": "all", "seed": args.seed,
                              "scale": args.scale, "ok": ok,
                              "scenarios": payload},
                             indent=2, sort_keys=True))
        elif ok:
            print("sanitize: taped digests match the sanitizer-off "
                  "baseline" if baseline is not None else
                  "sanitize: taped sweep complete")
        return 0 if ok else 1

    if args.scenario is None:
        print("sanitize: a scenario (or --all) is required",
              file=sys.stderr)
        return 2
    try:
        inject = (Injection.parse(args.inject) if args.inject
                  else None)
    except ValueError as exc:
        print(f"sanitize: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_sanitized(args.scenario, seed=args.seed,
                               scale=args.scale, against=args.against,
                               inject=inject)
    except (KeyError, ValueError) as exc:
        print(f"sanitize: {exc.args[0]}", file=sys.stderr)
        return 2
    ok = report.ok
    lines = [] if args.json else [report.render()]
    base_line = None
    if baseline is not None:
        verdict, base_line = baseline_verdict(args.scenario,
                                              report.digest_a)
        ok = ok and verdict is not False
    if args.json:
        payload = report.to_dict()
        payload["baseline_line"] = base_line
        payload["ok"] = ok
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if base_line is not None:
            lines.append(base_line)
        print("\n".join(lines))
    return 0 if ok else 1


def cmd_figures(args) -> int:
    from .core import WanderingNetwork, WanderingNetworkConfig
    from .functions import CachingRole, FusionRole
    from .routing import QosDemand
    from .substrates.phys import figure3_topology
    from .viz import render_overlays, render_snapshot, render_topology

    wn = WanderingNetwork(figure3_topology(),
                          WanderingNetworkConfig(seed=args.seed))
    wn.deploy_role(FusionRole, at="N2", activate=True)
    wn.deploy_role(CachingRole, at="N4", activate=True)
    wn.overlays.spawn(QosDemand(max_link_latency=0.1, name="video"),
                      overlay_id="overlay-video")
    wn.overlays.spawn(QosDemand(name="bulk"), overlay_id="overlay-bulk")
    print(render_topology(wn.topology))
    print()
    print(render_snapshot(wn.snapshot()))
    print()
    print(render_overlays(wn.overlays.snapshot()))
    return 0


def cmd_info(_args) -> int:
    from .functions import ALL_ROLES, FIRST_LEVEL, SECOND_LEVEL

    print(f"repro {__version__} — The Viator Approach, reproduced")
    print("paper: Simeonov, IPDPS/FTPDS 2002, pp. 139-146")
    print()
    print("systems:")
    for line in [
        "  substrates: sim kernel, physical net (+mobility/radio),",
        "              NodeOS, reconfigurable hardware, legacy IP,",
        "              classic AN (ANTS-like)",
        "  WLI core:   ships, shuttles, jets, netbots, knowledge quanta,",
        "              genetics, resonance, DCP/SRP/MFP/PMP, 1G-4G ladder",
        "  routing:    WLI adaptive ad-hoc, DV/flooding baselines,",
        "              QoS overlays",
        "  selfheal:   heartbeats, genome archive, reconstruction",
        "  resilience: ARQ shuttle transport, circuit breakers,",
        "              dead-letter queue, chaos campaigns",
        "  verify:     TLA-style checker + protocol specs",
    ]:
        print(line)
    print()
    print(f"function catalog ({len(ALL_ROLES)} roles):")
    print("  first level:  "
          + ", ".join(r.role_id for r in FIRST_LEVEL))
    print("  second level: "
          + ", ".join(r.role_id for r in SECOND_LEVEL))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    handler = {
        "demo": cmd_demo,
        "report": cmd_report,
        "obs": cmd_obs,
        "verify": cmd_verify,
        "chaos": cmd_chaos,
        "bench": cmd_bench,
        "shard": cmd_shard,
        "lint": cmd_lint,
        "shardcheck": cmd_shardcheck,
        "sanitize": cmd_sanitize,
        "figures": cmd_figures,
        "info": cmd_info,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
