#!/usr/bin/env python
"""Closing the loop: wandering statistics design the next architecture.

Section E: "Functions can change their hosts (ships), wander and settle
down in other hosts, thus creating a valuable statistics about the
frequency of usage of wandering functions in the network.  The results
obtained after a careful evaluation of this data can be used for the
design of new network architectures and topologies."

Three acts:

1. **Exploration** — a fully dynamic Wandering Network discovers where
   functions belong (resonance + wandering under real demand);
2. **Evaluation** — `recommend_architecture` distils the run's
   statistics into static modal placements;
3. **The next generation** — a fresh network is provisioned from the
   recommendation and serves the same demand *from its first second* as
   well as the evolved one did at its end.

Run:  python examples/architecture_evolution.py
"""

from repro.analysis import (apply_recommendation, format_table,
                            recommend_architecture)
from repro.core import WanderingNetwork, WanderingNetworkConfig
from repro.functions import CachingRole, FusionRole
from repro.substrates.phys import ring_topology
from repro.workloads import ContentWorkload, MediaStreamSource

N = 10
EXPLORE_TIME = 400.0
SERVE_TIME = 120.0


def demand(wn):
    """The (fixed) demand both generations must serve."""
    web = ContentWorkload(wn.sim, wn.ships, clients=[3, 7], origin=0,
                          n_items=8, zipf_s=1.8, request_interval=0.4,
                          name="web")
    media = MediaStreamSource(wn.sim, wn.ships, 2, 8, rate_pps=4.0)
    web.start()
    media.start()
    return web


def main() -> None:
    # -- act 1: exploration ------------------------------------------------
    explorer = WanderingNetwork(
        ring_topology(N, latency=0.02),
        WanderingNetworkConfig(seed=9, pulse_interval=5.0,
                               resonance_threshold=2.0,
                               min_attraction=0.5))
    explorer.deploy_role(CachingRole, at=0, activate=True)
    explorer.deploy_role(FusionRole, at=5, activate=True)
    explore_web = demand(explorer)
    explorer.run(until=EXPLORE_TIME)
    late = explore_web.responses[len(explore_web.responses) * 3 // 4:]
    evolved_latency = sum(late) / len(late) * 1000

    print("=== act 1: exploration ===")
    print(f"wander events: {len(explorer.engine.events)}, "
          f"emergences: {explorer.resonance.emergences}")
    print(f"evolved steady-state latency: {evolved_latency:.1f} ms")

    # -- act 2: evaluation ---------------------------------------------------
    recommendation = recommend_architecture(
        explorer.alive_ships(), explorer.engine, min_handled=20)
    print("\n=== act 2: the statistics recommend ===")
    rows = [[p.role_id, p.node, f"{p.score:.0f}", p.reason]
            for p in recommendation.modal_placements[:8]]
    print(format_table(["function", "node", "score", "why"], rows))
    for note in recommendation.notes:
        print(f"  note: {note}")

    # -- act 3: the next generation --------------------------------------------
    def measure(network_label, provision):
        wn = WanderingNetwork(
            ring_topology(N, latency=0.02),
            WanderingNetworkConfig(seed=10, resonance_enabled=False,
                                   horizontal_wandering=False))
        provision(wn)
        web = demand(wn)
        wn.run(until=SERVE_TIME)
        lats = web.responses
        mean = sum(lats) / len(lats) * 1000 if lats else float("nan")
        return network_label, mean, len(lats)

    designed = measure("designed from statistics",
                       lambda wn: apply_recommendation(recommendation,
                                                       wn))
    naive = measure("naive (operator guess: all at node 0)",
                    lambda wn: (wn.deploy_role(CachingRole, at=0,
                                               activate=True),
                                wn.deploy_role(FusionRole, at=0)))

    print("\n=== act 3: cold-start service comparison "
          f"(first {SERVE_TIME:.0f} s) ===")
    print(format_table(
        ["architecture", "mean latency ms", "responses"],
        [[label, f"{mean:.1f}", n] for label, mean, n in
         (designed, naive)]))
    advantage = naive[1] / designed[1]
    print(f"\nthe statistics-designed architecture starts "
          f"{advantage:.1f}x better than the operator guess "
          f"(evolved reference: {evolved_latency:.1f} ms)")


if __name__ == "__main__":
    main()
