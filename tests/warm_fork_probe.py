"""A shard workload that counts what its worker imports after the fork.

Run it as a script; it imports ``repro`` from this checkout's ``src``::

    python tests/warm_fork_probe.py

It runs :class:`LateImportProbe` over two ``mp`` workers three times
(obs off, obs on, and with shard 1 killed at barrier 2 and replaced)
and prints one JSON line: the ``late_imports`` each run summed over
its workers, and the restarts the kill run made.  A warm fork reads 0
in all three.

It must run in a fresh interpreter.  A process that has already built
a ship holds every module a replica needs, so its workers would read 0
whatever the package imports at start-up.
"""

import json
import pathlib
import sys

sys.path[:0] = [str(pathlib.Path(__file__).resolve().parent.parent / "src")]

from repro.perf.scenarios import SCENARIOS
from repro.shard import Fault, FaultPlan, RecoveryConfig, run_sharded


class LateImportProbe(SCENARIOS["shard-scaling"]):
    """``shard-scaling`` whose partial carries ``late_imports``: the
    number of modules its process imported between the first line of
    :meth:`build` and :meth:`collect`."""

    __slots__ = ()

    def build(self, owned=None):
        modules = frozenset(sys.modules)
        ctx = super().build(owned)
        ctx["modules_at_build"] = modules
        return ctx

    def collect(self, ctx, owned):
        partial = super().collect(ctx, owned)
        partial["late_imports"] = len(sys.modules.keys()
                                      - ctx["modules_at_build"])
        return partial


def main() -> None:
    kill = RecoveryConfig(barrier_deadline_s=30.0, backoff_base_s=0.005,
                          backoff_max_s=0.02,
                          faults=FaultPlan([Fault("kill", 2, 1)]))
    reading = {}
    for run, kwargs in (("off", {}), ("obs", {"obs": True}),
                        ("kill", {"recovery": kill})):
        counters, _, stats = run_sharded(LateImportProbe(1, "tiny"), 2,
                                         backend="mp", **kwargs)
        reading[run] = counters["late_imports"]
        if run == "kill":
            reading["restarts"] = stats["recovery"]["worker_restarts"]
            reading["degraded"] = stats["recovery"]["degraded"]
    print(json.dumps(reading, sort_keys=True))


if __name__ == "__main__":
    main()
