"""repro.shard — deterministic sharded execution.

Partition the Wandering Network across workers with digest-identical
results: a deterministic topology partitioner (:func:`partition`), a
boundary-aware fabric (:class:`ShardFabric`), and a conservative
epoch-synchronized executor (:func:`run_sharded`) with ``inline`` and
``mp`` backends.  The ``mp`` backend is always *fault-tolerant*
(:func:`run_supervised`): worker death or stall is detected, the shard
is respawned and replayed from an epoch journal, and the final digest
stays byte-identical to the fault-free run; a :class:`RecoveryConfig`
only tunes the supervision.  See
``docs/PERFORMANCE.md`` ("Sharded execution") and
``docs/RESILIENCE.md`` ("Fault-tolerant sharding").
"""

from .executor import (ShardWorkload, run_sharded, run_single,
                       shard_fabric_factory)
from .fabric import Handoff, ShardFabric
from .partition import ShardPlan, effective_k, partition
from .recovery import (EpochJournal, Fault, FaultPlan, RecoveryConfig,
                       RestartBudgetExhausted, ShardWorkerCrash,
                       ShardWorkerError, ShardWorkerTimeout,
                       outbox_digest)
from .supervisor import ShardSupervisor, run_supervised

__all__ = [
    "EpochJournal",
    "Fault",
    "FaultPlan",
    "Handoff",
    "RecoveryConfig",
    "RestartBudgetExhausted",
    "ShardFabric",
    "ShardPlan",
    "ShardSupervisor",
    "ShardWorkerCrash",
    "ShardWorkerError",
    "ShardWorkerTimeout",
    "ShardWorkload",
    "effective_k",
    "outbox_digest",
    "partition",
    "run_sharded",
    "run_single",
    "run_supervised",
    "shard_fabric_factory",
]
