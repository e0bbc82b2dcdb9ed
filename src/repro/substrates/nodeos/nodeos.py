"""The node operating system facade.

2G Wandering Networks are "programmable at both execution environment and
node operating system layer" (Section B).  :class:`NodeOS` is that layer:
it owns the code cache, EE registry, security manager, CPU scheduler and
driver table, and is the single authority through which capsules change a
node.  Ships (4G) and ANTS nodes (1G) are both built over it, differing
only in which NodeOS capabilities their generation unlocks.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from ..sim import Simulator
from .codecache import CodeCache, CodeKind, CodeModule
from .ee import EERegistry, ExecutionEnvironment
from .scheduler import CpuScheduler
from .security import Action, Credential, CredentialAuthority, SecurityManager

#: Simulated CPU cost constants (ops).  Chosen so that software-path
#: operations are microseconds and the cost ordering of Figure 2's
#: reconfiguration tiers is realistic; benches sweep them.
COST_FORWARD = 2_000            # plain store-and-forward of one packet
COST_EXECUTE_PER_BYTE = 15      # interpreting carried code
COST_INSTALL_PER_BYTE = 4       # persisting code into the cache
COST_BIND_EE = 50_000           # (re)binding code into an EE
COST_DRIVER_INSTALL = 250_000   # NodeOS driver update (netbot docking)


class NodeOSError(Exception):
    """Raised for invalid NodeOS operations (not policy denials)."""


class NodeOS:
    """Operating system of one active node.

    Parameters
    ----------
    sim, node_id:
        Kernel and the node's topology id.
    authority:
        Trust domain for capsule credentials.
    cpu_ops_per_second, cache_bytes, max_auxiliary_ees:
        Capacity knobs; the generation ladder and benches vary them.
    """

    def __init__(self, sim: Simulator, node_id: Hashable,
                 authority: Optional[CredentialAuthority] = None,
                 cpu_ops_per_second: float = 1e8,
                 cache_bytes: int = 1 << 20,
                 max_auxiliary_ees: int = 8):
        self.sim = sim
        self.node_id = node_id
        self.authority = authority or CredentialAuthority()
        self.security = SecurityManager(self.authority)
        self.cache = CodeCache(cache_bytes)
        self.ees = EERegistry(max_auxiliary_ees)
        self.cpu = CpuScheduler(sim, cpu_ops_per_second,
                                name=f"cpu:{node_id}")
        self.drivers: Dict[str, CodeModule] = {}
        self.boot_time = sim.now
        self.code_requests = 0
        self.code_request_misses = 0
        #: Per-principal cache bytes (resource access control half of
        #: the security-management class): code_id -> principal and the
        #: running per-principal byte totals.
        self._code_owner: Dict[str, str] = {}
        self._principal_bytes: Dict[str, int] = {}

    # -- authorization ----------------------------------------------------
    def authorize(self, cred: Optional[Credential], action: str) -> bool:
        return self.security.authorize(cred, action, now=self.sim.now)

    # -- code management --------------------------------------------------
    def install_code(self, module: CodeModule,
                     cred: Optional[Credential] = None,
                     pin: bool = False, enforce: bool = True) -> float:
        """Install code into the cache; returns the CPU delay (or raises).

        ``enforce=False`` is for the node's own boot-time provisioning.
        """
        if enforce and not self.authorize(cred, Action.INSTALL_CODE):
            raise PermissionError(
                f"install of {module.code_id} denied on {self.node_id}")
        missing = self.cache.missing_dependencies(module)
        if missing:
            raise NodeOSError(
                f"{module.code_id} missing dependencies: {missing}")
        if enforce and cred is not None:
            self._charge_cache_quota(cred.principal, module)
        if not self.cache.install(module, pin=pin):
            raise NodeOSError(
                f"no cache room for {module.code_id} on {self.node_id}")
        delay = self.cpu.execute(
            COST_INSTALL_PER_BYTE * module.size_bytes, "install")
        self.sim.trace.emit("nodeos.code.install", node=self.node_id,
                            code=module.code_id, version=module.version)
        return delay

    def _charge_cache_quota(self, principal: str,
                            module: CodeModule) -> None:
        """Enforce the per-principal cache-byte quota.

        Replacing one's own module re-charges only the delta; exceeding
        the quota raises PermissionError before the cache is touched.
        """
        quota = self.security.quota_for(principal)
        used = self._principal_bytes.get(principal, 0)
        previous = 0
        if self._code_owner.get(module.code_id) == principal:
            old = self.cache.peek(module.code_id)
            previous = old.size_bytes if old is not None else 0
        projected = used - previous + module.size_bytes
        if projected > quota.cache_bytes:
            self.security.denials.append(
                (self.sim.now, principal, "cache-quota"))
            raise PermissionError(
                f"{principal} cache quota exceeded on {self.node_id}: "
                f"{projected} > {quota.cache_bytes} bytes")
        self._principal_bytes[principal] = projected
        self._code_owner[module.code_id] = principal

    def principal_cache_usage(self, principal: str) -> int:
        return self._principal_bytes.get(principal, 0)

    def lookup_code(self, code_id: str,
                    min_version: int = 1) -> Optional[CodeModule]:
        self.code_requests += 1
        mod = self.cache.lookup(code_id, min_version)
        if mod is None:
            self.code_request_misses += 1
        return mod

    def install_driver(self, module: CodeModule,
                       cred: Optional[Credential] = None) -> float:
        """Install a NodeOS-level driver (netbot 'docking time' delivery)."""
        if module.kind != CodeKind.DRIVER:
            raise NodeOSError(f"{module.code_id} is not a driver")
        if not self.authorize(cred, Action.RECONFIGURE):
            raise PermissionError(
                f"driver install denied on {self.node_id}")
        self.drivers[module.code_id] = module
        delay = self.cpu.execute(COST_DRIVER_INSTALL, "driver")
        self.sim.trace.emit("nodeos.driver.install", node=self.node_id,
                            driver=module.code_id)
        return delay

    def remove_driver(self, code_id: str) -> None:
        """Take back a driver whose hardware never docked."""
        del self.drivers[code_id]
        self.sim.trace.emit("nodeos.driver.remove", node=self.node_id,
                            driver=code_id)

    def has_driver(self, code_id: str) -> bool:
        return code_id in self.drivers

    # -- EE / function management -----------------------------------------
    def provision_function(self, label: str, module: CodeModule,
                           modal: bool = False) -> ExecutionEnvironment:
        """Boot-time binding of a function into a fresh EE (no policy)."""
        self.cache.install(module, pin=modal)
        ee = self.ees.allocate(label, modal=modal)
        ee.bind(module, now=self.sim.now)
        return ee

    def bind_function(self, label: str, code_id: str,
                      cred: Optional[Credential] = None,
                      modal: bool = False) -> float:
        """Bind cached code into an EE (allocating it if needed).

        Returns the CPU delay.  This is the software-reconfiguration path
        of Figure 2 ("configuration / programming").
        """
        if not self.authorize(cred, Action.RECONFIGURE):
            raise PermissionError(f"bind denied on {self.node_id}")
        module = self.cache.lookup(code_id)
        if module is None:
            raise NodeOSError(f"code {code_id} not cached on {self.node_id}")
        ee = self.ees.get(label)
        if ee is None:
            ee = self.ees.allocate(label, modal=modal)
        ee.bind(module, now=self.sim.now)
        delay = self.cpu.execute(COST_BIND_EE, "bind")
        self.sim.trace.emit("nodeos.ee.bind", node=self.node_id,
                            ee=label, code=code_id)
        return delay

    def activate_function(self, label: str) -> None:
        """Make one EE the node's active function (one role at a time)."""
        target = self.ees.get(label)
        if target is None or not target.bound:
            raise NodeOSError(f"no bound EE {label!r} on {self.node_id}")
        current = self.ees.active_ee
        if current is not None and current is not target:
            current.deactivate()
        target.activate()
        self.sim.trace.emit("nodeos.ee.activate", node=self.node_id,
                            ee=label, code=target.module.code_id)

    # -- capsule execution accounting ---------------------------------------
    def execute_capsule(self, code_size_bytes: int,
                        ee: Optional[ExecutionEnvironment] = None,
                        category: str = "capsule") -> float:
        """Account interpretation of carried code; returns CPU delay."""
        delay = self.cpu.execute(
            COST_EXECUTE_PER_BYTE * max(code_size_bytes, 1), category)
        if ee is not None:
            ee.record_invocation(delay)
        return delay

    def forward_cost(self) -> float:
        """CPU delay of plain forwarding (legacy-compatible path)."""
        return self.cpu.execute(COST_FORWARD, "forward")

    # -- introspection (Self-Reference Principle hooks) ---------------------
    def describe(self) -> Dict:
        """The NodeOS part of a ship's self-description."""
        return {
            "node": self.node_id,
            "ees": self.ees.layout(),
            "drivers": sorted(self.drivers),
            "cache_used": self.cache.used_bytes,
            "cache_capacity": self.cache.capacity_bytes,
            "cached_code": sorted(m.code_id for m in self.cache.modules()),
        }

    def __repr__(self) -> str:
        return f"<NodeOS {self.node_id} {self.ees!r} {self.cache!r}>"
