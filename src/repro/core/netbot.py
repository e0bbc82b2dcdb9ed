"""Netbots: autonomous mobile hardware components.

"Autonomous mobile hardware components (*netbots*) take care for
delivering their own 'driver' routines (mobile code) at 'docking time'
on the ship."

A netbot is *physical* cargo: it travels the topology hop by hop at
freight speed (orders slower than packets), re-planning its path at
every hop so it survives topology churn.  On arrival it first injects
its driver into the ship's NodeOS (the mobile code it carries), then
docks its hardware module into a backplane slot — the driver-before-
circuitry synchronization of footnote 6.

The journey is a chain of kernel callbacks, like every other actor's
waiting: *depart* emits ``netbot.depart`` and plans; *plan* docks on
arrival, else schedules *arrive* at the next hop one
``hop_transit_time`` later (with no path it plans again after that
long, and strands after 50 such re-plans); *arrive* steps across unless
the link went down during transit, then plans.  A netbot that reaches a
target missing from its ``ships`` map, or dead, strands there; every
strand emits ``netbot.stranded``.
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, List, Tuple

from ..substrates.hardware import HardwareError, HardwareModule
from ..substrates.sim import Simulator

NodeId = Hashable

_netbot_ids = itertools.count(1)

#: No-path re-plans a journey makes before the netbot strands.
_MAX_REPLANS = 50


class NetbotState:
    IDLE = "idle"
    IN_TRANSIT = "in-transit"
    DOCKED = "docked"
    STRANDED = "stranded"
    REJECTED = "rejected"


class Netbot:
    """One autonomous plug-and-play hardware component on the move."""

    def __init__(self, sim: Simulator, module: HardwareModule,
                 location: NodeId, credential=None,
                 hop_transit_time: float = 30.0):
        if hop_transit_time <= 0:
            raise ValueError("hop_transit_time must be positive")
        self.netbot_id = next(_netbot_ids)
        self.sim = sim
        self.module = module
        self.location = location
        self.credential = credential
        self.hop_transit_time = float(hop_transit_time)
        self.state = NetbotState.IDLE
        self.hops_travelled = 0
        self.docked_slot = None
        self.itinerary: List[Tuple[float, NodeId]] = [(sim.now, location)]

    def dispatch(self, ships: Dict[NodeId, object], target: NodeId) -> None:
        """Travel to ``target`` and dock there.

        ``ships`` maps node ids to Ship objects (the netbot needs the
        target's NodeOS and backplane at docking time, plus the topology
        through any member's fabric).  The netbot is in transit from
        this call on; a moving or docked netbot refuses a new dispatch.
        """
        if self.state == NetbotState.IN_TRANSIT:
            raise RuntimeError(f"netbot #{self.netbot_id} already moving")
        if self.state == NetbotState.DOCKED:
            raise RuntimeError(
                f"netbot #{self.netbot_id} is docked: undock it first")
        self.state = NetbotState.IN_TRANSIT
        self.sim.call_in(0.0, self._depart, ships, target)

    # -- the journey --------------------------------------------------------
    def _depart(self, ships: Dict[NodeId, object], target: NodeId) -> None:
        self.sim.trace.emit("netbot.depart", netbot=self.netbot_id,
                            frm=self.location, to=target)
        self._plan(ships, target, 0)

    def _plan(self, ships: Dict[NodeId, object], target: NodeId,
              replans: int) -> None:
        if self.location == target:
            self._dock(ships.get(target))
            return
        path = self._topology(ships).path(self.location, target,
                                          weight="hops")
        if path is None or len(path) < 2:
            replans += 1
            if replans > _MAX_REPLANS:
                self.state = NetbotState.STRANDED
                self.sim.trace.emit("netbot.stranded", netbot=self.netbot_id,
                                    at=self.location)
                return
            # Wait for the topology to change, then re-plan.
            self.sim.call_in(self.hop_transit_time, self._plan, ships,
                             target, replans)
            return
        self.sim.call_in(self.hop_transit_time, self._arrive, ships, target,
                         replans, path[1])

    def _arrive(self, ships: Dict[NodeId, object], target: NodeId,
                replans: int, next_hop: NodeId) -> None:
        topology = self._topology(ships)
        if (topology.has_link(self.location, next_hop)
                and topology.link(self.location, next_hop).up):
            self.location = next_hop
            self.hops_travelled += 1
            self.itinerary.append((self.sim.now, next_hop))
            self.sim.trace.emit("netbot.hop", netbot=self.netbot_id,
                                at=next_hop)
        # else the link vanished mid-transit: re-plan from here
        self._plan(ships, target, replans)

    def _topology(self, ships: Dict[NodeId, object]):
        any_ship = next(iter(ships.values()))
        return any_ship.fabric.topology

    # -- docking --------------------------------------------------------------
    def _dock(self, ship) -> None:
        """Driver first, then circuitry (footnote 6's synchronization).

        A refused module takes back the driver its netbot installed; a
        driver the ship already held stays.
        """
        if ship is None or not ship.alive:
            self.state = NetbotState.STRANDED
            self.sim.trace.emit("netbot.stranded", netbot=self.netbot_id,
                                at=self.location)
            return
        driver = self.module.driver
        had_driver = ship.nodeos.has_driver(driver.code_id)
        try:
            ship.nodeos.install_driver(driver, cred=self.credential)
        except PermissionError:
            self.state = NetbotState.REJECTED
            self.sim.trace.emit("netbot.rejected", netbot=self.netbot_id,
                                ship=ship.ship_id, reason="driver-denied")
            return
        try:
            self.docked_slot = ship.backplane.dock(self.module, ship.nodeos)
        except HardwareError as exc:
            if not had_driver:
                ship.nodeos.remove_driver(driver.code_id)
            self.state = NetbotState.REJECTED
            self.sim.trace.emit("netbot.rejected", netbot=self.netbot_id,
                                ship=ship.ship_id, reason=str(exc))
            return
        self.state = NetbotState.DOCKED
        ship.reconfig_events.append(
            (self.sim.now, "hardware", ship.backplane.DOCK_SECONDS))
        self.sim.trace.emit("netbot.dock", netbot=self.netbot_id,
                            ship=ship.ship_id,
                            function=self.module.function_id)

    def undock(self, ship) -> bool:
        if self.state != NetbotState.DOCKED or self.docked_slot is None:
            return False
        ship.backplane.eject(self.docked_slot)
        self.docked_slot = None
        self.state = NetbotState.IDLE
        self.sim.trace.emit("netbot.undock", netbot=self.netbot_id,
                            ship=ship.ship_id)
        return True

    def __repr__(self) -> str:
        return (f"<Netbot #{self.netbot_id} {self.module.function_id} "
                f"{self.state} at={self.location}>")
