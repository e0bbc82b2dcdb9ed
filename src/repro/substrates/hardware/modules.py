"""Plug-and-play hardware modules and module slots.

These realize the paper's *netbot* landing site: "Autonomous mobile
hardware components (netbots) take care for delivering their own 'driver'
routines (mobile code) at 'docking time' on the ship."  A
:class:`ModuleSlot` is a physical socket; docking a
:class:`HardwareModule` succeeds only when its driver has been installed
into the NodeOS — the synchronization footnote 6 calls out as missing
from every 2002-era product.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from ..nodeos import CodeKind, CodeModule
from .fabric import HardwareError

# fork-inherited id sequence: every shard replays the same
# construction order, so per-process copies advance identically
# (see shard/recovery.py)  # via: ignore[VIA013]
_module_ids = itertools.count(1)


class HardwareModule:
    """A pluggable piece of switching circuitry for one net function."""

    __slots__ = ("module_id", "function_id", "speedup", "driver",
                 "power_watts")

    def __init__(self, function_id: str, speedup: float = 16.0,
                 driver: Optional[CodeModule] = None,
                 power_watts: float = 5.0):
        if speedup < 1.0:
            raise HardwareError(f"speedup below 1.0: {speedup}")
        self.module_id = next(_module_ids)
        self.function_id = function_id
        self.speedup = float(speedup)
        # The module ships its own driver (the netbot carries it as
        # mobile code) — generated if not supplied.
        self.driver = driver or CodeModule(
            code_id=f"driver:{function_id}",
            name=f"{function_id} driver",
            size_bytes=8192,
            kind=CodeKind.DRIVER,
        )
        self.power_watts = float(power_watts)

    def __repr__(self) -> str:
        return (f"<HardwareModule #{self.module_id} {self.function_id} "
                f"x{self.speedup:.1f}>")


class ModuleSlot:
    """One physical plug-and-play socket on a ship's backplane."""

    __slots__ = ("slot_id", "module", "dock_count")

    def __init__(self, slot_id: int):
        self.slot_id = slot_id
        self.module: Optional[HardwareModule] = None
        self.dock_count = 0

    @property
    def occupied(self) -> bool:
        return self.module is not None

    def __repr__(self) -> str:
        fn = self.module.function_id if self.module else "empty"
        return f"<Slot {self.slot_id}: {fn}>"


class Backplane:
    """The bank of module slots of one ship.

    :meth:`dock` enforces driver synchronization: the NodeOS must have
    the module's driver installed *before* the circuitry goes live.
    """

    #: Mechanical/electrical insertion time in seconds.
    DOCK_SECONDS = 0.5

    def __init__(self, slots: int = 2):
        if slots < 0:
            raise HardwareError(f"negative slot count {slots}")
        self._slots: List[ModuleSlot] = [ModuleSlot(i) for i in range(slots)]
        self.docks = 0
        self.ejects = 0
        self.rejections = 0
        self.version = 0  # bumped by every dock and eject

    @property
    def slots(self) -> List[ModuleSlot]:
        return list(self._slots)

    def free_slot(self) -> Optional[ModuleSlot]:
        for slot in self._slots:
            if not slot.occupied:
                return slot
        return None

    def dock(self, module: HardwareModule, nodeos) -> ModuleSlot:
        """Insert a module.  Raises unless its driver is in the NodeOS."""
        if not nodeos.has_driver(module.driver.code_id):
            self.rejections += 1
            raise HardwareError(
                f"driver {module.driver.code_id} not installed; "
                f"dock of module #{module.module_id} rejected")
        slot = self.free_slot()
        if slot is None:
            self.rejections += 1
            raise HardwareError("no free module slot")
        slot.module = module
        slot.dock_count += 1
        self.docks += 1
        self.version += 1
        return slot

    def eject(self, slot: ModuleSlot) -> Optional[HardwareModule]:
        if slot not in self._slots:
            raise HardwareError(
                f"slot {slot.slot_id} is not on this backplane")
        module, slot.module = slot.module, None
        if module is not None:
            self.ejects += 1
        self.version += 1
        return module

    def find_function(self, function_id: str) -> Optional[ModuleSlot]:
        for slot in self._slots:
            if slot.module is not None and \
                    slot.module.function_id == function_id:
                return slot
        return None

    def hardware_speedup(self, function_id: str) -> float:
        slot = self.find_function(function_id)
        return slot.module.speedup if slot is not None else 1.0

    def describe(self) -> Dict:
        return {
            "slots": len(self._slots),
            "modules": sorted(
                s.module.function_id for s in self._slots if s.occupied),
        }

    def __repr__(self) -> str:
        used = sum(1 for s in self._slots if s.occupied)
        return f"<Backplane {used}/{len(self._slots)} slots occupied>"
