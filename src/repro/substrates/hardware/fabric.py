"""Synthetic reconfigurable gate fabric (the 3G-WN hardware layer).

The paper's footnote 6 notes that in 2002 "there is still no commercial
product or research prototype that allows the runtime exchange of
switching circuitry (plug-and-play modules) synchronized by driver
updates in the node operation system".  This module is that missing
substrate, simulated: an FPGA-like grid of configurable cells, divided
into regions, loaded with bitstreams under a partial-reconfiguration
cost model.  Hardware-resident functions process packets at a speedup
over their software twins, but reconfiguring them is orders of magnitude
slower than rebinding an EE — the asymmetry Figure 2's tiers rely on.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

# fork-inherited id sequence: every shard replays the same
# construction order, so per-process copies advance identically
# (see shard/recovery.py)  # via: ignore[VIA013]
_region_ids = itertools.count(1)


class HardwareError(Exception):
    """Raised for invalid fabric operations."""


class Bitstream:
    """A hardware configuration for one net function.

    ``cells`` is the region size it needs; ``speedup`` is the factor by
    which the hardware implementation beats software packet processing.
    """

    __slots__ = ("function_id", "cells", "speedup", "version", "size_bytes")

    def __init__(self, function_id: str, cells: int = 512,
                 speedup: float = 8.0, version: int = 1):
        if cells <= 0:
            raise HardwareError(f"non-positive cell count {cells}")
        if speedup < 1.0:
            raise HardwareError(f"speedup below 1.0: {speedup}")
        self.function_id = function_id
        self.cells = int(cells)
        self.speedup = float(speedup)
        self.version = int(version)
        # Rule of thumb: ~12 bytes of configuration per cell.
        self.size_bytes = self.cells * 12

    def __repr__(self) -> str:
        return (f"<Bitstream {self.function_id} v{self.version} "
                f"{self.cells}cells x{self.speedup:.1f}>")


class Region:
    """A contiguous chunk of fabric cells holding at most one bitstream."""

    __slots__ = ("region_id", "cells", "bitstream", "loads", "loaded_at")

    def __init__(self, cells: int):
        self.region_id = next(_region_ids)
        self.cells = cells
        self.bitstream: Optional[Bitstream] = None
        self.loads = 0
        self.loaded_at: Optional[float] = None

    @property
    def configured(self) -> bool:
        return self.bitstream is not None

    def __repr__(self) -> str:
        fn = self.bitstream.function_id if self.bitstream else "-"
        return f"<Region #{self.region_id} {self.cells}cells fn={fn}>"


class GateFabric:
    """The reconfigurable hardware of one ship.

    Parameters
    ----------
    total_cells:
        Fabric capacity; regions are carved out of it.
    reconfig_cells_per_second:
        Partial-reconfiguration throughput.  At the default 5e3 cells/s a
        512-cell function takes ~100 ms to (re)load versus ~0.5 ms for an
        EE rebind — the 2002-era hardware tier of Figure 2 costs two-plus
        orders of magnitude more than the software tier.
    """

    def __init__(self, total_cells: int = 8192,
                 reconfig_cells_per_second: float = 5e3):
        if total_cells <= 0:
            raise HardwareError(f"non-positive fabric size {total_cells}")
        if reconfig_cells_per_second <= 0:
            raise HardwareError("non-positive reconfiguration rate")
        self.total_cells = int(total_cells)
        self.reconfig_rate = float(reconfig_cells_per_second)
        self._regions: Dict[int, Region] = {}
        self.cells_used = 0
        self.total_loads = 0
        self.total_reconfig_time = 0.0
        self.version = 0  # bumped by every load, unload and free_region

    # -- region management --------------------------------------------------
    def allocate_region(self, cells: int) -> Region:
        if cells <= 0:
            raise HardwareError(f"non-positive region size {cells}")
        if self.cells_used + cells > self.total_cells:
            raise HardwareError(
                f"fabric full: need {cells}, free "
                f"{self.total_cells - self.cells_used}")
        region = Region(cells)
        self._regions[region.region_id] = region
        self.cells_used += cells
        return region

    def free_region(self, region: Region) -> None:
        if region.region_id not in self._regions:
            raise HardwareError(f"unknown region {region.region_id}")
        del self._regions[region.region_id]
        self.cells_used -= region.cells
        self.version += 1

    @property
    def regions(self) -> List[Region]:
        return list(self._regions.values())

    @property
    def free_cells(self) -> int:
        return self.total_cells - self.cells_used

    # -- (re)configuration ---------------------------------------------------
    def load(self, region: Region, bitstream: Bitstream,
             now: float = 0.0) -> float:
        """Load a bitstream into a region; returns reconfiguration delay."""
        if region.region_id not in self._regions:
            raise HardwareError(f"unknown region {region.region_id}")
        if bitstream.cells > region.cells:
            raise HardwareError(
                f"{bitstream.function_id} needs {bitstream.cells} cells, "
                f"region has {region.cells}")
        delay = bitstream.cells / self.reconfig_rate
        region.bitstream = bitstream
        region.loads += 1
        region.loaded_at = now
        self.total_loads += 1
        self.total_reconfig_time += delay
        self.version += 1
        return delay

    def unload(self, region: Region) -> Optional[Bitstream]:
        if region.region_id not in self._regions:
            raise HardwareError(f"unknown region {region.region_id}")
        bs, region.bitstream = region.bitstream, None
        self.version += 1
        return bs

    def find_function(self, function_id: str) -> Optional[Region]:
        for region in self._regions.values():
            if (region.bitstream is not None
                    and region.bitstream.function_id == function_id):
                return region
        return None

    def hardware_speedup(self, function_id: str) -> float:
        """Speedup factor if the function is in hardware, else 1.0."""
        region = self.find_function(function_id)
        if region is None:
            return 1.0
        return region.bitstream.speedup

    def describe(self) -> Dict:
        return {
            "total_cells": self.total_cells,
            "cells_used": self.cells_used,
            "functions": sorted(
                r.bitstream.function_id for r in self._regions.values()
                if r.bitstream is not None),
        }

    def __repr__(self) -> str:
        return (f"<GateFabric {self.cells_used}/{self.total_cells}cells "
                f"regions={len(self._regions)} loads={self.total_loads}>")
