"""Unit tests for the reconfigurable hardware substrate."""

import pytest

from repro.core.ship import Ship
from repro.functions import CachingRole, TranscodingRole
from repro.routing import StaticRouter
from repro.substrates.hardware import (Backplane, Bitstream, GateFabric,
                                       HardwareError, HardwareModule)
from repro.substrates.nodeos import NodeOS
from repro.substrates.phys import Datagram, NetworkFabric, line_topology
from repro.substrates.sim import Simulator


class TestBitstream:
    def test_validation(self):
        with pytest.raises(HardwareError):
            Bitstream("f", cells=0)
        with pytest.raises(HardwareError):
            Bitstream("f", speedup=0.5)

    def test_size_scales_with_cells(self):
        small = Bitstream("f", cells=100)
        big = Bitstream("f", cells=1000)
        assert big.size_bytes > small.size_bytes


class TestGateFabric:
    def test_allocate_within_capacity(self):
        fab = GateFabric(total_cells=1000)
        r = fab.allocate_region(600)
        assert fab.free_cells == 400
        with pytest.raises(HardwareError):
            fab.allocate_region(500)
        fab.free_region(r)
        assert fab.free_cells == 1000

    def test_load_returns_reconfig_delay(self):
        fab = GateFabric(total_cells=4096, reconfig_cells_per_second=1000.0)
        region = fab.allocate_region(512)
        delay = fab.load(region, Bitstream("fusion", cells=512))
        assert delay == pytest.approx(0.512)
        assert region.configured

    def test_load_too_big_for_region(self):
        fab = GateFabric()
        region = fab.allocate_region(100)
        with pytest.raises(HardwareError):
            fab.load(region, Bitstream("f", cells=200))

    def test_find_function_and_speedup(self):
        fab = GateFabric()
        region = fab.allocate_region(512)
        fab.load(region, Bitstream("caching", cells=256, speedup=12.0))
        assert fab.find_function("caching") is region
        assert fab.hardware_speedup("caching") == 12.0
        assert fab.hardware_speedup("other") == 1.0

    def test_reload_replaces_function(self):
        fab = GateFabric()
        region = fab.allocate_region(512)
        fab.load(region, Bitstream("a", cells=256))
        fab.load(region, Bitstream("b", cells=256))
        assert fab.find_function("a") is None
        assert fab.find_function("b") is region
        assert region.loads == 2

    def test_unload(self):
        fab = GateFabric()
        region = fab.allocate_region(512)
        fab.load(region, Bitstream("x", cells=100))
        bs = fab.unload(region)
        assert bs.function_id == "x"
        assert not region.configured

    def test_hw_reconfig_much_slower_than_ee_bind(self):
        """The Figure 2 tier asymmetry: hardware ≫ software reconfig."""
        sim = Simulator()
        nos = NodeOS(sim, "n")
        from repro.substrates.nodeos import COST_BIND_EE
        sw_delay = COST_BIND_EE / nos.cpu.ops_per_second
        fab = GateFabric()
        region = fab.allocate_region(512)
        hw_delay = fab.load(region, Bitstream("f", cells=512))
        assert hw_delay > 100 * sw_delay


class TestBackplane:
    def make(self):
        sim = Simulator()
        nos = NodeOS(sim, "ship1")
        cred = nos.authority.issue("netbot")
        nos.security.grant("netbot", "reconfigure")
        return sim, nos, cred

    def test_dock_requires_driver(self):
        sim, nos, cred = self.make()
        plane = Backplane(slots=1)
        mod = HardwareModule("boosting")
        with pytest.raises(HardwareError):
            plane.dock(mod, nos)
        assert plane.rejections == 1
        nos.install_driver(mod.driver, cred=cred)
        slot = plane.dock(mod, nos)
        assert slot.occupied
        assert plane.docks == 1

    def test_no_free_slot(self):
        sim, nos, cred = self.make()
        plane = Backplane(slots=1)
        m1, m2 = HardwareModule("a"), HardwareModule("b")
        nos.install_driver(m1.driver, cred=cred)
        nos.install_driver(m2.driver, cred=cred)
        plane.dock(m1, nos)
        with pytest.raises(HardwareError):
            plane.dock(m2, nos)

    def test_eject_frees_slot(self):
        sim, nos, cred = self.make()
        plane = Backplane(slots=1)
        mod = HardwareModule("a")
        nos.install_driver(mod.driver, cred=cred)
        slot = plane.dock(mod, nos)
        ejected = plane.eject(slot)
        assert ejected is mod
        assert plane.free_slot() is slot

    def test_speedup_lookup(self):
        sim, nos, cred = self.make()
        plane = Backplane(slots=2)
        mod = HardwareModule("transcoding", speedup=20.0)
        nos.install_driver(mod.driver, cred=cred)
        plane.dock(mod, nos)
        assert plane.hardware_speedup("transcoding") == 20.0
        assert plane.hardware_speedup("fusion") == 1.0

    def test_describe(self):
        sim, nos, cred = self.make()
        plane = Backplane(slots=2)
        mod = HardwareModule("fusion")
        nos.install_driver(mod.driver, cred=cred)
        plane.dock(mod, nos)
        assert plane.describe() == {"slots": 2, "modules": ["fusion"]}


class TestVersionStamps:
    """Every change to what the hardware holds bumps ``version``; a
    refused one leaves it, so a ship's receive plan stays valid."""

    def test_fabric_mutators_bump(self):
        fab = GateFabric(total_cells=1024)
        region = fab.allocate_region(512)
        assert fab.version == 0  # an empty region changes no speedup
        fab.load(region, Bitstream("f", cells=256))
        assert fab.version == 1
        fab.unload(region)
        assert fab.version == 2
        fab.free_region(region)
        assert fab.version == 3

    def test_refused_load_keeps_version(self):
        fab = GateFabric(total_cells=1024)
        small = fab.allocate_region(100)
        stray = GateFabric().allocate_region(512)
        with pytest.raises(HardwareError):
            fab.load(small, Bitstream("f", cells=200))
        with pytest.raises(HardwareError):
            fab.load(stray, Bitstream("f", cells=200))
        assert fab.version == 0

    def test_foreign_region_refused(self):
        # Unloading another fabric's region would clear it without
        # bumping its owner's version.
        owner, other = GateFabric(), GateFabric()
        region = owner.allocate_region(512)
        owner.load(region, Bitstream("f", cells=256, speedup=6.0))
        with pytest.raises(HardwareError):
            other.unload(region)
        assert owner.hardware_speedup("f") == 6.0
        assert (owner.version, other.version) == (1, 0)

    def test_foreign_slot_refused(self):
        sim = Simulator()
        nos = NodeOS(sim, "ship1")
        nos.security.grant("netbot", "reconfigure")
        owner, other = Backplane(slots=1), Backplane(slots=1)
        mod = HardwareModule("f")
        nos.install_driver(mod.driver, cred=nos.authority.issue("netbot"))
        slot = owner.dock(mod, nos)
        with pytest.raises(HardwareError):
            other.eject(slot)
        assert slot.module is mod
        assert (owner.version, other.version) == (1, 0)

    def test_backplane_mutators_bump(self):
        sim = Simulator()
        nos = NodeOS(sim, "ship1")
        nos.security.grant("netbot", "reconfigure")
        cred = nos.authority.issue("netbot")
        plane = Backplane(slots=1)
        m1, m2 = HardwareModule("a"), HardwareModule("b")
        with pytest.raises(HardwareError):
            plane.dock(m1, nos)  # driver missing
        assert plane.version == 0
        nos.install_driver(m1.driver, cred=cred)
        nos.install_driver(m2.driver, cred=cred)
        slot = plane.dock(m1, nos)
        assert plane.version == 1
        with pytest.raises(HardwareError):
            plane.dock(m2, nos)  # no free slot
        assert plane.version == 1
        plane.eject(slot)
        assert plane.version == 2


def _middle_ship():
    sim = Simulator(seed=3)
    topo = line_topology(3)
    fabric = NetworkFabric(sim, topo)
    router = StaticRouter(topo)
    ships = {node: Ship(sim, fabric, node, router=router)
             for node in topo.nodes}
    return ships[1]


def _pass_one(ship, category=None):
    """Send one media packet through ``ship``; returns the ops it booked
    under ``category``."""
    cpu = ship.nodeos.cpu.by_category
    before = cpu.get(category, 0.0)
    ship.receive(Datagram(0, 2, flow_id="f", payload={"kind": "media"}), 0)
    return cpu.get(category, 0.0) - before


class TestShipReceivePlan:
    def test_loaded_bitstream_speeds_up_next_packet(self):
        ship = _middle_ship()
        ship.acquire_role(TranscodingRole())
        ship.assign_role(TranscodingRole.role_id)
        category = "role:fn.transcoding"
        ops = TranscodingRole.cpu_ops_per_packet
        assert _pass_one(ship, category) == ops
        region = ship.fabric_hw.allocate_region(TranscodingRole.hw_cells)
        ship.fabric_hw.load(region, TranscodingRole.bitstream())
        assert _pass_one(ship, category) == \
            pytest.approx(ops / TranscodingRole.hw_speedup)
        ship.fabric_hw.unload(region)
        assert _pass_one(ship, category) == pytest.approx(ops)

    def test_assign_and_release_move_the_next_packet(self):
        ship = _middle_ship()
        caching, transcoding = CachingRole(), TranscodingRole()
        ship.acquire_role(caching)
        ship.acquire_role(transcoding)
        _pass_one(ship)
        assert (caching.packets_seen, transcoding.packets_seen) == (0, 0)
        ship.assign_role(CachingRole.role_id)
        _pass_one(ship)
        assert (caching.packets_seen, transcoding.packets_seen) == (1, 0)
        ship.assign_role(TranscodingRole.role_id)
        _pass_one(ship)
        assert (caching.packets_seen, transcoding.packets_seen) == (1, 1)
        ship.release_role(TranscodingRole.role_id)
        _pass_one(ship)
        assert (caching.packets_seen, transcoding.packets_seen) == (1, 1)
        assert "role:fn.caching" in ship.nodeos.cpu.by_category
