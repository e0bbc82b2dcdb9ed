"""Shuttles and jets: the active gene-coded packets of the WLI model.

"Active packets are called *shuttles* and carry code and data for the
upgrade/degrade and re-configuration of ships.  In addition, shuttles
can carry genetic information about the ships' architecture and their
communication patterns."

"a special class of shuttles, called *jets*, are allowed to replicate
themselves and to create/remove/modify other capsules and resources in
the network."

A shuttle's cargo is a list of *directives* interpreted by the receiving
ship (install code, load bitstream, acquire/activate roles, deploy
knowledge quanta, transcribe a genome, ...).  Its DCP half is
:meth:`Shuttle.morph_for`: "a shuttle approaching a ship can
re-configure itself becoming a *morphing packet* to provide the desired
interface and match a ship's requirements ... based on the destination
address and on the class of the ship included in this address."
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional

from ..obs import TRACE_META_KEY
from ..substrates.hardware import Bitstream
from ..substrates.nodeos import CodeModule
from ..substrates.phys import Datagram
from ..substrates.phys.packet import _packet_ids, copy_meta
from .genetics import Genome
from .knowledge import KnowledgeQuantum
from .ployon import Manifestation, Ployon, _ployon_ids

#: Directive operation names (the shuttle instruction set).
OP_INSTALL_CODE = "install-code"
OP_INSTALL_DRIVER = "install-driver"
OP_LOAD_BITSTREAM = "load-bitstream"
OP_ACQUIRE_ROLE = "acquire-role"
OP_ACTIVATE_ROLE = "activate-role"
OP_RELEASE_ROLE = "release-role"
OP_SET_NEXT_STEP = "set-next-step"
OP_DEPLOY_QUANTUM = "deploy-quantum"
OP_TRANSCRIBE_GENOME = "transcribe-genome"
OP_REQUEST_STATE = "request-state"

ALL_OPS = (OP_INSTALL_CODE, OP_INSTALL_DRIVER, OP_LOAD_BITSTREAM,
           OP_ACQUIRE_ROLE, OP_ACTIVATE_ROLE, OP_RELEASE_ROLE,
           OP_SET_NEXT_STEP, OP_DEPLOY_QUANTUM, OP_TRANSCRIBE_GENOME,
           OP_REQUEST_STATE)

#: Key under which a shuttle's construction-time manifest rides in
#: ``meta`` (SRP.1 self-description; verified at admission).
MANIFEST_META_KEY = "manifest"


def shuttle_manifest(directives: Iterable["Directive"]) -> tuple:
    """The self-description a shuttle declares at construction: the
    ordered op sequence of its cargo.  The admission verifier recomputes
    this at the dock — en-route tampering (a privileged directive spliced
    into a signed shuttle) shows up as a manifest mismatch."""
    return tuple(d.op for d in directives)


class Directive:
    """One reconfiguration instruction carried by a shuttle."""

    __slots__ = ("op", "args")

    def __init__(self, op: str, **args: Any):
        if op not in ALL_OPS:
            raise ValueError(f"unknown shuttle op {op!r}")
        self.op = op
        self.args = args

    @property
    def size_bytes(self) -> int:
        size = 16
        code = self.args.get("module")
        if isinstance(code, CodeModule):
            size += code.size_bytes
        bitstream = self.args.get("bitstream")
        if isinstance(bitstream, Bitstream):
            size += bitstream.size_bytes
        quantum = self.args.get("quantum")
        if isinstance(quantum, KnowledgeQuantum):
            size += quantum.size_bytes
        genome = self.args.get("genome")
        if isinstance(genome, Genome):
            size += genome.size_bytes
        return size

    def __repr__(self) -> str:
        return f"<Directive {self.op} {sorted(self.args)}>"


class Shuttle(Datagram, Ployon):
    """An active gene-coded packet (the packet manifestation of a ployon).

    Parameters
    ----------
    interface:
        The encodings/protocols this shuttle speaks at the dock (DCP
        matching surface).  A morphing shuttle rewrites this to match
        the target ship class.
    """

    manifestation = Manifestation.SHUTTLE

    __slots__ = ("directives", "credential", "interface", "target_class",
                 "morphs", "ployon_id", "data")

    BASE_SIZE = 96

    def __init__(self, src: Hashable, dst: Hashable,
                 directives: Optional[Iterable[Directive]] = None,
                 credential: Any = None,
                 interface: Iterable[str] = ("wli/1",),
                 target_class: Optional[str] = None,
                 ttl: int = 64, data: Any = None, **kw):
        directives = list(directives or [])
        size = self.BASE_SIZE + sum(d.size_bytes for d in directives)
        Datagram.__init__(self, src, dst, size_bytes=size, ttl=ttl, **kw)
        Ployon.__init__(self)
        self.directives: List[Directive] = directives
        self.credential = credential
        self.interface = tuple(interface)
        #: Ship class parsed from the destination address (the paper
        #: encodes it in the address; we carry it explicitly).
        self.target_class = target_class
        self.morphs = 0
        self.data = data
        # SRP.1: the shuttle describes its own cargo up front.  clone()
        # and spawn_copy() overwrite meta with the original's copy, which
        # is consistent because they carry the same directive list.
        self.meta[MANIFEST_META_KEY] = shuttle_manifest(directives)

    # -- ployon structure (DCP vocabulary) -----------------------------------
    def structure(self) -> Dict[str, Any]:
        functions = []
        hardware = []
        knowledge = []
        for d in self.directives:
            if d.op in (OP_INSTALL_CODE, OP_ACQUIRE_ROLE):
                mod = d.args.get("module")
                functions.append(mod.code_id if mod is not None
                                 else d.args.get("role_id"))
            elif d.op == OP_LOAD_BITSTREAM:
                hardware.append(d.args["bitstream"].function_id)
            elif d.op == OP_DEPLOY_QUANTUM:
                kq = d.args["quantum"]
                functions.append(kq.function_id)
                knowledge.extend(sorted({s["fact_class"]
                                         for s in kq.fact_snapshots}))
            elif d.op == OP_TRANSCRIBE_GENOME:
                genome = d.args["genome"]
                functions.extend(genome.modal_roles)
                hardware.extend(genome.hardware_functions)
        return {
            "functions": tuple(sorted({f for f in functions if f})),
            "hardware": tuple(sorted(set(hardware))),
            "knowledge": tuple(sorted(set(knowledge))),
            "interface": tuple(sorted(self.interface)),
        }

    # -- causal tracing -----------------------------------------------------
    @property
    def trace_context(self) -> Optional[tuple]:
        """The ``(trace_id, span_id)`` pair this shuttle's journey rides
        under, or None when untraced.  The context lives in ``meta`` so
        it survives :meth:`clone`, morphing and jet replication."""
        return self.meta.get(TRACE_META_KEY)

    @trace_context.setter
    def trace_context(self, ctx: Optional[tuple]) -> None:
        if ctx is None:
            self.meta.pop(TRACE_META_KEY, None)
        else:
            self.meta[TRACE_META_KEY] = ctx

    # -- morphing (DCP) --------------------------------------------------------
    def morph_for(self, ship_requirements: Dict[str, Any]) -> bool:
        """Re-configure the shuttle to match a ship's published interface.

        ``ship_requirements`` is the dict a ship publishes (its required
        ``interface`` tuple and ``ship_class``).  Returns True if the
        shuttle changed ("becoming a morphing packet").
        """
        wanted = tuple(sorted(ship_requirements.get("interface", ())))
        have = tuple(sorted(self.interface))
        changed = False
        if wanted and wanted != have:
            self.interface = wanted
            changed = True
        ship_class = ship_requirements.get("ship_class")
        if ship_class is not None and self.target_class != ship_class:
            self.target_class = ship_class
            changed = True
        if changed:
            self.morphs += 1
            self.meta["morphed"] = True
        return changed

    def compatible_with(self, ship_requirements: Dict[str, Any]) -> bool:
        """True iff the shuttle speaks the ship's *whole* dock interface.

        The class token matters: "this operation can be based on ...
        the class of the ship included in this address" — a shuttle
        built for a server-class dock must morph before an agent-class
        ship accepts it.
        """
        wanted = set(ship_requirements.get("interface", ()))
        return wanted <= set(self.interface)

    # -- cargo helpers -----------------------------------------------------
    def carried_code(self) -> List[CodeModule]:
        return [d.args["module"] for d in self.directives
                if d.op in (OP_INSTALL_CODE, OP_INSTALL_DRIVER,
                            OP_ACQUIRE_ROLE) and "module" in d.args]

    def carried_quanta(self) -> List[KnowledgeQuantum]:
        return [d.args["quantum"] for d in self.directives
                if d.op == OP_DEPLOY_QUANTUM]

    def carried_genomes(self) -> List[Genome]:
        return [d.args["genome"] for d in self.directives
                if d.op == OP_TRANSCRIBE_GENOME]

    def freeze_cargo(self) -> "Shuttle":
        """Freeze the directive list into a shared immutable tuple.

        Copy-on-write enabler: once frozen, :meth:`clone` shares the
        cargo tuple with every twin instead of rebuilding a list per
        clone — the ARQ transport freezes its retransmission templates
        so a storm of retries carries one shared cargo.  Directives are
        only ever replaced wholesale after construction (the admission
        tamper tests mutate *unfrozen* shuttles), so sharing is safe.
        Returns ``self`` for chaining.
        """
        if not isinstance(self.directives, tuple):
            self.directives = tuple(self.directives)
        return self

    def clone(self) -> "Shuttle":
        """Slot-for-slot clone skipping the constructor.

        Draws exactly one packet id and one ployon id, in the order the
        constructor does, so downstream flow ids and run digests are
        the same as for a constructor-built twin.  Frozen cargo is
        shared (copy-on-write); unfrozen cargo is shallow-copied, so
        the twin's list is its own.  ``payload`` is dropped, ``morphs``
        resets to 0, and size and manifest are carried over instead of
        recomputed.
        """
        twin = Shuttle.__new__(Shuttle)
        twin.packet_id = next(_packet_ids)
        twin.src = self.src
        twin.dst = self.dst
        twin.size_bytes = self.size_bytes
        twin.ttl = self.ttl
        twin.payload = None
        twin.created_at = self.created_at
        twin.hops = self.hops
        twin.flow_id = self.flow_id
        twin.meta = copy_meta(self.meta)
        twin.ployon_id = next(_ployon_ids)
        directives = self.directives
        twin.directives = (directives if isinstance(directives, tuple)
                           else list(directives))
        twin.credential = self.credential
        twin.interface = self.interface
        twin.target_class = self.target_class
        twin.morphs = 0
        twin.data = self.data
        return twin

    def __repr__(self) -> str:
        ops = [d.op for d in self.directives]
        return (f"<Shuttle #{self.packet_id} {self.src}->{self.dst} "
                f"ops={ops}>")


class Jet(Shuttle):
    """A self-replicating shuttle (WLI's privileged capsule class).

    A jet carries a payload of directives plus a replication policy:
    at every ship it visits it applies its directives, then spawns
    copies toward unvisited neighbours while its budget lasts.  Ships
    only honour jets whose credential holds the ``spawn`` privilege —
    replication happens "under the supervision of the NodeOS".
    """

    __slots__ = ("replicate_budget", "visited", "max_fanout")

    def __init__(self, src: Hashable, dst: Hashable,
                 directives: Optional[Iterable[Directive]] = None,
                 replicate_budget: int = 16, max_fanout: int = 3, **kw):
        super().__init__(src, dst, directives=directives, **kw)
        if replicate_budget < 0:
            raise ValueError("negative replicate budget")
        self.replicate_budget = int(replicate_budget)
        self.max_fanout = int(max_fanout)
        self.visited: set = {src}
        self.size_bytes += 32  # replication header

    def spawn_copy(self, new_dst: Hashable, budget: int) -> "Jet":
        """Slot-for-slot replica toward ``new_dst`` skipping the
        constructor (copy-on-write cargo, as in :meth:`Shuttle.clone`).

        The copy drops ``payload`` and ``data``, starts at
        ``created_at=0.0`` and ``hops=0``, resets ``morphs``, is marked
        ``meta["jet_copy"]``, and consumes one packet id plus one
        ployon id.
        """
        if budget < 0:
            raise ValueError("negative replicate budget")
        copy = Jet.__new__(Jet)
        copy.packet_id = next(_packet_ids)
        copy.src = self.src
        copy.dst = new_dst
        copy.size_bytes = self.size_bytes
        copy.ttl = self.ttl
        copy.payload = None
        copy.created_at = 0.0
        copy.hops = 0
        copy.flow_id = self.flow_id
        copy.meta = copy_meta(self.meta)
        copy.meta["jet_copy"] = True
        copy.ployon_id = next(_ployon_ids)
        directives = self.directives
        copy.directives = (directives if isinstance(directives, tuple)
                           else list(directives))
        copy.credential = self.credential
        copy.interface = self.interface
        copy.target_class = self.target_class
        copy.morphs = 0
        copy.data = None
        copy.replicate_budget = int(budget)
        copy.max_fanout = self.max_fanout
        copy.visited = set(self.visited)
        return copy

    def clone(self) -> "Jet":
        twin = self.spawn_copy(self.dst, self.replicate_budget)
        twin.created_at = self.created_at
        twin.hops = self.hops
        return twin

    def __repr__(self) -> str:
        return (f"<Jet #{self.packet_id} {self.src}->{self.dst} "
                f"budget={self.replicate_budget}>")
