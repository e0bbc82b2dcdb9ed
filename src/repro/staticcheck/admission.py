"""Static admission verifier for mobile code (shuttles, jets, quanta).

SRP.1 demands that ships admit only well-behaved, self-describing code
("be fair and cooperative ... or be excluded"); DarwinNet-style systems
vet agent-synthesized protocol code *before* activation.  This module is
that gate: :meth:`AdmissionVerifier.vet` inspects a docked shuttle's
payload — directive schemas, knowledge-quantum well-formedness and size
bounds, the construction-time manifest, and a determinism lint of any
carried code — and returns a :class:`Verdict` *before*
``Ship._apply_directive`` executes anything.

The checks are pure: no RNG draws, no simulator events, no mutation of
the shuttle or the ship.  A rejected shuttle therefore cannot perturb
the run digest of unaffected traffic, which the chaos/digest tests rely
on.

Two modes:

* **structural** (the ship-dock default): reject payloads that could
  never apply cleanly under any credential — unknown ops, malformed or
  mistyped arguments, oversized or ill-formed quanta, tampered
  manifests, nondeterminism hazards in carried code.  Authorization
  stays a per-directive runtime concern so partially-authorized
  shuttles keep their paper semantics (apply what you may, deny the
  rest).
* **authorization** (``check_authorization=True``): additionally prove,
  against the receiving ship's :class:`SecurityManager` policy, that
  every directive's required action would be granted — the sender-side
  "will this shuttle land?" precheck.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..core.genetics import Genome
from ..core.knowledge import KnowledgeQuantum
from ..core.shuttle import (ALL_OPS, OP_ACQUIRE_ROLE, OP_ACTIVATE_ROLE,
                            OP_DEPLOY_QUANTUM, OP_INSTALL_CODE,
                            OP_INSTALL_DRIVER, OP_LOAD_BITSTREAM,
                            OP_RELEASE_ROLE, OP_REQUEST_STATE,
                            OP_SET_NEXT_STEP, OP_TRANSCRIBE_GENOME,
                            Shuttle, shuttle_manifest)
from ..substrates.hardware import Bitstream
from ..substrates.nodeos import Action, CodeModule
from .engine import lint_source
from .rules import MOBILE_CODE_RULES

# -- payload bounds (resource access control, Kulkarni & Minden) ----------
#: A quantum may carry at most this many fact snapshots ...
MAX_QUANTUM_FACTS = 64
#: ... and at most this many wire bytes.
MAX_QUANTUM_BYTES = 64 + 48 * MAX_QUANTUM_FACTS
#: One shuttle may carry at most this many directives ...
MAX_DIRECTIVES = 64
#: ... and at most this many cargo bytes.
MAX_SHUTTLE_BYTES = 1 << 20

#: op -> (required argument schema, optional argument schema); each
#: schema maps the argument name to the accepted type tuple.  ``object``
#: means "any value" (hashable addresses etc.).
DIRECTIVE_SCHEMAS: Dict[str, Tuple[Dict[str, tuple], Dict[str, tuple]]] = {
    OP_INSTALL_CODE: ({"module": (CodeModule,)}, {}),
    OP_INSTALL_DRIVER: ({"module": (CodeModule,)}, {}),
    OP_LOAD_BITSTREAM: ({"bitstream": (Bitstream,)}, {}),
    OP_ACQUIRE_ROLE: ({"role_id": (str,)},
                      {"module": (CodeModule,), "modal": (bool,)}),
    OP_ACTIVATE_ROLE: ({"role_id": (str,)}, {}),
    OP_RELEASE_ROLE: ({"role_id": (str,)}, {}),
    OP_SET_NEXT_STEP: ({"role_id": (str,)}, {}),
    OP_DEPLOY_QUANTUM: ({"quantum": (KnowledgeQuantum,)},
                        {"auto_acquire": (bool,)}),
    OP_TRANSCRIBE_GENOME: ({"genome": (Genome,)}, {"activate": (bool,)}),
    OP_REQUEST_STATE: ({}, {"reply_to": (object,)}),
}

#: DIRECTIVE_SCHEMAS with each schema's arguments sorted by name, the
#: order in which the vet checks and reports them.
_SORTED_SCHEMAS = {
    op: (tuple(sorted(required.items())), tuple(sorted(optional.items())))
    for op, (required, optional) in DIRECTIVE_SCHEMAS.items()}

#: op -> NodeOS action the runtime interpreter will demand (for the
#: authorization mode; mirrors Ship._apply_directive / NodeOS).
REQUIRED_ACTIONS: Dict[str, str] = {
    OP_INSTALL_CODE: Action.INSTALL_CODE,
    OP_INSTALL_DRIVER: Action.RECONFIGURE,
    OP_LOAD_BITSTREAM: Action.RECONFIGURE_HW,
    OP_ACQUIRE_ROLE: Action.RECONFIGURE,
    OP_ACTIVATE_ROLE: Action.RECONFIGURE,
    OP_RELEASE_ROLE: Action.RECONFIGURE,
    OP_TRANSCRIBE_GENOME: Action.RECONFIGURE,
    OP_REQUEST_STATE: Action.READ_STATE,
}

# Reject reason codes (stable vocabulary for obs labels and digests).
REASON_UNKNOWN_OP = "unknown-op"
REASON_MALFORMED_DIRECTIVE = "malformed-directive"
REASON_MALFORMED_QUANTUM = "malformed-quantum"
REASON_OVERSIZED_QUANTUM = "oversized-quantum"
REASON_TOO_MANY_DIRECTIVES = "too-many-directives"
REASON_OVERSIZED_SHUTTLE = "oversized-shuttle"
REASON_MANIFEST_MISMATCH = "manifest-mismatch"
REASON_CODE_HAZARD = "code-hazard"
REASON_UNAUTHORIZED_OP = "unauthorized-op"


class Verdict(NamedTuple):
    """The outcome of vetting one shuttle payload."""

    ok: bool
    reasons: Tuple[str, ...]          # "<code>: detail" per problem
    lint_rules: Tuple[str, ...]       # VIA rules hit in carried code

    @property
    def reason_code(self) -> Optional[str]:
        """The first (most severe, check order) reject code."""
        if self.ok:
            return None
        return self.reasons[0].split(":", 1)[0]

    @property
    def digest(self) -> str:
        """Deterministic fingerprint of the verdict (seed-independent)."""
        payload = json.dumps({"ok": self.ok, "reasons": list(self.reasons),
                              "lint": list(self.lint_rules)},
                             sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


#: The one verdict every accepted payload gets.
_ACCEPTED = Verdict(ok=True, reasons=(), lint_rules=())


class AdmissionVerifier:
    """Statically vets shuttle payloads before a ship executes them.

    One verifier can serve many ships; the carried-code lint verdicts
    are cached per code entry (module + qualname) so a role class is
    analyzed once per process, not once per dock.
    """

    #: Bound on the whole-shuttle verdict memo (LRU eviction).
    VERDICT_CACHE_CAP = 4096

    def __init__(self, lint_mobile_code: bool = True):
        self.lint_mobile_code = lint_mobile_code
        self._code_verdicts: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        #: Whole-shuttle verdict memo keyed by payload fingerprint
        #: (structural mode only; see :meth:`_payload_key`).
        self._verdicts: "OrderedDict[tuple, Verdict]" = OrderedDict()
        self.vets = 0
        self.rejections = 0
        self.verdict_cache_hits = 0

    # -- entry point -------------------------------------------------------
    def vet(self, shuttle: Shuttle, ship=None,
            check_authorization: bool = False) -> Verdict:
        """Inspect a shuttle's payload; returns a :class:`Verdict`.

        ``ship`` is only needed for ``check_authorization`` (its
        SecurityManager holds the policy to prove against).

        Structural-mode verdicts are memoized by a content fingerprint
        of the payload: an ARQ retransmission storm or a fleet of
        identical role shuttles vets once, not once per dock.  The
        fingerprint is recomputed from the live payload on every call,
        so in-place tampering (a rewritten op, a spliced directive)
        changes the key and misses the cache — tamper detection is
        never weakened, only duplicated work is.  A miss runs
        :meth:`_vet_uncached`.
        """
        self.vets += 1
        key = None
        if not check_authorization:
            key = self._payload_key(shuttle)
            if key is not None:
                try:
                    cached = self._verdicts.get(key)
                except TypeError:
                    # A tampered op or manifest entry that cannot be
                    # hashed: the payload is vetted cold, not memoized.
                    key = cached = None
                if cached is not None:
                    self._verdicts.move_to_end(key)
                    self.verdict_cache_hits += 1
                    if not cached.ok:
                        self.rejections += 1
                    return cached
        verdict = self._vet_uncached(shuttle, ship, check_authorization)
        if key is not None:
            self._verdicts[key] = verdict
            while len(self._verdicts) > self.VERDICT_CACHE_CAP:
                self._verdicts.popitem(last=False)
        return verdict

    def _vet_uncached(self, shuttle: Shuttle, ship,
                      check_authorization: bool) -> Verdict:
        reasons: List[str] = []
        lint_rules: List[str] = []
        directives = shuttle.directives
        if len(directives) > MAX_DIRECTIVES:
            reasons.append(f"{REASON_TOO_MANY_DIRECTIVES}: "
                           f"{len(directives)} > {MAX_DIRECTIVES}")
        cargo = sum(d.size_bytes for d in directives)
        if cargo > MAX_SHUTTLE_BYTES:
            reasons.append(f"{REASON_OVERSIZED_SHUTTLE}: "
                           f"{cargo}B > {MAX_SHUTTLE_BYTES}B")
        declared = shuttle.meta.get("manifest")
        if declared is not None and tuple(declared) \
                != shuttle_manifest(directives):
            reasons.append(f"{REASON_MANIFEST_MISMATCH}: directives do "
                           f"not match the construction-time manifest")
        for index, directive in enumerate(directives):
            self._check_directive(index, directive, reasons)
        if self.lint_mobile_code:
            for module in shuttle.carried_code():
                if not isinstance(module, CodeModule):
                    continue  # a mistyped module arg is reported above
                hits = self._lint_code_module(module)
                if hits:
                    lint_rules.extend(hits)
                    reasons.append(
                        f"{REASON_CODE_HAZARD}: {module.code_id} trips "
                        f"{','.join(hits)}")
        if check_authorization and ship is not None:
            reasons.extend(self._check_authorization(shuttle, ship))
        if not reasons:
            return _ACCEPTED
        self.rejections += 1
        return Verdict(ok=False, reasons=tuple(reasons),
                       lint_rules=tuple(lint_rules))

    # -- verdict memo ------------------------------------------------------
    @staticmethod
    def _arg_token(name: str, value) -> Optional[tuple]:
        """A hashable content token for one directive argument, or
        ``None`` when the argument cannot be fingerprinted (the shuttle
        is then vetted uncached)."""
        if value is None or isinstance(value, (str, int, float, bool)):
            return (name, value)
        if isinstance(value, CodeModule):
            # size_bytes is a declared field independent of code_id, so
            # it goes into the token (the cargo-bound check reads it).
            entry = value.entry
            return (name, "module", value.code_id, value.size_bytes,
                    getattr(entry, "__module__", None),
                    getattr(entry, "__qualname__", None))
        if isinstance(value, KnowledgeQuantum):
            # kq ids are allocated once per constructed object and never
            # reused, so the id is a sound identity token: retransmitted
            # clones share the object, distinct quanta get fresh keys.
            # (A caller mutating a quantum's snapshots *in place* after
            # a vet would see the stale verdict — the repo never does;
            # tampering replaces directives, which changes the key.)
            return (name, "kq", value.kq_id, len(value.fact_snapshots))
        if isinstance(value, Bitstream):
            return (name, "bitstream", value.function_id, value.cells)
        if isinstance(value, Genome):
            return (name, "genome", value.genome_id)
        return None

    def _payload_key(self, shuttle: Shuttle) -> Optional[tuple]:
        """Content fingerprint of everything the structural vet reads.

        One cheap pass over the payload: per directive its op and
        argument tokens, plus the declared manifest and the lint flag.
        Directive wire size is *derived* from op and args (every sized
        carried object contributes its size through its token), so it
        needs no slot of its own.  Recomputed on every call — the memo
        trades repeated schema/quantum/manifest/lint work for one
        fingerprint pass, not for blindness to mutation.
        """
        declared = shuttle.meta.get("manifest")
        parts = [tuple(declared) if declared is not None else None,
                 self.lint_mobile_code]
        token_of = self._arg_token
        for directive in shuttle.directives:
            args = getattr(directive, "args", None)
            if not isinstance(args, dict):
                return None
            arg_tokens = []
            for arg_name in sorted(args):
                token = token_of(arg_name, args[arg_name])
                if token is None:
                    return None
                arg_tokens.append(token)
            parts.append((getattr(directive, "op", None),
                          tuple(arg_tokens)))
        return tuple(parts)

    # -- directive schemas -------------------------------------------------
    def _check_directive(self, index: int, directive,
                         problems: List[str]) -> None:
        """Append what is wrong with one directive to ``problems``."""
        op = getattr(directive, "op", None)
        # A tuple scan, not a dict lookup: an unhashable op is reported,
        # not raised.
        if op not in ALL_OPS:
            problems.append(
                f"{REASON_UNKNOWN_OP}: directive[{index}] op={op!r}")
            return
        required, optional = _SORTED_SCHEMAS[op]
        args = directive.args
        for name, types in required:
            if name not in args:
                problems.append(
                    f"{REASON_MALFORMED_DIRECTIVE}: directive[{index}] "
                    f"{op} missing required arg {name!r}")
            elif object not in types and not isinstance(args[name], types):
                problems.append(
                    f"{REASON_MALFORMED_DIRECTIVE}: directive[{index}] "
                    f"{op} arg {name!r} has type "
                    f"{type(args[name]).__name__}")
        for name, types in optional:
            if name in args and object not in types \
                    and not isinstance(args[name], types):
                problems.append(
                    f"{REASON_MALFORMED_DIRECTIVE}: directive[{index}] "
                    f"{op} arg {name!r} has type "
                    f"{type(args[name]).__name__}")
        if op == OP_DEPLOY_QUANTUM and isinstance(args.get("quantum"),
                                                  KnowledgeQuantum):
            self._check_quantum(index, args["quantum"], problems)

    @staticmethod
    def _check_quantum(index: int, kq: KnowledgeQuantum,
                       problems: List[str]) -> None:
        if not isinstance(kq.function_id, str) or not kq.function_id:
            problems.append(f"{REASON_MALFORMED_QUANTUM}: "
                            f"directive[{index}] empty function_id")
        if len(kq.fact_snapshots) > MAX_QUANTUM_FACTS \
                or kq.size_bytes > MAX_QUANTUM_BYTES:
            problems.append(
                f"{REASON_OVERSIZED_QUANTUM}: directive[{index}] "
                f"{len(kq.fact_snapshots)} facts / {kq.size_bytes}B "
                f"(caps {MAX_QUANTUM_FACTS} / {MAX_QUANTUM_BYTES}B)")
        for snap in kq.fact_snapshots:
            if not isinstance(snap, dict) \
                    or not isinstance(snap.get("fact_class"), str) \
                    or "value" not in snap \
                    or not isinstance(snap.get("weight", 1.0),
                                      (int, float)) \
                    or snap.get("weight", 1.0) < 0:
                problems.append(f"{REASON_MALFORMED_QUANTUM}: "
                                f"directive[{index}] ill-formed fact "
                                f"snapshot")
                break

    # -- carried-code determinism lint --------------------------------------
    def _lint_code_module(self, module: CodeModule) -> Tuple[str, ...]:
        entry = module.entry
        if entry is None:
            return ()
        key = (getattr(entry, "__module__", "") or "",
               getattr(entry, "__qualname__", "") or "")
        if all(key):
            cached = self._code_verdicts.get(key)
            if cached is not None:
                return cached
        try:
            source = inspect.getsource(entry)
        except (OSError, TypeError):
            # Source unavailable (REPL, C extension): tolerated — the
            # runtime capability checks still apply.
            return ()
        try:
            findings = lint_source(source, path=module.code_id,
                                   select=MOBILE_CODE_RULES)
        except Exception:
            # Unparseable fragments (indented method sources, etc.)
            # cannot be vetted; fall back to runtime enforcement.
            findings = []
        hits = tuple(sorted({f.rule_id for f in findings}))
        if all(key):
            self._code_verdicts[key] = hits
        return hits

    # -- authorization mode --------------------------------------------------
    @staticmethod
    def _check_authorization(shuttle: Shuttle, ship) -> List[str]:
        problems: List[str] = []
        security = ship.nodeos.security
        for index, directive in enumerate(shuttle.directives):
            action = REQUIRED_ACTIONS.get(directive.op)
            if action is None:
                continue
            if not security.would_allow(shuttle.credential, action):
                problems.append(
                    f"{REASON_UNAUTHORIZED_OP}: directive[{index}] "
                    f"{directive.op} requires {action!r} which policy "
                    f"denies")
        return problems
