"""The event bus and the semantic event taxonomy.

Every decision the executable semantics makes -- allocating, checking,
deriving, exposing, tainting -- can be published as an :class:`Event` on
an :class:`EventBus`.  Producers (the memory model, the interpreter, the
intrinsics) hold an optional bus and emit only when one is attached, so
the untraced hot path pays a single ``is None`` test per site.

Event kinds form a dotted taxonomy (the authoritative list is
:data:`EVENT_KINDS`; ``docs/SEMANTICS.md`` documents the payloads):

``alloc.create / alloc.kill / alloc.free / alloc.revoke``
    allocation lifecycle (S4.3 allocation table ``A``);
``region.reserve / region.reuse / region.quarantine``
    allocator churn: fresh reservations (including the S3.2
    representability padding), freed-region reuse under the
    ``freelist``/``quarantine`` policies, and quarantine admission
    (every one carries the ``policy`` name);
``prov.expose / prov.iota_fresh / prov.iota_resolve / prov.lookup``
    PNVI-ae-udi provenance transitions (S2.3, S3.3);
``deriv.arith / deriv.shift / deriv.member``
    capability derivations: the explicit S4.4 derivation step for
    ``(u)intptr_t`` arithmetic, and pointer arithmetic shifts;
``cap.bounds_set / cap.seal / cap.unseal / cap.tag_clear /
cap.perms_and / cap.address_set``
    monotonic capability mutations performed by intrinsics (S4.5);
``intrinsic.call``
    every CHERI intrinsic call with its argument and result rendering;
``ghost.set``
    ghost-state transitions (S3.3 excursions, S3.5 representation-byte
    writes);
``check.access / check.ub / check.trap``
    the access-check sequence: passed checks, abstract-machine UB
    verdicts (S4.2 catalogue), and hardware trap verdicts;
``mem.load / mem.store / mem.copy / mem.set``
    typed and bulk memory effects;
``interp.call / run.outcome``
    interpreter-level progress and the final observable outcome;
``robust.cutoff / robust.fault / robust.retry / robust.quarantine``
    resource governance (docs/ROBUSTNESS.md): budget cut-offs, injected
    faults, pool task retries, and pool-level quarantine verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

#: The closed set of event kinds (kept in sync with docs/SEMANTICS.md;
#: ``EventBus.emit`` validates against it so taxonomy drift is loud).
EVENT_KINDS = frozenset({
    "alloc.create", "alloc.kill", "alloc.free", "alloc.revoke",
    "region.reserve", "region.reuse", "region.quarantine",
    "prov.expose", "prov.iota_fresh", "prov.iota_resolve", "prov.lookup",
    "deriv.arith", "deriv.shift", "deriv.member",
    "cap.bounds_set", "cap.seal", "cap.unseal", "cap.tag_clear",
    "cap.perms_and", "cap.address_set",
    "intrinsic.call",
    "ghost.set",
    "check.access", "check.ub", "check.trap",
    "mem.load", "mem.store", "mem.copy", "mem.set",
    "interp.call", "run.outcome",
    "robust.cutoff", "robust.fault", "robust.retry", "robust.quarantine",
})


@dataclass(frozen=True)
class Event:
    """One semantic event.

    Attributes:
        seq: monotone sequence number within one bus (1-based).
        step: the interpreter's evaluation-step counter at emit time --
            the ``step N`` the explainer prints; 0 before/outside
            interpretation.
        kind: one of :data:`EVENT_KINDS`.
        data: JSON-serialisable payload; ``what`` holds a one-line
            human rendering used by the explainer.
        core_op: the Core IR op id (``function:index``) that was
            executing at emit time, or ``None`` outside any op (the
            run-level outcome record, events emitted before the first
            op).  Distinct from the ``op`` *payload* key some producers
            use for their own operation name.
    """

    seq: int
    step: int
    kind: str
    data: dict = field(default_factory=dict)
    core_op: str | None = None

    def to_dict(self) -> dict:
        """Flat JSONL shape: reserved keys first, payload inline."""
        out: dict = {"seq": self.seq, "step": self.step, "kind": self.kind}
        if self.core_op is not None:
            out["core_op"] = self.core_op
        out.update(self.data)
        return out

    @property
    def what(self) -> str:
        return str(self.data.get("what", ""))


class EventBus:
    """Dispatch point between the semantics and its observers.

    Producers call :meth:`emit`; observers (:class:`TraceRecorder`,
    :class:`Metrics`) register callables with :meth:`subscribe`.  The
    interpreter publishes its step counter by assigning :attr:`step`;
    the Core evaluator additionally publishes the active op id by
    assigning :attr:`op`, so every event produced while that op runs
    (loads, stores, derivations, checks) is attributed to it.
    """

    __slots__ = ("seq", "step", "op", "_subscribers")

    def __init__(self) -> None:
        self.seq = 0
        self.step = 0
        self.op: str | None = None
        self._subscribers: list[Callable[[Event], None]] = []

    def subscribe(self, handler: Callable[[Event], None]) -> None:
        self._subscribers.append(handler)

    def emit(self, kind: str, **data) -> Event:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if "seq" in data or "step" in data or "core_op" in data:
            # Would be silently shadowed by the reserved keys in to_dict.
            raise ValueError(
                "payload keys 'seq'/'step'/'core_op' are reserved")
        self.seq += 1
        event = Event(self.seq, self.step, kind, data, self.op)
        for handler in self._subscribers:
            handler(event)
        return event
