"""The coverage signal: what one program made the semantics *do*.

AFL-style guided fuzzing needs a cheap, deterministic fingerprint of a
run that grows when a candidate exercises new behaviour.  This module
extracts one from the obs event trace of a single reference run:

* the set of **Core op ids** reached (``function:index``, the stable
  attribution PR 5's elaborator stamps on every op and the Core
  evaluator threads through ``Event.core_op``) -- positional coverage,
  the closest analogue of AFL's edge map;
* the set of **UB kinds** the checker flagged (from ``check.ub`` events
  and the outcome record) -- semantic coverage of the UB catalogue;
* the set of **event-kind signatures** (the kind, refined by its
  salient payload: the UB entry, trap, ghost transition, cutoff reason,
  or intrinsic name) -- behavioural coverage across the 32-kind
  taxonomy.

The signal is computed from **one traced run of the global reference
with the Core evaluator pinned**, regardless of which evaluator the
campaign itself runs.  Pinning the reference semantics is what makes
coverage a pure function of the program by construction, not by the
compiled backend's choice to delegate traced runs to the Core loop:
two step-identical campaigns -- serial or pooled, ``--evaluator core``
or ``compiled`` -- observe identical coverage sets.  The same traced
run also yields the explainer's signature (the campaign's dedup key)
and the reference outcome, so guidance costs exactly one extra
reference execution per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import EventBus, TraceRecorder, explaining_signature
from repro.obs.events import Event
from repro.robust.budget import DEFAULT_FUZZ_BUDGET

#: Payload keys that refine an event kind into a semantic signature, in
#: the order the explainer itself considers them salient.
_SALIENT_KEYS = ("ub", "trap", "ghost", "reason", "limit")

#: Kinds whose ``name`` payload is a bounded vocabulary worth covering
#: (intrinsics come from a fixed catalogue; variable names do not).
_NAMED_KINDS = frozenset({"intrinsic.call"})


@dataclass(frozen=True)
class Coverage:
    """The coverage fingerprint of one run (three frozensets).

    ``ops`` are ``function:index`` Core op ids, ``ub`` are UB catalogue
    entries, ``events`` are refined event-kind signatures.  Frozen and
    hashable so coverage values can live in corpus entries, travel
    through the worker pool, and be unioned without copies.
    """

    ops: frozenset = frozenset()
    ub: frozenset = frozenset()
    events: frozenset = frozenset()

    def keys(self) -> frozenset:
        """The flat, namespaced key set used for corpus-worthiness
        judgements and merge arithmetic (``op:``/``ub:``/``ev:``)."""
        return frozenset(
            [f"op:{o}" for o in self.ops]
            + [f"ub:{u}" for u in self.ub]
            + [f"ev:{e}" for e in self.events])

    def union(self, other: "Coverage") -> "Coverage":
        return Coverage(ops=self.ops | other.ops,
                        ub=self.ub | other.ub,
                        events=self.events | other.events)

    def to_dict(self) -> dict:
        """JSON form with deterministic (sorted) ordering."""
        return {"ops": sorted(self.ops),
                "ub": sorted(self.ub),
                "events": sorted(self.events)}

    @classmethod
    def from_dict(cls, payload: dict) -> "Coverage":
        return cls(ops=frozenset(payload.get("ops", ())),
                   ub=frozenset(payload.get("ub", ())),
                   events=frozenset(payload.get("events", ())))


def _event_signature(event: dict) -> str:
    kind = event.get("kind", "")
    for key in _SALIENT_KEYS:
        value = event.get(key)
        if value:
            return f"{kind}:{value}"
    if kind in _NAMED_KINDS and event.get("name"):
        return f"{kind}:{event['name']}"
    return kind


def coverage_from_events(events, outcome=None) -> Coverage:
    """Distill a :class:`Coverage` from an event trace.

    ``events`` may be live :class:`Event` objects or JSONL dicts.  The
    optional ``outcome`` contributes its UB kind for UB raised outside
    the memory model (signed overflow in the interpreter reaches the
    trace only through the outcome record).
    """
    ops, ub, kinds = set(), set(), set()
    for event in events:
        if isinstance(event, Event):
            event = event.to_dict()
        core_op = event.get("core_op")
        if core_op:
            ops.add(core_op)
        value = event.get("ub")
        if value:
            ub.add(value)
        kinds.add(_event_signature(event))
    if outcome is not None and getattr(outcome, "ub", None):
        ub.add(outcome.ub.value)
    return Coverage(ops=frozenset(ops), ub=frozenset(ub),
                    events=frozenset(kinds))


@dataclass(frozen=True)
class CoverageProbe:
    """Everything one traced reference run yields for the campaign:
    the coverage fingerprint, the explainer's signature (the distinct
    -bug dedup key), and the reference outcome (``None`` on a crash)."""

    coverage: Coverage
    signature: tuple | None
    outcome: object


def coverage_of(program, impl=None,
                budget=DEFAULT_FUZZ_BUDGET) -> CoverageProbe:
    """Run ``program`` once on the (global) reference with tracing and
    the Core evaluator pinned, and distill the coverage probe.

    The evaluator pin is the determinism contract (see module
    docstring): callers must *not* thread the campaign's ``--evaluator``
    choice through here.  A crashing reference still yields the
    coverage of every event up to the crash.
    """
    from repro.fuzz.generator import FuzzProgram
    from repro.impls.registry import CERBERUS

    source = program.render() if isinstance(program, FuzzProgram) \
        else program
    if impl is None:
        impl = CERBERUS
    bus = EventBus()
    recorder = TraceRecorder()
    recorder.attach(bus)
    try:
        outcome = impl.run(source, bus=bus, budget=budget,
                           evaluator="core")
    except Exception:                        # noqa: BLE001 - fuzz boundary
        outcome = None
    events = recorder.events()
    return CoverageProbe(
        coverage=coverage_from_events(events, outcome),
        signature=explaining_signature(events),
        outcome=outcome)
