"""Per-layer spans recorded from outside the program.

The traced run wraps the public functions of ``repro.core``,
``repro.memory``, ``repro.perf``, ``repro.fuzz`` and ``repro.obs`` at the
names their callers look them up by, times every call, and restores
the originals afterwards.  Nothing inside ``src/`` is changed.

A span's *self* time is its duration minus the time covered by the
spans it directly encloses, so the self times of all layers never
overlap and ``wall - sum(self)`` is the time no layer accounts for.
A layer's *inclusive* time counts only its outermost open span, so a
layer that re-enters itself (``take_snapshot`` calling
``load_seed_corpus``) is not counted twice.

Spans are folded into per-layer totals as they close: one traced fuzz
run opens around a million memory spans, far too many to keep one by
one.  The totals stay in memory until the run ends and turns them into
its per-layer metrics.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

#: Layer -> [(module path, attribute path), ...]: where each layer's
#: public functions are looked up by their callers.  Functions that a
#: caller imported by name are wrapped at the caller's binding (a
#: module attribute); methods are wrapped on their class.
TIMED_LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "core.parse": (("repro.perf.cache", "parse_program"),),
    "core.optimise": (("repro.perf.cache", "optimize_program"),),
    "core.elaborate": (("repro.perf.cache", "elaborate_program"),),
    "core.thread": (("repro.perf.cache", "compile_threaded_ir"),),
    "core.execute": (("repro.impls.config", "Implementation.run_compiled"),),
    "memory.load": (("repro.memory.model", "MemoryModel.load"),),
    "memory.store": (("repro.memory.model", "MemoryModel.store"),),
    "memory.alloc": (("repro.memory.model", "MemoryModel.allocate_object"),
                     ("repro.memory.model", "MemoryModel.allocate_region"),
                     ("repro.memory.model", "MemoryModel.allocate_string")),
    "memory.free": (("repro.memory.model", "MemoryModel.free"),),
    "perf.disk.load": (("repro.perf.disk", "DiskCache.load"),),
    "perf.disk.store": (("repro.perf.disk", "DiskCache.store"),),
    "fuzz.generate": (("repro.fuzz.driver", "program_for"),
                      ("repro.fuzz.campaign", "derive_candidate")),
    "fuzz.oracle": (("repro.fuzz.driver", "evaluate_program"),
                    ("repro.fuzz.campaign", "evaluate_program")),
    "fuzz.coverage": (("repro.fuzz.campaign", "coverage_of"),),
    "fuzz.corpus.write": (("repro.fuzz.campaign", "save_seed"),
                          ("repro.fuzz.campaign", "record_witness"),
                          ("repro.fuzz.driver", "save_case")),
    "fuzz.corpus.read": (("repro.fuzz.campaign", "take_snapshot"),
                         ("repro.fuzz.campaign", "load_seed_corpus")),
    "fuzz.shrink": (("repro.fuzz.driver", "shrink"),),
}

#: (layer, counter) -> sites that are counted but not timed.
#: ``EventBus.emit`` runs once per semantic event, and timing it would
#: cost more than it measures; ``CoreEvaluator.run`` nests inside
#: ``run_compiled`` and only tells executed runs from run-memo hits
#: (the compiled evaluator's memo answers without reaching it).
COUNTED_LAYERS: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {
    ("obs.emit", "calls"): (("repro.obs.events", "EventBus.emit"),),
    ("core.execute", "executed"): (("repro.core.coreeval",
                                    "CoreEvaluator.run"),),
}

#: The pool layer, wrapped on its own in a separate pass at the
#: workload's ``jobs``: under ``jobs=1`` it encloses the whole workload
#: and would swallow every other layer's unaccounted time.
POOL_LAYER: dict[str, tuple[tuple[str, str], ...]] = {
    "perf.pool": (("repro.testsuite.compare", "parallel_map"),
                  ("repro.fuzz.driver", "parallel_map"),
                  ("repro.fuzz.campaign", "parallel_map")),
}


@dataclass
class LayerStats:
    """Running totals of one layer."""

    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)

    def bump(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


def _core_ops(core) -> int:
    """Core ops in one elaborated program (its functions plus the
    globals initialiser)."""
    return (sum(len(func.ops) for func in core.functions.values())
            + len(core.globals_init.ops))


def _resolve(module_name: str, path: str):
    """``(owner, attribute name)`` for ``module:path``, where ``path``
    is ``name`` or ``Class.name``."""
    owner = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Wraps layer entry points, records spans, and unwraps them.

    One tracer serves one pass: :meth:`install`, run the workload,
    :meth:`uninstall` (also on error), then read :attr:`layers`.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.layers: dict[str, LayerStats] = {}
        # One entry per open span: time covered by its direct children.
        self._stack: list[list[float]] = []
        self._open: dict[str, int] = {}
        # (owner, name, original, owned): ``owned`` is False when the
        # attribute was inherited, so uninstall deletes the override.
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans ---------------------------------------------------------

    def stats(self, layer: str) -> LayerStats:
        stats = self.layers.get(layer)
        if stats is None:
            stats = self.layers[layer] = LayerStats()
        return stats

    def is_open(self, layer: str) -> bool:
        return self._open.get(layer, 0) > 0

    def span(self, layer: str, fn, on_return=None):
        """``fn`` wrapped in a span of ``layer``; ``on_return(stats,
        result)`` adds layer-specific counters."""
        stack = self._stack
        opened = self._open
        stats = self.stats(layer)
        clock = self.clock

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            opened[layer] = opened.get(layer, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                opened[layer] -= 1
                stats.calls += 1
                stats.self_s += elapsed - children[0]
                if not opened[layer]:
                    stats.incl_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if on_return is not None:
                on_return(stats, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, layer: str, name: str, fn):
        """``fn`` wrapped so that each call only bumps counter
        ``name`` of ``layer``."""
        counters = self.stats(layer).counters

        def wrapper(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------

    def _patch(self, module_name: str, path: str, wrap) -> None:
        owner, name = _resolve(module_name, path)
        owned = not isinstance(owner, type) or name in vars(owner)
        original = getattr(owner, name)
        self._patches.append((owner, name, original, owned))
        setattr(owner, name, wrap(original))

    def install(self, *, layers=True, pool=False) -> None:
        """Wrap every timed and counted layer (``layers``) and/or the
        pool layer (``pool``)."""
        hooks = self._hooks()
        timed = {**TIMED_LAYERS} if layers else {}
        if pool:
            timed.update(POOL_LAYER)
        counted = COUNTED_LAYERS if layers else {}
        try:
            for layer, sites in timed.items():
                for module_name, path in sites:
                    self._patch(module_name, path,
                                lambda fn, layer=layer, path=path:
                                self.span(layer, fn,
                                          hooks.get((layer, path))))
            for (layer, name), sites in counted.items():
                for module_name, path in sites:
                    self._patch(module_name, path,
                                lambda fn, layer=layer, name=name:
                                self.counter(layer, name, fn))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, name, original, owned = self._patches.pop()
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _hooks(self) -> dict:
        """Per-site counters beyond calls and time."""

        def elaborated(stats, core):
            stats.bump("ir_ops", _core_ops(core))

        def disk_loaded(stats, core):
            if core is not None:
                stats.bump("hits")

        def oracle(stats, verdict):
            if self.is_open("fuzz.shrink"):
                self.stats("fuzz.shrink").bump("predicate_evals")

        def pooled(stats, results):
            from repro.perf.pool import TaskFailure
            stats.bump("items", len(results))
            stats.bump("failed", sum(isinstance(r, TaskFailure)
                                     for r in results))

        return {("core.elaborate", "elaborate_program"): elaborated,
                ("perf.disk.load", "DiskCache.load"): disk_loaded,
                ("fuzz.oracle", "evaluate_program"): oracle,
                ("perf.pool", "parallel_map"): pooled}

    # -- results -------------------------------------------------------

    def self_total(self) -> float:
        """Sum of every layer's self time."""
        return sum(stats.self_s for stats in self.layers.values())
