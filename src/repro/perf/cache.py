"""The compilation cache behind :meth:`Implementation.run`.

Compilation -- lexing, parsing, the modelled optimisation passes,
elaboration and threading -- is a pure function of ``(source, arch,
opt_level)``.  Everything else an
:class:`~repro.impls.config.Implementation` carries (address map,
abstract-vs-hardware mode, revocation, allocator policy, sub-object
bounds, semantics options) is applied by the
:class:`~repro.memory.model.MemoryModel` while the program *runs*, so
e.g. all four ``-O0`` hardware implementations plus the reference and
``cerberus-permissive`` share a single compile of each test program.
The S5 comparison compiles each of the 94 programs twice (once per
distinct opt level) instead of seven times, and the differential oracle
compiles each generated program once per distinct (arch, opt level)
instead of once per target.

Five layers of reuse, each with its own :class:`CacheStats` in
``CompileCache.stats`` (a :class:`CacheStatsSet`):

* a *parse* memo keyed by ``(source, arch)`` -- the AST before
  optimisation, shared across opt levels (AST nodes are frozen
  dataclasses, so sharing is safe);
* the *compiled* cache keyed by the compile identity ``(source, arch,
  opt_level)``, holding the optimised program that elaboration reads
  (consulted only on a core-layer and disk miss) -- or the frontend
  error, so a program the frontend rejects is rejected once, not once
  per implementation;
* the *core* cache, keyed by the same compile identity, holding the
  elaborated :class:`~repro.core.coreir.CoreProgram` (built from the
  optimised AST) -- or the elaboration error, cached with the same
  once-not-once-per-implementation policy as frontend rejections;
* the *threaded* cache, keyed by the same compile identity, holding the
  direct-threaded :class:`~repro.core.compile.CompiledProgram` built
  from the cached Core program.  Compiled programs are closures and so
  **process-local**: they never pickle across the worker pool -- a
  worker that needs one compiles it in-process from the task's source
  (tasks carry sources, not programs), and a ``CompiledProgram`` that
  is pickled anyway reduces to its Core program and recompiles on
  unpickle;
* the *disk* layer (:mod:`repro.perf.disk`): a content-addressed
  on-disk store of pickled Core programs backing the core layer, keyed
  by the SHA-256 of the same compile identity, shared across worker
  processes **and across CLI invocations**.  A core-layer miss consults
  it before compiling, and a fresh compile publishes to it, so a
  warm-started process (or a cold pool worker) performs zero frontend
  compiles for sources any previous run compiled.  Rejections are never
  written to disk -- they are cheap to rediscover and memory-cached per
  process.

The in-memory layers are bounded LRU maps (entries evicted
oldest-first), sized for a long fuzz campaign without unbounded growth,
and are per-process: worker processes forked by :mod:`repro.perf.pool`
inherit the parent's entries at fork time and then populate their own
copies.  The disk layer is what makes that cheap to live with --
spawned or recycled workers warm-start from it instead of recompiling.

``set_cache_enabled(False)`` (the CLI's ``--no-compile-cache``)
bypasses every layer; ``configure_disk_cache`` (the CLI's
``--cache-dir``/``--no-disk-cache``) controls only the disk layer.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.core.compile import compile_core as compile_threaded_ir
from repro.core.cparser import parse_program
from repro.core.elaborate import elaborate_program
from repro.core.optimizer import optimize_program
from repro.errors import CSyntaxError, CTypeError
from repro.perf.disk import DiskCache, default_cache_dir

#: Default entry bound for the in-memory cache layers.
DEFAULT_MAXSIZE = 4096


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache layer."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "hit_rate": round(self.hit_rate, 4)}


class CacheStatsSet:
    """Per-layer :class:`CacheStats` for one :class:`CompileCache`.

    One entry per layer (``parse``/``compiled``/``core``/``threaded``/
    ``disk``) plus aggregates.  The pre-PR-8 single counter was blind
    to the core and threaded layers -- the default ``compiled``
    evaluator never touched it, so warm runs reported a 0.0 hit rate.
    """

    LAYERS = ("parse", "compiled", "core", "threaded", "disk")

    def __init__(self) -> None:
        self.parse = CacheStats()
        self.compiled = CacheStats()
        self.core = CacheStats()
        self.threaded = CacheStats()
        self.disk = CacheStats()

    def layer(self, name: str) -> CacheStats:
        return getattr(self, name)

    @property
    def hits(self) -> int:
        return sum(self.layer(name).hits for name in self.LAYERS)

    @property
    def misses(self) -> int:
        return sum(self.layer(name).misses for name in self.LAYERS)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def compiles_performed(self) -> int:
        """Frontend compiles this cache actually executed: every parse
        that ran (a disk hit serves the elaborated Core program without
        parsing, so a fully warm-started run reads 0 here)."""
        return self.parse.misses

    def to_dict(self) -> dict:
        report = {name: self.layer(name).to_dict()
                  for name in self.LAYERS}
        report["total"] = {"hits": self.hits, "misses": self.misses,
                           "hit_rate": round(self.hit_rate, 4)}
        report["compiles_performed"] = self.compiles_performed
        return report

    def summary(self) -> str:
        """Human-readable per-layer table (the CLI's ``--metrics``)."""
        lines = ["compile cache (layer: hits/misses, hit-rate):"]
        for name in self.LAYERS:
            stats = self.layer(name)
            lines.append(f"  {name:<9s} {stats.hits:6d} /{stats.misses:6d}"
                         f"   {stats.hit_rate:5.2f}")
        lines.append(f"  compiles performed: {self.compiles_performed}")
        return "\n".join(lines) + "\n"


class CompileCache:
    """LRU cache of compiled programs (and frontend rejections).

    ``disk`` selects the persistent backing layer: the default follows
    the process-wide configuration (``configure_disk_cache``); pass an
    explicit :class:`~repro.perf.disk.DiskCache` to pin a directory, or
    ``None`` for a purely in-memory cache.
    """

    #: Sentinel: resolve the disk layer from the process-wide
    #: configuration at lookup time (so CLI flags applied after
    #: construction still govern the import-time global cache).
    PROCESS_DISK = object()

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE,
                 disk=PROCESS_DISK) -> None:
        self.maxsize = maxsize
        self.stats = CacheStatsSet()
        self._disk = disk
        # key -> ("ok", Program) | ("error", CSyntaxError | CTypeError)
        self._compiled: OrderedDict[tuple, tuple[str, object]] = OrderedDict()
        self._parsed: OrderedDict[tuple, object] = OrderedDict()
        # key -> ("ok", CoreProgram) | ("error", ...): elaborated Core,
        # same compile identity as the compiled layer.
        self._core: OrderedDict[tuple, tuple[str, object]] = OrderedDict()
        # key -> ("ok", CompiledProgram) | ("error", ...): the
        # direct-threaded closure tables (process-local; see module
        # docstring).
        self._threaded: OrderedDict[tuple, tuple[str, object]] = \
            OrderedDict()

    @staticmethod
    def key_for(impl, source: str) -> tuple:
        """The compile identity of ``source`` under ``impl``: every
        configuration axis the compile pipeline reads
        (:data:`repro.impls.config.COMPILE_AXES`), and none of the
        run axes the memory model applies (mode, address map,
        revocation, allocator policy, sub-object bounds, semantics
        options) -- one compiled program serves every run
        configuration of an (arch, opt level)."""
        return (source, impl.arch.name, impl.opt_level)

    def active_disk(self) -> DiskCache | None:
        if self._disk is CompileCache.PROCESS_DISK:
            return _process_disk()
        return self._disk

    def entry_counts(self) -> dict[str, int]:
        """In-memory entries per layer."""
        return {"parse": len(self._parsed),
                "compiled": len(self._compiled),
                "core": len(self._core),
                "threaded": len(self._threaded)}

    def __len__(self) -> int:
        """Total in-memory entries across every layer."""
        return sum(self.entry_counts().values())

    def clear(self) -> None:
        """Drop the in-memory layers and reset stats.  The disk layer
        is shared across processes and deliberately survives -- remove
        its directory to clear it."""
        self._compiled.clear()
        self._parsed.clear()
        self._core.clear()
        self._threaded.clear()
        self.stats = CacheStatsSet()

    def compile(self, impl, source: str):
        """Parse + optimise ``source`` for ``impl``, reusing any cached
        artefact.  Raises :class:`CSyntaxError`/:class:`CTypeError`
        exactly like the uncached frontend."""
        key = self.key_for(impl, source)
        entry = self._compiled.get(key)
        if entry is not None:
            self._compiled.move_to_end(key)
            self.stats.compiled.hits += 1
            tag, payload = entry
            if tag == "error":
                raise payload
            return payload
        self.stats.compiled.misses += 1
        try:
            program = self._parse(impl, source)
            program = optimize_program(program, impl.layout, impl.opt_level)
        except (CSyntaxError, CTypeError) as exc:
            self._store(key, ("error", exc))
            raise
        self._store(key, ("ok", program))
        return program

    def _parse(self, impl, source: str):
        pkey = (source, impl.arch.name)
        program = self._parsed.get(pkey)
        if program is not None:
            self._parsed.move_to_end(pkey)
            self.stats.parse.hits += 1
            return program
        self.stats.parse.misses += 1
        program = parse_program(source, impl.layout)
        self._parsed[pkey] = program
        while len(self._parsed) > self.maxsize:
            self._parsed.popitem(last=False)
        return program

    def core(self, impl, source: str):
        """Compile + elaborate ``source`` for ``impl``, reusing any
        cached :class:`~repro.core.coreir.CoreProgram` -- from memory
        first, then from the shared disk layer.  Frontend *and*
        elaboration rejections are cached (in memory only) under the
        same compile key, so an elaboration-rejected program is
        rejected once, not once per implementation sharing the key."""
        key = self.key_for(impl, source)
        entry = self._core.get(key)
        if entry is not None:
            self._core.move_to_end(key)
            self.stats.core.hits += 1
            tag, payload = entry
            if tag == "error":
                raise payload
            return payload
        self.stats.core.misses += 1
        disk = self.active_disk()
        if disk is not None:
            core = disk.load(key)
            if core is not None:
                self.stats.disk.hits += 1
                self._store_core(key, ("ok", core))
                return core
            self.stats.disk.misses += 1
        try:
            program = self.compile(impl, source)
            core = elaborate_program(program)
        except (CSyntaxError, CTypeError) as exc:
            self._store_core(key, ("error", exc))
            raise
        self._store_core(key, ("ok", core))
        if disk is not None:
            disk.store(key, core)
        return core

    def threaded(self, impl, source: str):
        """Compile + elaborate + thread ``source`` for ``impl``,
        reusing any cached :class:`~repro.core.compile.CompiledProgram`.
        Frontend and elaboration rejections are cached under the same
        compile key (the same policy as the other layers)."""
        key = self.key_for(impl, source)
        entry = self._threaded.get(key)
        if entry is not None:
            self._threaded.move_to_end(key)
            self.stats.threaded.hits += 1
            tag, payload = entry
            if tag == "error":
                raise payload
            return payload
        self.stats.threaded.misses += 1
        try:
            core = self.core(impl, source)
        except (CSyntaxError, CTypeError) as exc:
            self._threaded[key] = ("error", exc)
            while len(self._threaded) > self.maxsize:
                self._threaded.popitem(last=False)
            raise
        compiled = compile_threaded_ir(core)
        self._threaded[key] = ("ok", compiled)
        while len(self._threaded) > self.maxsize:
            self._threaded.popitem(last=False)
        return compiled

    def _store(self, key: tuple, entry: tuple[str, object]) -> None:
        self._compiled[key] = entry
        while len(self._compiled) > self.maxsize:
            self._compiled.popitem(last=False)

    def _store_core(self, key: tuple, entry: tuple[str, object]) -> None:
        self._core[key] = entry
        while len(self._core) > self.maxsize:
            self._core.popitem(last=False)


_GLOBAL_CACHE = CompileCache()
_ENABLED = True

#: Process-wide disk-layer configuration (the CLI's ``--cache-dir`` /
#: ``--no-disk-cache``).  ``None`` directory = the default location.
_DISK_ENABLED = True
_DISK_DIR: str | None = None
_DISK_INSTANCE: DiskCache | None = None


def global_cache() -> CompileCache:
    """The process-wide cache used by :meth:`Implementation.run`."""
    return _GLOBAL_CACHE


def set_cache_enabled(enabled: bool) -> None:
    """Process-wide switch (the CLI's ``--no-compile-cache``)."""
    global _ENABLED
    _ENABLED = enabled


def cache_enabled() -> bool:
    return _ENABLED


def configure_disk_cache(enabled: bool | None = None,
                         directory: str | None = None) -> None:
    """Configure the process-wide disk layer.

    ``enabled=False`` turns it off entirely; ``directory=None`` keeps
    the default (``~/.cache/repro``-style, see
    :func:`repro.perf.disk.default_cache_dir`).  Worker processes
    receive this configuration through the pool initializer so parent
    and workers always share one directory.
    """
    global _DISK_ENABLED, _DISK_DIR, _DISK_INSTANCE
    if enabled is not None:
        _DISK_ENABLED = enabled
    _DISK_DIR = directory
    _DISK_INSTANCE = None


def disk_cache_config() -> tuple[bool, str | None]:
    """The (enabled, directory) snapshot shipped to pool workers."""
    return (_DISK_ENABLED, _DISK_DIR)


def apply_worker_config(config: tuple[bool, str | None]) -> None:
    """Install a parent's engine configuration in a pool worker."""
    enabled, directory = config
    configure_disk_cache(enabled=enabled, directory=directory)


def _process_disk() -> DiskCache | None:
    """The configured process-wide :class:`DiskCache` (lazy; ``None``
    when disabled)."""
    global _DISK_INSTANCE
    if not _DISK_ENABLED:
        return None
    if _DISK_INSTANCE is None:
        directory = _DISK_DIR if _DISK_DIR is not None \
            else default_cache_dir()
        _DISK_INSTANCE = DiskCache(directory)
    return _DISK_INSTANCE


def clear_cache() -> None:
    _GLOBAL_CACHE.clear()


def compile_program(impl, source: str, use_cache: bool | None = None):
    """Compile ``source`` for ``impl``; ``use_cache=None`` defers to the
    process-wide switch.  Uncached compiles bypass the cache entirely
    (no lookups, no stats)."""
    if use_cache is None:
        use_cache = _ENABLED
    if not use_cache:
        program = parse_program(source, impl.layout)
        return optimize_program(program, impl.layout, impl.opt_level)
    return _GLOBAL_CACHE.compile(impl, source)


def compile_core(impl, source: str, use_cache: bool | None = None):
    """Compile + elaborate ``source`` for ``impl`` into a
    :class:`~repro.core.coreir.CoreProgram`; ``use_cache=None`` defers
    to the process-wide switch."""
    if use_cache is None:
        use_cache = _ENABLED
    if not use_cache:
        program = parse_program(source, impl.layout)
        program = optimize_program(program, impl.layout, impl.opt_level)
        return elaborate_program(program)
    return _GLOBAL_CACHE.core(impl, source)


def compile_threaded(impl, source: str, use_cache: bool | None = None):
    """Compile + elaborate + direct-thread ``source`` for ``impl`` into
    a :class:`~repro.core.compile.CompiledProgram`; ``use_cache=None``
    defers to the process-wide switch.  An uncached compile bypasses
    every layer (no lookups, no stats, no shared run memo)."""
    if use_cache is None:
        use_cache = _ENABLED
    if not use_cache:
        program = parse_program(source, impl.layout)
        program = optimize_program(program, impl.layout, impl.opt_level)
        return compile_threaded_ir(elaborate_program(program))
    return _GLOBAL_CACHE.threaded(impl, source)
