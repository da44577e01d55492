"""Execution-engine performance layer: compile caching and fan-out.

The S5 experiment and the fuzz loop both run the *same* program text on
many implementation configurations.  Two facts make that cheap to
exploit:

* compilation (parse + modelled optimisation + elaboration) is a pure
  function of ``(source, arch, opt_level)`` -- the address map,
  execution mode, sub-object bounds and semantics options are applied
  by the memory model at *run* time -- so one compile can serve every
  implementation sharing those axes (:mod:`repro.perf.cache`);
* every run is deterministic and isolated (a fresh
  :class:`~repro.memory.model.MemoryModel` per run), so runs can be
  fanned out across worker processes and stitched back together in
  input order with bit-identical results (:mod:`repro.perf.pool`).

The pool's workers are *persistent and warm* -- one process-wide
executor reused across calls, each worker keeping its own populated
cache -- and the cache's Core layer is backed by a content-addressed
on-disk store (:mod:`repro.perf.disk`) shared across processes and
CLI invocations, so a warm-started run performs zero compiles.

``repro run|suite|compare|fuzz`` expose all of this through ``--jobs
N``, ``--no-compile-cache``, ``--cache-dir DIR``, and
``--no-disk-cache``; ``benchmarks/bench_engine.py`` tracks the
resulting throughput in the ``BENCH_engine.json`` trajectory.
"""

from repro.perf.cache import (
    CacheStats,
    CacheStatsSet,
    CompileCache,
    cache_enabled,
    clear_cache,
    compile_core,
    compile_program,
    compile_threaded,
    configure_disk_cache,
    disk_cache_config,
    global_cache,
    set_cache_enabled,
)
from repro.perf.disk import DiskCache, default_cache_dir
from repro.perf.pool import (
    TaskFailure,
    parallel_map,
    resolve_jobs,
    shutdown_workers,
)

__all__ = [
    "CacheStats",
    "CacheStatsSet",
    "CompileCache",
    "DiskCache",
    "TaskFailure",
    "cache_enabled",
    "clear_cache",
    "compile_core",
    "compile_program",
    "compile_threaded",
    "configure_disk_cache",
    "default_cache_dir",
    "disk_cache_config",
    "global_cache",
    "parallel_map",
    "resolve_jobs",
    "set_cache_enabled",
    "shutdown_workers",
]
