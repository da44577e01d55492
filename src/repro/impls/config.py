"""One simulated CHERI C implementation = arch + mode + optimiser + allocator."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.capability.abstract import Architecture
from repro.core.compile import CompiledEvaluator, CompiledProgram
from repro.core.compile import compile_core as thread_core
from repro.core.coreeval import CoreEvaluator, resolve_evaluator
from repro.core.coreir import CoreProgram
from repro.ctypes.layout import TargetLayout
from repro.errors import CSyntaxError, CTypeError, Outcome
from repro.memory.allocator import AddressMap
from repro.memory.model import MemoryModel, Mode
from repro.memory.options import PAPER_CHOICES, SemanticsOptions
from repro.perf.cache import compile_core, compile_threaded


#: Axes that determine the *compiled program*: the frontend (type
#: layout), the modelled optimiser, elaboration and threading read
#: exactly these, so they (and only they) belong in compile-cache keys
#: (:func:`repro.perf.cache.CompileCache.key_for`, the disk digest).
COMPILE_AXES = ("arch", "opt_level")

#: Axes that only affect *running* a compiled program -- the
#: :class:`~repro.memory.model.MemoryModel` applies every one of them,
#: including the S3.8 sub-object bounds narrowing and the S3.2
#: semantics options: a compiled program is valid across all of them
#: (compile caches are shared), but the run memo must key on every one
#: of them (:func:`repro.core.compile.run_config_key`).
RUN_AXES = ("mode", "address_map", "revocation", "allocator",
            "subobject_bounds", "options")

#: Axes with no semantic effect (labels for reports).
META_AXES = ("name", "description")


@dataclass(frozen=True)
class Implementation:
    """A runnable CHERI C implementation configuration.

    Attributes:
        name: e.g. ``clang-riscv-O3-bounds-conservative``.
        arch: capability format (Morello-style or CHERIoT-style).
        mode: abstract machine vs hardware execution.
        address_map: where the allocator places stack/heap/globals --
            observable through pointer-to-integer casts (Appendix A).
        opt_level: the modelled -O level.
        subobject_bounds: Clang's sub-object bounds mode (S3.8); the
            default (False) is the paper's "conservative" setting.
        allocator: heap-reuse policy (``bump``/``freelist``/
            ``quarantine``, see :mod:`repro.memory.allocator`) --
            observable through use-after-free aliasing.
        description: one line for reports.
    """

    name: str
    arch: Architecture
    mode: Mode
    address_map: AddressMap
    opt_level: int = 0
    subobject_bounds: bool = False
    options: SemanticsOptions = field(default_factory=lambda: PAPER_CHOICES)
    revocation: bool = False
    allocator: str = "bump"
    description: str = ""

    def fresh_model(self, bus=None, meter=None) -> MemoryModel:
        return MemoryModel(self.arch, self.mode, self.address_map,
                           subobject_bounds=self.subobject_bounds,
                           options=self.options,
                           revocation=self.revocation,
                           allocator=self.allocator,
                           bus=bus, meter=meter)

    @property
    def layout(self) -> TargetLayout:
        return TargetLayout(self.arch)

    def run_compiled(self, program: CoreProgram | CompiledProgram,
                     main: str = "main", *, bus=None, budget=None,
                     faults=None, evaluator: str | None = None) -> Outcome:
        """The run stage: run a compiled program on a fresh model.

        Compiled programs are immutable (Core op lists are only ever
        read), so one cached compile can back any number of concurrent
        runs.  ``program`` is an elaborated
        :class:`~repro.core.coreir.CoreProgram` or a direct-threaded
        :class:`~repro.core.compile.CompiledProgram`; ``evaluator``
        picks the strategy (``None`` = the process default,
        ``compiled``; any name outside
        :data:`~repro.core.coreeval.EVALUATORS` raises
        :class:`ValueError`) -- a Core program is threaded on the fly
        for ``compiled``, and a compiled program runs its retained Core
        under ``core``.  When a :class:`~repro.robust.Budget` (or a
        test-only :class:`~repro.robust.FaultPlan`) is given, the run
        is governed: it always terminates with a structured outcome,
        never a hang or a raw ``RecursionError``/``MemoryError``.
        """
        evaluator = resolve_evaluator(evaluator)
        meter = None
        if budget is not None or faults is not None:
            from repro.robust.budget import BudgetMeter
            meter = BudgetMeter(budget, bus=bus, faults=faults)
        model = self.fresh_model(bus=bus, meter=meter)
        if evaluator == "compiled":
            if not isinstance(program, CompiledProgram):
                program = thread_core(program)
            return CompiledEvaluator(program, model).run(main)
        if isinstance(program, CompiledProgram):
            program = program.core
        return CoreEvaluator(program, model).run(main)

    def run(self, source: str, main: str = "main", *, bus=None,
            use_cache: bool | None = None, budget=None,
            faults=None, evaluator: str | None = None) -> Outcome:
        """Compile (parse + modelled optimisation + elaboration) and
        run one program.

        ``bus`` attaches an :class:`~repro.obs.events.EventBus` for the
        run (``repro trace``, fuzz evidence capture); None = untraced.
        ``evaluator`` selects ``core`` (the iterative Core evaluator)
        or ``compiled`` (the direct-threaded closure backend); ``None``
        defers to the process default.  ``budget``/``faults`` govern
        the run stage (see :meth:`run_compiled`); the compile stage
        additionally honours a fault plan's ``compile_delay`` and
        converts host recursion blow-ups on pathological inputs into
        structured outcomes.
        """
        if faults is not None and faults.compile_delay is not None:
            import time
            time.sleep(faults.compile_delay)
        evaluator = resolve_evaluator(evaluator)
        compile_stage = (compile_threaded if evaluator == "compiled"
                         else compile_core)
        try:
            program = compile_stage(self, source, use_cache=use_cache)
        except (CSyntaxError, CTypeError) as exc:
            return Outcome.frontend_error(str(exc))
        except RecursionError:
            return Outcome.resource_exhausted(
                "python-recursion",
                "host recursion limit while compiling")
        except MemoryError:
            return Outcome.resource_exhausted(
                "python-memory", "host out of memory while compiling")
        return self.run_compiled(program, main, bus=bus, budget=budget,
                                 faults=faults, evaluator=evaluator)
