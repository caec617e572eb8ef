"""Outside-in CPU ledger: host time per simulator layer, from spans.

The ledger wraps the simulator's layer boundaries at class level, from
outside the package (no code under ``src/`` changes):

* every event handler passed to ``Simulator.register`` /
  ``register_batch`` gets a span named by its event kind, and the kind's
  prefix names its layer (:data:`KIND_LAYERS`);
* the public methods of the component classes in :func:`_class_layers`
  get a span each, in their module's layer.

A span's *self* time is its duration minus the durations of the spans
it directly contains.  Self times are aggregated per span name as they
happen rather than kept as a span list: a pass fires millions of spans.
Host time here is wall time from ``time.perf_counter_ns``, the cheapest
clock; a CPU-time clock costs a system call per read.

:meth:`Ledger.install` patches classes for the whole process, so call it
only in a process that runs nothing but traced simulations, and before
``build_system`` (components bind their handlers and methods while they
are constructed).
"""

from __future__ import annotations

import functools
import inspect
import re
import time
from typing import Callable, Dict, List, Tuple

#: Event-kind prefix -> layer.  Kinds matching none belong to the engine.
KIND_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("wf.", "gpu"),
    ("gpu.", "gpu"),
    ("iommu.", "mmu.iommu"),
    ("walker.", "mmu.walker"),
    ("mem.", "memory.subsystem"),
    ("dram.", "memory.controller"),
)

#: Every layer the ledger reports, in pipeline order.  ``engine`` is the
#: event loop itself: run time not covered by any top-level span.
LAYERS: Tuple[str, ...] = (
    "engine",
    "gpu",
    "mmu.tlb",
    "mmu.iommu",
    "core.buffer",
    "core.sched",
    "mmu.pwc",
    "mmu.walker",
    "memory.subsystem",
    "memory.cache",
    "memory.dram",
    "memory.controller",
)


def kind_layer(kind: str) -> str:
    for prefix, layer in KIND_LAYERS:
        if kind.startswith(prefix):
            return layer
    return "engine"


def _class_layers() -> List[Tuple[type, str, Tuple[str, ...]]]:
    """``(class, layer, extra private methods)`` for every wrapped class.

    The extras are private methods that carry traffic across a layer
    boundary: ``MemorySubsystem`` rebinds its public entry points to the
    private implementations in ``__init__``, and the IOMMU hands
    ``_walk_complete`` to each walker as its completion callback.
    """
    from repro.core.aging import AgingPolicy
    from repro.core.buffer import PendingWalkBuffer
    from repro.core.schedulers import WalkScheduler, available_schedulers
    from repro.core.scoring import ScoreIndex, ScoreTable
    from repro.memory.cache import SetAssociativeCache
    from repro.memory.controller import QueuedMemoryController
    from repro.memory.dram import DRAM
    from repro.memory.subsystem import MemorySubsystem
    from repro.mmu.iommu import IOMMU
    from repro.mmu.page_table import PageTable
    from repro.mmu.pwc import PageWalkCache
    from repro.mmu.tlb import TLB
    from repro.mmu.walker import PageTableWalker

    available_schedulers()  # imports the scheduler zoo's subclasses
    schedulers: List[type] = []
    pending = [WalkScheduler]
    while pending:
        cls = pending.pop()
        schedulers.append(cls)
        pending.extend(cls.__subclasses__())
    return [
        (TLB, "mmu.tlb", ()),
        (IOMMU, "mmu.iommu", ("_walk_complete",)),
        (PendingWalkBuffer, "core.buffer", ()),
        *((cls, "core.sched", ()) for cls in schedulers),
        (AgingPolicy, "core.sched", ()),
        (ScoreTable, "core.sched", ()),
        (ScoreIndex, "core.sched", ()),
        (PageWalkCache, "mmu.pwc", ()),
        (PageTableWalker, "mmu.walker", ()),
        (PageTable, "mmu.walker", ()),
        (MemorySubsystem, "memory.subsystem", ("_data_access", "_page_table_read")),
        (SetAssociativeCache, "memory.cache", ()),
        (DRAM, "memory.dram", ()),
        (QueuedMemoryController, "memory.controller", ()),
    ]


class Ledger:
    """Per-span-name call counts and self times over measured runs."""

    def __init__(self) -> None:
        #: Child-time accumulators of the open spans; slot 0 collects the
        #: durations of top-level spans.
        self._stack: List[int] = [0]
        #: span name -> [layer, calls, self_ns], counted while installed.
        self._slots: Dict[str, list] = {}
        #: span name -> [calls, self_ns] inside :meth:`measure` only.
        self.spans: Dict[str, List[int]] = {}
        self.run_ns = 0
        self.top_level_ns = 0

    def _slot(self, layer: str, name: str) -> list:
        slot = self._slots.get(name)
        if slot is None:
            slot = self._slots[name] = [layer, 0, 0]
        return slot

    def _wrap(self, fn: Callable, slot: list) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                slot[1] += 1
                slot[2] += elapsed - stack.pop()
                stack[-1] += elapsed

        return span

    def install(self) -> None:
        from repro.engine.simulator import Simulator

        register = Simulator.register
        register_batch = Simulator.register_batch
        ledger = self

        def kind_name(kind: str) -> str:
            # Walkers register one kind each ("walker.3.step"); merge them.
            return re.sub(r"\.\d+\.", ".*.", kind)

        def traced_register(sim, kind, handler):
            slot = ledger._slot(kind_layer(kind), f"handler {kind_name(kind)}")
            register(sim, kind, ledger._wrap(handler, slot))

        def traced_register_batch(sim, kind, handler):
            slot = ledger._slot(kind_layer(kind), f"batch {kind_name(kind)}")
            register_batch(sim, kind, ledger._wrap(handler, slot))

        Simulator.register = traced_register
        Simulator.register_batch = traced_register_batch
        for cls, layer, extras in _class_layers():
            for name, attr in list(vars(cls).items()):
                public = not name.startswith("_") or name in extras
                if public and inspect.isfunction(attr):
                    slot = self._slot(layer, f"{cls.__name__}.{name}")
                    setattr(cls, name, self._wrap(attr, slot))

    def measure(self, run: Callable[[], object]) -> None:
        """Call ``run`` and add its spans and duration to the totals."""
        before = {name: (slot[1], slot[2]) for name, slot in self._slots.items()}
        top_before = self._stack[0]
        start = time.perf_counter_ns()
        run()
        self.run_ns += time.perf_counter_ns() - start
        self.top_level_ns += self._stack[0] - top_before
        for name, slot in self._slots.items():
            calls, self_ns = before.get(name, (0, 0))
            total = self.spans.setdefault(name, [0, 0])
            total[0] += slot[1] - calls
            total[1] += slot[2] - self_ns

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per layer: span calls and self seconds over the measured runs.

        ``engine`` gets the run time left over after every top-level span,
        so the layers' self times sum to :attr:`run_ns` whenever spans
        nest properly.
        """
        table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, (calls, self_ns) in self.spans.items():
            row = table[self._slots[name][0]]
            row["calls"] += calls
            row["self_s"] += self_ns / 1e9
        table["engine"]["self_s"] += (self.run_ns - self.top_level_ns) / 1e9
        return table
