"""The data-side memory hierarchy: per-CU L1s → shared L2 → DRAM.

Modern GPUs use physically-tagged caches, so a data access can only start
after its address translation completes — this module is therefore always
invoked with *physical* addresses, downstream of the MMU.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import LINE_SIZE, SystemConfig
from repro.engine.simulator import Simulator
from repro.memory.cache import SetAssociativeCache
from repro.memory.controller import SOURCE_WALK, QueuedMemoryController
from repro.memory.dram import DRAM


class MemorySubsystem:
    """Glues caches and DRAM together behind two entry points.

    ``data_access``
        A coalesced lane access from a CU: L1 → L2 → DRAM.

    ``page_table_read``
        A page-table read from an IOMMU walker.  Walkers sit in the CPU
        complex and read the page table from DRAM directly (they have the
        PWCs instead of a slice of the data-cache hierarchy), so this
        bypasses the GPU caches.

    Both take a completion target — a ``(kind, *payload)`` event tuple —
    that fires as an event when the data returns.
    """

    def __init__(
        self,
        simulator: Simulator,
        config: SystemConfig,
        injector=None,
        tracer=None,
    ) -> None:
        self._sim = simulator
        self._config = config
        #: Optional fault injector; supplies DRAM latency spikes.
        self._injector = injector
        padding = injector.dram_padding if injector is not None else None
        self.l1_caches: List[SetAssociativeCache] = [
            SetAssociativeCache(config.l1_cache, name=f"l1d[{cu}]")
            for cu in range(config.gpu.num_cus)
        ]
        self.l2_cache = SetAssociativeCache(config.l2_cache, name="l2d")
        if config.dram.controller == "reservation":
            self.dram: Optional[DRAM] = DRAM(config.dram)
            self.controller: Optional[QueuedMemoryController] = None
            self.dram.tracer = tracer
        else:
            self.dram = None
            self.controller = QueuedMemoryController(
                simulator,
                config.dram,
                policy=config.dram.controller,
                latency_padding=padding,
            )
            self.controller.tracer = tracer
        self.data_accesses = 0
        self.page_table_reads = 0
        #: Always-on stage accounting for page-table reads (reservation
        #: model only; the queued controller resolves asynchronously and
        #: leaves these at zero).  ``pt_read_cycles`` is issue → padded
        #: completion, of which ``pt_queue_cycles`` were spent waiting
        #: on a busy bank and ``pt_pad_cycles`` were fault-injected
        #: padding — the remainder is row access.  These feed the
        #: ``walk.stage.*`` metrics counters so blame summaries exist
        #: even when tracing is off.
        self.pt_read_cycles = 0
        self.pt_queue_cycles = 0
        self.pt_pad_cycles = 0
        simulator.register("mem.ctrl_read", self._controller_read)
        simulator.register_batch("mem.ctrl_read", self._controller_read_batch)

    def _controller_read(
        self, physical_address: int, on_complete: tuple
    ) -> None:
        self.controller.read(physical_address, on_complete)

    def _controller_read_batch(self, payloads) -> None:
        read = self.controller.read
        for physical_address, on_complete in payloads:
            read(physical_address, on_complete)

    def data_access(
        self, cu_id: int, physical_address: int, on_complete: tuple
    ) -> None:
        """Issue one coalesced data access; the ``on_complete`` target
        fires when the data returns."""
        self.data_accesses += 1
        line = physical_address // LINE_SIZE
        l1 = self.l1_caches[cu_id]
        if l1.access(line):
            self._sim.post(self._config.l1_cache.hit_latency, *on_complete)
            return
        l2_latency = self._config.l1_cache.hit_latency + self._config.l2_cache.hit_latency
        if self.l2_cache.access(line):
            l1.fill(line)
            self._sim.post(l2_latency, *on_complete)
            return
        self.l2_cache.fill(line)
        l1.fill(line)
        if self.dram is not None:
            start = self._sim._now + l2_latency
            done = self.dram.access(physical_address, start)
            if self._injector is not None:
                done += self._injector.dram_padding(start)
            self._sim.post_at(done, *on_complete)
        else:
            assert self.controller is not None
            self._sim.post(
                l2_latency, "mem.ctrl_read", physical_address, on_complete
            )

    def page_table_read(
        self, physical_address: int, on_complete: tuple
    ) -> None:
        """One sequential page-table read; ``on_complete`` fires when done.

        Walkers chain these: the next level's read is issued only from
        the previous one's completion event.
        """
        self.page_table_reads += 1
        if self.dram is not None:
            now = self._sim._now
            queue_before = self.dram.total_queue_delay
            done = self.dram.access(physical_address, now)
            self.pt_queue_cycles += self.dram.total_queue_delay - queue_before
            if self._injector is not None:
                pad = self._injector.dram_padding(now)
                if pad:
                    done += pad
                    self.pt_pad_cycles += pad
            self.pt_read_cycles += done - now
            self._sim.post_at(done, *on_complete)
        else:
            assert self.controller is not None
            # Tagged so the SMS batch former can QoS-prioritise walk
            # traffic; the other policies ignore the tag.
            self.controller.read(
                physical_address, on_complete, source=SOURCE_WALK
            )

    def stats(self) -> Dict[str, object]:
        dram_stats = (
            self.dram.stats() if self.dram is not None else self.controller.stats()
        )
        return {
            "data_accesses": self.data_accesses,
            "page_table_reads": self.page_table_reads,
            "l1_hit_rate": (
                sum(c.hits for c in self.l1_caches)
                / max(1, sum(c.accesses for c in self.l1_caches))
            ),
            "l2": self.l2_cache.stats(),
            "dram": dram_stats,
        }
