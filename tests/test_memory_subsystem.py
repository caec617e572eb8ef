"""Unit tests for the L1 → L2 → DRAM data path."""

import dataclasses

from repro.engine.simulator import Simulator
from repro.memory.subsystem import MemorySubsystem
from tests.conftest import tiny_config


def make_subsystem(config=None):
    sim = Simulator()
    sim.register("ignore", lambda *lines: None)
    return sim, MemorySubsystem(sim, config or tiny_config())


def completion_log(sim):
    """Registers a ``"done"`` kind; returns the list it logs
    ``(now, lines)`` into."""
    log = []
    sim.register("done", lambda lines: log.append((sim.now, lines)))
    return log


def completion_times(sim):
    """Registers a ``"done"`` kind; returns the list it logs ``now`` into."""
    done_at = []
    sim.register("done", lambda *lines: done_at.append(sim.now))
    return done_at


def run_access(sim, memory, cu, address):
    done_at = completion_times(sim)
    memory.data_access(cu, [address], ("done",))
    sim.run()
    return done_at[0]

def test_cold_access_goes_to_dram():
    sim, memory = make_subsystem()
    latency = run_access(sim, memory, 0, 0x1000)
    # Must include both cache lookup latencies plus a DRAM row activate.
    config = tiny_config()
    floor = config.l1_cache.hit_latency + config.l2_cache.hit_latency
    assert latency > floor


def test_l1_hit_after_fill():
    sim, memory = make_subsystem()
    run_access(sim, memory, 0, 0x1000)
    start = sim.now
    latency = run_access(sim, memory, 0, 0x1000) - start
    assert latency == tiny_config().l1_cache.hit_latency


def test_l2_hit_for_other_cu():
    sim, memory = make_subsystem()
    run_access(sim, memory, 0, 0x1000)  # fills shared L2 (and CU0's L1)
    start = sim.now
    config = tiny_config()
    latency = run_access(sim, memory, 1, 0x1000) - start
    assert latency == config.l1_cache.hit_latency + config.l2_cache.hit_latency


def test_l1_caches_are_private():
    sim, memory = make_subsystem()
    run_access(sim, memory, 0, 0x1000)
    line = 0x1000 // 64
    assert memory.l1_caches[0].contains(line) is True
    assert memory.l1_caches[1].contains(line) is False


def test_page_table_read_completes_later():
    sim, memory = make_subsystem()
    done_at = completion_times(sim)
    memory.page_table_read(0x2000, ("done",))
    start = sim.now
    sim.run()
    assert done_at and done_at[0] > start
    assert memory.page_table_reads == 1


def test_page_table_reads_bypass_caches():
    sim, memory = make_subsystem()
    memory.page_table_read(0x2000, ("ignore",))
    memory.page_table_read(0x2000, ("ignore",))
    sim.run()
    assert memory.l2_cache.accesses == 0
    assert memory.dram.accesses == 2


def test_stats_shape():
    sim, memory = make_subsystem()
    run_access(sim, memory, 0, 0x40)
    stats = memory.stats()
    assert stats["data_accesses"] == 1
    assert "dram" in stats and "l2" in stats


def _mixed_unit(config, cold_only=False):
    """Warm CU 0's L1 with two lines, then issue a unit of those two
    lines around one cold line (or the cold line alone)."""
    sim, memory = make_subsystem(config)
    warm = [0x1000, 0x1040]
    memory.data_access(0, warm, ("ignore",))
    sim.run()
    log = completion_log(sim)
    start = sim.now
    unit = [0x9000] if cold_only else warm[:1] + [0x9000] + warm[1:]
    memory.data_access(0, unit, ("done",))
    sim.run()
    return start, log, memory


def _frfcfs_config():
    config = tiny_config()
    return dataclasses.replace(
        config, dram=dataclasses.replace(config.dram, controller="frfcfs")
    )


def test_reservation_unit_fires_once_at_the_latest_line():
    config = tiny_config()
    start, log, memory = _mixed_unit(config)
    _, miss_log, _ = _mixed_unit(config, cold_only=True)
    # One completion, at the DRAM miss's cycle, covering all three lines.
    assert log == [(miss_log[0][0], 3)]
    assert log[0][0] > start + config.l1_cache.hit_latency + config.l2_cache.hit_latency
    assert memory.data_accesses == 5


def test_queued_controller_unit_fires_once_per_line():
    config = _frfcfs_config()
    start, log, memory = _mixed_unit(config)
    hit = start + config.l1_cache.hit_latency
    # The two L1 hits complete first, then the miss; one line each.
    assert [lines for _, lines in log] == [1, 1, 1]
    assert [done for done, _ in log[:2]] == [hit, hit]
    assert log[2][0] > hit
    assert memory.data_accesses == 5
