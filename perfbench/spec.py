"""What the benchmark simulates: its workloads and the fixed run shape.

README.md in this directory says why each workload was chosen.
"""

#: The paper's experiment unit: each pass simulates its workload under
#: the FCFS baseline, then under the SIMT-aware scheduler.
SCHEDULERS = ("fcfs", "simt")

#: Timed set-ups per scheduler in a pass; the last one is simulated.
#: ``setup_s`` is the median over all of a run's set-ups.  A set-up is
#: short (0.03-0.5 s) and its CPU time swings with the host, so the
#: median needs many of them.
SETUPS = 3

#: Wavefronts per simulation: two waves of the Table I GPU's 32 slots.
WAVEFRONTS = 64

#: Benchmark workload -> Table II workload, trace scale and DRAM front
#: end.  ``paper_speedup`` is the paper's SIMT-aware over FCFS figure
#: for that application as EXPERIMENTS.md quotes it, or None.
WORKLOADS = {
    "irregular": {"abbrev": "NW", "scale": 0.5, "dram": "reservation",
                  "paper_speedup": None},
    "regular": {"abbrev": "HOT", "scale": 0.5, "dram": "reservation",
                "paper_speedup": 1.0},
    "queued-dram": {"abbrev": "XSB", "scale": 0.5, "dram": "frfcfs",
                    "paper_speedup": 1.38},
}

#: Default ``--seed``.  NW and HOT generate the same trace for every
#: seed; XSB draws its gathers from it.
DEFAULT_SEED = 1
