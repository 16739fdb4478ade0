"""repro — reproduction of "The Performance Potential of Data Dependence
Speculation & Collapsing" (Sazeides, Vassiliadis, Smith; MICRO-29, 1996).

The package is layered bottom-up:

- :mod:`repro.isa`, :mod:`repro.asm`, :mod:`repro.emu` — a SPARC-v8-like
  ISA, assembler and functional emulator (the trace substrate);
- :mod:`repro.trace` — dynamic traces (columnar), I/O, statistics;
- :mod:`repro.bpred`, :mod:`repro.addrpred`, :mod:`repro.vpred` — branch
  prediction, and load prediction over addresses and loaded values;
- :mod:`repro.collapse` — dependence-collapsing rules and statistics;
- :mod:`repro.core` — the windowed timing model (the paper's study);
- :mod:`repro.workloads` — self-validating SPECINT-analog kernels (the
  paper's six plus extras);
- :mod:`repro.metrics`, :mod:`repro.experiments` — aggregation and one
  driver per paper table/figure;
- :mod:`repro.lint` — static dataflow analyzer for the assembly kernels
  and the runtime scheduler sanitizer (see docs/LINT.md).

Quick start::

    from repro import quick_compare
    print(quick_compare("eqntott", width=8, scale=0.2))
"""

from .cache import DiskCache
from .collapse import CollapseRules
from .core import (
    MachineConfig,
    paper_config,
    simulate_many,
    simulate_trace,
)
from .errors import (
    AssemblyError,
    ConfigError,
    EmulationError,
    ReproError,
    TraceFormatError,
)
from .experiments import ExperimentRunner
from .workloads import SUITE, WORKLOADS, cached_trace, get_workload

__version__ = "1.0.0"

__all__ = [
    "CollapseRules",
    "MachineConfig",
    "paper_config", "simulate_many", "simulate_trace",
    "AssemblyError", "ConfigError", "EmulationError", "ReproError",
    "TraceFormatError",
    "DiskCache", "ExperimentRunner",
    "SUITE", "WORKLOADS", "cached_trace", "get_workload",
    "quick_compare",
    "__version__",
]


def quick_compare(workload="eqntott", width=8, scale=0.2):
    """Simulate one workload on every registered configuration; returns
    a small report string.  Convenience for interactive exploration."""
    from .core import config_letters
    trace = cached_trace(workload, scale)
    letters = config_letters()
    configs = [paper_config(letter, width) for letter in letters]
    results = simulate_many(trace, configs)
    base = results[letters.index("A")] if "A" in letters else results[0]
    lines = ["%s @ width %d (%d instructions)"
             % (workload, width, len(trace))]
    for letter, result in zip(letters, results):
        lines.append("  %s: IPC %.2f  speedup %.2f"
                     % (letter, result.ipc, result.speedup_over(base)))
    return "\n".join(lines)
