"""The compute kernel of the hot analysis passes.

numpy is a declared dependency, so every dependence-depth propagation,
predictor sweep and schedule-accounting pass that has a vectorized body
runs it over the structure-of-arrays trace view
(:mod:`repro.trace.soa`).  The scalar per-instruction loops remain
only where an input needs them (an explicit predictor instance whose
trained state the caller reads, predictors without a sweep, cut
dependence-graph variants) and as named references that
``tests/test_kernel_equivalence.py`` and the speedup gate
(:mod:`repro.bench.trace_core`) compare each kernel against.
"""


def active_kernel():
    """The kernel the passes run: always ``"numpy"`` (recorded in the
    pipeline benchmark's run metadata)."""
    return "numpy"
