"""Compute-kernel selection: pure-Python loops vs vectorized numpy.

The reproduction keeps two implementations of its hot analysis passes
(dependence-depth propagation, predictor sweeps, schedule accounting):

- the **python** kernels are the reference semantics — straight
  per-instruction loops that mirror the paper's prose;
- the **numpy** kernels are vectorized rewrites over the structure-of-
  arrays trace view (:mod:`repro.trace.soa`) that produce *byte-identical*
  results (every value returned is converted back to native Python ints
  and bools at the API boundary).

Selection is by the ``REPRO_KERNEL`` environment variable — ``python``,
``numpy``, or ``auto`` (the default: numpy when importable, else
python) — or programmatically via :func:`use_kernel` /
:func:`kernel_override`, which tests use to run both sides of the
equivalence matrix in one process.
"""

import os
from contextlib import contextmanager

from .errors import ConfigError

KERNELS = ("python", "numpy", "auto")

_override = None
_numpy_ok = None


def numpy_available():
    """True when numpy is importable (resolved once per process)."""
    global _numpy_ok
    if _numpy_ok is None:
        try:
            import numpy  # noqa: F401
            _numpy_ok = True
        except ImportError:  # pragma: no cover - numpy is a baked-in dep
            _numpy_ok = False
    return _numpy_ok


def _validate(name):
    if name not in KERNELS:
        raise ConfigError("unknown kernel %r (expected one of %s)"
                          % (name, ", ".join(KERNELS)))
    return name


def active_kernel():
    """The kernel in effect: ``"python"`` or ``"numpy"``.

    Precedence: :func:`use_kernel` override, then ``REPRO_KERNEL``, then
    ``auto`` resolution.
    """
    name = _override
    if name is None:
        name = _validate(os.environ.get("REPRO_KERNEL", "auto"))
    if name == "auto":
        name = "numpy" if numpy_available() else "python"
    if name == "numpy" and not numpy_available():  # pragma: no cover
        raise ConfigError("REPRO_KERNEL=numpy but numpy is not importable")
    return name


def use_numpy():
    """True when vectorized kernels should run."""
    return active_kernel() == "numpy"


def use_kernel(name):
    """Set a process-wide kernel override (``None`` clears it)."""
    global _override
    _override = None if name is None else _validate(name)


@contextmanager
def kernel_override(name):
    """Temporarily force a kernel (used by the equivalence tests)."""
    global _override
    previous = _override
    use_kernel(name)
    try:
        yield
    finally:
        _override = previous
