"""Backend selection for the scan kernels.

The compiled backend (built from _speedups.c) is used when built; the
pure-Python one otherwise.  Set GLMN_WEIGHTS_PURE=1 to force the pure
backend (useful for debugging and for benchmarking).

Both backends have the same scans, scan_<check>(M, N, p, lo, hi, *steps,
failure_cap) -> (total, failures).  A compiled scan runs its loop in C,
which gives the total and whether the check failed; the failures of a
failing one are named by the pure scan, the reference, which must give the
same total and at least one failure, else InternalConsistencyError.  C runs
one step rule, fixed at build time, and tests only what that step can get
wrong (the _speedups.c header says what it leaves out, and why); the pure
scans look the step rule up in serganova, test everything and name any
failure.

The compiled scans compute in C long on at most 64 coordinates and enforce
those bounds themselves: each raises OverflowError, before it visits a
weight, on a rank with more coordinates or more than 2080 steps, or a modulus
or box that C long cannot hold.  The pure scans have none of these bounds.
Every other refusal is the pure backend's: the compiled scans read their
arguments through the loaders of _pykernels, imported here first.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

from . import _pykernels as pure
from .core import InternalConsistencyError


def _named_by_pure(fast):
    """The C scan `fast` as a compiled scan: its failures named by pure."""
    name = fast.__name__

    def scan(M, N, p, lo, hi, *args):
        # an iterator of steps is read once by C, so it is read into a tuple
        *steps, failure_cap = (tuple(a) if hasattr(a, "__next__") else a for a in args)
        total, failed = fast(M, N, p, lo, hi, *steps)
        if not failed:
            return total, []
        # looked up per call: substitutes installed by tests still apply
        again, failures = getattr(pure, name)(M, N, p, lo, hi, *steps, failure_cap)
        if again != total or (not failures and failure_cap >= 1):
            raise InternalConsistencyError(
                f"{name}: the compiled scan failed with total {total}, the pure scan "
                f"gave total {again} and {len(failures)} failures"
            )
        return total, failures

    return scan


try:
    from . import _speedups
except ImportError:  # extension not built; pure fallback only
    compiled = None
else:
    compiled = SimpleNamespace(
        name="compiled",
        **{f"scan_{check}": _named_by_pure(getattr(_speedups, f"scan_{check}"))
           for check in ("image", "order", "theorem", "trace")},
    )


def compiled_available() -> bool:
    return compiled is not None


def active_backend():
    if os.environ.get("GLMN_WEIGHTS_PURE", "0") not in ("", "0"):
        return pure
    return compiled if compiled is not None else pure
