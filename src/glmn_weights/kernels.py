"""Backend selection for the scan kernels.

The compiled extension (built from _speedups.c) is used when built; the
pure-Python twin otherwise.  Set GLMN_WEIGHTS_PURE=1 to force the pure
backend (useful for debugging and for benchmarking).

The compiled scans compute in C long on at most 64 coordinates and enforce
those bounds themselves: each raises OverflowError, before it visits a
weight, on a rank with more coordinates or more than 2080 steps, or a modulus
or box that C long cannot hold.  The pure scans have none of these bounds.
"""

from __future__ import annotations

import os

from . import _pykernels as pure

try:
    from . import _speedups as compiled
except ImportError:  # extension not built; pure fallback only
    compiled = None


def compiled_available() -> bool:
    return compiled is not None


def active_backend():
    if os.environ.get("GLMN_WEIGHTS_PURE", "0") not in ("", "0"):
        return pure
    return compiled if compiled is not None else pure
