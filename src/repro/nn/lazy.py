"""Compatibility shim: eager autograd is the only execution path.

Lazy recording and fused-kernel realization were removed.  What remains
exists only because the benchmark of record (``perfbench/host.py``) stamps
``lazy_default()`` into its host record; it goes when that benchmark stops
reading it.
"""

from __future__ import annotations

__all__ = ["lazy_default"]


def lazy_default() -> bool:
    """Always ``False``: there is no lazy execution path."""
    return False
