"""Window geometry of the sliding-window layers, and the allocator setting
their temporaries need.

A :class:`WindowSpec` is a window's size (k1 x k2) and stride (s1 x s2), and
:func:`output_size` counts its complete placements along each axis.  There is
no padding: trailing rows and columns that fit no complete window are dropped.
Window (i, j), counted from 0, covers rows s1*i .. s1*i + k1 - 1 and columns
s2*j .. s2*j + k2 - 1 of its input, its entries in row-major order;
:func:`poolbench.layers.window_views` reads every window that way.

A pooling block's temporaries are hundreds of KiB; :func:`keep_freed_memory`
keeps them in the heap, so that no call faults their pages in anew.
"""

from __future__ import annotations

import ctypes
import platform
from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = ["ShapeError", "WindowSpec", "output_size", "keep_freed_memory"]


class ShapeError(ValueError):
    """A tensor's dimensions are incompatible with the requested operation."""


@dataclass(frozen=True)
class WindowSpec:
    """Window size (k1 x k2) and stride (s1 x s2) of a sliding-window op."""

    k1: int
    k2: int
    s1: int
    s2: int

    def __post_init__(self):
        for name in ("k1", "k2", "s1", "s2"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ShapeError(f"{name} must be a positive integer, got {value!r}")

    @property
    def n(self) -> int:
        """Number of entries in one window."""
        return self.k1 * self.k2


def output_size(h: int, w: int, spec: WindowSpec) -> tuple[int, int]:
    """Window placements per axis: (floor((H-k1)/s1)+1, floor((W-k2)/s2)+1).

    Trailing rows/columns that do not fit a complete window are dropped;
    there is no padding mode.
    """
    if h < spec.k1:
        raise ShapeError(f"height {h} is smaller than window height k1={spec.k1}")
    if w < spec.k2:
        raise ShapeError(f"width {w} is smaller than window width k2={spec.k2}")
    return (h - spec.k1) // spec.s1 + 1, (w - spec.k2) // spec.s2 + 1


@cache
def keep_freed_memory() -> None:
    """Ask glibc, once per process, to keep freed memory: blocks under 64 MiB come
    from the heap, and its top is trimmed only past 256 MiB free.  A stacked
    block's temporaries (hundreds of KiB each) otherwise cross glibc's mmap and
    trim thresholds, and every call would fault their pages in anew.  Other
    C libraries are left as they are."""
    if platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
        mallopt(-3, 64 << 20)  # M_MMAP_THRESHOLD
