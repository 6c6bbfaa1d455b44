"""Window geometry of the sliding-window layers, and the allocator setting
their temporaries need.

A :class:`WindowSpec` is a window's size (k1 x k2) and stride (s1 x s2), and
:func:`output_size` counts its complete placements along each axis.  There is
no padding: trailing rows and columns that fit no complete window are dropped.
Window (i, j), counted from 0, covers rows s1*i .. s1*i + k1 - 1 and columns
s2*j .. s2*j + k2 - 1 of its input, its entries in row-major order.
:func:`window_view` reads every window that way, and :func:`scatter_windows`
is its adjoint.

A pooling block's temporaries are hundreds of KiB; :func:`keep_freed_memory`
keeps them in the heap, so that no call faults their pages in anew.
"""

from __future__ import annotations

import ctypes
import platform
from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = ["ShapeError", "WindowSpec", "output_size", "window_view", "scatter_windows", "keep_freed_memory"]


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


def window_view(x: np.ndarray, spec: WindowSpec, axis: int = 0) -> np.ndarray:
    """The windows of an (H, W, ...) array as one (k1, k2, H', W', ...) view; with
    ``axis`` = a, of an (..., H, W, ...) array whose H is axis a, as a
    (k1, k2, ..., H', W', ...) view.

    Entry (u, v) of the view is ``x[u::s1, v::s2]`` cut to the H' x W' window
    grid: its (i, j) entry is entry (u, v) of window (i, j).  The view shares
    memory with ``x``; rows and columns that fit no complete window appear in
    none of its entries.  ``x`` must be contiguous: numpy raises ValueError for
    a strided or transposed one.
    """
    shape, strides = x.shape, x.strides
    h_out, w_out = output_size(shape[axis], shape[axis + 1], spec)
    s_h, s_w = strides[axis : axis + 2]
    return np.ndarray(  # not as_strided: 10 times the cost
        (spec.k1, spec.k2, *shape[:axis], h_out, w_out, *shape[axis + 2 :]), x.dtype, x, 0,
        (s_h, s_w, *strides[:axis], spec.s1 * s_h, spec.s2 * s_w, *strides[axis + 2 :]),
    )


def scatter_windows(shape, spec: WindowSpec, parts, axis: int = 0) -> np.ndarray:
    """Adjoint of :func:`window_view`: the array whose view entry (u, v) holds
    parts[u*k2 + v], summed where windows overlap, and 0 where none reaches.
    Disjoint windows (stride = size) with a part per entry take one assignment
    into the view, and only the rows and columns outside every window are
    zeroed; other windows, or fewer parts (nearest-neighbor pooling's one),
    add into zeros view by view."""
    disjoint = (spec.s1, spec.s2) == (spec.k1, spec.k2) and len(parts) == spec.n
    dx = np.empty(shape) if disjoint else np.zeros(shape)
    view = window_view(dx, spec, axis)
    if disjoint:
        lead = (slice(None),) * axis
        h_out, w_out = view.shape[axis + 2 : axis + 4]
        dx[lead + (slice(h_out * spec.k1, None),)] = dx[lead + (slice(None), slice(w_out * spec.k2, None))] = 0.0
        view[...] = np.reshape(parts, view.shape[:2] + np.shape(parts)[1:])
    else:
        for k, part in enumerate(parts):
            view[divmod(k, spec.k2)] += part
    return dx


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
