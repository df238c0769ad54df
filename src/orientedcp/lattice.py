"""Finite boxes of the oriented lattice and their neighbourhood structure.

The ambient graph is Z^d with one directed edge x -> x + e_i per coordinate
direction, so edges always increase the coordinate sum.  Computations run on
the finite box {0, ..., side}^d anchored at the origin corner; edges that
would leave the box are dropped (absorbing boundary).  Vertices are indexed
row-major (last axis fastest), matching a C-order reshape of the box grid.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError

# Hard cap on addressable vertices; a float64 field at this size is ~0.5 GB.
MAX_VERTICES = 1 << 26


@dataclass(frozen=True)
class BoxSpec:
    """Axis-aligned truncation {0, ..., side}^d of the oriented lattice."""

    d: int
    side: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.side < 1:
            raise ValueError(f"side must be >= 1, got {self.side}")
        # (side + 1)^d >= 2^d, so a d past the cap's bit length is refused
        # before the exact power, which for a huge d would never finish
        if self.d >= MAX_VERTICES.bit_length() or self.n_vertices > MAX_VERTICES:
            raise ResourceLimitError(
                f"box ({self.side + 1})^{self.d} exceeds the limit of "
                f"{MAX_VERTICES} vertices"
            )

    @property
    def n_vertices(self) -> int:
        return (self.side + 1) ** self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.side + 1,) * self.d

    @property
    def origin(self) -> tuple[int, ...]:
        return (0,) * self.d

    @property
    def apex(self) -> tuple[int, ...]:
        """Top corner (side, ..., side).

        The apex is the one vertex whose full depth-``side`` in-cone lies
        inside the box, so it stands in for the origin of the infinite
        lattice whenever a statistic looks backwards along edges.
        """
        return (self.side,) * self.d


def in_box(box: BoxSpec, x) -> bool:
    return len(x) == box.d and all(0 <= c <= box.side for c in x)


def vertex_index(box: BoxSpec, x) -> int:
    """Row-major index of vertex tuple ``x``."""
    if not in_box(box, x):
        raise ValueError(f"{x!r} outside {box}")
    idx = 0
    for c in x:
        idx = idx * (box.side + 1) + int(c)
    return idx


def site_index(box: BoxSpec, x) -> int:
    """Index of a site given as a vertex tuple or as an index.

    Both forms are range-checked, so a negative or too-large index raises
    ``ValueError`` instead of wrapping around or failing on lookup.
    """
    if isinstance(x, (int, np.integer)):
        if not 0 <= x < box.n_vertices:
            raise ValueError(f"index {x} outside box with {box.n_vertices} vertices")
        return int(x)
    return vertex_index(box, x)


def _neighbor_indices(box: BoxSpec, step: int) -> np.ndarray:
    """(V, d) int32 array; entry [x, i] is the index of x + step * e_i or -1."""
    arr = np.arange(box.n_vertices, dtype=np.int32).reshape(box.shape)
    out = np.full((box.n_vertices, box.d), -1, dtype=np.int32)
    grid = out.reshape(box.shape + (box.d,))
    low, high = slice(None, -1), slice(1, None)
    src_i, dst_i = (low, high) if step > 0 else (high, low)
    for i in range(box.d):
        src = [slice(None)] * box.d
        dst = [slice(None)] * box.d
        src[i], dst[i] = src_i, dst_i
        grid[tuple(src) + (i,)] = arr[tuple(dst)]
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=64)
def out_neighbor_indices(box: BoxSpec) -> np.ndarray:
    """(V, d) int32 array; entry [x, i] is the index of x + e_i or -1."""
    return _neighbor_indices(box, 1)


@functools.lru_cache(maxsize=64)
def in_neighbor_indices(box: BoxSpec) -> np.ndarray:
    """(V, d) int32 array; entry [x, i] is the index of x - e_i or -1."""
    return _neighbor_indices(box, -1)


_LIST_BLOCK = 4096  # rows converted per .tolist(), bounding the temporary


def _rows_as_tuples(idx: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Each row of a neighbour-index array as a tuple, -1 entries dropped."""
    blocks = (idx[b:b + _LIST_BLOCK].tolist() for b in range(0, len(idx), _LIST_BLOCK))
    return tuple(tuple(r) if -1 not in r else tuple(j for j in r if j >= 0)
                 for r in itertools.chain.from_iterable(blocks))


@functools.lru_cache(maxsize=64)
def out_neighbor_lists(box: BoxSpec) -> tuple[tuple[int, ...], ...]:
    """Out-neighbour indices as nested tuples, convenient for event loops."""
    return _rows_as_tuples(out_neighbor_indices(box))


@functools.lru_cache(maxsize=64)
def in_neighbor_lists(box: BoxSpec) -> tuple[tuple[int, ...], ...]:
    return _rows_as_tuples(in_neighbor_indices(box))


@functools.lru_cache(maxsize=64)
def edge_table(box: BoxSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All in-box directed edges as (src, dst, axis) index arrays.

    Order is fixed: source vertex major, axis minor.  Everything that
    samples one random stream per edge iterates in this order.
    """
    nb = out_neighbor_indices(box)
    mask = nb.ravel() >= 0
    src = np.repeat(np.arange(box.n_vertices, dtype=np.int32), box.d)[mask]
    dst = nb.ravel()[mask]
    axis = np.tile(np.arange(box.d, dtype=np.int32), box.n_vertices)[mask]
    for a in (src, dst, axis):
        a.setflags(write=False)
    return src, dst, axis
