"""Vectorized struct-of-arrays thermal kernel (paper Eqs. 18/19/20/21).

The scalar helpers in :mod:`repro.core.thermal.profile` evaluate one point
against one source per call, which makes full-chip surface maps and
resistance-matrix assembly O(points x image-sources) Python-level calls.
This module packs a set of :class:`~repro.core.thermal.sources.HeatSource`
objects into a :class:`SourceArray` (contiguous ``ndarray`` per field) and
evaluates the complete Eq. 20/21 recipe — centre cap (Eq. 18), line-source
far field (Eq. 19), buried point-source images and superposition (Eq. 21) —
for every point x source pair in a handful of NumPy broadcasts.

The arithmetic intentionally mirrors the scalar path operation-by-operation
(same association order, same ``1e-15`` across-axis floor, same
``min``/clip combination) so the two agree to round-off; the parity suite
in ``tests/test_thermal_kernel.py`` pins the agreement to <= 1e-10 K.  The
scalar path stays in the tree as the readable reference implementation.

Two layout choices make the numpy plan fast without changing a bit:

* Points are evaluated in cache-sized blocks (:data:`_DEFAULT_CHUNK_ELEMENTS`)
  so every in-place pass over a partition's temporary hits L2.
* The bottom-image ladder under each surface image shares that image's
  ``x``/``y``, so the buried population forms ``dx^2 + dy^2`` once per
  lateral slot and gathers it back per column with ``np.take`` (which
  keeps the C order the row sums fold in).

Each element keeps its operation sequence and each row sum its column
order, so :func:`temperature_rise` is identical for every block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Union

import numpy as np

from ..backend import get_namespace, result_float_dtype, to_numpy
from .sources import HeatSource

#: Floor applied to the across-line distance, matching the scalar
#: :func:`~repro.core.thermal.sources.line_source_temperature` regulariser.
_ACROSS_FLOOR = 1e-15

#: Default cap on point x source elements evaluated per broadcast block.
#: Sized for cache, not just memory: a block's partition temporaries hold
#: about 2^16 float64 values (512 KiB) together, which stays inside a
#: 2 MiB L2, so each of the ten or so in-place passes over them reads from
#: cache instead of streaming a multi-MiB array through memory.  Blocks of
#: a few dozen points still amortise the NumPy dispatch overhead; results
#: do not depend on the block size.
_DEFAULT_CHUNK_ELEMENTS = 2**16

#: Default block cap of :func:`pairwise_rise`.  Its grouped sums are one
#: BLAS matmul per block, and a matmul folds each sum differently for
#: different row counts, so this block size is part of the result (of every
#: resistance matrix, among others) and stays where those were recorded.
_PAIRWISE_CHUNK_ELEMENTS = 2**21


@dataclass(frozen=True)
class SourceArray:
    """A set of rectangular heat sources in struct-of-arrays layout.

    Attributes
    ----------
    x, y:
        Centre coordinates [m], shape ``(M,)``.
    width, length:
        Footprint extents [m] along x and y.
    power:
        Total dissipated power [W]; negative for image sinks.
    depth:
        Depth [m] below the surface; 0 for surface sources.
    """

    x: np.ndarray
    y: np.ndarray
    width: np.ndarray
    length: np.ndarray
    power: np.ndarray
    depth: np.ndarray

    def __post_init__(self) -> None:
        fields = (self.x, self.y, self.width, self.length, self.power, self.depth)
        for field in fields:
            if field.ndim != 1 or field.shape != self.x.shape:
                raise ValueError("all SourceArray fields must be 1-D and equally sized")
        if self.x.shape[0]:
            xp = get_namespace(self.x)
            if not (xp.all(self.width > 0.0) and xp.all(self.length > 0.0)):
                raise ValueError("source dimensions must be positive")
            if not xp.all(self.depth >= 0.0):
                raise ValueError("depth must be non-negative")

    @classmethod
    def from_sources(
        cls, sources: Sequence[HeatSource], xp=np, dtype=None
    ) -> "SourceArray":
        """Pack a sequence of :class:`HeatSource` into contiguous arrays."""
        dtype = xp.float64 if dtype is None else dtype
        return cls(
            x=xp.asarray([s.x for s in sources], dtype=dtype),
            y=xp.asarray([s.y for s in sources], dtype=dtype),
            width=xp.asarray([s.width for s in sources], dtype=dtype),
            length=xp.asarray([s.length for s in sources], dtype=dtype),
            power=xp.asarray([s.power for s in sources], dtype=dtype),
            depth=xp.asarray([s.depth for s in sources], dtype=dtype),
        )

    def __len__(self) -> int:
        return int(self.x.shape[0])

    def to_sources(self) -> List[HeatSource]:
        """Unpack back into scalar :class:`HeatSource` objects."""
        return [
            HeatSource(
                x=float(self.x[i]),
                y=float(self.y[i]),
                width=float(self.width[i]),
                length=float(self.length[i]),
                power=float(self.power[i]),
                depth=float(self.depth[i]),
            )
            for i in range(len(self))
        ]

    def with_powers(self, power: np.ndarray) -> "SourceArray":
        """Copy with the power column replaced (same geometry)."""
        xp = get_namespace(self.x, power)
        power = xp.asarray(power, dtype=self.x.dtype)
        if power.shape != self.x.shape:
            raise ValueError("power must match the source count")
        return replace(self, power=power)

    def total_power(self) -> float:
        """Signed total power [W] over every packed source."""
        return float(get_namespace(self.power).sum(self.power))

    def cast(self, xp=np, dtype=None) -> "SourceArray":
        """Copy with every field converted into namespace ``xp``/``dtype``."""
        dtype = xp.float64 if dtype is None else dtype
        return SourceArray(
            x=xp.asarray(self.x, dtype=dtype),
            y=xp.asarray(self.y, dtype=dtype),
            width=xp.asarray(self.width, dtype=dtype),
            length=xp.asarray(self.length, dtype=dtype),
            power=xp.asarray(self.power, dtype=dtype),
            depth=xp.asarray(self.depth, dtype=dtype),
        )


SourceSetLike = Union[SourceArray, Sequence[HeatSource]]


def _as_source_array(sources: SourceSetLike) -> SourceArray:
    if isinstance(sources, SourceArray):
        return sources
    return SourceArray.from_sources(sources)


class _SurfacePartition:
    """Constants for surface sources whose line source runs along one axis.

    Splitting wide (line along x) and tall (line along y) sources into two
    partitions removes every per-element ``np.where`` from the hot loop:
    each partition evaluates one straight-line formula with in-place ufuncs.
    """

    def __init__(
        self, sources: SourceArray, index: np.ndarray, c1: float, c2: float
    ) -> None:
        self.index = index
        width = sources.width[index]
        length = sources.length[index]
        power = sources.power[index]
        self.x = sources.x[index]
        self.y = sources.y[index]
        self.sign = np.sign(power)
        magnitude = np.abs(power)
        # Eq. 18 centre cap.
        term = width * np.arcsinh(length / width) + length * np.arcsinh(
            width / length
        )
        self.center = magnitude / (c1 * width * length) * term
        # Eq. 19 line source along the longer footprint dimension.
        extent = np.maximum(width, length)
        self.half = 0.5 * extent
        self.far_coefficient = magnitude / (c2 * extent)

    def rises(self, along_delta: np.ndarray, across_delta: np.ndarray) -> np.ndarray:
        """Eq. 20 rises given point-source deltas along/across the line.

        Both inputs are freshly allocated ``(n, m)`` arrays and are consumed
        as scratch space.
        """
        across = np.abs(across_delta, out=across_delta)
        np.maximum(across, _ACROSS_FLOOR, out=across)
        upper = along_delta + self.half
        upper /= across
        np.arcsinh(upper, out=upper)
        lower = along_delta
        lower -= self.half
        lower /= across
        np.arcsinh(lower, out=lower)
        far = upper
        far -= lower
        far *= self.far_coefficient
        # Underflow of the far field extremely far out clips to zero, then
        # Eq. 20 takes the smaller magnitude and restores the sign.
        np.maximum(far, 0.0, out=far)
        np.minimum(far, self.center, out=far)
        far *= self.sign
        return far


class _KernelPlan:
    """Per-source constants of the Eq. 20 evaluation, computed once.

    The packed sources split into three populations — surface sources whose
    far-field line runs along x (``width >= length``), surface sources whose
    line runs along y, and buried point-source images — so every broadcast
    block runs exactly the formula branch the scalar
    ``rectangle_temperature`` would take, with no per-element branching.
    """

    def __init__(self, sources: SourceArray, conductivity: float) -> None:
        if conductivity <= 0.0:
            raise ValueError("conductivity must be positive")
        self.count = len(sources)
        self.dtype = sources.x.dtype
        # Match the scalar association order: pi*k and 2.0*pi*k are the
        # exact left-folded prefixes of the scalar denominators.
        c1 = math.pi * conductivity
        c2 = 2.0 * math.pi * conductivity

        surface = sources.depth == 0.0
        wide = surface & (sources.width >= sources.length)
        tall = surface & ~wide
        # (partition, line-along-x) pairs; empty populations are dropped.
        self.partitions = [
            (_SurfacePartition(sources, np.flatnonzero(mask), c1, c2), along_x)
            for mask, along_x in ((wide, True), (tall, False))
            if mask.any()
        ]

        self.buried_index = np.flatnonzero(~surface)
        if self.buried_index.size:
            sub = self.buried_index
            bx = sources.x[sub]
            by = sources.y[sub]
            # The bottom-image ladder under one surface image shares its
            # x/y exactly, so consecutive buried columns at one position
            # share a lateral slot: a new slot starts wherever the
            # position changes.
            starts = np.ones(sub.size, dtype=bool)
            starts[1:] = (bx[1:] != bx[:-1]) | (by[1:] != by[:-1])
            self.slot = np.cumsum(starts) - 1
            self.sx = bx[starts]
            self.sy = by[starts]
            self.bdepth_sq = sources.depth[sub] * sources.depth[sub]
            self.bpower = sources.power[sub]
            self.c2 = c2

    def _buried_rises(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Point-source image rises, ``(n, buried)``; in-place throughout.

        ``dx^2 + dy^2`` is formed once per lateral slot and gathered back
        per column with ``np.take``, whose result is C-ordered like the
        per-column broadcast it replaces (``lat[:, slot]`` is not, and its
        row sums fold in a different order).
        """
        lat = px[:, np.newaxis] - self.sx
        dy = py[:, np.newaxis] - self.sy
        lat *= lat
        dy *= dy
        lat += dy
        r = np.take(lat, self.slot, axis=1)
        r += self.bdepth_sq
        np.sqrt(r, out=r)
        r *= self.c2
        return np.divide(self.bpower, r, out=r)

    def _surface_rises(
        self,
        partition: _SurfacePartition,
        along_x: bool,
        px: np.ndarray,
        py: np.ndarray,
    ) -> np.ndarray:
        dx = px[:, np.newaxis] - partition.x
        dy = py[:, np.newaxis] - partition.y
        if along_x:
            return partition.rises(dx, dy)
        return partition.rises(dy, dx)

    def block(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Per-pair temperature rises, shape ``(len(px), count)``."""
        out = np.zeros((px.size, self.count), dtype=np.result_type(px, self.dtype))
        for partition, along_x in self.partitions:
            out[:, partition.index] = self._surface_rises(partition, along_x, px, py)
        if self.buried_index.size:
            out[:, self.buried_index] = self._buried_rises(px, py)
        return out

    def row_sums(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Eq. 21 superposed rises, shape ``(len(px),)``.

        Sums each partition's contributions directly instead of scattering
        into the full ``(n, count)`` matrix — the hot path for maps.
        """
        total = np.zeros(px.size, dtype=np.result_type(px, self.dtype))
        for partition, along_x in self.partitions:
            total += self._surface_rises(partition, along_x, px, py).sum(axis=1)
        if self.buried_index.size:
            total += self._buried_rises(px, py).sum(axis=1)
        return total


class _GenericPlan:
    """Namespace-generic Eq. 20 evaluation: no partitions, no in-place ops.

    The Array-API counterpart of :class:`_KernelPlan` for namespaces
    without numpy's ``out=`` ufunc protocol (``array_api_strict``, CuPy,
    JAX): every (point, source) lane evaluates all three formula branches
    functionally — in the exact per-element operation order of the
    partitioned in-place chains — and a ``where`` select keeps the branch
    the scalar reference would take, so float64 results agree bit-for-bit
    with the numpy plan.
    """

    def __init__(self, sources: SourceArray, conductivity: float, xp) -> None:
        if conductivity <= 0.0:
            raise ValueError("conductivity must be positive")
        self.xp = xp
        self.count = len(sources)
        self.dtype = sources.x.dtype
        c1 = math.pi * conductivity
        c2 = 2.0 * math.pi * conductivity
        self.c2 = c2
        width = sources.width
        length = sources.length
        power = sources.power
        self.x = sources.x
        self.y = sources.y
        self.surface = sources.depth == 0.0
        self.wide = xp.logical_and(self.surface, width >= length)
        self.sign = xp.sign(power)
        magnitude = xp.abs(power)
        # Eq. 18 centre cap (well-defined for every lane: extents are
        # positive whether the source is surface or buried).
        term = width * xp.asinh(length / width) + length * xp.asinh(width / length)
        self.center = magnitude / (c1 * width * length) * term
        # Eq. 19 line source along the longer footprint dimension.
        extent = xp.maximum(width, length)
        self.half = 0.5 * extent
        self.far_coefficient = magnitude / (c2 * extent)
        self.depth_sq = sources.depth * sources.depth
        self.power = power
        # Regulariser keeping the buried denominator finite on surface
        # lanes (adds exactly 0.0 on buried lanes, whose values survive).
        self.surface_bump = xp.astype(self.surface, self.dtype)
        # Scalar operands of the two-array elementwise functions, packed
        # as 0-d arrays (scalar arguments there are a recent spec addition
        # not every namespace implements yet).
        self.across_floor = xp.asarray(_ACROSS_FLOOR, dtype=self.dtype)
        self.zero = xp.asarray(0.0, dtype=self.dtype)
        # Row sums must accumulate in the numpy plan's partition order
        # (wide, tall, buried) — summing all columns at once folds the
        # reduction differently and drifts by 1 ulp.  Masks are staged on
        # the host; the column indices live in the working namespace.
        depth_host = to_numpy(sources.depth)
        surface_host = depth_host == 0.0
        wide_host = surface_host & (to_numpy(width) >= to_numpy(length))
        tall_host = surface_host & ~wide_host
        self.column_groups = [
            xp.asarray(np.flatnonzero(mask))
            for mask in (wide_host, tall_host, ~surface_host)
            if mask.any()
        ]

    def block(self, px, py):
        """Per-pair temperature rises, shape ``(len(px), count)``."""
        xp = self.xp
        dx = px[:, None] - self.x
        dy = py[:, None] - self.y
        # Surface branch: point-source deltas along/across the Eq. 19 line.
        along = xp.where(self.wide, dx, dy)
        across = xp.abs(xp.where(self.wide, dy, dx))
        across = xp.maximum(across, self.across_floor)
        upper = xp.asinh((along + self.half) / across)
        lower = xp.asinh((along - self.half) / across)
        far = (upper - lower) * self.far_coefficient
        far = xp.maximum(far, self.zero)
        far = xp.minimum(far, self.center)
        far = far * self.sign
        # Buried branch: point-source image distance (same association
        # order as the in-place chain: (dx^2 + dy^2) + depth^2).
        r_sq = (dx * dx + dy * dy) + self.depth_sq + self.surface_bump
        buried = self.power / (xp.sqrt(r_sq) * self.c2)
        return xp.where(self.surface, far, buried)

    def row_sums(self, px, py):
        """Eq. 21 superposed rises, shape ``(len(px),)``.

        Accumulated one column group at a time in the numpy plan's
        partition order so the reduction folds identically.
        """
        xp = self.xp
        block = self.block(px, py)
        total = None
        for columns in self.column_groups:
            group = xp.sum(xp.take(block, columns, axis=1), axis=1)
            total = group if total is None else total + group
        return total


def as_points(points) -> np.ndarray:
    xp = get_namespace(points)
    array = xp.asarray(points, dtype=result_float_dtype(points))
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError("points must have shape (N, 2)")
    return array


def _chunk_size(source_count: int, chunk_elements: int) -> int:
    return max(1, chunk_elements // max(1, source_count))


def temperature_rise(
    points,
    sources: SourceSetLike,
    conductivity: float,
    chunk_elements: int = _DEFAULT_CHUNK_ELEMENTS,
) -> np.ndarray:
    """Superposed temperature rise [K] at every point (Eq. 21), batched.

    Parameters
    ----------
    points:
        Observation points, shape ``(N, 2)`` of ``(x, y)`` [m].
    sources:
        A :class:`SourceArray` or a sequence of :class:`HeatSource`
        (typically the image-expanded set).
    conductivity:
        Substrate thermal conductivity [W/m/K].
    chunk_elements:
        Cap on point x source pairs evaluated per broadcast block; the
        default keeps each block in L2.  Never changes the result.
    """
    pts = as_points(points)
    array = _as_source_array(sources)
    if len(array) == 0:
        raise ValueError("at least one source is required")
    xp = get_namespace(pts, array.x)
    step = _chunk_size(len(array), chunk_elements)
    if xp is np:
        plan = _KernelPlan(array, conductivity)
        out = np.empty(pts.shape[0], dtype=np.result_type(pts, array.x))
        for start in range(0, pts.shape[0], step):
            stop = start + step
            out[start:stop] = plan.row_sums(pts[start:stop, 0], pts[start:stop, 1])
        return out
    generic = _GenericPlan(array, conductivity, xp)
    chunks = [
        generic.row_sums(pts[start : start + step, 0], pts[start : start + step, 1])
        for start in range(0, pts.shape[0], step)
    ]
    return chunks[0] if len(chunks) == 1 else xp.concat(chunks)


def pairwise_rise(
    points,
    sources: SourceSetLike,
    conductivity: float,
    groups: Optional[np.ndarray] = None,
    group_count: Optional[int] = None,
    chunk_elements: int = _PAIRWISE_CHUNK_ELEMENTS,
) -> np.ndarray:
    """Per-source temperature rises [K] at every point, shape ``(N, M)``.

    Entry ``[i, j]`` is the Eq. 20 rise at point ``i`` due to source ``j``
    alone.  When ``groups`` is given (one integer label per source, e.g.
    the originating-source index of each image produced by
    :meth:`~repro.core.thermal.images.ImageExpansion.expand_arrays`), the
    columns are summed per label and the result has shape
    ``(N, group_count)`` — exactly the block-to-block thermal-resistance
    matrix when the points are block centres and each group is one block's
    unit-power image family.  Ungrouped results do not depend on
    ``chunk_elements``; grouped sums do, in the last bits (see
    :data:`_PAIRWISE_CHUNK_ELEMENTS`).
    """
    pts = as_points(points)
    array = _as_source_array(sources)
    if len(array) == 0:
        raise ValueError("at least one source is required")
    xp = get_namespace(pts, array.x)
    dtype = np.result_type(pts, array.x) if xp is np else np.float64
    if groups is not None:
        groups = np.asarray(groups)
        if groups.shape != (len(array),):
            raise ValueError("groups must provide one label per source")
        columns = int(group_count) if group_count is not None else int(groups.max()) + 1
        # The 0/1 scatter is staged on the host; non-numpy namespaces get
        # a converted copy (the gather itself stays a matmul everywhere).
        indicator_host = np.zeros((len(array), columns), dtype=dtype)
        indicator_host[np.arange(len(array)), groups] = 1.0
        indicator = (
            indicator_host
            if xp is np
            else xp.asarray(indicator_host, dtype=array.x.dtype)
        )
    else:
        columns = len(array)
        indicator = None
    step = _chunk_size(len(array), chunk_elements)
    if xp is np:
        plan = _KernelPlan(array, conductivity)
        out = np.empty((pts.shape[0], columns), dtype=dtype)
        for start in range(0, pts.shape[0], step):
            stop = start + step
            block = plan.block(pts[start:stop, 0], pts[start:stop, 1])
            out[start:stop] = block if indicator is None else block @ indicator
        return out
    generic = _GenericPlan(array, conductivity, xp)
    chunks = []
    for start in range(0, pts.shape[0], step):
        stop = start + step
        block = generic.block(pts[start:stop, 0], pts[start:stop, 1])
        chunks.append(block if indicator is None else block @ indicator)
    return chunks[0] if len(chunks) == 1 else xp.concat(chunks, axis=0)


def scalar_reference_rise(
    x: float, y: float, sources: SourceSetLike, conductivity: float
) -> float:
    """Scalar-path rise [K] at one point — the kernel's parity oracle.

    Evaluates the same source set through the original per-source Python
    implementation (:func:`~repro.core.thermal.profile.rectangle_temperature`
    summed left to right), which is what the vectorized kernel must match.
    """
    from .profile import rectangle_temperature

    array = _as_source_array(sources)
    return sum(
        rectangle_temperature(x, y, source, conductivity)
        for source in array.to_sources()
    )
